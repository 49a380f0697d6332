import math

import numpy as np
import pytest
from scipy.integrate import quad

from gup_spectra.algebra import (
    DeformationParams,
    Domain,
    FGHCoefficients,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
    coefficients,
)
from gup_spectra.errors import BranchAmbiguity, NonMonotoneMap, SingularCoefficient
from gup_spectra.liouville import (
    FactorizationAnsatz,
    jacobi_ansatz,
    legendre_ansatz,
    master_residual,
    to_potential,
    v_from_Qw,
)
from gup_spectra.solutions import ansatz_for, default_p0, solve, transformed_potential
from gup_spectra.specfun import JacobiSpec, LegendreSpec, assoc_legendre, jacobi
from references import integrate_adaptive

R = Representation


class TestTransform:
    def test_oscillator_map_and_potential(self):
        params = DeformationParams(tau=0.2)
        fgh = coefficients(HarmonicOscillator(), R.PI1, params)
        tr = to_potential(fgh, 0.0)
        ps = np.linspace(-4, 4, 17)
        expect_q = math.sqrt(2 / 0.2) * np.arctan(math.sqrt(0.2) * ps)
        assert np.max(np.abs(tr.q_of_p(ps) - expect_q)) < 1e-11
        assert np.max(np.abs(tr.chi(ps))) < 1e-12
        qs = np.linspace(-0.9 * tr.q_hi, 0.9 * tr.q_hi, 23)
        expect_v = 2.5 * np.tan(math.sqrt(0.1) * qs) ** 2
        assert np.max(np.abs(tr.V(qs) - expect_v)) < 1e-9

    def test_small_deformation_degenerates_to_harmonic_well(self):
        params = DeformationParams(tau=1e-6)
        fgh = coefficients(HarmonicOscillator(), R.PI1, params)
        tr = to_potential(fgh, 0.0)
        qs = np.linspace(-2.0, 2.0, 11)
        assert np.max(np.abs(tr.V(qs) - qs ** 2 / 4.0)) < 1e-5

    def test_swanson_pi3_linear_map(self):
        params = DeformationParams(tau=0.25)
        model = Swanson(0.1, 0.2)
        fgh = coefficients(model, R.PI3, params)
        tr = to_potential(fgh, 0.0)
        big = model.omega_shift(params)
        ps = np.linspace(-1.2, 1.2, 9)
        assert np.max(np.abs(tr.q_of_p(ps) - math.sqrt(2 / big) * ps)) < 1e-11

    @pytest.mark.parametrize("model,rep", [
        (HarmonicOscillator(), R.PI1), (HarmonicOscillator(), R.PI3),
        (HarmonicOscillator(), R.PI4),
        (Swanson(0.1, 0.2), R.PI1), (Swanson(0.1, 0.2), R.PI4),
        (PoschlTeller(1.0, 0.5), R.PI1), (PoschlTeller(1.0, 0.5), R.PI3),
    ])
    def test_round_trip(self, model, rep):
        params = DeformationParams(tau=0.25)
        fgh = coefficients(model, rep, params)
        tr = to_potential(fgh, default_p0(model, rep, params))
        dom = fgh.domain
        lo = dom.lo if math.isfinite(dom.lo) else -6.0
        hi = dom.hi if math.isfinite(dom.hi) else 6.0
        if isinstance(model, PoschlTeller):
            lo = max(lo, 0.05)
        span = hi - lo
        ps = np.linspace(lo + 0.05 * span, hi - 0.05 * span, 31)
        back = tr.p_of_q(tr.q_of_p(ps))
        assert np.max(np.abs(back - ps)) < 1e-10

    @pytest.mark.parametrize("tau", [1e-4, 1e-3, 1e-2, 0.25, 5.0, 50.0])
    def test_oscillator_over_tau_range(self, tau):
        params = DeformationParams(tau=tau)
        sol = solve(HarmonicOscillator(), R.PI1, params)
        tr = to_potential(coefficients(HarmonicOscillator(), R.PI1, params), 0.0)
        stc = math.sqrt(params.tau_check)
        ps = np.linspace(-4.0, 4.0, 17) / stc
        expect_q = math.sqrt(2.0) / stc * np.arctan(stc * ps)
        assert np.max(np.abs(tr.q_of_p(ps) - expect_q)) < 1e-11
        assert np.max(np.abs(tr.p_of_q(tr.q_of_p(ps)) - ps)) <= 1e-10
        # out to 0.9 of each end, beyond the reach of a table truncated in p
        qs = np.concatenate([np.linspace(0.1, 0.9, 41) * tr.q_lo,
                             np.linspace(0.1, 0.9, 41) * tr.q_hi])
        vmax = float(np.max(np.abs(tr.V(qs))))
        for n in (0, 1):
            energy = float(sol.energy(n))
            res = master_residual(ansatz_for(sol, n, coordinates="centered"), tr,
                                  energy, qs)
            assert res <= 1e-8 * max(1.0, abs(energy) + vmax)

    @pytest.mark.parametrize("model,rep", [
        (Swanson(0.1, 0.2), R.PI1), (Swanson(0.1, 0.2), R.PI3),
        (Swanson(0.1, 0.2), R.PI4), (PoschlTeller(1.0, 0.5), R.PI1),
        (PoschlTeller(1.0, 0.5), R.PI4),
    ])
    def test_matches_scalar_quadrature(self, model, rep):
        # reference: adaptive scalar quadrature of q' and chi', point by point
        params = DeformationParams(tau=0.25)
        fgh = coefficients(model, rep, params)
        p0 = default_p0(model, rep, params)
        tr = to_potential(fgh, p0)
        dom = fgh.domain
        lo = dom.lo if math.isfinite(dom.lo) else -6.0
        hi = dom.hi if math.isfinite(dom.hi) else 6.0
        ps = np.linspace(lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo), 13)

        def dq(p):
            return 1.0 / math.sqrt(float(fgh.f(p)))

        def dchi(p):
            return float((fgh.df(p) + 2.0 * fgh.g(p)) / (4.0 * fgh.f(p)))

        opts = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
        expect_q = [quad(dq, p0, p, **opts)[0] for p in ps]
        expect_chi = [quad(dchi, p0, p, **opts)[0] for p in ps]
        assert np.max(np.abs(tr.q_of_p(ps) - expect_q)) < 1e-12
        assert np.max(np.abs(tr.chi(ps) - expect_chi)) < 1e-12
        # the whole q range, tails included, against the closed-form well
        pot = transformed_potential(model, rep, params)
        assert tr.q_hi - tr.q_lo == pytest.approx(pot.q_hi - pot.q_lo, abs=1e-12)

    def test_divergent_coordinate_rejected(self):
        # f grows only like p^2, so q(p) diverges logarithmically
        fgh = coefficients(HarmonicOscillator(), R.PI4_PRIME, DeformationParams(tau=0.25))
        with pytest.raises(NonMonotoneMap):
            to_potential(fgh, 0.0)

    def test_singular_coefficient_rejected(self):
        flip = FGHCoefficients(
            f=lambda p: -(1.0 + p ** 2),
            g=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            h=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            df=lambda p: -2.0 * np.asarray(p, dtype=float),
            ddf=lambda p: -2.0 * np.ones_like(np.asarray(p, dtype=float)),
            dg=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            domain=Domain(-math.inf, math.inf),
        )
        with pytest.raises(SingularCoefficient):
            to_potential(flip, 0.0)


class TestMasterIdentity:
    def test_oscillator_identifications(self):
        params = DeformationParams(tau=0.5)
        sol = solve(HarmonicOscillator(), R.PI1, params)
        pot = transformed_potential(HarmonicOscillator(), R.PI1, params)
        qs = np.linspace(0.9 * pot.q_lo, 0.9 * pot.q_hi, 101)
        res = master_residual(ansatz_for(sol, 0), pot, float(sol.energy(0)), qs)
        assert res < 1e-9

    def test_energy_shift_moves_residual_affinely(self):
        params = DeformationParams(tau=0.5)
        sol = solve(HarmonicOscillator(), R.PI1, params)
        pot = transformed_potential(HarmonicOscillator(), R.PI1, params)
        qs = np.linspace(0.9 * pot.q_lo, 0.9 * pot.q_hi, 101)
        res = master_residual(ansatz_for(sol, 0), pot, float(sol.energy(0)) + 0.1, qs)
        assert res == pytest.approx(0.1, rel=1e-9)

    def test_inverse_square_identifications(self):
        params = DeformationParams(tau=0.25)
        model = PoschlTeller(1.0, 0.5)
        sol = solve(model, R.PI1, params)
        pot = transformed_potential(model, R.PI1, params)
        span = pot.q_hi - pot.q_lo
        qs = np.linspace(pot.q_lo + 0.05 * span, pot.q_hi - 0.05 * span, 101)
        res = master_residual(ansatz_for(sol, 1), pot, float(np.real(sol.energy(1))), qs)
        assert res < 1e-9

    def test_w_family_invariant(self):
        an = legendre_ansatz(c=0.4, nu=2.5, mu=-1.5)
        qs = np.linspace(-2.0, 2.0, 33)
        assert an.c_residual(qs) < 1e-9
        an2 = jacobi_ansatz(c=0.5, n=1, a=2.0, b=3.0, phase=math.pi / 2)
        assert an2.c_residual(np.linspace(0.1, 4.0, 33)) < 1e-9


class TestGaugeFactor:
    @pytest.mark.parametrize("an", [
        legendre_ansatz(c=0.4, nu=2.5, mu=-1.5),
        jacobi_ansatz(c=0.5, n=1, a=2.0, b=3.0),
        jacobi_ansatz(c=0.5, n=0, a=1.3, b=-0.4),
    ])
    def test_closed_form_antiderivative(self, an):
        ws = np.linspace(-0.9, 0.9, 19)
        h = 1e-6
        slope = (an.intQ(ws + h) - an.intQ(ws - h)) / (2 * h)
        assert np.max(np.abs(slope - an.Q(ws)) / np.maximum(1.0, np.abs(an.Q(ws)))) < 1e-8
        w1, w2 = -0.7, 0.85
        mid, half = 0.5 * (w1 + w2), 0.5 * (w2 - w1)
        expect = half * integrate_adaptive(lambda x: an.Q(mid + half * x))
        assert an.intQ(w2) - an.intQ(w1) == pytest.approx(expect, abs=1e-11)

    def test_legendre_family_collapses_to_cosine_root(self):
        an = legendre_ansatz(c=0.25, nu=3.0, mu=-1.2)
        v = v_from_Qw(an)
        qs = np.linspace(-2.5, 2.5, 41)
        expect = np.sqrt(np.cos(0.5 * qs))
        ratio = v(qs) / expect
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9

    def test_identity_map_trivial_gauge(self):
        class IdentityAnsatz(FactorizationAnsatz):
            def w(self, q):
                return np.asarray(q, dtype=float)

            def dw(self, q):
                return np.ones_like(np.asarray(q, dtype=float))

            def Q(self, w):
                return 0.0 * np.asarray(w)

            def intQ(self, w):
                return 0.0 * np.asarray(w)

        an = IdentityAnsatz(family="associated_legendre", c=1.0)
        v = v_from_Qw(an)
        qs = np.linspace(-0.8, 0.8, 9)
        assert np.max(np.abs(v(qs) - 1.0)) < 1e-12

    def test_jacobi_family_matches_state_prefactor(self):
        # after the half-angle conversion the gauge factor carries
        # sin^(a+1/2) cos^(b+1/2) up to a constant
        a, b = 1.3, 2.1
        c = 0.6
        an = jacobi_ansatz(c=c, n=0, a=a, b=b, phase=math.pi / 2)
        v = v_from_Qw(an)
        qs = np.linspace(0.3, 0.9 * math.pi / math.sqrt(c), 31)
        half = 0.5 * math.sqrt(c) * qs
        expect = np.sin(half) ** (a + 0.5) * np.cos(half) ** (b + 0.5)
        ratio = np.abs(v(qs)) / expect
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8

    def test_branch_guard(self):
        class IdentityAnsatz(FactorizationAnsatz):
            def w(self, q):
                return np.asarray(q, dtype=float)

            def dw(self, q):
                return np.ones_like(np.asarray(q, dtype=float))

        an = IdentityAnsatz(family="associated_legendre", c=1.0, nu=2.0, mu=-1.0)
        v = v_from_Qw(an)
        with pytest.raises(BranchAmbiguity):
            v(np.linspace(-3.0, 3.0, 21))  # 1 - w^2 changes sign inside


def _classical_basis(sol, n, w):
    """The Ferrers function or Jacobi polynomial the closed-form state carries."""
    if sol.family == "legendre":
        return assoc_legendre(LegendreSpec(n, sol.parameters["mu_minus"]), w)
    return jacobi(JacobiSpec(n, sol.parameters["a_plus"].real,
                             sol.parameters["b_plus"].real), w)


class TestGenericAssembly:
    @pytest.mark.parametrize("model,rep", [
        (HarmonicOscillator(), R.PI1), (HarmonicOscillator(), R.PI3),
        (HarmonicOscillator(), R.PI4),
        (Swanson(0.1, 0.2), R.PI1), (Swanson(0.1, 0.2), R.PI3),
        (Swanson(0.1, 0.2), R.PI4),
        (PoschlTeller(1.0, 0.5), R.PI1), (PoschlTeller(1.0, 0.5), R.PI3),
        (PoschlTeller(1.0, 0.5), R.PI4),
    ])
    def test_reproduces_closed_form_states(self, model, rep):
        params = DeformationParams(tau=0.25)
        sol = solve(model, rep, params)
        fgh = coefficients(model, rep, params)
        tr = to_potential(fgh, default_p0(model, rep, params))
        dom = fgh.domain
        lo = dom.lo if math.isfinite(dom.lo) else -5.0
        hi = dom.hi if math.isfinite(dom.hi) else 5.0
        if isinstance(model, PoschlTeller):
            lo = max(lo, 0.0)
        span = hi - lo
        ps = np.linspace(lo + 0.08 * span, hi - 0.08 * span, 50)
        for n in (0, 3):
            an = ansatz_for(sol, n, coordinates="centered")
            v = v_from_Qw(an)
            qs = tr.q_of_p(ps)
            assembled = np.exp(tr.chi(ps)) * v(qs) * _classical_basis(sol, n, an.w(qs))
            closed = sol.psi(n, ps)
            ratio = assembled / closed
            ratio = ratio / ratio[len(ratio) // 2]
            assert np.max(np.abs(ratio - 1.0)) < 1e-8
