import dataclasses
import math
from collections import Counter

import mpmath
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
from gup_spectra.errors import NonMonotoneMap, SingularCoefficient
from gup_spectra import liouville
from gup_spectra.liouville import FactorizationAnsatz, master_residual, to_potential
from gup_spectra.solutions import ansatz_for, default_p0, solve
from references import closed_form_well, jacobi

R = Representation

# a barycentric division at a node or an arccos outside [-1, 1] must not pass
# as a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

NINE_PAIRS = [(model, rep) for model in (HarmonicOscillator(), Swanson(0.1, 0.2),
                                         PoschlTeller(1.0, 0.5))
              for rep in (R.PI1, R.PI3, R.PI4)]
WIDE_TAUS = [1e-4, 1e-2, 0.25, 5.0, 50.0]


def _mp_chi_pi3(fgh, params, p0, ps):
    """chi on Pi3 by mpmath quadrature at 30 digits.

    There f is constant and g = c tan(rt p) with rt = sqrt(tau_check).  chi
    reaches about 2e3 at tau = 1e-4, where quad's relative tolerance is no
    reference for an absolute 1e-12.  c comes from one double evaluation of
    g, so the reference carries its half-ulp rounding.
    """
    rt = math.sqrt(params.tau_check)
    f0 = float(fgh.f(0.0))
    p1 = 0.25 * math.pi / rt
    c = float(fgh.g(p1)) / math.tan(rt * p1)
    assert np.all(fgh.df(ps) == 0.0) and np.all(fgh.f(ps) == f0)
    assert np.allclose(fgh.g(ps), c * np.tan(rt * ps), rtol=1e-14, atol=0.0)
    with mpmath.workdps(30):
        return [float(mpmath.quad(lambda y: c * mpmath.tan(rt * y) / (2 * f0), [p0, p]))
                for p in ps]


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

    @pytest.mark.parametrize("tau", WIDE_TAUS)
    @pytest.mark.parametrize("model,rep", NINE_PAIRS)
    def test_round_trip(self, model, rep, tau):
        params = DeformationParams(tau=tau)
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

    @pytest.mark.parametrize("tau", WIDE_TAUS)
    @pytest.mark.parametrize("model,rep", NINE_PAIRS)
    def test_matches_scalar_quadrature(self, model, rep, tau):
        # reference: adaptive scalar quadrature of q' and chi', point by point
        params = DeformationParams(tau=tau)
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
        if rep is R.PI3:
            expect_chi = _mp_chi_pi3(fgh, params, p0, ps)
        else:
            expect_chi = [quad(dchi, p0, p, **opts)[0] for p in ps]
        assert np.max(np.abs(tr.q_of_p(ps) - expect_q)) < 1e-12
        assert np.max(np.abs(tr.chi(ps) - expect_chi)) < 1e-12

    @pytest.mark.parametrize("tau", WIDE_TAUS)
    @pytest.mark.parametrize("model,rep", NINE_PAIRS)
    def test_range_matches_closed_form(self, model, rep, tau, request):
        # the whole q range, tails included, against the closed-form well
        if rep is R.PI4 and tau == 1e-4:
            request.applymarker(pytest.mark.xfail(strict=True, reason=(
                "f = F0 + F1 p^2 cancels toward the Pi4 wall: the table's range is "
                "about 1e-14 relative off the closed form, 3.5e-12 to 7e-12 at "
                "widths 222 to 444")))
        params = DeformationParams(tau=tau)
        fgh = coefficients(model, rep, params)
        tr = to_potential(fgh, default_p0(model, rep, params))
        pot = closed_form_well(model, rep, params)
        assert tr.q_hi - tr.q_lo == pytest.approx(pot.q_hi - pot.q_lo, abs=1e-12)

    @pytest.mark.parametrize("tau", [1e-4, 1e-3, 1e-2, 0.1, 0.25, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("model", [HarmonicOscillator(), Swanson(0.1, 0.2),
                                       Swanson(2.0, 0.1), PoschlTeller(1.0, 0.5),
                                       PoschlTeller(3.0, 2.0)])
    def test_similarity_partner_has_the_pi1_potential(self, model, tau):
        # Pi2's own (f, g, h) differs from Pi1's in g and h; the similarity
        # moves only the gauge chi, so q and V are Pi1's
        params = DeformationParams(tau=tau)
        tr1, tr2 = (to_potential(coefficients(model, rep, params),
                                 default_p0(model, rep, params)) for rep in (R.PI1, R.PI2))
        span = tr1.q_hi - tr1.q_lo
        qs = np.linspace(tr1.q_lo + 0.05 * span, tr1.q_hi - 0.05 * span, 101)
        v1 = tr1.V(qs)
        assert np.max(np.abs(tr2.V(qs) - v1) / np.maximum(1.0, np.abs(v1))) <= 1e-11

    @pytest.mark.parametrize("model,rep,tau", [
        (HarmonicOscillator(), R.PI1, 0.3), (Swanson(0.3, 0.2), R.PI3, 0.7),
        (PoschlTeller(1.0, 0.5), R.PI1, 2.0),
    ])
    def test_p_of_q_maps_ends_to_domain_ends(self, model, rep, tau):
        params = DeformationParams(tau=tau)
        fgh = coefficients(model, rep, params)
        p0 = default_p0(model, rep, params)
        tr = to_potential(fgh, p0)
        width = tr.q_hi - tr.q_lo
        for end, qs in ((fgh.domain.lo, [tr.q_lo, tr.q_lo - 0.5 * width, -np.inf]),
                        (fgh.domain.hi, [tr.q_hi, tr.q_hi + 0.5 * width, np.inf])):
            got = tr.p_of_q(np.array(qs))
            if math.isfinite(end):
                assert np.max(np.abs(got - end)) <= 1e-15 * abs(end - p0)
            else:
                # the length to_potential maps an infinite half with (f is
                # convex at p0 in every pair here)
                scale = 2.0 * math.sqrt(float(fgh.f(p0)) / float(fgh.ddf(p0)))
                assert np.all(np.sign(got) == np.sign(end))
                assert np.min(np.abs(got - p0)) > 1e15 * scale

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


class TestPotentialShape:
    def test_keeps_the_input_shape(self):
        # V keeps the shape of its argument, whatever the caller passes
        params = DeformationParams(tau=0.5)
        model, rep = Swanson(0.1, 0.2), Representation.PI3
        tr = to_potential(coefficients(model, rep, params), default_p0(model, rep, params))
        span = tr.q_hi - tr.q_lo
        qs = np.linspace(tr.q_lo + 0.1 * span, tr.q_hi - 0.1 * span, 12)
        flat = tr.V(qs)
        assert tr.V(qs.reshape(3, 4)).shape == (3, 4)
        assert np.array_equal(tr.V(qs.reshape(3, 4)).ravel(), flat)
        assert tr.V(qs[5]).shape == ()


class TestTableMemo:
    """After to_potential returns, queries read its table; only V evaluates
    the coefficients, and only at the points p_of_q returns."""

    @pytest.mark.parametrize("model,rep", NINE_PAIRS)
    def test_queries_evaluate_no_coefficients(self, model, rep):
        params = DeformationParams(tau=0.25)
        base = coefficients(model, rep, params)
        calls = Counter()
        seen = []

        def counted(name):
            fn = getattr(base, name)

            def wrapped(p):
                calls[name] += 1
                seen.append(np.array(p, dtype=float))
                return fn(p)
            return wrapped

        fgh = dataclasses.replace(base, **{name: counted(name) for name in ("f", "df", "g")})
        tr = to_potential(fgh, default_p0(model, rep, params))
        calls.clear()
        seen.clear()
        dom = fgh.domain
        lo = dom.lo if math.isfinite(dom.lo) else -5.0
        hi = dom.hi if math.isfinite(dom.hi) else 5.0
        ps = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 11)
        qs = tr.q_of_p(ps)
        tr.chi(ps)
        tr.p_of_q(qs)  # builds the inverse table
        tr.p_of_q(np.array([tr.q_lo, 0.0, tr.q_hi]))
        assert not calls
        span = tr.q_hi - tr.q_lo
        qs = np.linspace(tr.q_lo + 0.1 * span, tr.q_hi - 0.1 * span, 7)
        tr.V(qs)
        assert calls == Counter(f=1, df=1, g=1)
        expect = tr.p_of_q(qs)
        assert all(np.array_equal(p, expect) for p in seen)


    @pytest.mark.parametrize("model,rep", NINE_PAIRS)
    def test_v_answers_a_repeated_query_once(self, model, rep):
        params = DeformationParams(tau=0.25)
        base = coefficients(model, rep, params)
        calls = Counter()

        def counted(p):
            calls["f"] += 1
            return base.f(p)

        tr = to_potential(dataclasses.replace(base, f=counted),
                          default_p0(model, rep, params))
        calls.clear()
        span = tr.q_hi - tr.q_lo
        qs = np.linspace(tr.q_lo + 0.1 * span, tr.q_hi - 0.1 * span, 7)
        first = tr.V(qs)
        assert calls["f"] == 1
        # an equal query, in another array, is answered from the last one
        again = tr.V(qs.copy())
        assert calls["f"] == 1
        assert np.array_equal(again, first) and not np.shares_memory(again, first)
        # the caller owns each answer
        again[0] = np.nan
        assert np.array_equal(tr.V(qs), first) and calls["f"] == 1
        # other values, another shape or the same array changed in place
        # are evaluated afresh, and the first query after them too
        fresh = tr.V(qs[::-1])
        assert calls["f"] == 2 and np.array_equal(fresh, first[::-1])
        assert tr.V(qs[None, :]).shape == (1, 7) and calls["f"] == 3
        assert np.array_equal(tr.V(qs), first) and calls["f"] == 4
        qs[3] = 0.5 * (qs[3] + qs[4])
        moved = tr.V(qs)
        assert calls["f"] == 5 and moved[3] != first[3]
        assert np.array_equal(np.delete(moved, 3), np.delete(first, 3))

    def test_two_master_residuals_on_one_grid_evaluate_v_once(self):
        model, rep, params = Swanson(0.1, 0.2), Representation.PI3, DeformationParams(tau=0.25)
        base = coefficients(model, rep, params)
        calls = Counter()

        def counted(p):
            calls["f"] += 1
            return base.f(p)

        sol = solve(model, rep, params)
        tr = to_potential(dataclasses.replace(base, f=counted),
                          default_p0(model, rep, params))
        calls.clear()
        span = tr.q_hi - tr.q_lo
        qs = np.linspace(tr.q_lo + 0.05 * span, tr.q_hi - 0.05 * span, 11)
        res = [master_residual(ansatz_for(sol, n, coordinates="centered"), tr,
                               float(np.real(sol.energy(n))), qs) for n in (0, 1)]
        assert calls["f"] == 1 and max(res) < 1e-8


class TestOneTablePerConfiguration:
    """Equal (fgh, p0) share one table, built once with its inverse, and
    each to_potential call returns a new result around it."""

    @pytest.fixture
    def builds(self, monkeypatch):
        builds = Counter()
        inverse = liouville._Table._build_inverse

        class Counted(liouville._Table):
            def __init__(self, *args):
                builds["table"] += 1
                super().__init__(*args)

            def _build_inverse(self):
                builds["inverse"] += 1
                return inverse(self)

        monkeypatch.setattr(liouville, "_Table", Counted)
        return builds

    @pytest.mark.parametrize("model,rep", NINE_PAIRS)
    def test_one_table_and_one_inverse(self, builds, model, rep):
        params = DeformationParams(tau=0.25)
        base, p0 = coefficients(model, rep, params), default_p0(model, rep, params)
        # a triple of its own, which no table holds yet
        fgh = dataclasses.replace(base, f=lambda p: base.f(p))
        results = [to_potential(fgh, p0) for _ in range(3)]
        for tr in results:
            tr.p_of_q(tr.q_of_p(np.array([p0])))
        assert builds == Counter(table=1, inverse=1)
        # a caller that decorates its result leaves the others as they were
        results[0].V = None
        assert results[1].V is not None and results[1] is not results[2]

    @pytest.mark.parametrize("model,rep", NINE_PAIRS)
    def test_a_shared_table_answers_as_a_fresh_one(self, model, rep):
        params = DeformationParams(tau=0.25)
        fgh, p0 = coefficients(model, rep, params), default_p0(model, rep, params)

        def values(tr):
            dom = fgh.domain
            lo = dom.lo if math.isfinite(dom.lo) else -5.0
            hi = dom.hi if math.isfinite(dom.hi) else 5.0
            ps = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 11)
            qs = np.linspace(tr.q_lo, tr.q_hi, 13)[1:-1]
            return [a.tobytes() for a in (tr.V(qs), tr.chi(ps), tr.q_of_p(ps), tr.p_of_q(qs))]

        liouville._table.cache_clear()
        first = values(to_potential(fgh, p0))
        shared = values(to_potential(fgh, p0))
        liouville._table.cache_clear()
        assert first == shared == values(to_potential(fgh, p0))


class TestMasterIdentity:
    def test_oscillator_identifications(self):
        params = DeformationParams(tau=0.5)
        sol = solve(HarmonicOscillator(), R.PI1, params)
        pot = closed_form_well(HarmonicOscillator(), R.PI1, params)
        qs = np.linspace(0.9 * pot.q_lo, 0.9 * pot.q_hi, 101)
        res = master_residual(ansatz_for(sol, 0), pot, float(sol.energy(0)), qs)
        assert res < 1e-9

    def test_energy_shift_moves_residual_affinely(self):
        params = DeformationParams(tau=0.5)
        sol = solve(HarmonicOscillator(), R.PI1, params)
        pot = closed_form_well(HarmonicOscillator(), R.PI1, params)
        qs = np.linspace(0.9 * pot.q_lo, 0.9 * pot.q_hi, 101)
        res = master_residual(ansatz_for(sol, 0), pot, float(sol.energy(0)) + 0.1, qs)
        assert res == pytest.approx(0.1, rel=1e-9)

    def test_inverse_square_identifications(self):
        params = DeformationParams(tau=0.25)
        model = PoschlTeller(1.0, 0.5)
        sol = solve(model, R.PI1, params)
        pot = closed_form_well(model, R.PI1, params)
        span = pot.q_hi - pot.q_lo
        qs = np.linspace(pot.q_lo + 0.05 * span, pot.q_hi - 0.05 * span, 101)
        res = master_residual(ansatz_for(sol, 1), pot, float(np.real(sol.energy(1))), qs)
        assert res < 1e-9

    def test_w_family_invariant(self):
        # (w')^2 / (1 - w^2) = c for w = sin(sqrt(c) q + phase)
        legendre_an = FactorizationAnsatz(0.4, nu=2.5, mu=-1.5)
        jacobi_an = FactorizationAnsatz(0.5, phase=math.pi / 2, nu=1, a=2.0, b=3.0)
        for an, qs in ((legendre_an, np.linspace(-2.0, 2.0, 33)),
                       (jacobi_an, np.linspace(0.1, 4.0, 33))):
            w = an.w(qs)
            assert np.max(np.abs(an.dw(qs) ** 2 / (1 - w ** 2) - an.c)) < 1e-9


def _classical_basis(sol, n, w):
    """The classical function the closed-form state carries, up to a constant:
    (1-w^2)^(lam/2) P_n^(lam, lam)(w), the Ferrers P_{n+lam}^{-lam} without
    its k_n(lam), or the Jacobi polynomial P_n^(a+, b+)."""
    if sol.family == "legendre":
        lam = -sol.parameters["mu_minus"]
        return (1 - w ** 2) ** (lam / 2) * jacobi(n, lam, lam, w)
    return jacobi(n, sol.parameters["a_plus"].real, sol.parameters["b_plus"].real, w)


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
            qs = tr.q_of_p(ps)
            w = an.w(qs)
            # v = (w')^(-1/2) exp(int Q dw / 2), int Q dw = log (1-w)^(1+a) (1+w)^(1+b)
            gauge = (an.dw(qs).astype(complex) ** (-0.5)
                     * (1 - w) ** ((1 + an.a) / 2) * (1 + w) ** ((1 + an.b) / 2))
            assembled = np.exp(tr.chi(ps)) * gauge * _classical_basis(sol, n, w)
            closed = sol.psi(n, ps)
            ratio = assembled / closed
            ratio = ratio / ratio[len(ratio) // 2]
            assert np.max(np.abs(ratio - 1.0)) < 1e-8
