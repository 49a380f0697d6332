import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coefficient_tables import reference_coefficients
from gup_spectra.algebra import (
    REALIZATIONS,
    DeformationParams,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
    coefficients,
    p_domain,
)
from gup_spectra.errors import (
    DomainMismatch,
    GupSpectraError,
    IntrinsicNoncommutativity,
    ParameterError,
    UnsupportedPair,
)
from gup_spectra.operators import (
    apply_P,
    apply_X,
    commutator_residual,
    default_grid,
    uniform_grid,
)

R = Representation
ALL_MODELS_REPS = [
    (HarmonicOscillator(), R.PI1), (HarmonicOscillator(), R.PI3),
    (HarmonicOscillator(), R.PI4), (HarmonicOscillator(), R.PI4_PRIME),
    (Swanson(0.1, 0.2), R.PI1), (Swanson(0.1, 0.2), R.PI3), (Swanson(0.1, 0.2), R.PI4),
    (PoschlTeller(1.0, 0.5), R.PI1), (PoschlTeller(1.0, 0.5), R.PI3),
    (PoschlTeller(1.0, 0.5), R.PI4),
]


class TestParams:
    def test_tau_check(self):
        p = DeformationParams(hbar=2.0, mass=0.5, omega=4.0, tau=0.8)
        assert p.tau_check == pytest.approx(0.8 / (0.5 * 4.0 * 2.0))
        assert DeformationParams(tau=0.0).tau_check == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(hbar=0.0), dict(mass=-1.0), dict(omega=0.0),
        dict(tau=-0.1), dict(tau=float("nan")), dict(omega=float("inf")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            DeformationParams(**kwargs)

    def test_domains(self):
        p = DeformationParams(tau=0.25)
        assert not p_domain(R.PI1, p).finite
        assert not p_domain(R.PI4_PRIME, p).finite
        d3 = p_domain(R.PI3, p)
        assert d3.hi == pytest.approx(math.pi / (2 * math.sqrt(0.25)))
        d4 = p_domain(R.PI4, p)
        assert d4.imaginary_segment
        assert d4.hi == pytest.approx(2.0)


class TestCoefficientTable:
    def test_oscillator_reference_values(self):
        p = DeformationParams(tau=0.2)
        fgh = coefficients(HarmonicOscillator(), R.PI1, p)
        assert fgh.f(0.0) == pytest.approx(0.5, abs=1e-15)
        assert fgh.g(0.0) == pytest.approx(0.0, abs=1e-15)
        assert fgh.h(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_commutative_limit_kills_deformation(self):
        p = DeformationParams(tau=0.0)
        fgh = coefficients(HarmonicOscillator(), R.PI1, p)
        ps = np.linspace(-3, 3, 11)
        assert np.allclose(fgh.f(ps), 0.5, atol=1e-15)
        assert np.allclose(fgh.g(ps), 0.0, atol=1e-15)

    def test_swanson_symmetric_commutative_matches_oscillator(self):
        p = DeformationParams(tau=0.0)
        sw = coefficients(Swanson(0.0, 0.0), R.PI1, p)
        ho = coefficients(HarmonicOscillator(), R.PI1, p)
        ps = np.linspace(-2, 2, 9)
        assert np.allclose(sw.f(ps), ho.f(ps), atol=1e-15)
        assert np.allclose(sw.g(ps), ho.g(ps), atol=1e-15)
        assert np.allclose(sw.h(ps), ho.h(ps), atol=1e-15)

    def test_required_errors(self):
        p = DeformationParams(tau=0.3)
        with pytest.raises(IntrinsicNoncommutativity):
            coefficients(PoschlTeller(1.0, 0.5), R.PI1, DeformationParams(tau=0.0))
        with pytest.raises(UnsupportedPair):
            coefficients(HarmonicOscillator(), R.PI2, p)
        with pytest.raises(UnsupportedPair):
            coefficients(Swanson(0.1, 0.2), R.PI4_PRIME, p)
        with pytest.raises(UnsupportedPair):
            coefficients(PoschlTeller(1.0, 0.5), R.PI4_PRIME, p)
        with pytest.raises(ParameterError):
            coefficients(Swanson(-3.0, 0.0), R.PI1, DeformationParams(tau=0.1))

    @pytest.mark.parametrize("model,rep", ALL_MODELS_REPS)
    def test_derivatives_match_finite_differences(self, model, rep):
        p = DeformationParams(tau=0.3)
        fgh = coefficients(model, rep, p)
        dom = fgh.domain
        lo = dom.lo if math.isfinite(dom.lo) else -4.0
        hi = dom.hi if math.isfinite(dom.hi) else 4.0
        if isinstance(model, PoschlTeller):
            lo = max(lo, 0.05 * (hi if math.isfinite(hi) else 1.0))
        span = hi - lo
        xs = np.linspace(lo + 0.1 * span, hi - 0.1 * span, 17)
        h = 1e-4
        for fn, dfn in ((fgh.f, fgh.df), (fgh.g, fgh.dg)):
            stencil = (fn(xs - 2 * h) - 8 * fn(xs - h)
                       + 8 * fn(xs + h) - fn(xs + 2 * h)) / (12 * h)
            scale = np.maximum(np.abs(dfn(xs)), 1.0)
            assert np.max(np.abs(dfn(xs) - stencil) / scale) < 1e-6
        stencil2 = (-fgh.f(xs - 2 * h) + 16 * fgh.f(xs - h) - 30 * fgh.f(xs)
                    + 16 * fgh.f(xs + h) - fgh.f(xs + 2 * h)) / (12 * h * h)
        scale = np.maximum(np.abs(fgh.ddf(xs)), 1.0)
        assert np.max(np.abs(fgh.ddf(xs) - stencil2) / scale) < 1e-6

    @pytest.mark.parametrize("model,rep", ALL_MODELS_REPS)
    def test_f_positive_on_interior(self, model, rep):
        p = DeformationParams(tau=0.3)
        fgh = coefficients(model, rep, p)
        dom = fgh.domain
        lo = dom.lo if math.isfinite(dom.lo) else -6.0
        hi = dom.hi if math.isfinite(dom.hi) else 6.0
        if isinstance(model, PoschlTeller):
            lo = max(lo, 1e-3)
        span = hi - lo
        xs = np.linspace(lo + 1e-3 * span, hi - 1e-3 * span, 101)
        assert np.all(fgh.f(xs) > 0)


FIXTURE_PAIRS = [
    (model, rep)
    for model in (HarmonicOscillator(), Swanson(0.1, 0.2), Swanson(0.3, 0.05),
                  PoschlTeller(1.0, 0.5))
    for rep in (R.PI1, R.PI3, R.PI4)
] + [(HarmonicOscillator(), R.PI4_PRIME)]
FIXTURE_TAUS = (1e-4, 1e-2, 0.25, 1.0, 5.0, 50.0)
FIXTURE_UNITS = ((1.0, 1.0, 1.0), (0.7, 2.3, 1.9))  # (hbar, mass, omega)


def _interior(dom, tc, count=39):
    """``count`` points strictly inside the domain; 3/sqrt(tc) stands in for
    an infinite end."""
    half = 3.0 / math.sqrt(tc)
    lo = dom.lo if math.isfinite(dom.lo) else -half
    hi = dom.hi if math.isfinite(dom.hi) else half
    return np.linspace(lo, hi, count + 2)[1:-1]


class TestDerivedCoefficients:
    """(f, g, h) derived from H against the hand-written tables of
    ``coefficient_tables``."""

    @pytest.mark.parametrize("model,rep", FIXTURE_PAIRS)
    def test_matches_hand_tables(self, model, rep):
        for tau in FIXTURE_TAUS:
            for hbar, mass, omega in FIXTURE_UNITS:
                params = DeformationParams(hbar=hbar, mass=mass, omega=omega, tau=tau)
                derived = coefficients(model, rep, params)
                ref = reference_coefficients(model, rep, params)
                assert derived.domain == ref.domain
                ys = _interior(ref.domain, params.tau_check)
                for name in ("f", "df", "ddf", "g", "dg", "h"):
                    want = np.asarray(getattr(ref, name)(ys), dtype=float)
                    got = np.asarray(getattr(derived, name)(ys), dtype=float)
                    dev = np.max(np.abs(got - want))
                    assert dev <= 1e-13 * np.max(np.abs(want)), (name, tau, hbar)
                # the transform reads f, df and ddf at a finite wall
                for end in (ref.domain.lo, ref.domain.hi):
                    if not math.isfinite(end):
                        continue
                    for name in ("f", "df", "ddf"):
                        if math.isfinite(float(getattr(ref, name)(end))):
                            assert math.isfinite(float(getattr(derived, name)(end))), name

    @pytest.mark.parametrize("rep", list(R))
    @pytest.mark.parametrize("model", [HarmonicOscillator(), Swanson(0.1, 0.2),
                                       Swanson(0.0, 0.0), Swanson(-3.0, 0.0),
                                       PoschlTeller(1.0, 0.5)])
    def test_commutative_limit_like_hand_tables(self, model, rep):
        params = DeformationParams(tau=0.0)
        ys = np.linspace(-2.0, 2.0, 9)
        outcomes = []
        for build in (reference_coefficients, coefficients):
            try:
                fgh = build(model, rep, params)
                outcomes.append([np.asarray(fn(ys), dtype=float)
                                 for fn in (fgh.f, fgh.g, fgh.h)])
            except GupSpectraError as exc:
                outcomes.append(type(exc))
        want, got = outcomes
        if isinstance(want, type):
            assert got is want
        else:
            assert not isinstance(got, type)
            for a, b in zip(want, got):
                assert np.allclose(a, b, rtol=1e-14, atol=0.0)


def _apply_term(rep, params, factors, psi, grid):
    """A term of H applied right to left by the operator actions; P^k with
    k < 0 divides by P's multiplier."""
    for sym, power in reversed(factors):
        if sym == "X":
            for _ in range(power):
                psi = apply_X(rep, params, psi, grid)
        elif power >= 0:
            for _ in range(power):
                psi = apply_P(rep, params, psi, grid)
        else:
            psi = psi * apply_P(rep, params, np.ones_like(psi), grid) ** power
    return psi


class TestCoefficientsMatchOperators:
    """The two encodings of the representation table, ``REALIZATIONS`` (via
    ``coefficients``) and ``apply_X``/``apply_P``, give the same H."""

    @pytest.mark.parametrize("model,rep", [
        (model, rep) for model in (HarmonicOscillator(), Swanson(0.1, 0.2),
                                   PoschlTeller(1.0, 0.5))
        for rep in (R.PI1, R.PI3)
    ] + [(HarmonicOscillator(), R.PI4_PRIME)])
    def test_h_words_give_the_table(self, model, rep):
        params = DeformationParams(tau=0.3)
        fgh = coefficients(model, rep, params)
        # a Gaussian inside the domain, 3/sqrt(tc) standing in for an
        # infinite end; order-8 differences act on it, as it does not decay
        # to the grid ends
        half = 3.0 / math.sqrt(params.tau_check)
        lo, hi = max(fgh.domain.lo, -half), min(fgh.domain.hi, half)
        lo, hi = lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo)
        grid = np.linspace(lo, hi, 4096)
        mid, sigma = 0.5 * (lo + hi), (hi - lo) / 6.0
        x = (grid - mid) / sigma
        psi = np.exp(-0.5 * x * x)
        d1 = -x / sigma * psi
        d2 = (x * x - 1.0) / sigma ** 2 * psi
        want = -fgh.f(grid) * d2 + fgh.g(grid) * d1 + fgh.h(grid) * psi
        terms, const = model.hamiltonian(params)
        got = const * psi
        for coeff, factors in terms:
            got = got + coeff * _apply_term(rep, params, factors, psi, grid)
        # the one-sided stencils near the grid ends are less accurate
        inner = slice(grid.size // 8, -grid.size // 8)
        dev = np.max(np.abs(got - want)[inner]) / np.max(np.abs(want)[inner])
        assert dev <= 1e-8


class TestRealizations:
    @pytest.mark.parametrize("tau", [1e-4, 0.25, 50.0])
    @pytest.mark.parametrize("rep", list(REALIZATIONS))
    def test_entry_satisfies_the_algebra(self, rep, tau):
        """[X, P] = i hbar a P' equals i hbar (1 + tc P^2); Pi4' flips the sign."""
        params = DeformationParams(tau=tau)
        tc = params.tau_check
        entry = REALIZATIONS[rep]
        ys = _interior(p_domain(rep, params), tc)
        sign = -1.0 if rep is R.PI4_PRIME else 1.0
        a, _, p, dp = entry.fields(ys, tc)
        lhs = a * dp
        rhs = 1.0 + sign * tc * p ** 2
        assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) <= 1e-13

    @pytest.mark.parametrize("rep", list(REALIZATIONS))
    def test_entry_is_consistent(self, rep):
        """a^2 = (1 + s tc y^2)^k, which f is built from; a' and P' are the
        slopes of a and P."""
        params = DeformationParams(tau=0.25)
        tc = params.tau_check
        entry = REALIZATIONS[rep]
        ys = _interior(p_domain(rep, params), tc)
        a, da, p, dp = (np.broadcast_to(x, ys.shape) for x in entry.fields(ys, tc))
        assert np.allclose(a ** 2, (1.0 + entry.s * tc * ys ** 2) ** entry.k,
                           rtol=1e-14, atol=0.0)
        step = 1e-5
        up, down = entry.fields(ys + step, tc), entry.fields(ys - step, tc)
        for i, slope in ((0, da), (2, dp)):
            stencil = (up[i] - down[i]) / (2 * step)
            assert np.allclose(slope, stencil, rtol=1e-8, atol=1e-9)


def _gauss(sigma):
    return lambda p: np.exp(-sigma * p ** 2)


class TestOperatorActions:
    def test_momentum_multipliers(self):
        params = DeformationParams(tau=1.0)  # tau_check = 1
        grid = np.array([0.25, math.pi / 4, 1.0])
        psi = np.ones(3, dtype=complex)
        assert np.allclose(apply_P(R.PI1, params, psi, grid), grid)
        # tangent multiplier equals 1 at p = pi/4 when tau_check = 1
        p3 = apply_P(R.PI3, params, psi, grid)
        assert p3[1] == pytest.approx(1.0, abs=1e-15)
        # primed variant at p = 1: 1/sqrt(2)
        p4p = apply_P(R.PI4_PRIME, params, psi, grid)
        assert p4p[2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        # segment variant is -i p / u
        p4 = apply_P(R.PI4, params, psi, grid)
        assert p4[2] == pytest.approx(-1j / math.sqrt(2), abs=1e-15)

    def test_position_commutative_limit(self):
        params = DeformationParams(tau=0.0)
        grid = uniform_grid(-12, 12, 2048)
        psi = _gauss(0.8)(grid)
        got = apply_X(R.PI1, params, psi, grid)
        exact = 1j * (-2 * 0.8 * grid) * psi
        assert np.max(np.abs(got - exact)) < 1e-10

    def test_position_pi3_is_plain_derivative(self):
        params = DeformationParams(tau=0.4)
        grid = default_grid(R.PI3, params, 2048)
        psi = _gauss(1.0)(grid)
        got = apply_X(R.PI3, params, psi, grid)
        exact = 1j * (-2.0 * grid) * psi
        assert np.max(np.abs(got - exact)) < 1e-8

    def test_segment_position_product_rule(self):
        params = DeformationParams(tau=0.2)
        tc = params.tau_check
        grid = uniform_grid(-12, 12, 4096)
        psi = _gauss(0.6)(grid)
        got = apply_X(R.PI4, params, psi, grid)
        u = np.sqrt(1 + tc * grid ** 2)
        du = tc * grid / u
        exact = -(du * psi + u * (-2 * 0.6 * grid) * psi)
        idx = np.searchsorted(grid, [-1.7, -0.4, 0.0, 0.9, 2.3])
        assert np.max(np.abs(got[idx] - exact[idx])) < 1e-9

    def test_grid_domain_check(self):
        params = DeformationParams(tau=1.0)
        grid = uniform_grid(-3, 3, 512)  # exceeds pi/2
        with pytest.raises(DomainMismatch):
            apply_P(R.PI3, params, np.ones(512), grid)


class TestCommutators:
    def test_canonical_pair(self):
        params = DeformationParams(tau=0.0)
        grid = uniform_grid(-12, 12, 2048)
        assert commutator_residual(R.PI1, params, _gauss(1.0)(grid), grid) < 1e-10

    @pytest.mark.parametrize("rep", [R.PI1, R.PI2, R.PI3, R.PI4])
    def test_deformed_relation_all_reps(self, rep):
        params = DeformationParams(tau=0.3)
        grid = default_grid(rep, params, 2048)
        suite = [np.exp(-s * grid ** 2) for s in (0.5, 1.0, 2.0)]
        suite += [grid * np.exp(-s * grid ** 2) for s in (0.5, 1.0)]
        for psi in suite:
            assert commutator_residual(rep, params, psi, grid) < 1e-7

    def test_primed_variant_sign_flip(self):
        params = DeformationParams(tau=0.3)
        grid = default_grid(R.PI4_PRIME, params, 2048)
        psi = _gauss(1.0)(grid)
        assert commutator_residual(R.PI4_PRIME, params, psi, grid) < 1e-8
        assert commutator_residual(R.PI4_PRIME, params, psi, grid,
                                   reference_sign=+1) > 0.05

    @settings(max_examples=15, deadline=None)
    @given(sigma=st.floats(0.5, 2.0), tau=st.floats(0.05, 1.0))
    def test_residual_property(self, sigma, tau):
        params = DeformationParams(tau=tau)
        for rep in (R.PI1, R.PI4):
            grid = default_grid(rep, params, 2048)
            psi = np.exp(-sigma * grid ** 2)
            assert commutator_residual(rep, params, psi, grid) < 1e-7


class TestPTAction:
    @pytest.mark.parametrize("rep", [R.PI1, R.PI2, R.PI3, R.PI4])
    def test_conjugation_signs(self, rep):
        params = DeformationParams(tau=0.3)
        grid = default_grid(rep, params, 2048)
        psi = (1.0 + 0.5j) * np.exp(-0.8 * grid ** 2) \
            + 0.3j * grid * np.exp(-1.1 * grid ** 2)
        # PT (x -> -x, p -> p, i -> -i) acts on momentum samples as complex
        # conjugation; Theta A Theta = sign A.  Pi1..Pi3 realize the canonical
        # pattern X -> -X, P -> P, Pi4 the anti-PT pattern X -> X, P -> -P.
        sx, sp = (+1, -1) if rep is R.PI4 else (-1, +1)
        lhs_x = np.conj(apply_X(rep, params, np.conj(psi), grid))
        rhs_x = sx * apply_X(rep, params, psi, grid)
        assert np.max(np.abs(lhs_x - rhs_x)) < 1e-8 * np.max(np.abs(rhs_x))
        lhs_p = np.conj(apply_P(rep, params, np.conj(psi), grid))
        rhs_p = sp * apply_P(rep, params, psi, grid)
        assert np.max(np.abs(lhs_p - rhs_p)) < 1e-12 * np.max(np.abs(rhs_p))


class TestSimilarity:
    def test_pi2_is_conjugated_pi1(self):
        params = DeformationParams(tau=0.3)
        tc = params.tau_check
        grid = uniform_grid(-12, 12, 4096)
        psi = _gauss(0.9)(grid).astype(complex)
        s = (1 + tc * grid ** 2) ** -0.5
        lhs = apply_X(R.PI2, params, psi, grid)
        rhs = s * apply_X(R.PI1, params, psi / s, grid)
        mask = np.abs(grid) < 8
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs((lhs - rhs)[mask])) < 1e-8 * scale
