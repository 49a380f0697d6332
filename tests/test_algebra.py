import dataclasses
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
    DomainError,
    GupSpectraError,
    IntrinsicNoncommutativity,
    ParameterError,
    UnsupportedPair,
)
from gup_spectra import operators
from gup_spectra.operators import (
    commutator_residual,
    default_grid,
    fd_derivative,
    fields,
    line_map,
    mapped_grid,
    x_action,
)

R = Representation
ALL_MODELS_REPS = [
    (HarmonicOscillator(), R.PI1), (HarmonicOscillator(), R.PI3),
    (HarmonicOscillator(), R.PI4), (HarmonicOscillator(), R.PI4_PRIME),
    (Swanson(0.1, 0.2), R.PI1), (Swanson(0.1, 0.2), R.PI3), (Swanson(0.1, 0.2), R.PI4),
    (PoschlTeller(1.0, 0.5), R.PI1), (PoschlTeller(1.0, 0.5), R.PI3),
    (PoschlTeller(1.0, 0.5), R.PI4), (HarmonicOscillator(), R.PI2),
    (Swanson(0.1, 0.2), R.PI2), (PoschlTeller(1.0, 0.5), R.PI2),
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
        # the half cell runs from 0 to the same wall
        assert p_domain(R.PI3, p, half_cell=True) == dataclasses.replace(d3, lo=0.0)
        assert p_domain(R.PI4, p, half_cell=True) == dataclasses.replace(d4, lo=0.0)


class TestCoefficientTable:
    def test_oscillator_reference_values(self):
        p = DeformationParams(tau=0.2)
        fgh = coefficients(HarmonicOscillator(), R.PI1, p)
        assert fgh.f(0.0) == pytest.approx(0.5, abs=1e-15)
        assert fgh.g(0.0) == pytest.approx(0.0, abs=1e-15)
        assert fgh.h(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_equal_arguments_share_one_frozen_triple(self):
        params = DeformationParams(tau=0.25)
        fgh = coefficients(Swanson(0.1, 0.2), R.PI3, params)
        assert coefficients(Swanson(0.1, 0.2), R.PI3, DeformationParams(tau=0.25)) is fgh
        assert coefficients(Swanson(0.1, 0.2), R.PI1, params) is not fgh
        with pytest.raises(dataclasses.FrozenInstanceError):
            fgh.f = None

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
        with pytest.raises(UnsupportedPair, match="no coefficient table for"):
            coefficients(Swanson(0.1, 0.2), R.PI4_PRIME, p)
        with pytest.raises(UnsupportedPair, match="no coefficient table for"):
            coefficients(PoschlTeller(1.0, 0.5), R.PI4_PRIME, p)
        with pytest.raises(ParameterError):
            coefficients(Swanson(-3.0, 0.0), R.PI1, DeformationParams(tau=0.1))

    def test_hamiltonian_outside_the_table_form(self):
        # an X^4 word has no (f, g, h) form of a second-order equation
        class Quartic(HarmonicOscillator):
            def hamiltonian(self, params):
                terms, const = super().hamiltonian(params)
                return terms + [(0.1, [("X", 4)])], const

        with pytest.raises(UnsupportedPair, match="H must be a real sum"):
            coefficients(Quartic(), R.PI1, DeformationParams(tau=0.3))

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
] + [(HarmonicOscillator(), R.PI4_PRIME)] + [
    (model, R.PI2)
    for model in (HarmonicOscillator(), Swanson(0.1, 0.2), Swanson(0.3, 0.05),
                  PoschlTeller(1.0, 0.5))
]
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


def _x(rep, params, psi, grid, dp):
    """X psi: ``x_action`` on the grid's ``fields``."""
    return x_action(fields(rep, params, grid)[0], psi, dp)


def _p(rep, params, psi, grid):
    """P psi: the product with the grid's multiplier from ``fields``."""
    return fields(rep, params, grid)[1] * np.asarray(psi, dtype=complex)


def _apply_term(rep, params, factors, psi, grid, dp):
    """A term of H applied right to left by the operator actions; P^k with
    k < 0 divides by P's multiplier."""
    for sym, power in reversed(factors):
        if sym == "X":
            for _ in range(power):
                psi = _x(rep, params, psi, grid, dp)
        elif power >= 0:
            for _ in range(power):
                psi = _p(rep, params, psi, grid)
        else:
            psi = psi * _p(rep, params, np.ones_like(psi), grid) ** power
    return psi


class TestCoefficientsMatchOperators:
    """The closed-form (f, g, h) of ``coefficients`` and the model's H words
    applied by ``operators.fields`` and ``x_action`` give the same H psi: the formulas and
    the finite differences read one table, ``REALIZATIONS``."""

    @pytest.mark.parametrize("model,rep", [
        (model, rep) for model in (HarmonicOscillator(), Swanson(0.1, 0.2),
                                   PoschlTeller(1.0, 0.5))
        for rep in (R.PI1, R.PI3, R.PI4)
    ] + [(HarmonicOscillator(), R.PI4_PRIME)] + [
        (model, R.PI2) for model in (HarmonicOscillator(), Swanson(0.1, 0.2),
                                     PoschlTeller(1.0, 0.5))
    ])
    def test_h_words_give_the_table(self, model, rep):
        params = DeformationParams(tau=0.3)
        fgh = coefficients(model, rep, params)
        # a Gaussian inside the domain, 3/sqrt(tc) standing in for an
        # infinite end, on a uniform grid: the identity map
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
            got = got + coeff * _apply_term(rep, params, factors, psi, grid,
                                            grid[1] - grid[0])
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
        a, _ = entry.x_fields(ys, tc)
        p, dp = entry.p_fields(ys, tc)
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
        a, da = (np.broadcast_to(x, ys.shape) for x in entry.x_fields(ys, tc))
        p, dp = (np.broadcast_to(x, ys.shape) for x in entry.p_fields(ys, tc))
        assert np.allclose(a ** 2, (1.0 + entry.s * tc * ys ** 2) ** entry.k,
                           rtol=1e-14, atol=0.0)
        step = 1e-5
        for half, slope in ((entry.x_fields, da), (entry.p_fields, dp)):
            stencil = (half(ys + step, tc)[0] - half(ys - step, tc)[0]) / (2 * step)
            assert np.allclose(slope, stencil, rtol=1e-8, atol=1e-9)

    @pytest.mark.parametrize("tau", [1e-4, 0.25, 50.0])
    @pytest.mark.parametrize("rep", [R.PI1, R.PI2, R.PI3, R.PI4])
    def test_angle_is_that_of_the_fields(self, rep, tau):
        """theta = arctan(sqrt(tc) P) of the entry's own X and P, at
        x = sqrt(tc) y: sin/cos = sqrt(tc) P; dtheta/dx = 1/a, since
        a P' = 1 + tc P^2; the similarity factor cos^e is a^(-beta); x_of
        inverts theta; and cos vanishes at a finite wall of ``p_domain``."""
        params = DeformationParams(tau=tau)
        tc = params.tau_check
        entry, dom = REALIZATIONS[rep], p_domain(rep, params)
        angle = entry.angle
        # an even count keeps y = 0, where sqrt(tc) P vanishes, off the samples
        ys = _interior(dom, tc, count=40)
        x = math.sqrt(tc) * ys
        a, _ = (np.broadcast_to(v, ys.shape) for v in entry.x_fields(ys, tc))
        p, _ = entry.p_fields(ys, tc)
        s, c = angle.sin(x), angle.cos(x)

        def rel(got, want):
            return np.max(np.abs(got - want) / np.abs(want))

        assert rel(s / c, math.sqrt(tc) * p) <= 1e-13
        assert rel(a * angle.dtheta(x), 1.0) <= 1e-13
        assert rel(a ** -entry.beta, c ** angle.e) <= 1e-13
        assert rel(angle.x_of(np.arctan2(s, c)), x) <= 1e-13
        if dom.finite:
            assert abs(angle.cos(math.sqrt(tc) * dom.hi)) <= 1e-16
            assert abs(angle.cos(math.sqrt(tc) * dom.lo)) <= 1e-16


def _gauss(sigma):
    return lambda p: np.exp(-sigma * p ** 2)


class TestOperatorActions:
    def test_momentum_multipliers(self):
        params = DeformationParams(tau=1.0)  # tau_check = 1
        grid = np.array([0.25, math.pi / 4, 1.0])
        psi = np.ones(3, dtype=complex)
        assert np.allclose(_p(R.PI1, params, psi, grid), grid)
        # tangent multiplier equals 1 at p = pi/4 when tau_check = 1
        p3 = _p(R.PI3, params, psi, grid)
        assert p3[1] == pytest.approx(1.0, abs=1e-15)
        # primed variant at p = 1: 1/sqrt(2)
        p4p = _p(R.PI4_PRIME, params, psi, grid)
        assert p4p[2] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        # segment variant is s / u with u = (1 - tc s^2)^(1/2): 1 at
        # s = 1/sqrt(2), inside the segment (-1, 1)
        s = np.array([1 / math.sqrt(2)])
        p4 = _p(R.PI4, params, np.ones(1, dtype=complex), s)
        assert p4[0] == pytest.approx(1.0, abs=1e-15)

    def test_position_commutative_limit(self):
        params = DeformationParams(tau=0.0)
        grid, dp = default_grid(R.PI1, params)
        psi = _gauss(0.8)(grid)
        got = _x(R.PI1, params, psi, grid, dp)
        exact = 1j * (-2 * 0.8 * grid) * psi
        assert np.max(np.abs(got - exact)) < 1e-10

    def test_position_pi3_is_plain_derivative(self):
        params = DeformationParams(tau=0.4)
        grid, dp = default_grid(R.PI3, params)
        psi = _gauss(1.0)(grid)
        got = _x(R.PI3, params, psi, grid, dp)
        exact = 1j * (-2.0 * grid) * psi
        assert np.max(np.abs(got - exact)) < 1e-8

    def test_segment_position_product_rule(self):
        # X = i hbar (u d/ds + u') on the segment |s| < 1/sqrt(tc) = 2.24
        params = DeformationParams(tau=0.2)
        tc = params.tau_check
        reach = math.asinh(0.9 * p_domain(R.PI4, params).hi)
        grid, dp = mapped_grid(line_map(1.0), 0.0, 1.0, reach, 4096)
        psi = _gauss(0.6)(grid)
        got = _x(R.PI4, params, psi, grid, dp)
        u = np.sqrt(1 - tc * grid ** 2)
        du = -tc * grid / u
        exact = 1j * (du * psi + u * (-2 * 0.6 * grid) * psi)
        idx = np.searchsorted(grid, [-1.7, -0.4, 0.0, 0.9, 1.9])
        assert np.max(np.abs(got[idx] - exact[idx])) < 1e-9

    def test_complex_derivative_is_that_of_its_parts(self):
        grid, dp = default_grid(R.PI1, DeformationParams(tau=0.3))
        psi = _gauss(0.8)(grid) * np.exp(1.3j * grid)
        got = fd_derivative(psi)
        assert np.array_equal(got.real, fd_derivative(psi.real).real)
        assert np.array_equal(got.imag, fd_derivative(psi.imag).real)
        assert not np.any(fd_derivative(psi.real).imag)
        # one complex convolution and complex edge products, as numpy takes
        # them, agree to round-off
        n = len(psi)
        whole = np.empty(n, dtype=complex)
        whole[4:n - 4] = np.convolve(psi, operators._CENTRAL8[::-1], mode="valid")
        whole[:4] = operators._EDGE8 @ psi[:9]
        whole[n - 4:] = -(operators._EDGE8 @ psi[n - 9:][::-1])[::-1]
        assert np.max(np.abs(got - whole)) <= 1e-15 * np.max(np.abs(psi))

    def test_grid_domain_check(self):
        params = DeformationParams(tau=1.0)
        grid = np.linspace(-3, 3, 512)  # exceeds pi/2
        with pytest.raises(DomainError):
            fields(R.PI3, params, grid)


class TestCommutators:
    def test_canonical_pair(self):
        params = DeformationParams(tau=0.0)
        grid, dp = default_grid(R.PI1, params)
        assert commutator_residual(R.PI1, params, _gauss(1.0)(grid), grid, dp) < 1e-10

    @pytest.mark.parametrize("rep", [R.PI1, R.PI2, R.PI3, R.PI4])
    def test_deformed_relation_all_reps(self, rep):
        params = DeformationParams(tau=0.3)
        grid, dp = default_grid(rep, params)
        suite = [np.exp(-s * grid ** 2) for s in (0.5, 1.0, 2.0)]
        suite += [grid * np.exp(-s * grid ** 2) for s in (0.5, 1.0)]
        for psi in suite:
            assert commutator_residual(rep, params, psi, grid, dp) < 1e-7

    def test_primed_variant_sign_flip(self):
        params = DeformationParams(tau=0.3)
        grid, dp = default_grid(R.PI4_PRIME, params)
        psi = _gauss(1.0)(grid)
        assert commutator_residual(R.PI4_PRIME, params, psi, grid, dp) < 1e-8
        assert commutator_residual(R.PI4_PRIME, params, psi, grid, dp,
                                   reference_sign=+1) > 0.05

    @settings(max_examples=15, deadline=None)
    @given(sigma=st.floats(0.5, 2.0), tau=st.floats(0.05, 1.0))
    def test_residual_property(self, sigma, tau):
        params = DeformationParams(tau=tau)
        for rep in (R.PI1, R.PI4):
            grid, dp = default_grid(rep, params)
            psi = np.exp(-sigma * grid ** 2)
            assert commutator_residual(rep, params, psi, grid, dp) < 1e-7


class TestPTAction:
    @pytest.mark.parametrize("rep", [R.PI1, R.PI2, R.PI3, R.PI4])
    def test_conjugation_signs(self, rep):
        params = DeformationParams(tau=0.3)
        grid, dp = default_grid(rep, params)
        psi = (1.0 + 0.5j) * np.exp(-0.8 * grid ** 2) \
            + 0.3j * grid * np.exp(-1.1 * grid ** 2)
        # PT (x -> -x, p -> p, i -> -i) acts on momentum samples as complex
        # conjugation; on the Pi4 segment p = i s it also takes s to -s,
        # which reverses the samples of the symmetric grid.  Theta A Theta =
        # sign A: Pi1..Pi3 realize the canonical pattern X -> -X, P -> P,
        # Pi4 the anti-PT pattern X -> X, P -> -P.
        if rep is R.PI4:
            assert np.allclose(grid[::-1], -grid, rtol=0.0, atol=1e-13)
            sx, sp = +1, -1

            def theta(v):
                return np.conj(v[::-1])
        else:
            sx, sp, theta = -1, +1, np.conj
        lhs_x = theta(_x(rep, params, theta(psi), grid, dp))
        rhs_x = sx * _x(rep, params, psi, grid, dp)
        assert np.max(np.abs(lhs_x - rhs_x)) < 1e-8 * np.max(np.abs(rhs_x))
        lhs_p = theta(_p(rep, params, theta(psi), grid))
        rhs_p = sp * _p(rep, params, psi, grid)
        assert np.max(np.abs(lhs_p - rhs_p)) < 1e-12 * np.max(np.abs(rhs_p))


class TestSimilarity:
    def test_pi2_is_conjugated_pi1(self):
        params = DeformationParams(tau=0.3)
        tc = params.tau_check
        grid, dp = default_grid(R.PI1, params)
        psi = _gauss(0.9)(grid).astype(complex)
        s = (1 + tc * grid ** 2) ** -0.5
        lhs = _x(R.PI2, params, psi, grid, dp)
        rhs = s * _x(R.PI1, params, psi / s, grid, dp)
        mask = np.abs(grid) < 8
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs((lhs - rhs)[mask])) < 1e-8 * scale
