import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import eval_jacobi, gammaln, roots_jacobi

from gup_spectra.errors import DomainError, ParameterError, UnsupportedOrder
from gup_spectra.jets import Jet
from gup_spectra.specfun import (
    JacobiSpec,
    LegendreSpec,
    assoc_legendre,
    gauss_jacobi,
    gauss_legendre_nodes,
    gegenbauer,
    jacobi,
    jacobi_jet,
    log_jacobi_mass,
    orthonormal_ladder,
)
from gup_spectra.specfun import _christoffel_weights, _jacobi_chain, _log_kn
from references import integrate_adaptive, jacobi_norm

mp.mp.dps = 30


class TestGaussLegendre:
    def test_two_point_rule(self):
        x, w = gauss_legendre_nodes(2)
        assert np.allclose(sorted(x), [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
        assert np.allclose(w, [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("count", [2, 8, 33, 128])
    def test_weights_sum_to_two(self, count):
        _, w = gauss_legendre_nodes(count)
        assert abs(w.sum() - 2.0) < 1e-14

    @pytest.mark.parametrize("count", [4, 9, 16])
    def test_odd_powers_integrate_to_zero(self, count):
        x, w = gauss_legendre_nodes(count)
        assert abs(np.sum(w * x ** (2 * count - 1))) < 1e-14

    def test_algebraic_endpoint_integral_matches_beta_value(self):
        # integral of (1-x^2)^3.5 equals sqrt(pi) Gamma(4.5) / Gamma(5)
        x, w = gauss_legendre_nodes(64)
        got = np.sum(w * (1 - x ** 2) ** 3.5)
        exact = math.exp(0.5 * math.log(math.pi) + gammaln(4.5) - gammaln(5.0))
        assert abs(got - exact) < 1e-12

    def test_adaptive_doubling(self):
        val = integrate_adaptive(lambda x: np.exp(-3 * x * x))
        exact = math.sqrt(math.pi / 3) * math.erf(math.sqrt(3.0))
        assert abs(val - exact) < 1e-13

    def test_bad_count(self):
        with pytest.raises(ParameterError):
            gauss_legendre_nodes(0)


# (alpha, beta) of the rules under test: the symmetric (halved) rule, the
# Legendre-family exponents lam - 1, a + b = 0 and a + b = -1 (where the
# first recurrence coefficients take their limit forms), and Jacobi-family
# exponents
_JACOBI_EXPONENTS = [(0.3, 0.3), (-0.46, -0.46), (2.3, 2.3), (99.0, 99.0),
                     (-0.5, 0.5), (0.25, -0.25), (-0.3, -0.7), (-0.5, -0.5),
                     (0.5, 2.9), (3.0, 0.2), (-0.9, 5.0), (99.0, 999.0)]


def _mp_rule(m, a, b):
    nodes, weights = mp.gauss_quadrature(m, "jacobi", a, b)
    mass = mp.fsum(weights)
    return (np.array([float(x) for x in nodes]),
            np.array([float(w / mass) for w in weights]))


def _full_size_rule(m, a, b):
    """The m-point rule without the halving of the symmetric case."""
    odd, even = _jacobi_chain(m, a, b)
    mat = np.diag(odd + even) + np.diag(np.sqrt(odd[:-1] * even[1:]), -1)
    t = np.linalg.eigvalsh(mat)
    return 2.0 * t - 1.0, _christoffel_weights(t, odd, even)


class TestGaussJacobi:
    """The numpy Golub-Welsch rule, unit mass."""

    @pytest.mark.parametrize("a, b", _JACOBI_EXPONENTS)
    def test_matches_mpmath(self, a, b):
        for m in (1, 2, 3, 8, 21, 40):
            x, w = gauss_jacobi(m, a, b)
            ref_x, ref_w = _mp_rule(m, a, b)
            assert np.all(np.diff(x) > 0)
            assert np.max(np.abs(x - ref_x)) < 2e-15
            assert np.max(np.abs(w - ref_w) / ref_w) < 1e-12

    @pytest.mark.parametrize("a, b", _JACOBI_EXPONENTS)
    def test_nodes_match_scipy(self, a, b):
        with np.errstate(all="ignore"):
            ref_x, ref_w = roots_jacobi(256, a, b)
        x, w = gauss_jacobi(256, a, b)
        finite = np.isfinite(ref_x) & np.isfinite(ref_w)
        assert finite.sum() > 0
        assert np.max(np.abs(x - ref_x)[finite]) < 1e-14

    # at (99, 999) the Jacobi norms overflow
    @pytest.mark.parametrize("a, b", _JACOBI_EXPONENTS[:-1])
    def test_exact_for_orthonormal_gram_matrix(self, a, b):
        # products of the orthonormal Jacobi polynomials up to degree 128
        # have degree 256 <= 2 * 256 - 1, so the rule integrates them exactly
        x, w = gauss_jacobi(256, a, b)
        mass = jacobi_norm(JacobiSpec(0, a, b))
        ladder = np.array([jacobi(JacobiSpec(k, a, b), x) for k in range(129)])
        scale = [math.sqrt(mass / jacobi_norm(JacobiSpec(k, a, b))) for k in range(129)]
        basis = ladder * np.array(scale)[:, None]
        gram = (basis * w) @ basis.T
        assert np.max(np.abs(gram - np.eye(129))) < 1e-12

    @pytest.mark.parametrize("lam", [1e3, 1e4])
    def test_finite_where_scipy_is_not(self, lam):
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(roots_jacobi(256, lam - 1.0, lam - 1.0)[1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, w = gauss_jacobi(256, lam - 1.0, lam - 1.0)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w)) and np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-14
        # second moment of (1-x^2)^(lam-1): 1 / (2 lam + 1)
        assert np.sum(w * x * x) == pytest.approx(1.0 / (2.0 * lam + 1.0), rel=1e-13)

    def test_weights_past_the_double_range_are_zero(self):
        # Jacobi-family exponents at tau ~ 1e-4: the outer weights lie below
        # 1e-308 of the mass
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, w = gauss_jacobi(256, 99.0, 7070.0)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(w)) and np.all(w >= 0)
        assert (w == 0).any()
        assert abs(w.sum() - 1.0) < 1e-14
        # mean of (1-x)^a (1+x)^b: (b - a) / (a + b + 2)
        assert np.sum(w * x) == pytest.approx((7070.0 - 99.0) / 7171.0, rel=1e-14)

    @pytest.mark.parametrize("lam", [0.54, 1.0, 3.3, 10.0, 100.0, 1e3, 1e4])
    def test_halved_rule_equals_full_size_rule(self, lam):
        x, w = gauss_jacobi(256, lam - 1.0, lam - 1.0)
        full_x, full_w = _full_size_rule(256, lam - 1.0, lam - 1.0)
        assert np.max(np.abs(x - full_x)) < 1e-13
        assert np.max(np.abs(w - full_w)) < 1e-13

    def test_bad_arguments(self):
        for args in ((0, 0.5, 0.5), (2.5, 0.5, 0.5), (4, -1.0, 0.5), (4, 0.5, -1.5)):
            with pytest.raises(ParameterError):
                gauss_jacobi(*args)


class TestAssociatedLegendre:
    def test_lowest_band_closed_form(self):
        # P_nu^{-nu}(z) = (1-z^2)^(nu/2) / (2^nu Gamma(nu+1)); nu=2, z=0
        spec = LegendreSpec(0, -2.0)
        assert abs(assoc_legendre(spec, 0.0) - 0.125) < 1e-15
        for z in (-0.7, 0.2, 0.9):
            exact = (1 - z * z) / (4 * math.gamma(3.0))
            assert abs(assoc_legendre(spec, z) - exact) < 1e-15

    def test_classical_legendre_value(self):
        assert abs(assoc_legendre(LegendreSpec(2, 0.0), 0.5) - (-0.125)) < 1e-14

    def test_boundary_zero_for_negative_order(self):
        val = assoc_legendre(LegendreSpec(1, -2.5), 1.0)
        assert val == pytest.approx(0.0, abs=1e-300)

    @pytest.mark.parametrize("n,lam,z", [
        (0, 2.0, 0.3), (1, 2.5, -0.4), (3, 1.118, 0.7),
        (4, 10.0125, 0.2), (2, 0.441, 0.9), (5, 3.3, -0.85),
    ])
    def test_against_mpmath(self, n, lam, z):
        mine = complex(assoc_legendre(LegendreSpec(n, -lam), z))
        ref = complex(mp.legenp(n + lam, -lam, z, type=2))
        assert abs(mine - ref) <= 1e-13 * max(abs(ref), 1e-30)

    def test_complex_argument_against_mpmath(self):
        spec = LegendreSpec(2, -1.6)
        z = 0.3 - 0.2j
        mine = complex(assoc_legendre(spec, z))
        ref = complex(mp.legenp(2 + 1.6, -1.6, z, type=2))
        assert abs(mine - ref) <= 1e-12 * abs(ref)

    def test_boundary_vanishing_invariant(self):
        for lam in (1.5, 3.0, 10.0):
            for n in range(3):
                spec = LegendreSpec(n, -lam)
                interior = np.max(np.abs(assoc_legendre(spec, np.linspace(-0.99, 0.99, 301))))
                for z in (1 - 1e-6, -(1 - 1e-6)):
                    assert abs(assoc_legendre(spec, z)) < 1e-3 * interior

    def test_weight_one_orthogonality(self):
        for lam in (1.5, 4.0, 10.0):
            for n in range(5):
                for m in range(n + 1, 5):
                    def f(z):
                        return (assoc_legendre(LegendreSpec(n, -lam), z)
                                * assoc_legendre(LegendreSpec(m, -lam), z))
                    assert abs(integrate_adaptive(f)) < 1e-9

    def test_norm_quadrature_matches_closed_form(self):
        for lam in (1.118, 2.43, 8.0):
            for n in range(4):
                spec = LegendreSpec(n, -lam)
                norm = integrate_adaptive(lambda z: assoc_legendre(spec, z) ** 2)
                assert norm == pytest.approx(_ferrers_norm(n, lam), rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            assoc_legendre(LegendreSpec(1, -1.5), 1.2)

    def test_unsupported_positive_order(self):
        with pytest.raises(UnsupportedOrder):
            LegendreSpec(1, 1.5)

    def test_scale_free_jet_is_ferrers_up_to_its_constant(self):
        # the unified engine's Legendre basis: (1-z^2)^(lam/2) P_n^(lam, lam)
        h = 1e-5
        for lam, n in ((1.7, 1), (3.2, 4), (2.2, 3)):
            spec = LegendreSpec(n, -lam)
            z = np.array([-0.6, 0.05, 0.71])
            zj = Jet.variable(z, 2)
            jet = (1.0 - zj * zj).power(lam / 2.0) * jacobi_jet(JacobiSpec(n, lam, lam), z, 2)
            ratio = assoc_legendre(spec, z) / jet.value
            assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-13
            stencil = (assoc_legendre(spec, z - 2 * h) - 8 * assoc_legendre(spec, z - h)
                       + 8 * assoc_legendre(spec, z + h)
                       - assoc_legendre(spec, z + 2 * h)) / (12 * h)
            exact = ratio[0] * jet.d[1]
            assert np.all(np.abs(exact - stencil) < 1e-7 * np.maximum(1.0, np.abs(exact)))


class TestJacobi:
    def test_degree_zero_is_one(self):
        assert jacobi(JacobiSpec(0, 2.3, -0.4), 0.77) == 1.0

    def test_degree_one_legendre(self):
        assert jacobi(JacobiSpec(1, 0.0, 0.0), 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_degree_two_explicit_expansion(self):
        # P_2 = C(a+2,2) v^2 + C(a+2,1) C(b+2,1) u v + C(b+2,2) u^2,
        # u = (x-1)/2, v = (x+1)/2
        a, b = 2.0615528128088303, 2.8722813232690143
        x = 0.0
        u, v = (x - 1) / 2, (x + 1) / 2
        c2a = (a + 2) * (a + 1) / 2
        c2b = (b + 2) * (b + 1) / 2
        exact = c2a * v * v + (a + 2) * (b + 2) * u * v + c2b * u * u
        assert jacobi(JacobiSpec(2, a, b), x) == pytest.approx(exact, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 8),
           a=st.floats(-0.9, 6.0),
           b=st.floats(-0.9, 6.0),
           x=st.floats(-1.0, 1.0))
    def test_against_scipy(self, n, a, b, x):
        mine = jacobi(JacobiSpec(n, a, b), x)
        ref = eval_jacobi(n, a, b, x)
        assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            JacobiSpec(1, -1.0, 0.0)
        with pytest.raises(ParameterError):
            JacobiSpec(-1, 0.0, 0.0)

    def test_norm_classical_values(self):
        assert jacobi_norm(JacobiSpec(0, 0.0, 0.0)) == pytest.approx(2.0, rel=1e-14)
        assert jacobi_norm(JacobiSpec(1, 0.0, 0.0)) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_norm_against_direct_integral(self):
        # n = 0, a = 1, b = 2: integral of (1-x)(1+x)^2 over (-1, 1) is 4/3
        assert jacobi_norm(JacobiSpec(0, 1.0, 2.0)) == pytest.approx(4.0 / 3.0, rel=1e-14)

    def test_norm_at_degree_zero_with_vanishing_a_plus_b_plus_one(self):
        # Chebyshev T_0: integral of (1 - x^2)^(-1/2) over (-1, 1) is pi
        assert jacobi_norm(JacobiSpec(0, -0.5, -0.5)) == pytest.approx(math.pi, abs=1e-14)

    def test_norm_against_quadrature_orthogonality(self):
        a, b = 2.0615528128088303, 2.8722813232690143
        x, w = roots_jacobi(80, a, b)
        for n in range(4):
            for m in range(n, 4):
                val = np.sum(w * jacobi(JacobiSpec(n, a, b), x)
                             * jacobi(JacobiSpec(m, a, b), x))
                target = jacobi_norm(JacobiSpec(n, a, b)) if n == m else 0.0
                assert val == pytest.approx(target, rel=1e-10, abs=1e-10)

    def test_derivative(self):
        assert jacobi_jet(JacobiSpec(0, 0.5, 1.5), 0.2, 1).d[1] == 0.0
        h = 1e-5
        spec = JacobiSpec(3, 0.5, 1.5)
        x = 0.2
        stencil = (jacobi(spec, x - 2 * h) - 8 * jacobi(spec, x - h)
                   + 8 * jacobi(spec, x + h) - jacobi(spec, x + 2 * h)) / (12 * h)
        assert jacobi_jet(spec, x, 1).d[1] == pytest.approx(stencil, rel=1e-7)

    def test_jet_consistency(self):
        spec = JacobiSpec(4, 1.2, 0.3)
        x = np.array([-0.5, 0.0, 0.8])
        jet = jacobi_jet(spec, x, 3)
        assert np.allclose(jet.value, jacobi(spec, x), atol=1e-13)
        # d/dx P_n^(a,b) = (n+a+b+1)/2 P_{n-1}^(a+1,b+1)
        ladder = 0.5 * (4 + 1.2 + 0.3 + 1) * jacobi(JacobiSpec(3, 2.2, 1.3), x)
        assert np.allclose(jet.d[1], ladder, atol=1e-12)


def _ferrers_norm(n, lam):
    """Closed form of the weight-1 norm of P_{n+lam}^{-lam} on (-1, 1), from
    the Gegenbauer orthogonality and k_n."""
    a = lam + 0.5
    log_hn = (math.log(math.pi) + (1 - 2 * a) * math.log(2.0) + gammaln(n + 2 * a)
              - gammaln(n + 1) - math.log(n + a) - 2 * gammaln(a))
    return math.exp(2 * _gammaln_log_kn(n, lam) + log_hn)


# weight exponents (a, b) of the solvable families: the oscillator and
# Swanson (lam, lam) and the inverse-square (a+, b+), at tau from 1e-4 to 50,
# plus the limit a + b = -1 of the chain
ORTHONORMAL_AB = ((0.5004, 0.5004), (4.0311289, 4.0311289), (1e4, 1e4),
                  (0.6708204, 0.5196152), (2.0615528, 2.8722813),
                  (100.0, 7070.0), (-0.5, -0.5))


class TestOrthonormalLadder:
    """The chain recurrence the Gauss-Jacobi weights sum gives the states."""

    # at (1e4, 1e4) and (100, 7070) the classical norms overflow
    @pytest.mark.parametrize("a, b", [ab for ab in ORTHONORMAL_AB if max(ab) < 1e2])
    def test_matches_normalized_jacobi_polynomials(self, a, b):
        # phat_n = P_n^(a,b) (mass / h_n)^(1/2), with a positive leading term
        y = np.linspace(-0.99, 0.99, 157)
        rows = orthonormal_ladder(40, a, b, (1.0 + y) / 2.0)
        mass = jacobi_norm(JacobiSpec(0, a, b))
        for n in range(41):
            scale = math.sqrt(mass / jacobi_norm(JacobiSpec(n, a, b)))
            ref = jacobi(JacobiSpec(n, a, b), y) * scale
            assert np.max(np.abs(rows[n] - ref)) <= 1e-12 * np.max(np.abs(ref)), n

    @pytest.mark.parametrize("a, b", ORTHONORMAL_AB)
    def test_orthonormal_on_the_gauss_rule(self, a, b):
        # degree 2 * 100 <= 2 * 102 - 1, so the rule integrates exactly; at
        # (1e4, 1e4) and (100, 7070) the classical norms overflow
        y, w = gauss_jacobi(102, a, b)
        rows = orthonormal_ladder(100, a, b, (1.0 + y) / 2.0)
        assert np.all(np.isfinite(rows))
        gram = (rows * w) @ rows.T
        assert np.max(np.abs(gram - np.eye(101))) < 1e-12

    def test_christoffel_weights_sum_the_same_rows(self):
        a, b = 2.0615528, 2.8722813
        y, w = gauss_jacobi(21, a, b)
        rows = orthonormal_ladder(20, a, b, (1.0 + y) / 2.0)
        assert np.max(np.abs(1.0 / np.sum(rows ** 2, axis=0) - w) / w) < 1e-13

    def test_rows_independent_of_ladder_length(self):
        t = np.linspace(0.01, 0.99, 31)
        full = orthonormal_ladder(30, 3.3, 0.7, t)
        for n in (0, 1, 7, 30):
            assert full[n].tobytes() == orthonormal_ladder(n, 3.3, 0.7, t)[n].tobytes()

    def test_scalar_argument_and_validation(self):
        rows = orthonormal_ladder(3, 0.5, 1.5, 0.2)
        assert rows.shape == (4,) and rows[0] == 1.0
        with pytest.raises(ParameterError):
            orthonormal_ladder(-1, 0.5, 1.5, 0.2)
        # past a + b ~ 1.3e154 the chain's off-diagonal underflows; row 0
        # needs none
        assert orthonormal_ladder(0, 1e200, 1e200, 0.2)[0] == 1.0
        with pytest.raises(ParameterError, match="double range"):
            orthonormal_ladder(1, 1e200, 1e200, 0.2)
        with pytest.raises(ParameterError, match="double range"):
            gauss_jacobi(4, 1e200, 1e200)


def _gammaln_log_kn(n, lam):
    """log k_n(lam) = log n! - lam log 2 - log Gamma(lam+1) - log (2lam+1)_n."""
    return (gammaln(n + 1) - lam * math.log(2.0) - gammaln(lam + 1)
            - (gammaln(2 * lam + 1 + n) - gammaln(2 * lam + 1)))


def _gammaln_log_kn_size(n, lam):
    """Sum of the sizes of the terms of log k_n(lam), which bounds its rounding."""
    return (gammaln(n + 1) + lam * math.log(2.0) + np.abs(gammaln(lam + 1))
            + gammaln(2 * lam + 1 + n) + gammaln(2 * lam + 1))


def _agree_after_exp(got, ref, size):
    """got matches ref, the exp of a sum of log-gamma terms of total size ``size``.

    Each term rounds at about 1e-16 of its own size, and exp turns that
    absolute error in the exponent into a relative one, so two correct
    log-gamma routines agree to a small multiple of 1e-16 * size, relative
    to the largest value of the array.
    """
    got, ref = np.asarray(got), np.asarray(ref)
    tol = 1e-14 * max(1.0, size) * np.max(np.abs(ref))
    return bool(np.all(np.abs(got - ref) <= tol))


class TestLogGammaParity:
    """Real log-gamma from the math module matches scipy's gammaln."""

    LAMS = (0.5, 4.0, 100.0, 1e3)
    NMAX = 100

    @pytest.mark.parametrize("lam", LAMS)
    def test_log_kn(self, lam):
        for n in range(self.NMAX + 1):
            ref = _gammaln_log_kn(n, lam)
            assert abs(_log_kn(n, lam) - ref) <= 1e-13 * abs(ref), n

    @pytest.mark.parametrize("lam", LAMS)
    def test_ferrers_values(self, lam):
        z = np.linspace(-0.99, 0.99, 41)
        for n in range(self.NMAX + 1):
            ref = (math.exp(_gammaln_log_kn(n, lam)) * (1 - z ** 2) ** (lam / 2)
                   * gegenbauer(n, lam + 0.5, z))
            got = assoc_legendre(LegendreSpec(n, -lam), z)
            assert _agree_after_exp(got, ref, _gammaln_log_kn_size(n, lam)), n

    @pytest.mark.parametrize("lam", LAMS + (1e4,))
    def test_log_mass(self, lam):
        for a, b in ((lam, lam), (lam, 0.5), (0.5, lam)):
            terms = ((a + b + 1) * math.log(2.0), gammaln(a + 1), gammaln(b + 1),
                     -gammaln(a + b + 2))
            size = sum(abs(t) for t in terms)
            assert abs(log_jacobi_mass(a, b) - sum(terms)) <= 1e-15 * size

    def test_poles_propagate_like_gammaln(self):
        # a positive integer order mu puts Gamma(lam + 1) on a pole: NaN, not
        # a math domain error
        assert np.isnan(_log_kn(0, -1.0))
        with np.errstate(invalid="ignore"):
            assert np.isnan(_gammaln_log_kn(0, -1.0))

    def test_complex_order_uses_loggamma(self, monkeypatch):
        import scipy.special

        calls = []
        real = scipy.special.loggamma

        def counting(x):
            calls.append(x)
            return real(x)

        monkeypatch.setattr(scipy.special, "loggamma", counting)
        lam = 1.6 - 0.4j
        for n in range(13):
            ref = (gammaln(n + 1) - lam * math.log(2.0) - real(lam + 1)
                   - (real(2 * lam + 1 + n) - real(2 * lam + 1)))
            assert np.allclose(_log_kn(n, lam), ref, rtol=1e-14, atol=0)
        assert calls


class TestLogJacobiMass:
    # exponents of the small-tau ladders (a = b = lam ~ 1/tau, or a+ ~ 100 and
    # b+ ~ 7071 at tau = 1e-4), where log-gamma terms of size s log s cancel
    @pytest.mark.parametrize("a,b", [(1e4, 1e4), (5000, 5000), (2e4, 200), (100, 7071),
                                     (0.54, 1e4), (-0.9, 3e4), (0.54, 0.54)])
    def test_against_mpmath(self, a, b):
        with mp.workdps(40):
            ref = ((a + b + 1) * mp.log(2) + mp.loggamma(a + 1) + mp.loggamma(b + 1)
                   - mp.loggamma(mp.mpf(a) + b + 2))
            err = abs(mp.mpf(log_jacobi_mass(a, b)) - ref)
        assert err <= 2e-15 * max(1.0, abs(float(ref)))

    def test_seeded_sweep(self):
        # exponents of tau ~ 0.03..1, where the Stirling remainder of p, q or
        # p + q is shifted up from below 12; a third of the pairs straddle it
        rng = np.random.default_rng(2026)
        pairs = np.concatenate([rng.uniform(-0.9, 30.0, (140, 2)),
                                np.column_stack([rng.uniform(7.0, 11.0, 70),
                                                 rng.uniform(11.0, 15.0, 70)])])
        worst = 0.0
        with mp.workdps(40):
            for a, b in pairs.tolist():
                # from the exact float exponents: a + 1 rounded moves log
                # Gamma(a + 1) by up to 5e-15
                a1, b1 = mp.mpf(a) + 1, mp.mpf(b) + 1
                ref = ((a1 + b1 - 1) * mp.log(2) + mp.loggamma(a1) + mp.loggamma(b1)
                       - mp.loggamma(a1 + b1))
                err = abs(mp.mpf(log_jacobi_mass(a, b)) - ref)
                worst = max(worst, float(err) / max(1.0, abs(float(ref))))
        assert worst <= 2e-15


class TestJets:
    def test_product_and_power_rules(self):
        z = np.linspace(-0.7, 0.7, 11)
        zj = Jet.variable(z, 4)
        f = (1.0 - zj * zj).power(1.7)
        # analytic derivatives of (1-z^2)^1.7
        u = 1 - z * z
        d1 = 1.7 * u ** 0.7 * (-2 * z)
        d2 = 1.7 * 0.7 * u ** -0.3 * 4 * z * z + 1.7 * u ** 0.7 * (-2.0)
        assert np.allclose(f.value, u ** 1.7, atol=1e-14)
        assert np.allclose(f.d[1], d1, atol=1e-12)
        assert np.allclose(f.d[2], d2, atol=1e-11)

    def test_reciprocal(self):
        z = np.array([0.2, 0.5])
        zj = Jet.variable(z, 3)
        g = (1.0 + zj).reciprocal()
        assert np.allclose(g.value, 1 / (1 + z), atol=1e-15)
        assert np.allclose(g.d[1], -1 / (1 + z) ** 2, atol=1e-14)
        assert np.allclose(g.d[2], 2 / (1 + z) ** 3, atol=1e-13)

    def test_derivative_shift(self):
        z = np.array([0.1, -0.3])
        zj = Jet.variable(z, 3)
        f = zj * zj * zj
        fp = f.derivative()
        assert np.allclose(fp.value, 3 * z * z, atol=1e-14)

    @pytest.mark.parametrize("order", range(9))
    def test_product_matches_leibniz_loop_bitwise(self, order):
        rng = np.random.default_rng(order)
        for sa, sb in _ROW_SHAPES:
            for ca, cb in ((False, False), (True, True), (False, True), (True, False)):
                a = _random_rows(rng, order, sa, ca)
                b = _random_rows(rng, order + 1, sb, cb)  # orders may differ
                got = (Jet(a) * Jet(b)).d
                ref = _leibniz_product(a, b)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("order", range(9))
    def test_power_matches_recurrence_loop_bitwise(self, order):
        rng = np.random.default_rng(100 + order)
        for shape, cplx in ((s, c) for s, _ in _ROW_SHAPES for c in (False, True)):
            u = _random_rows(rng, order, shape, cplx)
            u[0] = 3.0 + np.abs(u[0])
            for sigma in (0.5, -0.5, -1.0, 1.7, 2, 3, -2):
                got = Jet(u).power(sigma).d
                ref = _leibniz_power(u, sigma)
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_one_point_and_scalar_rows_bitwise(self):
        # numpy sums a single column pairwise from eight terms on; the rows
        # here have up to 15 terms.  Scalar rows are real: numpy scalars
        # multiply complex numbers in other code than arrays do.
        rng = np.random.default_rng(7)
        for order in range(9):
            for shape, cplx in (((1,), False), ((1,), True), ((), False), ((1, 1), True)):
                a = _random_rows(rng, order, shape, cplx)
                b = _random_rows(rng, order, shape, cplx)
                got = (Jet(a) * Jet(b)).d
                assert got.tobytes() == _leibniz_product(a, b).tobytes()
                a[0] = 2.0 + np.abs(a[0])
                assert Jet(a).power(-0.5).d.tobytes() == _leibniz_power(a, -0.5).tobytes()

    def test_signed_zeros_bitwise(self):
        # rows of zeros make terms of -0.0; the loop starts each sum at +0.0
        z = np.linspace(-0.9, 0.9, 6)
        for order in range(9):
            zj = Jet.variable(z, order)
            neg = Jet.constant(-2.0, z, order)
            for a, b in ((neg, neg), (neg, zj), (zj * -1.0, zj * -1.0)):
                assert (a * b).d.tobytes() == _leibniz_product(a.d, b.d).tobytes()
            u = (1.0 - zj * zj).d
            assert Jet(u).power(-0.5).d.tobytes() == _leibniz_power(u, -0.5).tobytes()

    def test_order_beyond_binomial_table_rejected(self):
        zj = Jet.variable(np.array([0.1, 0.2]), 33)
        with pytest.raises(ValueError):
            zj * zj
        with pytest.raises(ValueError):
            (1.0 + zj).power(0.5)


# rows shapes of the two factors, broadcast against each other
_ROW_SHAPES = (((6,), (6,)), ((3, 1), (4,)), ((5,), ()), ((2, 3), (1, 3)), ((1,), (4,)))


def _random_rows(rng, order, shape, cplx):
    shape = (order + 1,) + shape
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    if cplx:
        rows = rows + 1j * rng.standard_normal(rows.shape)
    return rows


def _leibniz_product(a, b):
    """Reference: the scalar Leibniz double loop, each sum from 0.0."""
    k = min(a.shape[0], b.shape[0]) - 1
    rows = np.empty((k + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:]),
                    dtype=np.result_type(a.dtype, b.dtype))
    for n in range(k + 1):
        acc = 0.0
        for j in range(n + 1):
            acc = acc + math.comb(n, j) * a[j] * b[n - j]
        rows[n] = acc
    return rows


def _leibniz_power(u, sigma):
    """Reference: the scalar loop of the recurrence u w' = sigma u' w."""
    rows = np.empty_like(u, dtype=np.result_type(u.dtype, type(sigma), float))
    rows[0] = u[0].astype(rows.dtype) ** sigma
    for n in range(u.shape[0] - 1):
        acc = 0.0
        for j in range(n + 1):
            acc = acc + math.comb(n, j) * (sigma * u[j + 1] * rows[n - j])
        for j in range(1, n + 1):
            acc = acc - math.comb(n, j) * u[j] * rows[n + 1 - j]
        rows[n + 1] = acc / u[0]
    return rows
