import math

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
    assoc_legendre_deriv,
    assoc_legendre_jet,
    assoc_legendre_ladder,
    gauss_legendre_nodes,
    gegenbauer,
    integrate_adaptive,
    jacobi,
    jacobi_deriv,
    jacobi_jet,
    jacobi_ladder,
    jacobi_norm,
    legendre_norm,
)
from gup_spectra.specfun import legendre_norm_closed

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
                assert legendre_norm(spec) == pytest.approx(
                    legendre_norm_closed(spec), rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            assoc_legendre(LegendreSpec(1, -1.5), 1.2)

    def test_unsupported_positive_order(self):
        with pytest.raises(UnsupportedOrder):
            LegendreSpec(1, 1.5)

    def test_derivative_matches_finite_differences(self):
        h = 1e-5
        for lam, n in ((1.7, 1), (3.2, 4)):
            spec = LegendreSpec(n, -lam)
            for z in (-0.6, 0.05, 0.71):
                stencil = (assoc_legendre(spec, z - 2 * h)
                           - 8 * assoc_legendre(spec, z - h)
                           + 8 * assoc_legendre(spec, z + h)
                           - assoc_legendre(spec, z + 2 * h)) / (12 * h)
                exact = assoc_legendre_deriv(spec, z)
                assert abs(exact - stencil) < 1e-7 * max(1.0, abs(exact))

    def test_jet_consistency(self):
        spec = LegendreSpec(3, -2.2)
        z = np.array([-0.4, 0.1, 0.65])
        jet = assoc_legendre_jet(spec, z, 2)
        assert np.allclose(jet.value, assoc_legendre(spec, z), atol=1e-14)
        assert np.allclose(jet.d[1], assoc_legendre_deriv(spec, z), atol=1e-12)


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
        assert jacobi_deriv(JacobiSpec(0, 0.5, 1.5), 0.2) == 0.0
        h = 1e-5
        spec = JacobiSpec(3, 0.5, 1.5)
        x = 0.2
        stencil = (jacobi(spec, x - 2 * h) - 8 * jacobi(spec, x - h)
                   + 8 * jacobi(spec, x + h) - jacobi(spec, x + 2 * h)) / (12 * h)
        assert jacobi_deriv(spec, x) == pytest.approx(stencil, rel=1e-7)

    def test_jet_consistency(self):
        spec = JacobiSpec(4, 1.2, 0.3)
        x = np.array([-0.5, 0.0, 0.8])
        jet = jacobi_jet(spec, x, 3)
        assert np.allclose(jet.value, jacobi(spec, x), atol=1e-13)
        assert np.allclose(jet.d[1], jacobi_deriv(spec, x), atol=1e-12)


# orders of the oscillator and Swanson(0.1, 0.2) Legendre states and of the
# PT(1, 0.5) Jacobi states at tau = 1e-2, 0.25 and 5; Swanson's order is
# complex with zero imaginary part
LADDER_MUS = (-100.00125, -4.0311289, -0.5385165,
              -73.260589 + 0j, -2.4255177 + 0j, -0.3434079 + 0j)
LADDER_JACOBI_AB = ((10.012492, 70.712446), (2.0615528, 2.8722813), (0.6708204, 0.5196152))
LADDER_NMAX = 100


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLadders:
    """One recurrence sweep gives every degree exactly as the per-degree call."""

    @pytest.mark.parametrize("mu", LADDER_MUS)
    def test_legendre_rows_bit_identical(self, mu):
        z = np.linspace(-0.995, 0.995, 157)
        rows = assoc_legendre_ladder(LegendreSpec(LADDER_NMAX, mu), z)
        assert rows.shape == (LADDER_NMAX + 1, z.size)
        for n in range(LADDER_NMAX + 1):
            assert _same_bits(rows[n], assoc_legendre(LegendreSpec(n, mu), z)), n

    @pytest.mark.parametrize("a, b", LADDER_JACOBI_AB)
    def test_jacobi_rows_bit_identical(self, a, b):
        x = np.linspace(-0.995, 0.995, 157)
        rows = jacobi_ladder(JacobiSpec(LADDER_NMAX, a, b), x)
        assert rows.shape == (LADDER_NMAX + 1, x.size)
        for n in range(LADDER_NMAX + 1):
            assert _same_bits(rows[n], jacobi(JacobiSpec(n, a, b), x)), n

    def test_complex_order_rows(self):
        z = np.linspace(-0.9, 0.9, 31)
        mu = -1.6 + 0.4j  # the broken-symmetry branch carries complex order
        rows = assoc_legendre_ladder(LegendreSpec(12, mu), z)
        for n in range(13):
            assert _same_bits(rows[n], assoc_legendre(LegendreSpec(n, mu), z))

    def test_scalar_argument_and_validation(self):
        rows = jacobi_ladder(JacobiSpec(3, 0.5, 1.5), 0.2)
        assert rows.shape == (4,)
        assert rows[3] == jacobi(JacobiSpec(3, 0.5, 1.5), 0.2)
        with pytest.raises(DomainError):
            assoc_legendre_ladder(LegendreSpec(2, -1.5), 1.5)


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
