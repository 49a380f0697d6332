import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gup_spectra.algebra import DeformationParams
from gup_spectra.errors import NoRoot, ParameterError
from gup_spectra.phase import (
    PhaseQuery,
    boundary_beta,
    discriminant,
    pt_model_reality,
    scan,
)


class TestDiscriminant:
    def test_reference_values(self):
        assert discriminant(2.0, 0.1, 0.0) == pytest.approx(0.8, abs=1e-14)
        assert discriminant(15.0, 0.1, 0.5) == pytest.approx(12.6025, abs=1e-12)
        assert discriminant(0.0, 0.0, 0.0) == pytest.approx(4.0, abs=1e-14)

    def test_sign_claims(self):
        assert discriminant(2.0, 0.1, 0.5) < 0
        assert discriminant(15.0, 0.1, 0.0) < 0


class TestBoundary:
    def test_undeformed_hyperbola(self):
        assert boundary_beta(2.0, 0.0) == [pytest.approx(0.125, abs=1e-15)]
        assert boundary_beta(1.0, 0.0) == [pytest.approx(0.25, abs=1e-15)]

    def test_undeformed_curve_across_window(self):
        for alpha in np.linspace(0.5, 16.0, 300):
            roots = boundary_beta(float(alpha), 0.0)
            assert abs(roots[0] * alpha - 0.25) < 1e-10

    def test_deformed_roots_verified(self):
        for alpha in (0.7, 2.0, 6.0, 15.0):
            for beta in boundary_beta(alpha, 0.5):
                assert abs(discriminant(alpha, beta, 0.5)) < 1e-9

    def test_sign_flip_across_boundary(self):
        for alpha, tau in ((2.0, 0.5), (5.0, 0.3), (2.0, 0.0)):
            roots = boundary_beta(alpha, tau)
            beta = roots[0]
            lo = discriminant(alpha, beta - 1e-5, tau)
            hi = discriminant(alpha, beta + 1e-5, tau)
            assert lo * hi < 0

    def test_no_root_cases(self):
        with pytest.raises(NoRoot):
            boundary_beta(0.0, 0.0)
        with pytest.raises(ParameterError):
            boundary_beta(1.0, -0.1)

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.3, 16.0), tau=st.floats(0.05, 1.0))
    def test_roots_always_reverify(self, alpha, tau):
        try:
            roots = boundary_beta(alpha, tau)
        except NoRoot:
            return
        for beta in roots:
            assert abs(discriminant(alpha, beta, tau)) < 1e-9


class TestRealityWindow:
    def test_inverse_square_model(self):
        assert pt_model_reality(1.0, 0.5, 0.25)
        assert not pt_model_reality(-0.1, 0.5, 0.25)
        assert pt_model_reality(0.0, 0.0, 0.3)
        with pytest.raises(ParameterError):
            pt_model_reality(1.0, 0.5, 0.0)


class TestScan:
    def test_curve_separates_the_two_reference_points(self):
        query = PhaseQuery(params=DeformationParams(), alpha_lo=1.0,
                           alpha_hi=16.0, alpha_steps=31, tau_list=(0.5,))
        curve = scan(query)[0]
        pts = dict(curve.points)
        # broken at (2, 0.1): boundary below 0.1; unbroken at (15, 0.1): above
        assert pts[2.0] < 0.1 < pts[15.0]
        assert curve.region_above == "broken"

    def test_undeformed_curve_monotone(self):
        query = PhaseQuery(params=DeformationParams(), alpha_lo=0.5,
                           alpha_hi=16.0, alpha_steps=100, tau_list=(0.0,))
        curve = scan(query)[0]
        assert curve.monotone

    def test_scan_is_fast(self):
        import time

        query = PhaseQuery(params=DeformationParams(), alpha_lo=0.5,
                           alpha_hi=16.0, alpha_steps=300,
                           tau_list=(0.0, 0.25, 0.5))
        start = time.perf_counter()
        curves = scan(query)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0
        assert len(curves) == 3
        assert all(len(c.points) > 200 for c in curves)

    def test_small_tau_keeps_every_lower_root(self):
        # the upper root is too large to polish to |D| < 1e-9 on much of this
        # window; the lower root still is, so no alpha is dropped
        query = PhaseQuery(params=DeformationParams(), alpha_lo=0.5,
                           alpha_hi=16.0, alpha_steps=300, tau_list=(0.01,))
        curve = scan(query)[0]
        assert len(curve.points) == 300
        assert all(abs(discriminant(a, b, 0.01)) < 1e-9 for a, b in curve.points)

    def test_query_validation(self):
        with pytest.raises(ParameterError):
            PhaseQuery(params=DeformationParams(), alpha_lo=2.0, alpha_hi=1.0,
                       alpha_steps=10, tau_list=(0.0,))
        with pytest.raises(ParameterError):
            PhaseQuery(params=DeformationParams(), alpha_lo=0.0, alpha_hi=1.0,
                       alpha_steps=10, tau_list=(-0.2,))
