import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gup_spectra import phase
from gup_spectra.algebra import DeformationParams
from gup_spectra.errors import NoRoot, ParameterError
from gup_spectra.phase import PhaseQuery, discriminant, pt_model_reality, scan


class TestDiscriminant:
    def test_reference_values(self):
        assert discriminant(2.0, 0.1, 0.0) == pytest.approx(0.8, abs=1e-14)
        assert discriminant(15.0, 0.1, 0.5) == pytest.approx(12.6025, abs=1e-12)
        assert discriminant(0.0, 0.0, 0.0) == pytest.approx(4.0, abs=1e-14)

    def test_sign_claims(self):
        assert discriminant(2.0, 0.1, 0.5) < 0
        assert discriminant(15.0, 0.1, 0.0) < 0


def _lower_root(alpha, tau):
    """The lower boundary root at one alpha, as ``scan`` emits it."""
    (curve,) = scan(PhaseQuery(params=DeformationParams(), alpha_lo=alpha,
                               alpha_hi=alpha + 1.0, alpha_steps=2, tau_list=(tau,)))
    return dict(curve.points)[alpha]


def _emitted_roots(alpha, tau):
    """Both polished boundary roots at one alpha, rounded as the kernel emits them."""
    params = DeformationParams()
    roots, _ = phase._boundary_roots(np.array([alpha]), tau, params)
    kept = roots[~np.isnan(roots)]
    return phase._emitted(alpha, kept, tau, params) if tau else kept


class TestBoundary:
    def test_undeformed_hyperbola(self):
        (curve,) = scan(PhaseQuery(params=DeformationParams(), alpha_lo=1.0,
                                   alpha_hi=2.0, alpha_steps=2, tau_list=(0.0,)))
        assert curve.points == [(1.0, pytest.approx(0.25, abs=1e-15)),
                                (2.0, pytest.approx(0.125, abs=1e-15))]

    def test_undeformed_curve_across_window(self):
        (curve,) = scan(PhaseQuery(params=DeformationParams(), alpha_lo=0.5,
                                   alpha_hi=16.0, alpha_steps=300, tau_list=(0.0,)))
        assert len(curve.points) == 300
        for alpha, beta in curve.points:
            assert abs(beta * alpha - 0.25) < 1e-10

    def test_deformed_roots_verified(self):
        for alpha in (0.7, 2.0, 6.0, 15.0):
            roots = _emitted_roots(alpha, 0.5)
            assert roots.size
            for beta in roots:
                assert abs(discriminant(alpha, beta, 0.5)) < 1e-9

    def test_large_alpha_roots_kept_unrounded(self):
        # rounding to 15 decimals would move D by about 16 alpha * 5e-16
        alpha = 25000000.75
        beta = _lower_root(alpha, 1e-6)
        assert beta != round(beta, 15)
        assert abs(discriminant(alpha, beta, 1e-6)) < 1e-9
        assert abs(discriminant(alpha, round(beta, 15), 1e-6)) >= 1e-9

    def test_sign_flip_across_boundary(self):
        for alpha, tau in ((2.0, 0.5), (5.0, 0.3), (2.0, 0.0)):
            beta = _lower_root(alpha, tau)
            lo = discriminant(alpha, beta - 1e-5, tau)
            hi = discriminant(alpha, beta + 1e-5, tau)
            assert lo * hi < 0

    def test_no_root_cases(self):
        # alpha = 0 has no finite boundary at tau = 0, and alpha = -1 only a
        # root with Omega < 0: scan leaves both out
        roots, real = phase._boundary_roots(np.array([-1.0, 0.0]), 0.0, DeformationParams())
        assert list(real) == [True, False] and np.isnan(roots).all()
        (curve,) = scan(PhaseQuery(params=DeformationParams(), alpha_lo=-1.0,
                                   alpha_hi=1.0, alpha_steps=3, tau_list=(0.0,)))
        assert [alpha for alpha, _ in curve.points] == [1.0]
        with pytest.raises(ParameterError):
            PhaseQuery(params=DeformationParams(), alpha_lo=1.0, alpha_hi=2.0,
                       alpha_steps=2, tau_list=(-0.1,))

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.floats(0.3, 16.0), tau=st.floats(0.05, 1.0))
    def test_roots_always_reverify(self, alpha, tau):
        for beta in _emitted_roots(alpha, tau):
            assert abs(discriminant(alpha, beta, tau)) < 1e-9


class TestTauRange:
    """tau must keep tau^2 a normal double: smaller or larger values, NaN
    and inf are refused with ParameterError instead of warnings."""

    @pytest.mark.parametrize("tau", [1e-163, 1e-160, 1e-155, math.nan, math.inf, 1e200])
    def test_unrepresentable_tau_refused(self, tau):
        with pytest.raises(ParameterError):
            PhaseQuery(params=DeformationParams(), alpha_lo=0.5, alpha_hi=16.0,
                       alpha_steps=5, tau_list=(0.25, tau))

    def test_smallest_normal_tau_scans_quietly(self):
        # the upper root q / tau^2 overflows here; only the lower one is kept
        query = PhaseQuery(params=DeformationParams(), alpha_lo=0.5, alpha_hi=16.0,
                           alpha_steps=5, tau_list=(1.5e-154,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (curve,) = scan(query)
        assert len(curve.points) == 5
        assert curve.points[-1] == (16.0, 0.015625)


def _count_newton_steps(monkeypatch):
    """Record the beta array of every discriminant evaluation in phase."""
    steps = []
    real = phase.discriminant

    def counting(alpha, beta, tau, params):
        steps.append(np.array(beta, dtype=float, copy=True))
        return real(alpha, beta, tau, params)

    monkeypatch.setattr(phase, "discriminant", counting)
    return steps


class TestNewtonCycle:
    """Roots past the reach of |D| < 1e-9 cycle; they leave the Newton loop
    as soon as an iterate repeats, with the same (dropped) outcome."""

    def test_two_cycle_leaves_early(self, monkeypatch):
        # an upper root near 1e10 where |D| < 1e-9 is below D's round-off:
        # beta alternates between two floats and can never converge
        steps = _count_newton_steps(monkeypatch)
        params = DeformationParams(hbar=0.547085329217715, omega=0.1467128532956946)
        out = phase._polish(np.array([30.573692021871985]),
                            np.array([10514589723.736269]), 0.00021569386787482784,
                            params)
        assert np.isnan(out[0])
        assert len(steps) < 10
        assert steps[-1][0] == steps[-3][0]

    def test_longer_cycles_leave_early(self, monkeypatch):
        # at tau = 0.01 on the README window 106 upper roots never polish,
        # cycling with periods 2, 3 and 4
        steps = _count_newton_steps(monkeypatch)
        (curve,) = scan(PhaseQuery(params=DeformationParams(), alpha_lo=0.5,
                                   alpha_hi=16.0, alpha_steps=300, tau_list=(0.01,)))
        assert len(curve.points) == 300
        assert len(steps) < 15


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


# ---------------------------------------------------------------------------
# reference: the per-alpha scalar loop the vectorized kernel replaced

def _reference_refine(alpha, tau, params, beta, tol=1e-9):
    hw = params.hbar * params.omega
    for _ in range(60):
        d = discriminant(alpha, beta, tau, params)
        if abs(d) < tol:
            return beta
        omega_big = alpha + beta + hw
        slope = -16.0 * alpha + 2.0 * tau ** 2 * omega_big - 4.0 * tau * hw
        if slope == 0.0:
            break
        beta -= d / slope
    d = discriminant(alpha, beta, tau, params)
    return beta if abs(d) < tol else None


def _reference_boundary(alpha, tau, params):
    hw = params.hbar * params.omega
    if tau == 0.0:
        if alpha == 0.0:
            raise NoRoot("no finite boundary at alpha = 0, tau = 0")
        beta = hw ** 2 / (4.0 * alpha)
        if alpha + beta + hw <= 0:
            raise NoRoot("boundary root violates Omega > 0")
        return [beta]
    s = alpha + hw
    a_q = tau ** 2
    b_q = 2.0 * tau ** 2 * s - 4.0 * tau * hw - 16.0 * alpha
    c_q = (tau * s - 2.0 * hw) ** 2
    disc = b_q ** 2 - 4.0 * a_q * c_q
    if disc < 0:
        raise NoRoot(f"D > 0 for all beta at alpha={alpha}, tau={tau}")
    sq = math.sqrt(disc)
    qq = -0.5 * (b_q + math.copysign(sq, b_q))
    cand = [qq / a_q]
    if qq != 0.0:
        cand.append(c_q / qq)
    roots = [_reference_refine(alpha, tau, params, r) for r in cand if alpha + r + hw > 0]
    roots = [r for r in roots if r is not None]
    if not roots:
        raise NoRoot(f"no polished boundary root with Omega > 0 at alpha={alpha}, "
                     f"tau={tau}")
    return sorted(set(round(r, 15) for r in roots))


def _reference_scan(query):
    curves = []
    alphas = np.linspace(query.alpha_lo, query.alpha_hi, query.alpha_steps)
    for tau in query.tau_list:
        points = []
        for a in alphas:
            try:
                beta = _reference_boundary(float(a), float(tau), query.params)[0]
            except NoRoot:
                continue
            if abs(discriminant(float(a), beta, float(tau), query.params)) >= 1e-9:
                raise NoRoot(f"emitted point failed re-verification at alpha={a}")
            points.append((float(a), float(beta)))
        monotone = True
        if points:
            betas = [b for _, b in points]
            monotone = bool(np.all(np.diff(betas) <= 1e-12)
                            or np.all(np.diff(betas) >= -1e-12))
        curves.append((tau, points, monotone))
    return curves


def _outcome(run, *args):
    """Result, or the NoRoot message, with every float as its exact repr."""
    try:
        return repr(run(*args))
    except NoRoot as exc:
        return f"NoRoot: {exc}"


def _scan_tuples(query):
    return [(c.tau, c.points, c.monotone) for c in scan(query)]


def _random_queries(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lo = float(rng.uniform(-20.0, 20.0) * 10.0 ** rng.uniform(-2.0, 1.0))
        hi = lo + float(10.0 ** rng.uniform(-3.0, 2.5))
        taus = [0.0, float(rng.uniform(0.0, 1.0)), float(10.0 ** rng.uniform(-4.0, 1.7))]
        taus = tuple(taus[i] for i in sorted(rng.choice(3, int(rng.integers(1, 4)),
                                                        replace=False)))
        units = ((1.0, 1.0) if rng.random() < 0.4
                 else tuple(float(v) for v in 10.0 ** rng.uniform(-1.0, 2.2, 2)))
        yield PhaseQuery(params=DeformationParams(hbar=units[0], omega=units[1]),
                         alpha_lo=lo, alpha_hi=hi,
                         alpha_steps=int(rng.integers(2, 200)), tau_list=taus)


def _kernel_one_alpha(alpha, tau, params):
    """Both roots of the kernel at one alpha, ascending and as emitted, or
    which of the two no-root cases holds."""
    roots, real = phase._boundary_roots(np.array([alpha]), tau, params)
    kept = roots[~np.isnan(roots)]
    if not real[0]:
        return "no real root"
    if not kept.size:
        return "no root with Omega > 0"
    if tau:
        kept = phase._emitted(alpha, kept, tau, params)
    return sorted(set(kept.tolist()))


def _reference_one_alpha(alpha, tau, params):
    try:
        return _reference_boundary(alpha, tau, params)
    except NoRoot as exc:
        if str(exc).startswith(("D > 0", "no finite boundary")):
            return "no real root"
        return "no root with Omega > 0"


class TestVectorizedScanMatchesScalarLoop:
    """Points, kept alphas, monotone flags and NoRoot equal the per-alpha
    loop bit for bit, and no masked element raises a RuntimeWarning."""

    @pytest.mark.parametrize("seed", range(4))
    def test_random_windows(self, seed):
        raised = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for query in _random_queries(seed, 40):
                got = _outcome(_scan_tuples, query)
                assert got == _outcome(_reference_scan, query)
                raised += got.startswith("NoRoot")
        assert raised < 40

    def test_hyperbola_reverification_failure(self):
        # at tau = 0 the unpolished root misses |D| < 1e-9 once hw^2 is large
        query = PhaseQuery(params=DeformationParams(hbar=1e4), alpha_lo=-3.0,
                           alpha_hi=5.0, alpha_steps=50, tau_list=(0.5, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome(_scan_tuples, query)
        assert got.startswith("NoRoot: emitted point failed re-verification")
        assert got == _outcome(_reference_scan, query)

    def test_kernel_single_alpha(self):
        # both roots, not only the lower one scan keeps
        rng = np.random.default_rng(11)
        params = DeformationParams(hbar=0.7, omega=2.0)
        cases = [(0.0, 0.0), (-1.0, 0.0), (-3.0, 0.0), (2.0, 0.5), (0.0, 0.3),
                 (-0.5, 2.0), (15.0, 0.5)]
        cases += [(float(a), float(t)) for a, t in
                  zip(rng.uniform(-10.0, 20.0, 60), rng.uniform(0.0, 3.0, 60))]
        outcomes = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for alpha, tau in cases:
                got = _kernel_one_alpha(alpha, tau, params)
                assert got == _reference_one_alpha(alpha, tau, params), (alpha, tau)
                outcomes.add(len(got) if isinstance(got, list) else got)
        assert outcomes == {"no real root", "no root with Omega > 0", 1, 2}
