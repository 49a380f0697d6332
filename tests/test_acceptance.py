"""Acceptance suite: one check per shipped guarantee, printed pass/fail.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances are fixed here and match the package's documented guarantees.
"""

import math
import time

import numpy as np
import pytest

from gup_spectra.algebra import (
    DeformationParams,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
)
from gup_spectra.liouville import master_residual
from gup_spectra.operators import commutator_residual, default_grid
from gup_spectra.oracle import (
    expectation_direct,
    expectation_unified,
    verify_spectrum,
)
from gup_spectra.phase import PhaseQuery, discriminant, scan
from gup_spectra.solutions import (
    ansatz_for,
    classify_physical,
    gram_matrix,
    metric_generic,
    solve,
)
from references import closed_form_well

R = Representation


def _report(tag, passed, detail):
    print(f"[{tag}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{tag}: {detail}"


class TestAcceptance:
    def test_c01_oscillator_spectrum_against_oracle(self):
        start = time.perf_counter()
        worst = 0.0
        for tau in (0.1, 0.5, 1.0):
            report = verify_spectrum(HarmonicOscillator(), R.PI1,
                                     DeformationParams(tau=tau), count=6,
                                     tolerance=1e-5)
            worst = max(worst, float(np.max(report.rel_errors)))
        elapsed = time.perf_counter() - start
        _report("criterion-01", worst < 1e-5 and elapsed < 10.0,
                f"oscillator spectral oracle, n<=5, tau in {{0.1,0.5,1.0}}: "
                f"max rel err {worst:.2e} (tol 1e-5), runtime {elapsed:.2f}s (< 10s)")

    def test_c02_commutative_limits(self):
        sol = solve(HarmonicOscillator(), R.PI1, DeformationParams(tau=0.0))
        dev_ho = max(abs(sol.energy(n) - (n + 0.5)) for n in range(6))
        sw = solve(Swanson(0.1, 0.2), R.PI1, DeformationParams(tau=1e-8))
        ref = math.sqrt(1.0 - 4 * 0.1 * 0.2)
        dev_sw = max(abs(sw.energy(n) - (n + 0.5) * ref) for n in range(6))
        _report("criterion-02", dev_ho < 1e-10 and dev_sw < 1e-6,
                f"commutative limits: oscillator dev {dev_ho:.2e} (tol 1e-10), "
                f"Swanson tau=1e-8 dev {dev_sw:.2e} (tol 1e-6)")

    def test_c03_swanson_point_claims(self):
        def is_real(alpha, beta, tau):
            cls = classify_physical(Swanson(alpha, beta), R.PI1,
                                    DeformationParams(tau=tau))
            return cls.physical and not cls.complex_spectrum

        claims_ok = (is_real(2.0, 0.1, 0.0) and not is_real(2.0, 0.1, 0.5)
                     and not is_real(15.0, 0.1, 0.0) and is_real(15.0, 0.1, 0.5))
        sol = solve(Swanson(15.0, 0.1), R.PI1, DeformationParams(tau=0.5))
        formula_dev = abs(sol.energy(0) - 2.9)
        report = verify_spectrum(Swanson(15.0, 0.1), R.PI1,
                                 DeformationParams(tau=0.5), count=1,
                                 tolerance=1e-4)
        _report("criterion-03",
                claims_ok and formula_dev < 1e-10 and report.rel_errors[0] < 1e-4,
                f"reality pattern ok={claims_ok}, E0 formula dev {formula_dev:.1e} "
                f"(tol 1e-10), oracle rel {report.rel_errors[0]:.2e} (tol 1e-4)")

    def test_c04_inverse_square_model(self):
        params = DeformationParams(tau=0.25)
        report = verify_spectrum(PoschlTeller(1.0, 0.5), R.PI1, params,
                                 count=1, tolerance=1e-4)
        closed_ok = abs(report.closed[0] - 4.4012984443103385) < 1e-10
        eps = 1e-6
        tau = 0.25
        flips = (classify_physical(PoschlTeller(-tau / 4 + eps, 0.5), R.PI1, params).physical
                 and not classify_physical(PoschlTeller(-tau / 4 - eps, 0.5), R.PI1, params).physical
                 and classify_physical(PoschlTeller(1.0, -tau ** 2 / 4 + eps), R.PI1, params).physical
                 and not classify_physical(PoschlTeller(1.0, -tau ** 2 / 4 - eps), R.PI1, params).physical)
        _report("criterion-04",
                closed_ok and report.rel_errors[0] < 1e-4 and flips,
                f"E0 closed/oracle rel {report.rel_errors[0]:.2e} (tol 1e-4), "
                f"reality boundary flips at -tau/4 and -tau^2/4 probed at ±1e-6: {flips}")

    def test_c05_commutator_suite(self):
        params = DeformationParams(tau=0.3)
        worst = 0.0
        for rep in (R.PI1, R.PI2, R.PI3, R.PI4):
            grid, dp = default_grid(rep, params)
            suite = [np.exp(-s * grid ** 2) for s in (0.5, 1.0, 2.0)]
            suite += [grid * np.exp(-s * grid ** 2) for s in (0.5, 1.0)]
            for psi in suite:
                worst = max(worst, commutator_residual(rep, params, psi, grid, dp))
        p05 = DeformationParams(tau=0.5)
        grid, dp = default_grid(R.PI4_PRIME, p05)
        psi = np.exp(-grid ** 2)
        flipped = commutator_residual(R.PI4_PRIME, p05, psi, grid, dp)
        violation = commutator_residual(R.PI4_PRIME, p05, psi, grid, dp,
                                        reference_sign=+1)
        _report("criterion-05", worst < 1e-7 and flipped < 1e-7 and violation > 0.1,
                f"deformed relation residual {worst:.2e} (tol 1e-7) on 5 test "
                f"functions for Pi1..Pi4; primed variant: flipped-sign residual "
                f"{flipped:.2e}, unflipped violation {violation:.2f} (> 0.1)")

    def test_c06_metric_suite(self):
        params = DeformationParams(tau=0.25)
        stated = [
            (HarmonicOscillator(), R.PI1), (HarmonicOscillator(), R.PI3),
            (HarmonicOscillator(), R.PI4),
            (Swanson(0.1, 0.2), R.PI1), (Swanson(0.1, 0.2), R.PI3),
            (Swanson(0.1, 0.2), R.PI4),
            (PoschlTeller(1.0, 0.5), R.PI1), (PoschlTeller(1.0, 0.5), R.PI2),
            (PoschlTeller(1.0, 0.5), R.PI3), (PoschlTeller(1.0, 0.5), R.PI4),
        ]
        worst_ratio = 0.0
        for model, rep in stated:
            sol = solve(model, rep, params)
            rho_gen = metric_generic(model, rep, params)
            dom = sol.domain
            lo = 0.0 if isinstance(model, PoschlTeller) else dom.lo
            hi = dom.hi
            if not math.isfinite(hi):
                hi = 8.0
            if not math.isfinite(lo):
                lo = -8.0
            span = hi - lo
            pts = np.linspace(lo + 0.05 * span, hi - 0.05 * span, 100)
            ratio = rho_gen(pts) / sol.metric(pts)
            worst_ratio = max(worst_ratio, float(np.max(np.abs(ratio / ratio[0] - 1.0))))
        worst_gram = 0.0
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2), PoschlTeller(1.0, 0.5)):
            for rep in (R.PI1, R.PI2, R.PI3, R.PI4):
                g = gram_matrix(solve(model, rep, params), 4)
                worst_gram = max(worst_gram, float(np.max(np.abs(g - np.eye(5)))))
        _report("criterion-06", worst_ratio < 1e-8 and worst_gram < 1e-8,
                f"10 stated metrics vs generic assembly: ratio dev {worst_ratio:.2e} "
                f"(tol 1e-8); Gram identity over 12 solvable pairs: dev "
                f"{worst_gram:.2e} (tol 1e-8)")

    def test_c07_representation_independence(self):
        params = DeformationParams(tau=0.25)
        words = ["P", "P2", "X", "X2", "H"]
        worst_pair = 0.0
        worst_h = 0.0
        worst_p = 0.0
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2), PoschlTeller(1.0, 0.5)):
            sol = solve(model, R.PI1, params)
            for n in (0, 1, 2):
                for word in words:
                    vals = [expectation_unified(model, params, n, word)]
                    for rep in (R.PI1, R.PI2, R.PI3):
                        vals.append(expectation_direct(model, rep, params, n, word))
                    worst_pair = max(worst_pair,
                                     max(abs(a - b) for a in vals for b in vals))
                worst_h = max(worst_h, abs(expectation_unified(model, params, n, "H")
                                           - complex(sol.energy(n))))
                if not isinstance(model, PoschlTeller):
                    worst_p = max(worst_p,
                                  abs(expectation_unified(model, params, n, "P")))
        _report("criterion-07",
                worst_pair < 1e-6 and worst_h < 1e-8 and worst_p < 1e-10,
                f"cross-representation deviation {worst_pair:.2e} (tol 1e-6); "
                f"<H> vs E_n {worst_h:.2e} (tol 1e-8); <P> on symmetric models "
                f"{worst_p:.2e} (tol 1e-10)")

    def test_c08_master_identity(self):
        params = DeformationParams(tau=0.25)
        worst = 0.0
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2), PoschlTeller(1.0, 0.5)):
            for rep in (R.PI1, R.PI3, R.PI4):
                sol = solve(model, rep, params)
                pot = closed_form_well(model, rep, params)
                span = pot.q_hi - pot.q_lo
                qs = np.linspace(pot.q_lo + 0.05 * span, pot.q_hi - 0.05 * span, 101)
                for n in range(6):
                    res = master_residual(ansatz_for(sol, n), pot,
                                          float(np.real(sol.energy(n))), qs)
                    worst = max(worst, res)
        _report("criterion-08", worst < 1e-8,
                f"master identity residual over all shipped solutions, n<=5: "
                f"{worst:.2e} (tol 1e-8)")

    def test_c09_minimal_length(self):
        hbar = 1.0
        worst_margin = math.inf
        details = []
        for tau in (0.1, 0.5):
            params = DeformationParams(tau=tau)
            tc = params.tau_check
            # oscillator plus a Hermitian real-regime Swanson point (equal
            # couplings keep the position operator metric-symmetric, which the
            # product bound requires; the ground state saturates it)
            for model in (HarmonicOscillator(), Swanson(0.2, 0.2)):
                for n in range(5):
                    x2 = expectation_unified(model, params, n, "X2").real
                    p2 = expectation_unified(model, params, n, "P2").real
                    dx = math.sqrt(x2)
                    dp = math.sqrt(p2)
                    assert dx >= hbar * math.sqrt(tc) * (1 - 1e-12)
                    lhs = dx * dp
                    rhs = 0.5 * hbar * (1 + tc * p2)
                    worst_margin = min(worst_margin, lhs / rhs - 1.0)
            # the spread bound alone also holds off the Hermitian line
            x2 = expectation_unified(Swanson(0.1, 0.2), params, 0, "X2").real
            assert math.sqrt(x2) >= hbar * math.sqrt(tc)
        ok = worst_margin >= -1e-9
        _report("criterion-09", ok,
                f"minimal-length bounds for oscillator and Hermitian Swanson, "
                f"n<=4, tau in {{0.1, 0.5}}: worst product margin "
                f"{worst_margin:+.2e} (saturated at n=0, slack 1e-9)")

    def test_c10_phase_scan(self):
        start = time.perf_counter()
        query = PhaseQuery(params=DeformationParams(), alpha_lo=0.5,
                           alpha_hi=16.0, alpha_steps=300,
                           tau_list=(0.0, 0.25, 0.5))
        curves = scan(query)
        elapsed = time.perf_counter() - start
        undeformed = curves[0].points
        assert len(undeformed) == 300
        worst = max(abs(alpha * beta - 0.25) for alpha, beta in undeformed)
        worst_d = 0.0
        for curve in curves:
            for a, b in curve.points:
                worst_d = max(worst_d, abs(discriminant(a, b, curve.tau)))
        _report("criterion-10",
                worst < 1e-10 and worst_d < 1e-9 and elapsed < 2.0,
                f"undeformed boundary hyperbola dev {worst:.2e} (tol 1e-10); "
                f"emitted-point |D| {worst_d:.2e} (tol 1e-9); 3x300 scan "
                f"{elapsed:.2f}s (< 2s)")
