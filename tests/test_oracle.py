import math
import warnings

import numpy as np
import pytest

from gup_spectra.algebra import (
    DeformationParams,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
)
from gup_spectra import oracle
from gup_spectra.errors import (
    NonIntegrable,
    ParameterError,
    UnsupportedPair,
)
from gup_spectra.oracle import (
    EigenProblem,
    expectation_direct,
    expectation_unified,
    fd_eigenvalues,
    parse_word,
    verify_spectrum,
)
from gup_spectra.solutions import solve, transformed_potential

R = Representation


class TestEigensolver:
    def test_particle_in_a_box(self):
        prob = EigenProblem(V=lambda q: np.zeros_like(q), q_lo=0.0, q_hi=math.pi,
                            grid_size=2048)
        res = fd_eigenvalues(prob, 4)
        exact = np.arange(1, 5) ** 2
        assert np.max(np.abs(res.eigenvalues - exact) / exact) < 1e-6
        assert np.all(res.error_estimates > 0)

    def test_scaled_oscillator_on_a_box(self):
        prob = EigenProblem(V=lambda q: q * q / 4.0 - 0.5, q_lo=-20.0, q_hi=20.0,
                            grid_size=2048)
        res = fd_eigenvalues(prob, 5)
        assert np.max(np.abs(res.eigenvalues - np.arange(5))) < 1e-5

    def test_deformed_oscillator_well(self):
        params = DeformationParams(tau=0.5)
        pot = transformed_potential(HarmonicOscillator(), R.PI1, params)
        prob = EigenProblem(V=pot.V, q_lo=pot.q_lo, q_hi=pot.q_hi, grid_size=2048)
        res = fd_eigenvalues(prob, 4)
        sol = solve(HarmonicOscillator(), R.PI1, params)
        closed = np.real(sol.energies(3))
        assert np.max(np.abs(res.eigenvalues - closed) / closed) < 1e-5

    def test_preconditions(self):
        prob = EigenProblem(V=lambda q: np.zeros_like(q), q_lo=0.0, q_hi=1.0,
                            grid_size=256)
        with pytest.raises(ParameterError):
            fd_eigenvalues(prob, 64)
        with pytest.raises(ParameterError):
            EigenProblem(V=lambda q: q, q_lo=0.0, q_hi=1.0, grid_size=32)
        with pytest.raises(ParameterError):
            EigenProblem(V=lambda q: q, q_lo=0.0, q_hi=math.inf)

    def test_observed_convergence_order(self):
        # raw (pre-extrapolation) sequences refine at second order
        for model, tau in ((HarmonicOscillator(), 0.5), (PoschlTeller(1.0, 0.5), 0.25)):
            pot = transformed_potential(model, R.PI1, DeformationParams(tau=tau))
            prob = EigenProblem(V=pot.V, q_lo=pot.q_lo, q_hi=pot.q_hi, grid_size=1024)
            res = fd_eigenvalues(prob, 4)
            d1 = np.abs(res.raw[0] - res.raw[1])
            d2 = np.abs(res.raw[1] - res.raw[2])
            order = np.log2(d1 / d2)
            assert np.min(order) > 1.9


class TestVerifySpectrum:
    @pytest.mark.parametrize("tau", [0.1, 0.5, 1.0])
    def test_oscillator(self, tau):
        report = verify_spectrum(HarmonicOscillator(), R.PI1,
                                 DeformationParams(tau=tau), count=6)
        assert report.passed
        assert np.max(report.rel_errors) < 1e-5

    def test_commutative_limit(self):
        report = verify_spectrum(HarmonicOscillator(), R.PI1,
                                 DeformationParams(tau=0.0), count=5)
        assert np.allclose(report.closed, np.arange(5) + 0.5, atol=1e-12)
        assert np.max(report.rel_errors) < 1e-6

    def test_inverse_square_model(self):
        report = verify_spectrum(PoschlTeller(1.0, 0.5), R.PI1,
                                 DeformationParams(tau=0.25), count=4,
                                 tolerance=1e-4)
        assert report.passed
        assert report.closed[0] == pytest.approx(4.4012984443103385, abs=1e-12)

    def test_attractive_wall_regime(self):
        report = verify_spectrum(Swanson(15.0, 0.1), R.PI1,
                                 DeformationParams(tau=0.5), count=1,
                                 tolerance=1e-4)
        assert report.passed
        assert report.closed[0] == pytest.approx(2.9, abs=1e-10)

    def test_broken_regime_refused(self):
        with pytest.raises(ParameterError):
            verify_spectrum(Swanson(2.0, 0.1), R.PI1, DeformationParams(tau=0.5))


def _problem(case):
    """EigenProblem for a named case: the box or (model, rep, tau)."""
    if case == "box":
        return EigenProblem(V=lambda q: np.zeros_like(q), q_lo=0.0, q_hi=math.pi)
    model, rep, tau = case
    pot = transformed_potential(model, rep, DeformationParams(tau=tau))
    return EigenProblem(V=pot.V, q_lo=pot.q_lo, q_hi=pot.q_hi)


def _grid_matrices(problem, res):
    s_lo, s_hi = res.wall_exponents
    return [oracle._fd_matrix(problem.V, problem.q_lo, problem.q_hi, n, s_lo, s_hi)
            for n in res.grid_sizes]


POLISH_CASES = [
    "box",
    (HarmonicOscillator(), R.PI1, 0.25),
    (HarmonicOscillator(), R.PI1, 1e-3),
    (Swanson(0.1, 0.2), R.PI4, 0.01),
    (PoschlTeller(1.0, 0.5), R.PI1, 1.0),
]


class TestPolishedEigensolver:
    """Bisection on the base grid, certified inverse iteration on every grid."""

    @pytest.mark.parametrize("case", POLISH_CASES)
    def test_raw_values_match_tight_bisection(self, case):
        from scipy.linalg import eigvalsh_tridiagonal

        count = 6
        problem = _problem(case)
        res = fd_eigenvalues(problem, count)
        assert res.certified == (True, True, True)
        for raw, (d, e) in zip(res.raw, _grid_matrices(problem, res)):
            tight = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, count - 1),
                                         lapack_driver="stebz", tol=1e-300)
            norm1 = np.max(np.abs(d) + 2.0 * np.abs(e[0]))
            assert np.max(np.abs(raw - tight)) <= np.finfo(float).eps * norm1

    def test_bisects_the_base_grid_only(self, monkeypatch):
        rows, tols = [], []
        real = oracle.eigvalsh_tridiagonal

        def counting(d, e, **kwargs):
            rows.append(len(d))
            tols.append(kwargs["tol"])
            return real(d, e, **kwargs)

        monkeypatch.setattr(oracle, "eigvalsh_tridiagonal", counting)
        problem = _problem(POLISH_CASES[1])
        res = fd_eigenvalues(problem, 4)
        assert res.certified == (True, True, True)
        assert rows == [2046]
        # the seeds are loose: inverse iteration, not bisection, reaches
        # eps * ||T||_1 on the base grid too
        d, e = _grid_matrices(problem, res)[0]
        norm1 = np.max(np.abs(d) + np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e]))
        assert tols == [oracle._SEED_TOL * norm1]
        assert oracle._SEED_TOL == 1e-10

    def test_duplicate_seeds_do_not_certify(self):
        problem = _problem(POLISH_CASES[1])
        res = fd_eigenvalues(problem, 3)
        d, e = _grid_matrices(problem, res)[0]
        seeds = oracle._bisect(d, e, 4)
        assert oracle._polish(d, e, seeds) is not None
        assert oracle._polish(d, e, seeds[[0, 0, 1, 2]]) is None

    def test_fallback_returns_the_bisection_values(self, monkeypatch):
        real = oracle._polish

        # duplicated seeds fail the certificate on every grid
        def duplicated(d, e, seeds):
            return real(d, e, np.repeat(seeds, 2)[:seeds.size])

        count = 4
        problem = _problem(POLISH_CASES[3])
        monkeypatch.setattr(oracle, "_polish", duplicated)
        res = fd_eigenvalues(problem, count)
        assert res.certified == (False, False, False)
        for raw, (d, e) in zip(res.raw, _grid_matrices(problem, res)):
            bisected = oracle._bisect(d, e, count + 1)[:count]
            assert raw.tobytes() == bisected.tobytes()

    def test_reruns_are_bit_identical(self):
        problem = _problem(POLISH_CASES[4])
        first = fd_eigenvalues(problem, 6)
        second = fd_eigenvalues(problem, 6)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert [r.tobytes() for r in first.raw] == [r.tobytes() for r in second.raw]


class TestWordParsing:
    def test_strings(self):
        assert parse_word("X2") == [(1.0, [("X", 2)])]
        assert parse_word("XP+PX") == [(1.0, [("X", 1), ("P", 1)]),
                                       (1.0, [("P", 1), ("X", 1)])]
        assert parse_word("P-2") == [(1.0, [("P", -2)])]
        assert parse_word("H") == [(1.0, [("H", 1)])]

    def test_structured(self):
        assert parse_word([("x", 1), ("p", 2)]) == [(1.0, [("X", 1), ("P", 2)])]

    def test_rejects_garbage_and_long_words(self):
        with pytest.raises(ParameterError):
            parse_word("Q2")
        for word in ("P-", "X-", "XP-+PX"):
            with pytest.raises(ParameterError):
                parse_word(word)
        with pytest.raises(ParameterError):
            expectation_unified(HarmonicOscillator(), DeformationParams(tau=0.2),
                                0, "X2P2X")


class TestExpectations:
    def test_hamiltonian_word_recovers_energy(self):
        params = DeformationParams(tau=0.2)
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2)):
            sol = solve(model, R.PI1, params)
            for n in (0, 1, 4):
                val = expectation_unified(model, params, n, "H")
                assert abs(val - complex(sol.energy(n))) < 1e-10

    def test_momentum_vanishes_on_symmetric_models(self):
        params = DeformationParams(tau=0.2)
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2)):
            for n in (0, 3):
                assert abs(expectation_unified(model, params, n, "P")) < 1e-12

    @pytest.mark.parametrize("n", [0, 20])
    @pytest.mark.parametrize("word", ["P", "P2", "X", "X2", "H"])
    def test_small_tau_basis_is_finite(self, n, word):
        # lam is about 107 here, where the Ferrers constant k_n underflows;
        # the engine's scale-free basis does without it
        model, params = Swanson(0.2526, 0.2116), DeformationParams(tau=5.65e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            val = expectation_unified(model, params, n, word)
        assert np.isfinite(val)
        if word == "H":
            energy = solve(model, R.PI1, params).energy(n)
            assert abs(val - energy) <= 1e-12 * abs(energy)

    @pytest.mark.parametrize("tau", [1e-4, 1e-3, 1e-2, 0.1, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("model", [HarmonicOscillator(), Swanson(0.1, 0.2),
                                       Swanson(0.3, 0.05), PoschlTeller(1.0, 0.5)])
    def test_hamiltonian_word_over_the_tau_range(self, model, tau):
        params = DeformationParams(tau=tau)
        sol = solve(model, R.PI1, params)
        for n in (0, 5, 20, 100):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                val = expectation_unified(model, params, n, "H")
            energy = sol.energy(n)
            assert abs(val - energy) <= 1e-12 * abs(energy), n

    def test_high_level_converges_in_the_rule_order(self, monkeypatch):
        # n = 100 at lam = 71.3, where a Ferrers-normalized basis overflows
        # in the jets
        model, params = Swanson(0.3, 0.05), DeformationParams(tau=0.01)
        p2 = []
        try:
            for q in (256, 384, 512):
                monkeypatch.setattr(oracle, "_QUAD_ORDER", q)
                _clear_unified_caches()
                p2.append(expectation_unified(model, params, 100, "P2"))
        finally:
            monkeypatch.undo()
            _clear_unified_caches()
        assert max(abs(v - p2[0]) for v in p2) <= 1e-12 * abs(p2[0])
        assert p2[0].real == pytest.approx(140.9504413316527, rel=1e-12)
        energy = solve(model, R.PI1, params).energy(100)
        h = expectation_unified(model, params, 100, "H")
        assert abs(h - energy) <= 1e-12 * energy

    def test_normalization_word(self):
        params = DeformationParams(tau=0.25)
        val = expectation_direct(HarmonicOscillator(), R.PI1, params, 1, [])
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_hamiltonian_decomposition_identity(self):
        # <P^2> = 2m (E0 - (m w^2 / 2) <X^2>) for the oscillator
        params = DeformationParams(tau=0.2)
        model = HarmonicOscillator()
        sol = solve(model, R.PI1, params)
        p2 = expectation_unified(model, params, 0, "P2").real
        x2 = expectation_unified(model, params, 0, "X2").real
        assert p2 == pytest.approx(2.0 * (float(sol.energy(0)) - 0.5 * x2), abs=1e-12)

    @pytest.mark.parametrize("word", ["P", "P2", "X", "X2", "H", "XP+PX"])
    def test_representation_independence(self, word):
        params = DeformationParams(tau=0.25)
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2), PoschlTeller(1.0, 0.5)):
            for n in (0, 1):
                vals = [expectation_unified(model, params, n, word)]
                for rep in (R.PI1, R.PI2, R.PI3):
                    vals.append(expectation_direct(model, rep, params, n, word))
                dev = max(abs(a - b) for a in vals for b in vals)
                assert dev < 1e-6

    def test_inverse_momentum_word(self):
        params = DeformationParams(tau=0.25)
        model = PoschlTeller(1.0, 0.5)
        u = expectation_unified(model, params, 0, "P-2")
        d = expectation_direct(model, R.PI3, params, 0, "P-2")
        assert abs(u - d) < 1e-8
        with pytest.raises(NonIntegrable):
            expectation_unified(HarmonicOscillator(), params, 0, "P-2")
        # p = 0 lies inside every oscillator domain: a pole, not a grid value
        for rep in (R.PI1, R.PI2, R.PI3):
            with pytest.raises(NonIntegrable):
                expectation_direct(HarmonicOscillator(), rep, params, 0, "P-2")

    def test_segment_representation_delegated(self):
        params = DeformationParams(tau=0.25)
        with pytest.raises(UnsupportedPair):
            expectation_direct(HarmonicOscillator(), R.PI4, params, 0, "X2")

    def test_first_moment_of_position_vanishes(self):
        params = DeformationParams(tau=0.25)
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2), PoschlTeller(1.0, 0.5)):
            assert abs(expectation_unified(model, params, 1, "X")) < 1e-9


class TestHamiltonianPowers:
    @pytest.mark.parametrize("model", [HarmonicOscillator(), Swanson(0.1, 0.2),
                                       PoschlTeller(1.0, 0.5)])
    def test_power_applies_h_that_many_times(self, model):
        params = DeformationParams(tau=0.2)
        e0 = float(solve(model, R.PI1, params).energy(0))
        squared = expectation_unified(model, params, 0, [("H", 2)])
        _clear_unified_caches()
        assert squared == expectation_unified(model, params, 0, [("H", 1), ("H", 1)])
        assert abs(squared - e0 ** 2) <= 1e-12 * e0 ** 2
        direct = expectation_direct(model, R.PI3, params, 0, [("H", 2)])
        assert abs(direct - squared) <= 1e-9 * abs(squared)
        assert expectation_unified(model, params, 0, [("H", 0)]) == pytest.approx(1.0, abs=1e-12)
        assert expectation_direct(model, R.PI3, params, 0, [("H", 0)]) == pytest.approx(1.0, abs=1e-9)

    def test_negative_power_rejected(self):
        model, params = HarmonicOscillator(), DeformationParams(tau=0.2)
        with pytest.raises(ParameterError):
            expectation_unified(model, params, 0, [("H", -1)])
        with pytest.raises(ParameterError):
            expectation_direct(model, R.PI3, params, 0, [("H", -1)])

    @pytest.mark.parametrize("word", [[("X", -1)], "X-2", "PX-1"])
    def test_negative_position_power_rejected(self, word):
        # X has no inverse either; "X-1" was the identity before
        model, params = HarmonicOscillator(), DeformationParams(tau=0.2)
        with pytest.raises(ParameterError, match="X has no inverse"):
            expectation_unified(model, params, 0, word)
        with pytest.raises(ParameterError, match="X has no inverse"):
            expectation_direct(model, R.PI3, params, 0, word)

    def test_zeroth_position_power_is_identity(self):
        model, params = HarmonicOscillator(), DeformationParams(tau=0.2)
        assert expectation_unified(model, params, 0, "X0") == pytest.approx(1.0, abs=1e-12)
        assert expectation_direct(model, R.PI3, params, 0, "X0") == pytest.approx(1.0, abs=1e-9)


WORDS = ("P", "P2", "X", "X2", "H")


def _clear_unified_caches():
    oracle._gauss_jacobi.cache_clear()
    oracle._zspace.cache_clear()


class TestUnifiedMemo:
    """The unified engine reuses its quadrature rule and basis spaces."""

    def test_word_order_does_not_matter(self):
        params = DeformationParams(tau=0.3)
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2), PoschlTeller(1.0, 0.5)):
            _clear_unified_caches()
            forward = {(n, w): expectation_unified(model, params, n, w)
                       for n in (0, 2) for w in WORDS}
            _clear_unified_caches()
            backward = {(n, w): expectation_unified(model, params, n, w)
                        for n in (2, 0) for w in reversed(WORDS)}
            again = {(n, w): expectation_unified(model, params, n, w)
                     for n in (0, 2) for w in WORDS}
            assert forward == backward == again

    def test_models_at_one_tau_do_not_share_results(self):
        params = DeformationParams(tau=0.3)
        first, second = Swanson(0.1, 0.2), Swanson(0.4, 0.2)
        _clear_unified_caches()
        cold = expectation_unified(second, params, 1, "H")
        _clear_unified_caches()
        expectation_unified(first, params, 1, "H")
        warm = expectation_unified(second, params, 1, "H")
        assert warm == cold
        for model in (first, second):
            energy = complex(solve(model, R.PI1, params).energy(1))
            assert abs(expectation_unified(model, params, 1, "H") - energy) < 1e-10

    def test_rule_built_once_per_model(self, monkeypatch):
        calls = []
        real = oracle.roots_jacobi

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "roots_jacobi", counting)
        _clear_unified_caches()
        params = DeformationParams(tau=0.3)
        for model in (HarmonicOscillator(), PoschlTeller(1.0, 0.5)):
            calls.clear()
            for n in (0, 1, 4):
                for word in WORDS:
                    expectation_unified(model, params, n, word)
            assert len(calls) == 1

    def test_cached_arrays_are_read_only(self):
        params = DeformationParams(tau=0.3)
        expectation_unified(HarmonicOscillator(), params, 0, "H")
        zs = oracle._zspace(HarmonicOscillator(), params, 0, 4)
        with pytest.raises(ValueError):
            zs.wq[0] = 0.0
        with pytest.raises(ValueError):
            zs.basis.d[0, 0] = 0.0
        # the per-level memos: P powers, X-action coefficients, derived states
        memoized = [zs.p_jet(1).d, zs.p_jet(2).d, zs.bra]
        memoized += [jet.d for jet in zs._x_action[:2]]
        memoized += [zs.apply_term(fs).d for fs in ([("P", 2)], [("X", 2)], [("H", 1)])]
        for arr in memoized:
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0

    @pytest.mark.parametrize("model", [HarmonicOscillator(), Swanson(0.1, 0.2),
                                       PoschlTeller(1.0, 0.5)])
    def test_operator_jets_built_once_per_level(self, model, monkeypatch):
        from gup_spectra.jets import Jet

        params = DeformationParams(tau=0.3)
        _clear_unified_caches()
        oracle._zspace(model, params, 2, 4)  # the basis, built first
        calls = []
        real = Jet.power

        def counting(self, sigma):
            calls.append(sigma)
            return real(self, sigma)

        x_calls = []
        real_x = oracle._ZSpace.apply_x

        def counting_x(self, state):
            x_calls.append(state)
            return real_x(self, state)

        monkeypatch.setattr(Jet, "power", counting)
        monkeypatch.setattr(oracle._ZSpace, "apply_x", counting_x)
        for word in WORDS:
            expectation_unified(model, params, 2, word)
        # (1-z^2)^(-1/2) or the Jacobi p^2, the P powers and the X-action jets
        assert 0 < len(calls) <= 7
        # X psi, X X psi and, for Swanson, X P psi; H reuses all of them
        assert len(x_calls) == (3 if isinstance(model, Swanson) else 2)
        calls.clear()
        x_calls.clear()
        for word in WORDS:
            expectation_unified(model, params, 2, word)
        assert calls == [] and x_calls == []
        zs = oracle._zspace(model, params, 2, 4)
        assert zs.p_jet(2) is zs.p_jet(2)

    @pytest.mark.parametrize("model, words", [
        (HarmonicOscillator(), ("P2", "X2", "XP+PX")),
        (Swanson(0.1, 0.2), ("P2", "X2", "XP+PX")),
        (PoschlTeller(1.0, 0.5), ("P2", "X2", "XP+PX", "P-2")),
    ])
    def test_hamiltonian_reuses_its_terms_exactly(self, model, words):
        params = DeformationParams(tau=0.3)
        for n in (0, 3):
            _clear_unified_caches()
            cold = expectation_unified(model, params, n, "H")
            _clear_unified_caches()
            for word in words:
                expectation_unified(model, params, n, word)
            assert expectation_unified(model, params, n, "H") == cold


DIRECT_WORDS = {HarmonicOscillator(): WORDS + ("XP+PX",),
                Swanson(0.1, 0.2): WORDS + ("XP+PX",),
                PoschlTeller(1.0, 0.5): WORDS + ("XP+PX", "P-2")}


class TestDirectMemo:
    """The direct engine evaluates each level once and shares it between words."""

    @pytest.mark.parametrize("model", list(DIRECT_WORDS))
    def test_word_order_does_not_matter(self, model):
        params = DeformationParams(tau=0.3)
        words = DIRECT_WORDS[model]
        cells = [(n, rep) for n in (0, 3) for rep in (R.PI1, R.PI2, R.PI3)]
        cold = {}
        for n, rep in cells:
            for w in words:
                oracle._direct_level.cache_clear()
                cold[n, rep, w] = expectation_direct(model, rep, params, n, w)
        oracle._direct_level.cache_clear()
        forward = {(n, rep, w): expectation_direct(model, rep, params, n, w)
                   for n, rep in cells for w in words}
        oracle._direct_level.cache_clear()
        backward = {(n, rep, w): expectation_direct(model, rep, params, n, w)
                    for n, rep in reversed(cells) for w in reversed(words)}
        assert cold == forward == backward

    def test_models_at_one_tau_do_not_share_levels(self):
        params = DeformationParams(tau=0.3)
        first, second = Swanson(0.1, 0.2), Swanson(0.4, 0.2)
        oracle._direct_level.cache_clear()
        cold = expectation_direct(second, R.PI3, params, 1, "H")
        oracle._direct_level.cache_clear()
        expectation_direct(first, R.PI3, params, 1, "H")
        warm = expectation_direct(second, R.PI3, params, 1, "H")
        assert warm == cold
        for model in (first, second):
            energy = complex(solve(model, R.PI3, params).energy(1))
            got = expectation_direct(model, R.PI3, params, 1, "H")
            assert abs(got - energy) < 1e-8 * abs(energy)

    def test_cached_arrays_are_read_only(self):
        params = DeformationParams(tau=0.3)
        model = PoschlTeller(1.0, 0.5)
        for word in DIRECT_WORDS[model]:
            expectation_direct(model, R.PI2, params, 1, word)
        level = oracle._direct_level(model, R.PI2, params, 1, 8192)
        arrays = [level.grid, level.ket, level.rho, *level._states.values()]
        assert len(arrays) > 8
        for arr in arrays:
            with pytest.raises(ValueError):
                arr.flat[0] = 0.0

    @pytest.mark.parametrize("model", list(DIRECT_WORDS))
    def test_position_applied_once_per_step(self, model, monkeypatch):
        calls = []
        real = oracle.apply_X

        def counting(rep, params, psi, grid):
            calls.append(rep)
            return real(rep, params, psi, grid)

        monkeypatch.setattr(oracle, "apply_X", counting)
        oracle._direct_level.cache_clear()
        params = DeformationParams(tau=0.3)
        for word in WORDS:
            for rep in (R.PI1, R.PI2, R.PI3):
                expectation_direct(model, rep, params, 2, word)
        # X psi, X X psi and, for Swanson, X P psi, per representation; H
        # reuses all of them
        assert len(calls) == 3 * (3 if isinstance(model, Swanson) else 2)
        calls.clear()
        for word in WORDS:
            for rep in (R.PI1, R.PI2, R.PI3):
                expectation_direct(model, rep, params, 2, word)
        assert calls == []

    def test_holds_one_request_of_levels(self):
        params = DeformationParams(tau=0.3)
        oracle._direct_level.cache_clear()
        assert oracle._direct_level.cache_info().maxsize == len(oracle._DIRECT_REPS) == 3
        for n in range(4):
            for rep in (R.PI1, R.PI2, R.PI3):
                expectation_direct(HarmonicOscillator(), rep, params, n, "X2")
                assert oracle._direct_level.cache_info().currsize <= 3
