import math

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
from gup_spectra.errors import NonIntegrable, ParameterError, UnsupportedPair
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
        assert res.extrapolated
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

    def test_segment_representation_delegated(self):
        params = DeformationParams(tau=0.25)
        with pytest.raises(UnsupportedPair):
            expectation_direct(HarmonicOscillator(), R.PI4, params, 0, "X2")

    def test_first_moment_of_position_vanishes(self):
        params = DeformationParams(tau=0.25)
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2), PoschlTeller(1.0, 0.5)):
            assert abs(expectation_unified(model, params, 1, "X")) < 1e-9


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
        zs = oracle._zspace(HarmonicOscillator(), params, 0, 4, 256)
        with pytest.raises(ValueError):
            zs.wq[0] = 0.0
        with pytest.raises(ValueError):
            zs.basis.d[0, 0] = 0.0
