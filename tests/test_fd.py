import math

import numpy as np
import pytest

from gup_spectra import fd
from gup_spectra.algebra import (
    DeformationParams,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
    coefficients,
)
from gup_spectra.errors import ConvergenceFailure, ParameterError
from gup_spectra.fd import fd_eigenvalues
from gup_spectra.liouville import to_potential
from gup_spectra.oracle import verify_spectrum
from gup_spectra.solutions import (
    PotentialSpec,
    default_p0,
    solve,
    transformed_potential,
)

R = Representation


def _raw_on_grids(well, base, count):
    """Lowest ``count`` eigenvalues of the factored scheme on grids base,
    2 base and 4 base, bisected to eps * ||T||_1, with the wall exponents
    the oracle measures from V."""
    lo, hi, V = well.q_lo, well.q_hi, well.V
    exponents = [fd._wall_exponent(fd._wall_gamma(V, wall, side, hi - lo))
                 for wall, side in ((lo, -1), (hi, +1))]
    walls = fd._walls(*exponents)
    return [fd._bisect(*fd._fd_matrix(V, lo, hi, n, walls), count)
            for n in (base, 2 * base, 4 * base)]


# Pi1 problems of the sweep over HO, Swanson (0.1, 0.2), (0.5, 0.3), (2, 0.1)
# and PT (1, 0.5), (0.566, 1.7), (3, 2) at tau = geomspace(1e-4, 50, 13)[k]
# where the Richardson terms alone missed the true error, by up to 129x:
# level 0 near 1e-12 relative, where the eigensolver tolerance dominates
ESTIMATE_CASES = [
    (PoschlTeller(1.0, 0.5), 9, 6),
    (PoschlTeller(3.0, 2.0), 12, 6),
    (Swanson(0.5, 0.3), 11, 6),
    (Swanson(2.0, 0.1), 12, 20),
]


class TestEigensolver:
    def test_particle_in_a_box(self):
        prob = PotentialSpec(V=lambda q: np.zeros_like(q), q_lo=0.0, q_hi=math.pi)
        res = fd_eigenvalues(prob, 4)
        exact = np.arange(1, 5) ** 2
        assert np.max(np.abs(res.eigenvalues - exact) / exact) < 1e-6
        assert np.all(res.error_estimates > 0)

    def test_scaled_oscillator_on_a_box(self):
        prob = PotentialSpec(V=lambda q: q * q / 4.0 - 0.5, q_lo=-20.0, q_hi=20.0)
        res = fd_eigenvalues(prob, 5)
        assert np.max(np.abs(res.eigenvalues - np.arange(5))) < 1e-5

    def test_deformed_oscillator_well(self):
        params = DeformationParams(tau=0.5)
        res = fd_eigenvalues(transformed_potential(HarmonicOscillator(), R.PI1, params), 4)
        sol = solve(HarmonicOscillator(), R.PI1, params)
        closed = np.real(sol.energies(3))
        assert np.max(np.abs(res.eigenvalues - closed) / closed) < 1e-5

    @pytest.mark.parametrize("model, rep, tau", [
        (HarmonicOscillator(), R.PI1, 0.25),
        (Swanson(0.1, 0.2), R.PI3, 1.0),
        (PoschlTeller(1.0, 0.5), R.PI4, 0.5),
    ])
    def test_generic_transform_well(self, model, rep, tau):
        # the Liouville transform of the Hamiltonian's (f, g, h), not the
        # closed-form well
        params = DeformationParams(tau=tau)
        well = to_potential(coefficients(model, rep, params),
                            default_p0(model, rep, params))
        res = fd_eigenvalues(well, 6)
        closed = np.real(solve(model, rep, params).energies(5))
        assert np.max(np.abs(res.eigenvalues - closed) / closed) < 1e-7

    @pytest.mark.parametrize("model, k, count", ESTIMATE_CASES)
    def test_error_estimates_bound_the_true_error(self, model, k, count):
        params = DeformationParams(tau=float(np.geomspace(1e-4, 50.0, 13)[k]))
        res = fd_eigenvalues(transformed_potential(model, R.PI1, params), count)
        closed = np.real(solve(model, R.PI1, params).energies(count - 1))
        assert np.all(np.abs(res.eigenvalues - closed) <= res.error_estimates)

    def test_preconditions(self):
        prob = PotentialSpec(V=lambda q: np.zeros_like(q), q_lo=0.0, q_hi=1.0)
        with pytest.raises(ParameterError):
            fd_eigenvalues(prob, 0)
        for lo, hi in ((0.0, math.inf), (1.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ParameterError, match="finite nonempty"):
                fd_eigenvalues(PotentialSpec(V=lambda q: q, q_lo=lo, q_hi=hi), 4)

    @pytest.mark.parametrize("count, base", [(6, 128), (20, 256), (64, 512)])
    def test_level_count_sizes_the_base_grid(self, count, base):
        # 8 cells per level from the least base grid; the box's regular
        # walls ask the narrow-well rule for fewer
        assert fd._LEAST_BASE == 128
        prob = PotentialSpec(V=lambda q: np.zeros_like(q), q_lo=0.0, q_hi=math.pi)
        res = fd_eigenvalues(prob, count)
        assert res.grid_sizes == (base, 2 * base, 4 * base)
        exact = np.arange(1, count + 1) ** 2
        assert np.max(np.abs(res.eigenvalues - exact) / exact) < 1e-6

    def test_more_levels_than_the_largest_base_grid_holds(self, monkeypatch):
        class Built(Exception):
            pass

        def no_matrix(*args):
            raise Built

        monkeypatch.setattr(fd, "_fd_matrix", no_matrix)
        box = PotentialSpec(V=lambda q: np.zeros_like(q), q_lo=0.0, q_hi=1.0)
        with pytest.raises(ParameterError, match="levels need a base grid"):
            fd_eigenvalues(box, fd._MAX_BASE // 8 + 1)
        # the most levels _MAX_BASE cells hold get their grid built
        with pytest.raises(Built):
            fd_eigenvalues(box, fd._MAX_BASE // 8)

    def test_too_narrow_or_non_finite_walls_build_no_matrix(self, monkeypatch):
        # at tau = 1e-12 the rule asks for a base grid of 1.7e7 cells; an
        # overflowing V leaves no wall exponent to size the grid by
        def no_matrix(*args):
            raise AssertionError("no grid may be built")

        monkeypatch.setattr(fd, "_fd_matrix", no_matrix)
        pot = transformed_potential(HarmonicOscillator(), R.PI1,
                                    DeformationParams(tau=1e-12))
        with pytest.raises(ConvergenceFailure, match="too narrow"):
            fd_eigenvalues(pot, 6)
        problem = PotentialSpec(V=lambda q: np.full_like(q, np.inf), q_lo=0.0, q_hi=1.0)
        with pytest.raises(ConvergenceFailure, match="not finite"):
            fd_eigenvalues(problem, 6)

    def test_observed_convergence_order(self):
        # raw (pre-extrapolation) sequences refine at second order
        for model, tau in ((HarmonicOscillator(), 0.5), (PoschlTeller(1.0, 0.5), 0.25)):
            pot = transformed_potential(model, R.PI1, DeformationParams(tau=tau))
            raw = _raw_on_grids(pot, 1024, 4)
            d1 = np.abs(raw[0] - raw[1])
            d2 = np.abs(raw[1] - raw[2])
            order = np.log2(d1 / d2)
            assert np.min(order) > 1.9


# the exact Poschl-Teller cell V = a(a-1)/sin^2 q + b(b-1)/cos^2 q on
# (0, pi/2), E_n = (2n + a + b)^2; a = 0.566 is a wall near the -1/4 collapse
POSCHL_TELLER_CELLS = [(0.566, 0.566), (0.566, 1.7), (0.75, 3.0), (1.5, 2.3)]

# Swanson (alpha, beta, tau, rep) requests whose lowest six levels the FD
# oracle once missed by 1.2e-5 to 2.7e-4
FACTORED_REQUESTS = [
    (0.0649192447101177, 0.10509346510543284, 2.1061254796270354, R.PI3),
    (1.3161573006617135, 0.09917173602356155, 0.22435625851047453, R.PI4),
    (0.11933243400958196, 1.8077671426403399, 1.4404601068974607, R.PI1),
    (0.23695224136741283, 0.13212732419786585, 0.8848807892228193, R.PI3),
    (0.6634483531520138, 0.4438949412839199, 2.0930426651436376, R.PI1),
    (7.8239456564623415, 0.3869535469755078, 1.047045032791305, R.PI4),
    (0.07427076786271984, 0.05855509840821544, 1.2336376857059363, R.PI4),
    (2.948921787798207, 0.030128161134710285, 0.19945781397122359, R.PI4),
    (0.9404492116101096, 0.08013026081202415, 1.6531286455936471, R.PI4),
    (0.09149156796486536, 0.024355608465873892, 2.305874980052581, R.PI4),
]


class TestFactoredScheme:
    @pytest.mark.parametrize("a, b", POSCHL_TELLER_CELLS)
    def test_second_order_at_every_wall(self, a, b):
        def V(q):
            return a * (a - 1.0) / np.sin(q) ** 2 + b * (b - 1.0) / np.cos(q) ** 2

        # on grids 512, 1024 and 2048; the oracle's own 128-cell base grid
        # reads 3.3e-9 against the exact levels
        raw = _raw_on_grids(PotentialSpec(V=V, q_lo=0.0, q_hi=math.pi / 2), 512, 6)
        exact = (2.0 * np.arange(6) + a + b) ** 2
        d1 = np.abs(raw[0] - raw[1])
        d2 = np.abs(raw[1] - raw[2])
        order = np.log2(d1 / d2)
        # the gauge is close to a ground state of this shape, which can then
        # be exact to 1e-8 on every grid, where no order shows
        exact_already = np.all([np.abs(values - exact) <= 1e-8 * exact
                                for values in raw], axis=0)
        assert not np.any(exact_already[1:])
        assert np.all(exact_already | (order > 1.9)), order
        # Richardson with the exponents 2 and 4, as the oracle extrapolates
        best = (64.0 * raw[2] - 20.0 * raw[1] + raw[0]) / 45.0
        assert np.max(np.abs(best - exact) / exact) < 1e-9

    @pytest.mark.parametrize("alpha, beta, tau, rep", FACTORED_REQUESTS)
    def test_attractive_walls_within_tolerance(self, alpha, beta, tau, rep):
        report = verify_spectrum(Swanson(alpha, beta), rep, DeformationParams(tau=tau))
        assert report.passed, report.rel_errors

    @pytest.mark.parametrize("model, rep, tau", [
        (HarmonicOscillator(), R.PI1, 1.1e-4),
        (PoschlTeller(0.6591373966298112, 3.672527912123938), R.PI3,
         1.246283002717211e-4),
    ])
    def test_narrow_well_raises_the_base_grid(self, model, rep, tau):
        # wall exponents of 9e3 and 9e3, or 73 and 1.5e4: the ground state
        # is about L / 135 wide, and the barrier reaches 1e11 in the wall
        # cells, where it would set the certificate's tolerance
        params = DeformationParams(tau=tau)
        pot = transformed_potential(model, rep, params)
        res = fd_eigenvalues(pot, 6)
        assert res.grid_sizes == (2048, 4096, 8192)
        assert res.certified == (True, True, True)
        closed = np.real(solve(model, rep, params).energies(5))
        assert np.max(np.abs(res.eigenvalues - closed) / closed) < 1e-6


def _problem(case):
    """The well of a named case: the box or (model, rep, tau)."""
    if case == "box":
        return PotentialSpec(V=lambda q: np.zeros_like(q), q_lo=0.0, q_hi=math.pi)
    model, rep, tau = case
    return transformed_potential(model, rep, DeformationParams(tau=tau))


def _grid_matrices(problem, res):
    walls = fd._walls(*res.wall_exponents)
    return [fd._fd_matrix(problem.V, problem.q_lo, problem.q_hi, n, walls)
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

    @pytest.mark.parametrize("count", [6, 64])
    @pytest.mark.parametrize("case", POLISH_CASES)
    def test_raw_values_match_tight_bisection(self, case, count):
        # at the least base grid; grid 4N polishes the Richardson
        # prediction from grids N and 2N.  With 64 levels grid 2N falls
        # back to bisection (its seeds, the values of grid N, are too far
        # off), and the other two still certify.
        from scipy.linalg import eigvalsh_tridiagonal

        problem = _problem(case)
        res = fd_eigenvalues(problem, count)
        assert res.certified == ((True, True, True) if count == 6 else (True, False, True))
        for raw, (d, e) in zip(res.raw, _grid_matrices(problem, res)):
            tight = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, count - 1),
                                         lapack_driver="stebz", tol=1e-300)
            norm1 = np.max(np.abs(d) + 2.0 * np.abs(e[0]))
            assert np.max(np.abs(raw - tight)) <= np.finfo(float).eps * norm1

    def test_bisects_the_base_grid_only(self, monkeypatch):
        rows, tols = [], []
        real = fd.eigvalsh_tridiagonal

        def counting(d, e, **kwargs):
            rows.append(len(d))
            tols.append(kwargs["tol"])
            return real(d, e, **kwargs)

        monkeypatch.setattr(fd, "eigvalsh_tridiagonal", counting)
        problem = _problem(POLISH_CASES[1])
        res = fd_eigenvalues(problem, 4)
        assert res.certified == (True, True, True)
        assert rows == [128]
        # the seeds are loose: inverse iteration, not bisection, reaches
        # eps * ||T||_1 on the base grid too
        d, e = _grid_matrices(problem, res)[0]
        norm1 = np.max(np.abs(d) + np.abs(np.r_[e, 0.0]) + np.abs(np.r_[0.0, e]))
        assert tols == [fd._SEED_TOL * norm1]
        assert fd._SEED_TOL == 1e-10

    def test_duplicate_seeds_do_not_certify(self):
        problem = _problem(POLISH_CASES[1])
        res = fd_eigenvalues(problem, 3)
        d, e = _grid_matrices(problem, res)[0]
        seeds = fd._bisect(d, e, 4)
        assert fd._polish(d, e, seeds) is not None
        assert fd._polish(d, e, seeds[[0, 0, 1, 2]]) is None

    def test_fallback_returns_the_bisection_values(self, monkeypatch):
        real = fd._polish

        # duplicated seeds fail the certificate on every grid
        def duplicated(d, e, seeds):
            return real(d, e, np.repeat(seeds, 2)[:seeds.size])

        count = 4
        problem = _problem(POLISH_CASES[3])
        monkeypatch.setattr(fd, "_polish", duplicated)
        res = fd_eigenvalues(problem, count)
        assert res.certified == (False, False, False)
        for raw, (d, e) in zip(res.raw, _grid_matrices(problem, res)):
            bisected = fd._bisect(d, e, count + 1)[:count]
            assert raw.tobytes() == bisected.tobytes()

    @pytest.mark.parametrize("case, rules", [(POLISH_CASES[1], 1), (POLISH_CASES[4], 2)])
    def test_wall_rules_built_once_per_call(self, case, rules, monkeypatch):
        # the capped exponents are equal at the oscillator's two walls, and
        # differ at the Poschl-Teller cell's; every grid shares the rules
        calls = []
        real = fd._wall_rule

        def counting(s):
            calls.append(s)
            return real(s)

        monkeypatch.setattr(fd, "_wall_rule", counting)
        fd_eigenvalues(_problem(case), 4)
        assert len(calls) == rules

    def test_reruns_are_bit_identical(self):
        problem = _problem(POLISH_CASES[4])
        first = fd_eigenvalues(problem, 6)
        second = fd_eigenvalues(problem, 6)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert [r.tobytes() for r in first.raw] == [r.tobytes() for r in second.raw]
