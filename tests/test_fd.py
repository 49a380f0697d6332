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
from gup_spectra.solutions import PotentialSpec, default_p0, solve
from references import closed_form_well

R = Representation


def _raw_on_grids(well, base, count):
    """Lowest ``count`` eigenvalues of the factored scheme on grids base,
    2 base and 4 base, bisected to eps * ||T||_1, with the wall exponents
    the oracle measures from V."""
    lo, hi, V = well.q_lo, well.q_hi, well.V
    walls = fd._walls(*(fd._wall_exponent(gamma) for gamma in fd._wall_gammas(V, lo, hi)))
    return [fd._bisect(*fd._fd_matrix(V, lo, hi, n, walls)[:2], count)
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
        res = fd_eigenvalues(closed_form_well(HarmonicOscillator(), R.PI1, params), 4)
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
        res = fd_eigenvalues(closed_form_well(model, R.PI1, params), count)
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
        pot = closed_form_well(HarmonicOscillator(), R.PI1, DeformationParams(tau=1e-12))
        with pytest.raises(ConvergenceFailure, match="too narrow"):
            fd_eigenvalues(pot, 6)
        problem = PotentialSpec(V=lambda q: np.full_like(q, np.inf), q_lo=0.0, q_hi=1.0)
        with pytest.raises(ConvergenceFailure, match="not finite"):
            fd_eigenvalues(problem, 6)

    def test_observed_convergence_order(self):
        # raw (pre-extrapolation) sequences refine at second order
        for model, tau in ((HarmonicOscillator(), 0.5), (PoschlTeller(1.0, 0.5), 0.25)):
            pot = closed_form_well(model, R.PI1, DeformationParams(tau=tau))
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
        pot = closed_form_well(model, rep, params)
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
    return closed_form_well(model, rep, DeformationParams(tau=tau))


def _grid_matrices(problem, res):
    walls = fd._walls(*res.wall_exponents)
    return [fd._fd_matrix(problem.V, problem.q_lo, problem.q_hi, n, walls)[:2]
            for n in res.grid_sizes]


POLISH_CASES = [
    "box",
    (HarmonicOscillator(), R.PI1, 0.25),
    (HarmonicOscillator(), R.PI1, 1e-3),
    (Swanson(0.1, 0.2), R.PI4, 0.01),
    (PoschlTeller(1.0, 0.5), R.PI1, 1.0),
]


class TestPolishedEigensolver:
    """Seeds from the grids below, certified inverse iteration on every grid."""

    @pytest.mark.parametrize("count", [6, 64])
    @pytest.mark.parametrize("case", POLISH_CASES)
    def test_raw_values_match_tight_bisection(self, case, count):
        # at the least base grid; grid 2N polishes the Richardson prediction
        # from grids N/2 and N, and grid 4N the one from grids N and 2N, so
        # with 64 levels grid 2N certifies too
        from scipy.linalg import eigvalsh_tridiagonal

        problem = _problem(case)
        res = fd_eigenvalues(problem, count)
        assert res.certified == (True, True, True)
        for raw, (d, e) in zip(res.raw, _grid_matrices(problem, res)):
            tight = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, count - 1),
                                         lapack_driver="stebz", tol=1e-300)
            norm1 = np.max(np.abs(d) + 2.0 * np.abs(e[0]))
            assert np.max(np.abs(raw - tight)) <= np.finfo(float).eps * norm1

    @pytest.mark.parametrize("case, count, dense, multisected", [
        # base 128: grids 32 and 64, whole
        (POLISH_CASES[1], 6, [32, 64], []),
        # base 1024: a probe of 32 rows of grid 512, then the cells of its
        # window on grids 256 and 512
        (POLISH_CASES[2], 6, [32, 54, 106], []),
        # base 512 for 64 levels: a probe would take 130 of the 256 rows of
        # grid 256, which is multisected whole
        (POLISH_CASES[1], 64, [], [256]),
        # base 2048 for 64 levels: a probe of 130 rows of grid 1024, then
        # its window, wider than _DENSE_MAX, by multisection
        (POLISH_CASES[2], 64, [130], [374]),
    ])
    def test_seeds_come_from_the_grids_below(self, case, count, dense, multisected,
                                             monkeypatch):
        # grid N/2 is cut to a window where a probe takes at most a quarter
        # of its rows; a window of at most _DENSE_MAX rows and the same
        # cells of grid N/4 are solved densely, a wider one is multisected.
        # No grid is bisected, and the three grids need neither.
        calls = {"dense": [], "multisect": [], "bisect": []}
        for name, key in (("_dense", "dense"), ("_multisect", "multisect"),
                          ("_bisect", "bisect")):
            real = getattr(fd, name)

            def counting(d, *rest, real=real, key=key):
                calls[key].append(d.size)
                return real(d, *rest)

            monkeypatch.setattr(fd, name, counting)
        res = fd_eigenvalues(_problem(case), count)
        assert res.certified == (True, True, True)
        assert calls == {"dense": dense, "multisect": multisected, "bisect": []}

    def test_window_holds_the_low_eigenvectors(self):
        # the probe bounds the top level of grid N/2 from above (Cauchy
        # interlacing); on every grid, the vectors certified on all rows are
        # below e^-20 of their peak outside the window (their round-off
        # floor is near e^-28), and the polish on the window certifies the
        # same values to eps * ||T||_1
        from scipy.linalg import eigvalsh_tridiagonal

        problem = _problem(POLISH_CASES[2])
        res = fd_eigenvalues(problem, 6)
        walls = fd._walls(*res.wall_exponents)
        d, e, potential = fd._fd_matrix(problem.V, problem.q_lo, problem.q_hi,
                                        res.grid_sizes[0] // 2, walls)
        top = eigvalsh_tridiagonal(d, e, select="i", select_range=(6, 6))[0]
        assert top <= fd._probe(d, e, potential, 7)
        for n in res.grid_sizes:
            d, e, potential = fd._fd_matrix(problem.V, problem.q_lo, problem.q_hi, n, walls)
            seeds = fd._bisect(d, e, 7)
            values, vectors = fd._polish(d, e, seeds)
            i, j = fd._window(potential, e, 2.0 * values[-1] - values[-2])
            assert 0 < i and j < n
            peak = np.abs(vectors).max()
            assert np.abs(vectors[:, :i]).max() < math.exp(-20.0) * peak
            assert np.abs(vectors[:, j:]).max() < math.exp(-20.0) * peak
            windowed, _ = fd._polish(d, e, seeds, None, (i, j))
            assert np.max(np.abs(windowed - values)) <= np.finfo(float).eps * fd._norm1(d, e)

    @pytest.mark.parametrize("case", POLISH_CASES)
    def test_sturm_count_matches_lapack(self, case):
        # dstebz range "V" counts the eigenvalues in (-2 ||T||_1, x]; the
        # probes sit 1, 4 and 64 ulps of ||T||_1 from every eigenvalue
        from scipy.linalg import eigvalsh_tridiagonal
        from scipy.linalg.lapack import dstebz

        problem = _problem(case)
        res = fd_eigenvalues(problem, 6)
        walls = fd._walls(*res.wall_exponents)
        for n in res.grid_sizes:
            d, e, _ = fd._fd_matrix(problem.V, problem.q_lo, problem.q_hi, n, walls)
            norm1 = fd._norm1(d, e)
            below = fd._sturm(d, e)
            levels = eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 6))
            for step in (1, 4, 64):
                for x in np.concatenate([levels - step * np.finfo(float).eps * norm1,
                                         levels + step * np.finfo(float).eps * norm1]):
                    want = dstebz(d, e, 1, -2.0 * norm1, x, 0, 0, 4.0 * norm1, "E")[0]
                    assert below(x) == want, (x, step)

    def test_sturm_count_on_split_and_single_row_matrices(self):
        from scipy.linalg.lapack import dstebz

        rng = np.random.default_rng(5)
        d = rng.uniform(-1.0, 1.0, 12)
        e = rng.uniform(-1.0, 1.0, 11)
        e[4] = 0.0
        for dd, ee in ((d, e), (np.array([0.3]), np.zeros(0))):
            norm1 = fd._norm1(dd, ee)
            below = fd._sturm(dd, ee)
            full = np.diag(dd) + np.diag(ee, 1) + np.diag(ee, -1)
            for level in np.linalg.eigvalsh(full):
                for x in (level - 4e-16, level + 4e-16, level - 1e-9, level + 1e-9):
                    # the wrapper takes at least one off-diagonal entry
                    want = dstebz(dd, np.r_[ee, 0.0][:max(dd.size - 1, 1)], 1,
                                  -2.0 * norm1 - 1.0, x, 0, 0, 4.0 * norm1, "E")[0]
                    assert below(x) == want, (dd.size, x)

    def test_guard_interval_reaches_the_round_off_floor(self):
        # a Poschl-Teller well with wall exponents 47 and 3722: the guard
        # level of grid N has a computed residual of about 6e-14, far below
        # eps * ||T||_1 = 3e-9, and its eigenvalue lies just above
        # value + residual, so the count certifies only because the guard's
        # interval reaches eps * ||T||_1 above its value
        problem = _problem((PoschlTeller(0.3699097702544974, 0.3922677540803103),
                            R.PI1, 1.682993226066023e-4))
        assert fd_eigenvalues(problem, 6).certified == (True, True, True)

    def test_iteration_stops_on_explicit_residuals(self):
        # at 101 levels a small pivot of the reduction spoils one solve on
        # grid N of this well: the residual the solve implies looks
        # converged while the explicit one is 0.016
        problem = _problem((Swanson(0.1, 0.2), R.PI1, 50.0))
        assert fd_eigenvalues(problem, 101).certified == (True, True, True)

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
        def duplicated(d, e, seeds, *start):
            return real(d, e, np.repeat(seeds, 2)[:seeds.size], *start)

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
