import math

import numpy as np
import pytest

from gup_spectra import spectral
from gup_spectra.algebra import (
    DeformationParams,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
    coefficients,
)
from gup_spectra.errors import ConvergenceFailure, ParameterError
from gup_spectra.liouville import to_potential
from gup_spectra.oracle import verify_spectrum
from gup_spectra.solutions import PotentialSpec, classify_physical, default_p0, solve
from gup_spectra.spectral import spectral_eigenvalues
from references import closed_form_well

R = Representation


def _box(count_calls=None):
    def V(q):
        if count_calls is not None:
            count_calls.append(np.size(q))
        return np.zeros_like(q)

    return PotentialSpec(V=V, q_lo=0.0, q_hi=math.pi)


# Pi1 problems of the sweep over HO, Swanson (0.1, 0.2), (0.5, 0.3), (2, 0.1)
# and PT (1, 0.5), (0.566, 1.7), (3, 2) at tau = geomspace(1e-4, 50, 13)[k]
# where an earlier estimate missed the true error by up to 129x: level 0
# near 1e-12 relative, where round-off dominates
ESTIMATE_CASES = [
    (PoschlTeller(1.0, 0.5), 9, 6),
    (PoschlTeller(3.0, 2.0), 12, 6),
    (Swanson(0.5, 0.3), 11, 6),
    (Swanson(2.0, 0.1), 12, 20),
]


class TestEigensolver:
    @pytest.mark.parametrize("count", [4, 20, 64])
    def test_particle_in_a_box(self, count):
        res = spectral_eigenvalues(_box(), count)
        exact = np.arange(1, count + 1) ** 2
        assert np.max(np.abs(res.eigenvalues - exact) / exact) < 1e-6
        assert np.all(res.error_estimates > 0)

    def test_scaled_oscillator_on_a_box(self):
        prob = PotentialSpec(V=lambda q: q * q / 4.0 - 0.5, q_lo=-20.0, q_hi=20.0)
        res = spectral_eigenvalues(prob, 5)
        assert np.max(np.abs(res.eigenvalues - np.arange(5))) < 1e-5

    def test_deformed_oscillator_well(self):
        params = DeformationParams(tau=0.5)
        res = spectral_eigenvalues(closed_form_well(HarmonicOscillator(), R.PI1, params), 4)
        closed = np.real(solve(HarmonicOscillator(), R.PI1, params).energies(3))
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
        res = spectral_eigenvalues(well, 6)
        closed = np.real(solve(model, rep, params).energies(5))
        assert np.max(np.abs(res.eigenvalues - closed) / closed) < 1e-7

    @pytest.mark.parametrize("model, k, count", ESTIMATE_CASES)
    def test_error_estimates_bound_the_true_error(self, model, k, count):
        params = DeformationParams(tau=float(np.geomspace(1e-4, 50.0, 13)[k]))
        res = spectral_eigenvalues(closed_form_well(model, R.PI1, params), count)
        closed = np.real(solve(model, R.PI1, params).energies(count - 1))
        assert np.all(np.abs(res.eigenvalues - closed) <= res.error_estimates)

    @pytest.mark.parametrize("model, tau, count", [
        (HarmonicOscillator(), 3e-6, 6),
        (HarmonicOscillator(), 3e-7, 20),
        (Swanson(0.1, 0.2), 1e-6, 6),
    ])
    def test_error_estimates_bound_the_round_off_of_narrow_wells(self, model, tau, count):
        # wall exponents of 3e5 to 3e6: the terms of V - g''/g that cancel
        # set the error, 1e-12 to 5e-10 relative, which the step difference
        # and the 8.3 eps E_top term miss by up to 12x
        params = DeformationParams(tau=tau)
        res = spectral_eigenvalues(closed_form_well(model, R.PI1, params), count)
        closed = np.real(solve(model, R.PI1, params).energies(count - 1))
        assert np.all(np.abs(res.eigenvalues - closed) <= res.error_estimates)

    def test_preconditions(self):
        with pytest.raises(ParameterError):
            spectral_eigenvalues(_box(), 0)
        for lo, hi in ((0.0, math.inf), (1.0, 1.0), (math.nan, 1.0)):
            with pytest.raises(ParameterError, match="finite nonempty"):
                spectral_eigenvalues(PotentialSpec(V=lambda q: q, q_lo=lo, q_hi=hi), 4)

    def test_more_levels_than_the_largest_degree_holds(self):
        # two degrees must fit below the limit: 1798 levels start at degree
        # 1822, and the next, 2049, does not; V is never read
        calls = []
        count = 1798
        with pytest.raises(ParameterError, match="levels need degree"):
            spectral_eigenvalues(_box(calls), count)
        assert calls == []

    def test_too_narrow_or_non_finite_walls(self):
        # at tau = 1e-12 the wall exponents are 1e12, and the terms of
        # V - g''/g that cancel leave nothing of the levels; an overflowing
        # V leaves no wall exponent
        pot = closed_form_well(HarmonicOscillator(), R.PI1, DeformationParams(tau=1e-12))
        with pytest.raises(ConvergenceFailure, match="too narrow"):
            spectral_eigenvalues(pot, 6)
        problem = PotentialSpec(V=lambda q: np.full_like(q, np.inf), q_lo=0.0, q_hi=1.0)
        with pytest.raises(ConvergenceFailure, match="not finite"):
            spectral_eigenvalues(problem, 6)

    def test_degrees_that_never_agree_raise(self, monkeypatch):
        # 64 levels of the box agree at degrees 136 and 160
        monkeypatch.setattr(spectral, "_MAX_DEGREE", 136)
        with pytest.raises(ConvergenceFailure, match="not converged at degree 136"):
            spectral_eigenvalues(_box(), 64)

    @pytest.mark.parametrize("well, count, degrees", [
        (lambda: closed_form_well(PoschlTeller(1.0, 0.5), R.PI1, DeformationParams(tau=1.0)),
         6, (30, 54)),
        (lambda: closed_form_well(Swanson(0.1, 0.2), R.PI3, DeformationParams(tau=50.0)),
         6, (30, 54)),
        (_box, 64, (88, 112, 136, 160)),
    ])
    def test_the_first_two_degrees_share_one_rule(self, monkeypatch, well, count, degrees):
        # the first degree's reduced pencil is the leading block of the
        # second's, so one Gauss-Jacobi rule serves both, and by Cauchy
        # interlacing no level of the first lies below the second's; each
        # later degree takes a rule of its own
        sizes = []
        rule = spectral.gauss_jacobi

        def counted(m, alpha, beta):
            sizes.append(m)
            return rule(m, alpha, beta)

        monkeypatch.setattr(spectral, "gauss_jacobi", counted)
        res = spectral_eigenvalues(well(), count)
        assert res.degrees == degrees
        assert sizes == [d + spectral._EXTRA_NODES for d in degrees[1:]]
        assert np.all(res.raw[0] >= res.raw[1] - res.error_estimates)

    def test_reruns_are_bit_identical(self):
        problem = closed_form_well(PoschlTeller(1.0, 0.5), R.PI1, DeformationParams(tau=1.0))
        first = spectral_eigenvalues(problem, 6)
        second = spectral_eigenvalues(problem, 6)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert [r.tobytes() for r in first.raw] == [r.tobytes() for r in second.raw]


# the exact Poschl-Teller cell V = a(a-1)/sin^2 q + b(b-1)/cos^2 q on
# (0, pi/2), E_n = (2n + a + b)^2; a = 0.566 is a wall near the -1/4 collapse
POSCHL_TELLER_CELLS = [(0.566, 0.566), (0.566, 1.7), (0.75, 3.0), (1.5, 2.3)]

# Swanson (alpha, beta, tau, rep) requests whose lowest six levels an
# earlier oracle once missed by 1.2e-5 to 2.7e-4
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


class TestWalls:
    @pytest.mark.parametrize("a, b", POSCHL_TELLER_CELLS)
    def test_exact_poschl_teller_cell(self, a, b):
        def V(q):
            return a * (a - 1.0) / np.sin(q) ** 2 + b * (b - 1.0) / np.cos(q) ** 2

        res = spectral_eigenvalues(PotentialSpec(V=V, q_lo=0.0, q_hi=math.pi / 2), 6)
        exact = (2.0 * np.arange(6) + a + b) ** 2
        assert np.max(np.abs(res.eigenvalues - exact) / exact) < 1e-9

    @pytest.mark.parametrize("alpha, beta, tau, rep", FACTORED_REQUESTS)
    def test_attractive_walls_within_tolerance(self, alpha, beta, tau, rep):
        report = verify_spectrum(Swanson(alpha, beta), rep, DeformationParams(tau=tau))
        assert report.passed, report.rel_errors

    @pytest.mark.parametrize("model, rep, tau", [
        (HarmonicOscillator(), R.PI1, 1.1e-4),
        (PoschlTeller(0.6591373966298112, 3.672527912123938), R.PI3,
         1.246283002717211e-4),
    ])
    def test_narrow_well(self, model, rep, tau):
        # wall exponents of 9e3 and 9e3, or 73 and 1.5e4: the ground state
        # is about L / 135 wide, and the second pair puts the gauge's peak
        # at the well's minimum
        params = DeformationParams(tau=tau)
        res = spectral_eigenvalues(closed_form_well(model, rep, params), 6)
        closed = np.real(solve(model, rep, params).energies(5))
        assert np.max(np.abs(res.eigenvalues - closed) / closed) < 1e-6


class TestIndependence:
    @pytest.mark.parametrize("model, tau", [
        (HarmonicOscillator(), 0.25),
        (Swanson(0.1, 0.2), 1.0),
        (PoschlTeller(1.0, 0.5), 1e-3),
    ])
    def test_a_defect_in_the_basis_chain_does_not_reach_the_levels(
            self, monkeypatch, model, tau):
        # the mass matrix is formed on the rule, so a wrong chain only picks
        # another basis of the same polynomials
        well = closed_form_well(model, R.PI1, DeformationParams(tau=tau))
        clean = spectral_eigenvalues(well, 6).eigenvalues
        real, calls = spectral._jacobi_chain, []

        def defective(m, a, b):
            calls.append(m)
            odd, even = real(m, a, b)
            return 1.01 * odd, 0.99 * even

        monkeypatch.setattr(spectral, "_jacobi_chain", defective)
        moved = spectral_eigenvalues(well, 6).eigenvalues
        assert calls
        assert np.max(np.abs(moved - clean) / np.abs(clean)) < 1e-10


ACCURACY_MODELS = [HarmonicOscillator(), Swanson(0.1, 0.2), Swanson(1.6, 1.6),
                   PoschlTeller(1.0, 0.5), PoschlTeller(3.0, 2.0)]
# the physical wells of these models on Pi1, Pi3 and Pi4 at six taus: 78
ACCURACY_CASES = [
    (model, rep, tau) for model in ACCURACY_MODELS for rep in (R.PI1, R.PI3, R.PI4)
    for tau in (1e-4, 1e-2, 0.25, 1.0, 5.0, 50.0)
    if classify_physical(model, rep, DeformationParams(tau=tau)).physical
    and not classify_physical(model, rep, DeformationParams(tau=tau)).complex_spectrum]


@pytest.mark.parametrize("count", [6, 20])
@pytest.mark.parametrize("model, rep, tau", ACCURACY_CASES)
def test_every_level_within_1e_9_of_the_closed_form(model, rep, tau, count):
    assert len(ACCURACY_CASES) == 78
    report = verify_spectrum(model, rep, DeformationParams(tau=tau), count=count,
                             tolerance=1e-9)
    assert report.passed, report.rel_errors


# the well of PT(1, 0.5) at tau 1e-4 on Pi3 and Pi4 at 101 levels
DEGREE_313_FAILS = pytest.mark.xfail(strict=True, raises=ConvergenceFailure, reason=(
    "ROADMAP item 34: the mass matrix of degree 313 is not positive "
    "definite; where the rule's Christoffel sums overflow, its weights come "
    "out 0 (12 of 333 nodes), and the weight and the polynomials are formed "
    "apart"))


@pytest.mark.parametrize("rep", [R.PI1, pytest.param(R.PI3, marks=DEGREE_313_FAILS),
                                 pytest.param(R.PI4, marks=DEGREE_313_FAILS)])
def test_101_levels_of_a_narrow_poschl_teller_well(rep):
    # degrees up to 313 on the series well of PT(1, 0.5) at tau 1e-4.  Pi1
    # passes with no margin: a change to its well by round-off alone has
    # turned it into the same ConvergenceFailure (ROADMAP item 34)
    report = verify_spectrum(PoschlTeller(1.0, 0.5), rep, DeformationParams(tau=1e-4),
                             count=101, tolerance=1e-9)
    assert report.passed, report.rel_errors
