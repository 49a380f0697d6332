import math

import numpy as np
import pytest

from gup_spectra.algebra import (
    ANGLES,
    DeformationParams,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
    coefficients,
)
from gup_spectra.errors import (
    DomainError,
    IntrinsicNoncommutativity,
    ParameterError,
    UnsupportedPair,
)
from gup_spectra import oracle
from gup_spectra.oracle import expectation_unified, parse_word
from gup_spectra.solutions import (
    classify_physical,
    default_p0,
    gram_matrix,
    metric_generic,
    native_quadrature,
    solve,
    transformed_potential,
)
from references import integrate_adaptive

R = Representation
GRID_TAUS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 5.0, 50.0)
SOLVABLE = [
    (HarmonicOscillator(), rep) for rep in (R.PI1, R.PI2, R.PI3, R.PI4)
] + [
    (Swanson(0.1, 0.2), rep) for rep in (R.PI1, R.PI2, R.PI3, R.PI4)
] + [
    (PoschlTeller(1.0, 0.5), rep) for rep in (R.PI1, R.PI2, R.PI3, R.PI4)
]


class TestEnergies:
    def test_oscillator_reference_level(self):
        sol = solve(HarmonicOscillator(), R.PI1, DeformationParams(tau=0.2))
        assert sol.energy(0) == pytest.approx(0.5524937810560445, abs=1e-13)

    def test_oscillator_commutative_limit(self):
        sol = solve(HarmonicOscillator(), R.PI1, DeformationParams(tau=0.0))
        for n in range(8):
            assert abs(sol.energy(n) - (n + 0.5)) < 1e-10

    def test_energies_identical_across_representations(self):
        params = DeformationParams(tau=0.4)
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2), PoschlTeller(1.0, 0.5)):
            base = solve(model, R.PI1, params).energies(5)
            for rep in (R.PI2, R.PI3, R.PI4):
                other = solve(model, rep, params).energies(5)
                assert np.allclose(other, base, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("model", [
        HarmonicOscillator(), Swanson(0.1, 0.2), PoschlTeller(1.0, 0.5)])
    def test_strictly_increasing_in_real_regime(self, model):
        sol = solve(model, R.PI1, DeformationParams(tau=0.3))
        es = np.real(sol.energies(8))
        assert np.all(np.diff(es) > 0)

    def test_swanson_reference_point(self):
        sol = solve(Swanson(15.0, 0.1), R.PI1, DeformationParams(tau=0.5))
        assert sol.energy(0) == pytest.approx(2.9, abs=1e-10)

    def test_swanson_commutative_limit(self):
        sol = solve(Swanson(0.1, 0.2), R.PI1, DeformationParams(tau=1e-8))
        for n in range(6):
            expect = (n + 0.5) * math.sqrt(1.0 - 4 * 0.1 * 0.2)
            assert abs(sol.energy(n) - expect) < 1e-6

    def test_inverse_square_reference_point(self):
        sol = solve(PoschlTeller(1.0, 0.5), R.PI1, DeformationParams(tau=0.25))
        a = sol.parameters["a_plus"]
        b = sol.parameters["b_plus"]
        assert a.real == pytest.approx(2.0615528128088303, abs=1e-13)
        assert b.real == pytest.approx(2.8722813232690143, abs=1e-13)
        assert sol.energy(0) == pytest.approx(4.4012984443103385, abs=1e-12)

    def test_inverse_square_needs_deformation(self):
        with pytest.raises(IntrinsicNoncommutativity):
            solve(PoschlTeller(1.0, 0.5), R.PI1, DeformationParams(tau=0.0))


class TestClassification:
    def test_swanson_point_claims(self):
        def real_at(alpha, beta, tau):
            cls = classify_physical(Swanson(alpha, beta), R.PI1,
                                    DeformationParams(tau=tau))
            return cls.physical and not cls.complex_spectrum

        assert real_at(2.0, 0.1, 0.0)
        assert not real_at(2.0, 0.1, 0.5)
        assert not real_at(15.0, 0.1, 0.0)
        assert real_at(15.0, 0.1, 0.5)

    def test_primed_variant_unbounded(self):
        cls = classify_physical(HarmonicOscillator(), R.PI4_PRIME,
                                DeformationParams(tau=0.3))
        assert not cls.physical and not cls.complex_spectrum
        sol = solve(HarmonicOscillator(), R.PI4_PRIME, DeformationParams(tau=0.3))
        es = [sol.energy(n) for n in range(6)]
        assert all(e2 < e1 for e1, e2 in zip(es, es[1:]))
        with pytest.raises(ParameterError):
            sol.psi(0, np.array([0.1]))

    def test_inverse_square_reality_window(self):
        tau = 0.25
        eps = 1e-6
        ok = classify_physical(PoschlTeller(-tau / 4 + eps, 0.0), R.PI1,
                               DeformationParams(tau=tau))
        bad = classify_physical(PoschlTeller(-tau / 4 - eps, 0.0), R.PI1,
                                DeformationParams(tau=tau))
        assert ok.physical and not bad.physical
        ok_b = classify_physical(PoschlTeller(0.5, -tau ** 2 / 4 + eps), R.PI1,
                                 DeformationParams(tau=tau))
        bad_b = classify_physical(PoschlTeller(0.5, -tau ** 2 / 4 - eps), R.PI1,
                                  DeformationParams(tau=tau))
        assert ok_b.physical and not bad_b.physical

    @pytest.mark.parametrize("call", [
        classify_physical, solve, coefficients, transformed_potential, metric_generic,
        default_p0, lambda model, rep, params: expectation_unified(model, params, 0, "H"),
    ])
    def test_swanson_outside_solved_regime_rejected(self, call):
        # Omega = alpha + beta + hbar omega = -2
        with pytest.raises(ParameterError, match="alpha \\+ beta"):
            call(Swanson(-3.0, 0.0), R.PI1, DeformationParams(tau=0.1))

    @pytest.mark.parametrize("model,params", [
        (PoschlTeller(1.0, 0.5), DeformationParams(tau=0.0)),
        (Swanson(-3.0, 0.0), DeformationParams(tau=0.1)),
    ])
    def test_pi4_prime_record_before_admissibility(self, model, params):
        # the sign-flipped variant is flagged for every model, admissible or not
        cls = classify_physical(model, R.PI4_PRIME, params)
        assert (cls.physical, cls.complex_spectrum) == (False, False)
        sol = solve(model, R.PI4_PRIME, params)
        assert sol.family == "unbounded" and not sol.physical
        with pytest.raises(UnsupportedPair):
            sol.energy(0)

    def test_inverse_square_without_deformation_errors(self):
        params = DeformationParams(tau=0.0)
        model = PoschlTeller(1.0, 0.5)
        with pytest.raises(IntrinsicNoncommutativity):
            classify_physical(model, R.PI1, params)
        with pytest.raises(IntrinsicNoncommutativity):
            solve(model, R.PI1, params)
        # the closed-form potential has no commutative limit to fall back on
        with pytest.raises(ParameterError):
            transformed_potential(model, R.PI1, params)
        # nor has the generic transform an anchor there
        with pytest.raises(IntrinsicNoncommutativity):
            default_p0(model, R.PI1, params)

    def test_broken_swanson_energies_complex(self):
        sol = solve(Swanson(2.0, 0.1), R.PI1, DeformationParams(tau=0.5))
        assert not sol.physical
        e0 = sol.energy(0)
        assert isinstance(e0, complex) and abs(e0.imag) > 1e-3

    def test_reality_tracks_branch_parameters(self):
        from gup_spectra.phase import discriminant

        # Swanson: energies real <=> mu_- real <=> discriminant >= 0
        for alpha, beta, tau in ((2.0, 0.1, 0.5), (15.0, 0.1, 0.5),
                                 (0.1, 0.2, 0.25), (2.0, 0.1, 0.0)):
            params = DeformationParams(tau=max(tau, 1e-8))
            sol = solve(Swanson(alpha, beta), R.PI1, params)
            d = discriminant(alpha, beta, params.tau)
            mu = complex(sol.parameters["mu_minus"])
            energies_real = all(abs(complex(sol.energy(n)).imag) < 1e-12
                                for n in range(4))
            assert (d >= 0) == (mu.imag == 0.0) == energies_real
        # inverse-square model: energies real <=> a+, b+ real
        broken = solve(PoschlTeller(-0.2, 0.5), R.PI1, DeformationParams(tau=0.25))
        assert abs(complex(broken.parameters["a_plus"]).imag) > 0
        assert abs(complex(broken.energy(0)).imag) > 0
        clean = solve(PoschlTeller(1.0, 0.5), R.PI1, DeformationParams(tau=0.25))
        assert complex(clean.parameters["a_plus"]).imag == 0.0
        assert abs(complex(clean.energy(0)).imag) < 1e-14


class TestWavefunctions:
    def test_ground_state_shape(self):
        params = DeformationParams(tau=0.2)
        sol = solve(HarmonicOscillator(), R.PI1, params)
        lam = -sol.parameters["mu_minus"]
        ps = np.linspace(-3.0, 3.0, 25)
        psi = sol.psi(0, ps)
        shape = (1 + params.tau_check * ps ** 2) ** (-0.25 - lam / 2)
        ratio = np.real(psi) / shape
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-12
        mags = np.abs(sol.psi(0, np.linspace(0.0, 4.0, 30)))
        assert np.all(np.diff(mags) < 0)

    def test_first_excited_state_is_odd(self):
        sol = solve(HarmonicOscillator(), R.PI1, DeformationParams(tau=0.2))
        val = sol.psi(1, np.array([0.0]))[0]
        assert abs(val) < 1e-14
        left = sol.psi(1, np.array([-0.7]))[0]
        right = sol.psi(1, np.array([0.7]))[0]
        assert left == pytest.approx(-right, rel=1e-12)

    def test_inverse_square_boundary_conditions(self):
        sol = solve(PoschlTeller(1.0, 0.5), R.PI1, DeformationParams(tau=0.25))
        near_zero = np.abs(sol.psi(2, np.array([1e-4, 1e-3])))
        far = np.abs(sol.psi(2, np.array([200.0, 500.0])))
        interior = np.max(np.abs(sol.psi(2, np.linspace(0.3, 6.0, 40))))
        assert np.all(near_zero < 1e-6 * interior)
        assert np.all(far < 1e-4 * interior)
        with pytest.raises(DomainError):
            sol.psi(0, np.array([-1.0]))

    def test_commutative_limit_states_unavailable(self):
        sol = solve(HarmonicOscillator(), R.PI1, DeformationParams(tau=0.0))
        with pytest.raises(ParameterError):
            sol.psi(0, np.array([0.0]))

    def test_broken_swanson_states_unavailable(self):
        # a complex order has no real weight to normalize against
        sol = solve(Swanson(2.0, 0.1), R.PI3, DeformationParams(tau=0.5))
        for evaluate in (sol.psi, lambda n, p: sol.metric(p)):
            with pytest.raises(ParameterError):
                evaluate(0, np.array([0.1]))

    def test_segment_states_real_parametrization(self):
        params = DeformationParams(tau=0.25)
        sol = solve(HarmonicOscillator(), R.PI4, params)
        edge = 1.0 / math.sqrt(params.tau_check)
        ss = np.linspace(-0.95 * edge, 0.95 * edge, 21)
        vals = sol.psi(0, ss)
        assert np.max(np.abs(np.imag(vals))) < 1e-14
        with pytest.raises(DomainError):
            sol.psi(0, np.array([1.1 * edge]))


class TestMetrics:
    @pytest.mark.parametrize("model,rep", SOLVABLE)
    def test_positive_on_interior(self, model, rep):
        params = DeformationParams(tau=0.25)
        sol = solve(model, rep, params)
        p, _ = native_quadrature(sol, order=128)
        assert np.all(sol.metric(p) > 0)

    def test_oscillator_closed_forms(self):
        params = DeformationParams(tau=0.25)
        tc = params.tau_check
        ps = np.linspace(-2.0, 2.0, 9)
        rho1 = solve(HarmonicOscillator(), R.PI1, params).metric(ps)
        assert np.allclose(rho1, math.sqrt(tc) / (1 + tc * ps ** 2), atol=1e-15)
        rho3 = solve(HarmonicOscillator(), R.PI3, params).metric(ps)
        assert np.allclose(rho3, math.sqrt(tc), atol=1e-15)

    def test_swanson_hermitian_case_constant(self):
        params = DeformationParams(tau=0.25)
        sol = solve(Swanson(0.15, 0.15), R.PI3, params)
        ps = np.linspace(-1.5, 1.5, 9)
        rho = sol.metric(ps)
        assert np.max(np.abs(rho - rho[0])) < 1e-15

    def test_discarded_constants_recorded(self):
        params = DeformationParams(tau=0.25)
        assert solve(HarmonicOscillator(), R.PI4, params).metric_constant == -1j
        assert solve(PoschlTeller(1.0, 0.5), R.PI1, params).metric_constant == -1.0

    @pytest.mark.parametrize("model,rep", [
        (HarmonicOscillator(), R.PI1), (HarmonicOscillator(), R.PI3),
        (HarmonicOscillator(), R.PI4),
        (Swanson(0.1, 0.2), R.PI1), (Swanson(0.1, 0.2), R.PI3),
        (Swanson(0.1, 0.2), R.PI4),
        (PoschlTeller(1.0, 0.5), R.PI1), (PoschlTeller(1.0, 0.5), R.PI2),
        (PoschlTeller(1.0, 0.5), R.PI3), (PoschlTeller(1.0, 0.5), R.PI4),
    ])
    def test_generic_assembly_matches_closed_form(self, model, rep):
        assert _assembly_spread(model, rep, DeformationParams(tau=0.25)) < 1e-8

    @pytest.mark.parametrize("rep", [R.PI1, R.PI3, R.PI4])
    @pytest.mark.parametrize("tau", [1e-4, 1e-3])
    def test_generic_assembly_small_tau(self, rep, tau):
        # a+ ~ 100 and b+ ~ 7071 at tau = 1e-4: the assembly's Jacobi weight
        # and its |v|^-2 factor would overflow against each other if formed
        # separately
        spread = _assembly_spread(PoschlTeller(1.0, 0.5), rep, DeformationParams(tau=tau))
        assert spread < 1e-8

    @pytest.mark.parametrize("model,rep", SOLVABLE)
    @pytest.mark.parametrize("tau", [1e-3, 0.25, 5.0, 50.0])
    def test_momentum_angle_table(self, model, rep, tau):
        params = DeformationParams(tau=tau)
        tc = params.tau_check
        stc = math.sqrt(tc)
        sol = solve(model, rep, params)
        dom = sol.domain
        hi = dom.hi if math.isfinite(dom.hi) else 3.0 / stc
        lo = dom.lo if math.isfinite(dom.lo) else -hi
        span = hi - lo
        p = np.linspace(lo + 0.05 * span, hi - 0.05 * span, 40)
        # the physical momentum P and dP/dp on the stored parametrization
        if rep in (R.PI1, R.PI2):
            big_p, dbig_p = p, np.ones_like(p)
        elif rep is R.PI3:
            big_p, dbig_p = np.tan(stc * p) / stc, 1.0 / np.cos(stc * p) ** 2
        else:
            big_p, dbig_p = p / np.sqrt(1.0 - tc * p ** 2), (1.0 - tc * p ** 2) ** -1.5
        theta = np.arctan(stc * big_p)
        angle = ANGLES[rep]
        assert np.allclose(angle.sin(stc * p) / angle.cos(stc * p) / stc, big_p,
                           rtol=1e-12, atol=0.0)

        # (1-z^2)^lam in z (Legendre), (1-w)^a (1+w)^b in w (Jacobi): the
        # metric times the squared ground state is that weight times |dz/dp|
        # over the weight's mass, the ground state's row phat_0 being 1.  At
        # small tau psi_0 itself leaves the double range, so the relation is
        # checked on its logarithm.
        s, c = ANGLES[rep].sin(stc * p), ANGLES[rep].cos(stc * p)
        z = s if sol.family == "legendre" else c * c - s * s
        dtheta = stc * dbig_p / (1.0 + tc * big_p ** 2)
        if sol.family == "legendre":
            a = b = -sol.parameters["mu_minus"]
            dz = dtheta * np.cos(theta)
        else:
            a, b = sol.parameters["a_plus"].real, sol.parameters["b_plus"].real
            dz = 2.0 * np.sin(2.0 * theta) * dtheta
        log_weight = a * np.log1p(-z) + b * np.log1p(z)
        log_mass = ((a + b + 1) * math.log(2.0) + math.lgamma(a + 1) + math.lgamma(b + 1)
                    - math.lgamma(a + b + 2))
        log_psi0 = sol._envelope(p)[0]
        log_ratio = np.log(sol.metric(p)) + 2.0 * log_psi0 - log_weight - np.log(dz)
        usable = np.isfinite(log_ratio)
        assert usable.sum() == 40
        assert np.all(np.abs(log_ratio + log_mass) < 1e-9 * max(1.0, abs(log_mass)))
        if tau >= 0.25:
            psi0 = sol.psi(0, p)
            assert np.allclose(sol.metric(p) * psi0 ** 2 / (np.exp(log_weight) * dz),
                               math.exp(-log_mass), rtol=1e-9, atol=0.0)


def _assembly_spread(model, rep, params):
    """Spread of metric_generic / sol.metric over the interior of the domain."""
    sol = solve(model, rep, params)
    rho_gen = metric_generic(model, rep, params)
    dom = sol.domain
    lo = dom.lo if math.isfinite(dom.lo) else -8.0
    hi = dom.hi if math.isfinite(dom.hi) else 8.0
    span = hi - lo
    pts = np.linspace(lo + 0.05 * span, hi - 0.05 * span, 100)
    ratio = rho_gen(pts) / sol.metric(pts)
    return float(np.max(np.abs(ratio / ratio[0] - 1.0)))


class TestOrthonormality:
    @pytest.mark.parametrize("model,rep", SOLVABLE)
    def test_gram_identity(self, model, rep):
        sol = solve(model, rep, DeformationParams(tau=0.25))
        g = gram_matrix(sol, 4)
        assert np.max(np.abs(g - np.eye(5))) < 1e-8

    def test_similarity_partner_states(self):
        params = DeformationParams(tau=0.25)
        tc = params.tau_check
        for model in (HarmonicOscillator(), Swanson(0.1, 0.2), PoschlTeller(1.0, 0.5)):
            sol1 = solve(model, R.PI1, params)
            sol2 = solve(model, R.PI2, params)
            ps = np.linspace(0.2, 2.5, 25)
            mapped = (1 + tc * ps ** 2) ** -0.5 * sol1.psi(2, ps)
            direct = sol2.psi(2, ps)
            ratio = mapped / direct
            assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8

    @pytest.mark.parametrize("model,rep", SOLVABLE)
    def test_gram_matches_per_degree_reference(self, model, rep):
        params = DeformationParams(tau=0.25)
        sol = solve(model, rep, params)
        g = gram_matrix(sol, 60)
        ref_sol = solve(model, rep, params)
        p, w = native_quadrature(ref_sol, 384)
        rho = ref_sol.metric(p)
        states = np.array([ref_sol.psi(n, p) for n in range(61)])
        ref = np.einsum("mk,nk,k->mn", np.conj(states), states, w * rho)
        assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("tau", [1e-2, 0.25, 5.0])
    @pytest.mark.parametrize("model,rep", SOLVABLE[::3])
    def test_state_ladder_rows_bit_identical(self, model, rep, tau):
        sol = solve(model, rep, DeformationParams(tau=tau))
        p, _ = native_quadrature(sol, order=97)
        rows = sol.psi_ladder(40, p)
        for n in range(41):
            assert rows[n].tobytes() == sol.psi(n, p).tobytes(), n

    @pytest.mark.parametrize("model,rep", SOLVABLE)
    def test_gram_entries_against_adaptive_quadrature_in_p(self, model, rep):
        # an independent rule in p, not the Gauss-Jacobi rule the states are
        # exact on: a rational map of (-1, 1) onto the domain
        sol = solve(model, rep, DeformationParams(tau=0.25))
        dom, scale = sol.domain, 1.0 / math.sqrt(sol.params.tau_check)
        if dom.finite:
            def p_of(u):
                half = 0.5 * (dom.hi - dom.lo)
                return dom.lo + half * (1.0 + u), np.full_like(u, half)
        elif math.isfinite(dom.lo):
            def p_of(u):
                return dom.lo + scale * (1.0 + u) / (1.0 - u), 2.0 * scale / (1.0 - u) ** 2
        else:
            def p_of(u):
                return scale * u / (1.0 - u * u), scale * (1.0 + u * u) / (1.0 - u * u) ** 2
        gram = gram_matrix(sol, 4)
        for m, n in ((0, 0), (1, 1), (4, 4), (0, 2), (1, 3), (2, 3)):
            def integrand(u):
                p, dp = p_of(u)
                return sol.psi(m, p) * sol.psi(n, p) * sol.metric(p) * dp
            ref = integrate_adaptive(integrand)
            assert abs(ref - (m == n)) < 1e-9, (m, n)
            assert abs(gram[m, n] - ref) < 1e-9, (m, n)

    @pytest.mark.parametrize("tau", GRID_TAUS)
    @pytest.mark.parametrize("model,rep", SOLVABLE)
    def test_gram_identity_over_the_tau_range(self, model, rep, tau):
        sol = solve(model, rep, DeformationParams(tau=tau))
        for n_max in (4, 40, 100):
            dev = np.max(np.abs(gram_matrix(sol, n_max) - np.eye(n_max + 1)))
            assert dev <= 1e-10, n_max

    def test_hermiticity_under_metric(self):
        params = DeformationParams(tau=0.25)

        def element(model, m, n):
            # <psi_m| rho H psi_n> on the direct engine's cached level n
            level = oracle._direct_level(model, R.PI1, params, n, 16384)
            bra = level.sol.psi(m, level.grid)
            out = level.apply(parse_word("H"))
            return np.sum(np.conj(bra) * level.rho * out) * level.h

        for model in (HarmonicOscillator(), Swanson(0.1, 0.2)):
            for m, n in ((0, 1), (1, 3), (2, 2)):
                lhs = element(model, m, n)
                rhs = element(model, n, m)
                assert abs(lhs - np.conj(rhs)) < 1e-8
        oracle._direct_level.cache_clear()


class TestPotentials:
    def test_oscillator_domain_and_amplitude(self):
        params = DeformationParams(tau=0.5)
        pot = transformed_potential(HarmonicOscillator(), R.PI1, params)
        assert pot.q_hi == pytest.approx(math.pi / math.sqrt(2 * 0.5), rel=1e-14)
        qs = np.array([0.3, 0.9])
        assert np.allclose(pot.V(qs), np.tan(math.sqrt(0.25) * qs) ** 2, rtol=1e-14)

    def test_half_cell_domain(self):
        params = DeformationParams(tau=0.25)
        pot = transformed_potential(PoschlTeller(1.0, 0.5), R.PI1, params)
        assert pot.q_lo == 0.0
        assert pot.q_hi == pytest.approx(math.pi / math.sqrt(2 * 0.25), rel=1e-14)

    def test_unsupported(self):
        with pytest.raises(UnsupportedPair):
            transformed_potential(HarmonicOscillator(), R.PI4_PRIME,
                                  DeformationParams(tau=0.5))


class TestSchroedingerResidual:
    """Each closed-form state solves its momentum-space equation directly.

    This joint check of (psi_n, E_n, f, g, h) is independent of the potential
    transform; the tolerance is the truncation floor of the h = 1e-4 central
    differences used for psi'' on normalized states.
    """

    @pytest.mark.parametrize("model,rep", [
        (HarmonicOscillator(), R.PI1), (HarmonicOscillator(), R.PI3),
        (HarmonicOscillator(), R.PI4),
        (Swanson(0.1, 0.2), R.PI1), (Swanson(0.1, 0.2), R.PI3),
        (Swanson(0.1, 0.2), R.PI4),
        (PoschlTeller(1.0, 0.5), R.PI1), (PoschlTeller(1.0, 0.5), R.PI3),
        (PoschlTeller(1.0, 0.5), R.PI4),
    ])
    def test_ode_residual(self, model, rep):
        from gup_spectra.algebra import coefficients

        params = DeformationParams(tau=0.25)
        sol = solve(model, rep, params)
        fgh = coefficients(model, rep, params)
        dom = fgh.domain
        lo = dom.lo if math.isfinite(dom.lo) else -4.0
        hi = dom.hi if math.isfinite(dom.hi) else 4.0
        if isinstance(model, PoschlTeller):
            lo = max(lo, 0.0)
        span = hi - lo
        ps = np.linspace(lo + 0.15 * span, hi - 0.15 * span, 21)
        h = 1e-4
        for n in (0, 2):
            e_n = complex(sol.energy(n))
            d1 = (sol.psi(n, ps + h) - sol.psi(n, ps - h)) / (2 * h)
            d2 = (sol.psi(n, ps + h) - 2 * sol.psi(n, ps)
                  + sol.psi(n, ps - h)) / h ** 2
            res = -fgh.f(ps) * d2 + fgh.g(ps) * d1 + (fgh.h(ps) - e_n) * sol.psi(n, ps)
            rel = np.max(np.abs(res)) / np.max(np.abs(sol.psi(n, ps)))
            assert rel < 1e-5


class TestDimensionalUnits:
    """Nothing is tied to natural units; the FD oracle is the detector."""

    def test_off_natural_units(self):
        from gup_spectra.oracle import verify_spectrum

        params = DeformationParams(hbar=0.7, mass=2.3, omega=1.9, tau=0.3)
        for model in (HarmonicOscillator(), Swanson(0.23, 0.11),
                      PoschlTeller(0.8, 0.4)):
            report = verify_spectrum(model, R.PI1, params, count=4,
                                     tolerance=1e-5)
            assert report.passed
            for rep in (R.PI1, R.PI2, R.PI3, R.PI4):
                g = gram_matrix(solve(model, rep, params), 3)
                assert np.max(np.abs(g - np.eye(4))) < 1e-8


class TestRandomizedClassifierAgreement:
    def test_discriminant_sign_matches_classifier(self):
        from gup_spectra.phase import discriminant

        rng = np.random.default_rng(20250810)
        params = DeformationParams()
        count = 0
        while count < 1000:
            alpha = rng.uniform(-2.0, 18.0)
            beta = rng.uniform(-2.0, 3.0)
            tau = rng.uniform(0.0, 1.2)
            if alpha + beta + 1.0 <= 1e-6:
                continue
            count += 1
            d = discriminant(alpha, beta, tau, params)
            cls = classify_physical(Swanson(alpha, beta),
                                    R.PI1, DeformationParams(tau=tau))
            assert (d >= 0) == (cls.physical and not cls.complex_spectrum)
