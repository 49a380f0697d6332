"""Closed-form bound states: energies, wavefunctions, metrics, normalizations.

Every solvable (model, representation) pair reduces, after the potential
transform, to one of two special-function ladders:

* associated-Legendre family (harmonic oscillator, Swanson): eigenfunctions
  proportional to P_{n - mu}^{mu}(z) with the negative-order branch mu = mu_-
  selected by normalizability, and a tan^2 well in the transformed variable;
* Jacobi family (inverse-square / Poeschl-Teller model): eigenfunctions
  proportional to P_n^{(a+, b+)}(w) on a half cell with csc^2 + sec^2 walls.

Both ladders live on the momentum angle theta = arctan(sqrt(tc) P), which
``algebra.ANGLES`` gives in closed form for every representation: the basis
variable is z = sin(theta) or w = cos(2 theta), and the prefactor, metric,
domain, quadrature, q(p) and chi(p) are powers and images of theta assembled
once per family.  Adding a representation is one entry in that table.

The metric that restores orthonormality is diagonal in momentum space,
rho(p) = varrho(w) e^{-2 Re chi} |v|^{-2} dw/dp; metrics are normalized here
to be real and positive at the domain reference point, and the discarded
constant factor is recorded on the solution.

Pi2 states are the similarity partners u^(-1) psi_1 of the Pi1 states, with
u = (1 + tc p^2)^(1/2) the factor relating the two representations; their
metric is rho_1 u^2, constant whenever the Hamiltonian carries no XP term.
Pi4 states live on the imaginary momentum segment p = i*s and are stored in
the real parametrization s.  The primed variant Pi4' is flagged unphysical:
its formal energy family is unbounded from below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import (
    ANGLES,
    DeformationParams,
    Domain,
    HarmonicOscillator,
    ModelSpec,
    PoschlTeller,
    Representation,
    Swanson,
    angle_domain,
    coefficients,
    p_domain,
)
from .errors import (
    BranchAmbiguity,
    DomainError,
    IntrinsicNoncommutativity,
    ParameterError,
    UnsupportedPair,
)
from .liouville import (
    FactorizationAnsatz,
    jacobi_ansatz,
    legendre_ansatz,
    to_potential,
)
from .phase import discriminant
from .specfun import (
    JacobiSpec,
    LegendreSpec,
    assoc_legendre,
    assoc_legendre_ladder,
    gauss_legendre_nodes,
    jacobi,
    jacobi_ladder,
)

__all__ = [
    "ClosedFormSolution",
    "Classification",
    "PotentialSpec",
    "solve",
    "classify_physical",
    "metric_generic",
    "transformed_potential",
    "native_quadrature",
    "gram_matrix",
    "ansatz_for",
    "default_p0",
]


@dataclass(frozen=True)
class _Family:
    """How one special-function ladder sits on the momentum angle.

    The basis variable is y(sin theta, cos theta) for theta in (-pi/2, pi/2),
    or in (0, pi/2) on a half cell; ``theta_of`` and ``dtheta_dy`` invert it
    for quadrature.  The metric is scale * sqrt(tc) * dtheta/dx times a power
    of cos(theta), and ``sign`` is the constant it discards off the segment.
    """

    half_cell: bool
    y: Callable
    theta_of: Callable
    dtheta_dy: Callable
    scale: float
    sign: float


_FAMILIES = {
    # z = sin(theta), weight 1 in z
    "legendre": _Family(False, lambda s, c: s, np.arcsin,
                        lambda z: 1.0 / np.sqrt(1.0 - z * z), 1.0, 1.0),
    # w = cos(2 theta), weight (1-w)^a (1+w)^b in w
    "jacobi": _Family(True, lambda s, c: c * c - s * s, lambda w: 0.5 * np.arccos(w),
                      lambda w: 0.5 / np.sqrt(1.0 - w * w), 2.0, -1.0),
}


_NORM_ORDER = 384   # native Gauss-Legendre rule of the state norms


# ---------------------------------------------------------------------------
# model-level spectral data

def legendre_order(model: ModelSpec, params: DeformationParams) -> complex:
    """mu_- for the associated-Legendre family (negative real part branch)."""
    tau = params.tau
    if tau == 0.0:
        raise ParameterError("mu_- diverges in the commutative limit; need tau > 0")
    if isinstance(model, HarmonicOscillator):
        return -math.sqrt(1.0 + tau ** 2 / 4.0) / tau
    if isinstance(model, Swanson):
        big = model.omega_shift(params)
        d = discriminant(model.alpha, model.beta, params.tau, params)
        return -cmath.sqrt(complex(d)) / (2.0 * tau * big)
    raise UnsupportedPair(f"{model!r} is not in the associated-Legendre family")


def jacobi_orders(model: PoschlTeller, params: DeformationParams) -> tuple[complex, complex]:
    """(a+, b+) for the Jacobi family; complex when reality is broken."""
    tau = params.tau
    if tau == 0.0:
        raise IntrinsicNoncommutativity("the inverse-square model requires tau > 0")
    a = 0.5 * cmath.sqrt(complex(1.0 + 4.0 * model.alpha / tau))
    b = 0.5 * cmath.sqrt(complex(1.0 + 4.0 * model.beta / tau ** 2))
    return a, b


def x_conjugation_coefficient(model: ModelSpec, params: DeformationParams) -> float:
    """Scalar term of the position operator conjugated into the Legendre basis.

    In the unified z-variable X acts as
    i hbar sqrt(tc) [ (1-z^2)^(1/2) d/dz - kappa z (1-z^2)^(-1/2) ],
    with kappa = 1/2 for the oscillator and (alpha-beta)/(tau Omega) + 1/2
    for the Swanson model (a single expression for Pi1..Pi4).
    """
    return 2.0 * _legendre_scales(model, params)[1] + 0.5


def _legendre_scales(model: ModelSpec, params: DeformationParams) -> tuple[float, float]:
    """(base, eps): the frequency scale (hbar omega for the oscillator, Omega
    for Swanson) and the XP asymmetry eps = (alpha - beta) / (2 tau Omega)."""
    if isinstance(model, HarmonicOscillator):
        return params.hbar * params.omega, 0.0
    if isinstance(model, Swanson):
        big = model.omega_shift(params)
        tau = params.tau
        return big, (model.alpha - model.beta) / (2.0 * tau * big) if tau > 0 else 0.0
    raise UnsupportedPair(f"{model!r} is not in the associated-Legendre family")


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class Classification:
    physical: bool
    unbounded_below: bool
    complex_spectrum: bool
    detail: str


def classify_physical(model: ModelSpec, rep: Representation,
                      params: DeformationParams) -> Classification:
    """Reality/boundedness tags for the spectrum of (model, rep, params)."""
    if rep is Representation.PI4_PRIME:
        return Classification(False, True, False,
                              "sign-flipped variant: formal energy family unbounded below")
    if isinstance(model, HarmonicOscillator):
        return Classification(True, False, False, "real discrete spectrum")
    if isinstance(model, Swanson):
        d = discriminant(model.alpha, model.beta, params.tau, params)
        if d >= 0.0:
            return Classification(True, False, False,
                                  f"discriminant {d:.6g} >= 0: symmetry unbroken, real spectrum")
        return Classification(False, False, True,
                              f"discriminant {d:.6g} < 0: broken phase, complex pairs")
    if isinstance(model, PoschlTeller):
        tau = params.tau
        if tau == 0.0:
            raise IntrinsicNoncommutativity("the inverse-square model requires tau > 0")
        ok_a = model.alpha > -tau / 4.0
        ok_b = model.beta > -tau ** 2 / 4.0
        if ok_a and ok_b:
            return Classification(True, False, False,
                                  "alpha > -tau/4 and beta > -tau^2/4: real, bounded below")
        return Classification(False, False, True,
                              "reality condition violated: complex exponents")
    raise UnsupportedPair(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# closed-form solution container

@dataclass
class ClosedFormSolution:
    model: ModelSpec
    rep: Representation
    params: DeformationParams
    family: str                       # "legendre" | "jacobi" | "unbounded"
    c: float
    parameters: dict
    physical: bool
    metric_constant: complex          # factor discarded when normalizing rho
    domain: Domain
    _energy: Callable[[int], complex]
    # powers of (sin theta, cos theta) in the prefactor, of cos theta in the metric
    _powers: tuple[float, float, float] | None = None
    _norms: dict = field(default_factory=dict)

    # -- spectral data ------------------------------------------------------

    def energy(self, n: int):
        if n < 0 or n != int(n):
            raise ParameterError(f"level index must be a nonnegative integer, got {n}")
        e = self._energy(int(n))
        if isinstance(e, complex) and abs(e.imag) < 1e-14 * max(1.0, abs(e.real)):
            return e.real
        return e

    def energies(self, n_max: int) -> np.ndarray:
        return np.array([self.energy(n) for n in range(n_max + 1)])

    # -- basis functions ----------------------------------------------------

    def basis(self, n: int, z):
        evaluate = assoc_legendre if self.family == "legendre" else jacobi
        return evaluate(self._spec(n), z)

    def z_of_p(self, p):
        self._require_states()
        angle, x = self._angle(p)
        return _FAMILIES[self.family].y(angle.sin(x), angle.cos(x))

    def psi_raw(self, n: int, p):
        """Unnormalized wavefunction samples."""
        prefactor, y = self._prefactor(p)
        return prefactor * self.basis(n, y)

    def psi_raw_ladder(self, n_max: int, p):
        """Rows psi_raw(0, p), ..., psi_raw(n_max, p) from one recurrence sweep."""
        prefactor, y = self._prefactor(p)
        ladder = assoc_legendre_ladder if self.family == "legendre" else jacobi_ladder
        return prefactor * ladder(self._spec(n_max), y)

    def norm(self, n: int) -> float:
        """Constant c_n with <psi_n | rho psi_n> = 1 for psi_n = psi_raw / c_n.

        The integral runs on the native rule of order _NORM_ORDER; a miss
        fills every degree up to n from one ladder sweep.
        """
        self._require_states()
        if n not in self._norms:
            pq, wq = native_quadrature(self, order=_NORM_ORDER)
            self._store_norms(self.psi_raw_ladder(n, pq), wq, self.metric(pq))
        return self._norms[n]

    def psi(self, n: int, p):
        """Metric-orthonormal wavefunction samples."""
        return self.psi_raw(n, p) / self.norm(n)

    def metric(self, p):
        """Normalized positive metric density on the stored parametrization."""
        self._require_states()
        angle, x = self._angle(p)
        scale = _FAMILIES[self.family].scale * math.sqrt(self.params.tau_check)
        power = self._powers[2] - 2 * angle.e
        if power:  # cos^0 = 1: constant-metric cases skip evaluating cos
            scale = scale * angle.cos(x) ** power
        return scale * angle.dtheta(x)

    # -- helpers -------------------------------------------------------------

    def _spec(self, n):
        if self.family == "legendre":
            return LegendreSpec(n, self.parameters["mu_minus"])
        if self.family == "jacobi":
            return JacobiSpec(n, self.parameters["a_plus"].real,
                              self.parameters["b_plus"].real)
        raise UnsupportedPair("no bound-state basis for this pair")

    def _prefactor(self, p):
        """sin^a cos^(b+e) of the momentum angle, and the basis variable."""
        self._require_states()
        p = np.asarray(p, dtype=float)
        self._check_samples(p)
        angle, x = self._angle(p)
        s, c = angle.sin(x), angle.cos(x)
        sin_pow, cos_pow, _ = self._powers
        return s ** sin_pow * c ** (cos_pow + angle.e), _FAMILIES[self.family].y(s, c)

    def _store_norms(self, raw, wq, rho):
        """Record c_k for rows psi_raw(k) sampled on the norm rule (wq, rho)."""
        sums = np.sum(wq * np.abs(raw) ** 2 * rho, axis=-1)
        self._norms.update((k, math.sqrt(float(np.real(v)))) for k, v in enumerate(sums))

    def _angle(self, p):
        """The table entry and x = sqrt(tc) p at the samples."""
        return ANGLES[self.rep], math.sqrt(self.params.tau_check) * np.asarray(p, dtype=float)

    def _require_states(self):
        if self._powers is None:
            raise ParameterError(
                "bound-state evaluators unavailable for this pair "
                "(unphysical variant or commutative limit)")

    def _check_samples(self, p):
        d = self.domain
        if np.any(p <= d.lo) or np.any(p >= d.hi):
            raise DomainError(
                f"samples must lie inside ({d.lo:.6g}, {d.hi:.6g}) "
                f"for {self.rep.value}")


# ---------------------------------------------------------------------------
# solve()

def solve(model: ModelSpec, rep: Representation, params: DeformationParams,
          branch: str = "minus") -> ClosedFormSolution:
    """Closed-form solution for the pair, or a flagged unphysical record.

    ``branch`` selects the Legendre order branch; anything but the default
    "minus" produces non-normalizable states and exists for negative tests.

    States and metric come from the angle table: the prefactor is
    sin^a cos^(b+e) of theta and the metric scale * sqrt(tc) * cos^(m-2e)
    dtheta/dx, for the family's powers (a, b, m); the domain is the
    preimage of the family's angle range.
    """
    cls = classify_physical(model, rep, params)
    if rep is Representation.PI4_PRIME:
        return _solve_pi4_prime(model, rep, params)
    tau = params.tau
    hw = params.hbar * params.omega
    energy = _energy(model, params)
    if isinstance(model, PoschlTeller):
        family = "jacobi"
        a_c, b_c = jacobi_orders(model, params)
        c = 2.0 * tau * hw
        parameters = {"a_plus": a_c, "b_plus": b_c, "a_minus": -a_c, "b_minus": -b_c,
                      "c": c}
        # complex exponents keep their energies but have no normalizable states
        powers = (a_c.real + 0.5, b_c.real + 0.5, 0.0) if cls.physical else None
    else:
        family = "legendre"
        base, eps = _legendre_scales(model, params)
        c = tau * base / 2.0
        # the commutative limit keeps its energies; mu_- diverges there
        parameters, powers = {"commutative_limit": True}, None
        if tau > 0.0:
            mu_minus = legendre_order(model, params)
            mu = mu_minus if branch == "minus" else -mu_minus
            if abs(complex(mu).imag) < 1e-300:
                mu = complex(mu).real
            parameters = {"mu_minus": mu, "mu_plus": -mu_minus, "c": c,
                          "lambda": -mu, "epsilon": eps}
            powers = (0.0, 2.0 * eps + 0.5, -4.0 * eps)
    fam = _FAMILIES[family]
    # the paper-form metric on the segment carries the factor -i; written as
    # -(1j * sign) so the printed constant keeps its signed zero, (-0-1j)
    const = (1.0 if powers is None else -(1j * fam.sign) if ANGLES[rep].segment
             else fam.sign)
    return ClosedFormSolution(
        model=model, rep=rep, params=params, family=family, c=c,
        parameters=parameters, physical=cls.physical, metric_constant=const,
        domain=angle_domain(rep, params, half_cell=fam.half_cell),
        _energy=energy, _powers=powers)


def _energy(model, params):
    """E_n in closed form; the same in every representation of the model."""
    tau = params.tau
    hw = params.hbar * params.omega
    if isinstance(model, HarmonicOscillator):
        root = math.sqrt(1.0 + tau ** 2 / 4.0)
        return lambda n: hw * (0.5 + n) * root + tau * hw / 4.0 * (1 + 2 * n + 2 * n * n)
    if isinstance(model, Swanson):
        big = model.omega_shift(params)
        sqrt_d = cmath.sqrt(complex(discriminant(model.alpha, model.beta, tau, params)))
        return lambda n: 0.25 * ((tau + 2 * n * tau + 2 * n * n * tau) * big
                                 + (2 * n + 1) * sqrt_d)
    a, b = jacobi_orders(model, params)
    return lambda n: hw * tau / 2.0 * (1 + 2 * n + a + b) ** 2


def _solve_pi4_prime(model, rep, params):
    tau = params.tau
    hw = params.hbar * params.omega
    # only the oscillator has a published (unbounded) energy family
    c = tau * hw / 2.0 if isinstance(model, HarmonicOscillator) and tau > 0 else 0.0

    def energy(n):
        if not c:
            raise UnsupportedPair(
                "no published energy family for this pair; the variant is "
                "unphysical for every model considered")
        return hw / (2.0 * tau) - c / 4.0 * (1 + 2 * n) ** 2

    return ClosedFormSolution(
        model=model, rep=rep, params=params, family="unbounded", c=c,
        parameters={"c": c} if c else {}, physical=False, metric_constant=1.0,
        domain=p_domain(rep, params), _energy=energy)


# ---------------------------------------------------------------------------
# native quadrature, Gram matrices

def native_quadrature(sol: ClosedFormSolution, order: int = 384):
    """Quadrature nodes/weights for integrals over the solution's domain.

    Finite domains map Gauss-Legendre nodes affinely; infinite ones take them
    in the basis variable and pull them back to p through the momentum angle.
    """
    sol._require_states()
    y, w = gauss_legendre_nodes(order)
    dom = sol.domain
    if dom.finite:
        mid = 0.5 * (dom.lo + dom.hi)
        half = 0.5 * (dom.hi - dom.lo)
        return mid + half * y, w * half
    fam = _FAMILIES[sol.family]
    angle = ANGLES[sol.rep]
    stc = math.sqrt(sol.params.tau_check)
    x = angle.x_of(fam.theta_of(y))
    jac = fam.dtheta_dy(y) / (stc * angle.dtheta(x))
    idx = np.argsort(x)
    return x[idx] / stc, (w * jac)[idx]


def gram_matrix(sol: ClosedFormSolution, n_max: int, order: int = _NORM_ORDER) -> np.ndarray:
    """G[m, n] = <psi_m | rho psi_n> for the normalized states.

    One ladder sweep gives every state; on the norms' own rule the same
    sweep fills the norms too.
    """
    p, w = native_quadrature(sol, order)
    rho = sol.metric(p)
    raw = sol.psi_raw_ladder(n_max, p)
    if order == _NORM_ORDER:
        sol._store_norms(raw, w, rho)
    sol.norm(n_max)  # a miss fills every degree <= n_max
    norms = np.array([sol.norm(n) for n in range(n_max + 1)])
    states = raw / norms[:, None]
    return np.einsum("mk,nk,k->mn", np.conj(states), states, w * rho)


# ---------------------------------------------------------------------------
# transformed potentials (closed forms) and ansatz wiring

@dataclass(frozen=True)
class PotentialSpec:
    """Closed-form transformed potential -phi'' + V phi = E phi.

    Coordinates follow the model anchor: symmetric wells are centered at
    q = 0; half-cell wells start at q = 0.
    """

    V: Callable[[np.ndarray], np.ndarray]
    q_lo: float
    q_hi: float
    c: float
    family: str
    q_of_p: Callable[[np.ndarray], np.ndarray]
    chi: Callable[[np.ndarray], np.ndarray]
    ansatz_phase: float


def transformed_potential(model: ModelSpec, rep: Representation,
                          params: DeformationParams) -> PotentialSpec:
    """Closed-form potential data for the pair (Pi2 shares the Pi1 problem).

    q is proportional to the momentum angle, q = sqrt(2 / (tau base)) theta,
    and the gauge is chi = (2 eps + e) ln cos(theta).
    """
    if rep is Representation.PI2:
        rep = Representation.PI1
    tau = params.tau
    hbar, m, om = params.hbar, params.mass, params.omega
    hw = hbar * om
    if isinstance(model, PoschlTeller):
        if tau == 0.0:
            raise ParameterError("the inverse-square model requires tau > 0")
        base, eps = hw, 0.0
        c = 2.0 * tau * hw
        rc2 = math.sqrt(tau * hw / 2.0)  # = sqrt(c)/2
        al, be, tc = model.alpha, model.beta, params.tau_check

        def V(q):
            s = rc2 * np.asarray(q)
            return 0.5 * hw * al / np.sin(s) ** 2 + be / (2 * m * tc) / np.cos(s) ** 2

        family, q_lo, q_hi = "jacobi", 0.0, math.pi / math.sqrt(2.0 * tau * hw)
        phase = math.pi / 2.0
    else:
        base, eps = _legendre_scales(model, params)
        if tau == 0.0:
            # commutative limit: harmonic well in the stretched coordinate, on a
            # box wide enough that low levels are unaffected by truncation
            k = 0.5 * hw
            if isinstance(model, Swanson):
                d = discriminant(model.alpha, model.beta, params.tau, params)
                if d < 0:
                    raise ParameterError("complex commutative spectrum; no real well")
                k = 0.5 * math.sqrt(d) / 2.0
            edge = 9.0 / math.sqrt(k)
            lin = math.sqrt(2.0 / (m * hbar * om * base))

            def V0(q):
                return (k * np.asarray(q)) ** 2

            def q_of_p0(p):
                return lin * np.asarray(p)

            def chi0(p):
                return np.zeros_like(np.asarray(p, dtype=float))

            return PotentialSpec(V=V0, q_lo=-edge, q_hi=edge, c=0.0,
                                 family="legendre", q_of_p=q_of_p0, chi=chi0,
                                 ansatz_phase=0.0)
        amp = hw / (2.0 * tau)
        if isinstance(model, Swanson):
            amp = ((1 - tau) * hw ** 2 - tau * hw * (model.alpha + model.beta)
                   - 4 * model.alpha * model.beta) / (2.0 * tau * base)
        c = tau * base / 2.0
        rc = math.sqrt(c)
        edge = math.pi / (2.0 * rc)

        def V(q):
            return amp * np.tan(rc * np.asarray(q)) ** 2

        family, q_lo, q_hi, phase = "legendre", -edge, edge, 0.0
    if rep not in ANGLES:
        raise UnsupportedPair(f"no transformed potential for {rep}")
    angle = ANGLES[rep]
    stc = math.sqrt(params.tau_check)
    scale = math.sqrt(2.0 / (tau * base))
    gauge = 2.0 * eps + angle.e

    def q_of_p(p):
        return scale * angle.theta(stc * np.asarray(p))

    def chi(p):
        return gauge * np.log(angle.cos(stc * np.asarray(p)))

    return PotentialSpec(V=V, q_lo=q_lo, q_hi=q_hi, c=c, family=family,
                         q_of_p=q_of_p, chi=chi, ansatz_phase=phase)


def default_p0(model: ModelSpec, rep: Representation,
               params: DeformationParams) -> float:
    """Anchor point for the generic transform: 0 on symmetric domains, the
    q-midpoint image p(theta = pi/4) on half cells."""
    if not isinstance(model, PoschlTeller):
        return 0.0
    if rep not in ANGLES:
        raise UnsupportedPair(f"no anchor for {rep}")
    return float(ANGLES[rep].x_of(math.pi / 4.0)) / math.sqrt(params.tau_check)


def ansatz_for(sol: ClosedFormSolution, n: int,
               coordinates: str = "model") -> FactorizationAnsatz:
    """Factorization ansatz matching the solution's transformed problem.

    ``coordinates`` is "model" for the closed-form PotentialSpec coordinate
    (symmetric wells centered, half cells starting at 0) or "centered" for
    the generic transform anchored at ``default_p0`` (half cells recentered).
    """
    if sol.family == "legendre":
        return legendre_ansatz(sol.c, nu=n - sol.parameters["mu_minus"],
                               mu=sol.parameters["mu_minus"], phase=0.0)
    if sol.family == "jacobi":
        phase = math.pi / 2.0 if coordinates == "model" else math.pi
        return jacobi_ansatz(sol.c, n=n, a=sol.parameters["a_plus"].real,
                             b=sol.parameters["b_plus"].real, phase=phase)
    raise UnsupportedPair("no factorization ansatz for this pair")


# ---------------------------------------------------------------------------
# generic metric assembly

def metric_generic(model: ModelSpec, rep: Representation,
                   params: DeformationParams) -> Callable[[np.ndarray], np.ndarray]:
    """Metric density assembled from the generic transform parts.

    rho = varrho(w) e^{-2 Re chi} |v|^{-2} dw/dp, summed as logarithms (the
    Jacobi varrho and |v|^{-2} carry powers in the thousands at small tau,
    which would overflow against each other) and normalized to 1 at the
    anchor p0.  Pi2 shares the Pi1 transform; its metric gains cos^-2 of the
    momentum angle, the inverse square of the similarity factor.
    """
    shared = Representation.PI1 if rep is Representation.PI2 else rep
    sol = solve(model, shared, params)
    fgh = coefficients(model, shared, params)
    p0 = default_p0(model, shared, params)
    tr = to_potential(fgh, p0)
    ansatz = ansatz_for(sol, 0, coordinates="centered")
    a = b = 0.0
    if sol.family == "jacobi":
        a = sol.parameters["a_plus"].real
        b = sol.parameters["b_plus"].real
    angle = ANGLES[rep]
    similarity = 2.0 * (ANGLES[shared].e - angle.e)
    stc = math.sqrt(params.tau_check)

    def log_rho(p):
        q = tr.q_of_p(p)
        w = ansatz.w(q)
        if np.any((1 - w ** 2) <= 0):
            raise BranchAmbiguity("1 - w^2 must keep one sign on the domain")
        # ln varrho - 2 Re chi + ln |v|^-2 + ln |dw/dp|
        return (a * np.log1p(-w) + b * np.log1p(w) - 2.0 * np.real(tr.chi(p))
                + 2.0 * np.log(np.abs(ansatz.dw(q))) - np.real(ansatz.intQ(w))
                - 0.5 * np.log(np.asarray(fgh.f(p), dtype=float))
                + similarity * np.log(angle.cos(stc * p)))

    ref = float(log_rho(np.array([p0]))[0])

    def rho(p):
        return np.exp(log_rho(np.atleast_1d(np.asarray(p, dtype=float))) - ref)

    return rho
