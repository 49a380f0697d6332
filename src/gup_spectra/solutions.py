"""Closed-form bound states: energies, wavefunctions, metrics, Gram matrices.

Every solvable (model, representation) pair reduces, after the potential
transform, to one of two special-function ladders:

* associated-Legendre family (harmonic oscillator, Swanson): eigenfunctions
  proportional to P_{n - mu}^{mu}(z) with the negative-order branch mu = mu_-
  selected by normalizability, and a tan^2 well in the transformed variable;
* Jacobi family (inverse-square / Poeschl-Teller model): eigenfunctions
  proportional to P_n^{(a+, b+)}(w) on a half cell with csc^2 + sec^2 walls.

Both ladders live on the momentum angle theta = arctan(sqrt(tc) P), which
``algebra.ANGLES`` gives in closed form for every representation: the basis
variable is y = z = sin(theta) or y = w = cos(2 theta), and the metric,
domain, quadrature and q(p) are powers and images of theta assembled
once per family.  Adding a representation is one entry in that table.

Both families share one normalization, in closed form.  The states are
orthogonal for one Jacobi-type weight in y, (1-z^2)^lam or
(1-w)^a+ (1+w)^b+, so

    psi_n(p) = e(p) phat_n((1 + y) / 2),   e^2 rho = weight(y) |dy/dp| / mass,

with phat_n the orthonormal ladder of ``specfun.orthonormal_ladder`` and
mass = 2^(a+b+1) B(a+1, b+1).  The envelope e is one sum of logarithms and
one exp, so it stays finite wherever the state itself is representable.
The native quadrature is that weight's Gauss-Jacobi rule pulled back to p,
on which a Gram matrix is exact.  States exist only where the spectrum is
real: a complex order or exponent has no normalizable real weight.

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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    ANGLES,
    DeformationParams,
    Domain,
    ModelSpec,
    Representation,
    angle_domain,
    coefficients,
    p_domain,
)
from .errors import (
    BranchAmbiguity,
    DomainError,
    ParameterError,
    UnsupportedPair,
)
from .liouville import FactorizationAnsatz, to_potential
from .specfun import gauss_jacobi, log_jacobi_mass, orthonormal_ladder

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
    or in (0, pi/2) for a half-cell model, and ``theta_of`` inverts it for
    quadrature.  ``log_weight`` is log (1-y)^a (1+y)^b and ``log_dy`` is
    log |dy/dtheta|, both from (sin theta, cos theta) so that neither loses
    precision near a wall.  The metric is scale * sqrt(tc) * dtheta/dx
    times a power of cos(theta), and ``sign`` is the constant it discards
    off the segment.
    """

    y: Callable
    theta_of: Callable
    log_weight: Callable
    log_dy: Callable
    scale: float
    sign: float


_LOG2 = math.log(2.0)

_FAMILIES = {
    # z = sin(theta), weight (1-z^2)^lam = cos^(2 lam), dz/dtheta = cos
    "legendre": _Family(lambda s, c: s, np.arcsin,
                        lambda s, c, a, b: (a + b) * np.log(c),
                        lambda s, c: np.log(c), 1.0, 1.0),
    # w = cos(2 theta), 1 - w = 2 sin^2, 1 + w = 2 cos^2, |dw/dtheta| = 4 sin cos
    "jacobi": _Family(lambda s, c: c * c - s * s, lambda w: 0.5 * np.arccos(w),
                      lambda s, c, a, b: ((a + b) * _LOG2
                                          + 2.0 * (a * np.log(s) + b * np.log(c))),
                      lambda s, c: 2.0 * _LOG2 + np.log(s) + np.log(c), 2.0, -1.0),
}


# ---------------------------------------------------------------------------
# classification

@dataclass(frozen=True)
class Classification:
    physical: bool
    complex_spectrum: bool


def classify_physical(model: ModelSpec, rep: Representation,
                      params: DeformationParams) -> Classification:
    """Reality/boundedness tags for the spectrum of (model, rep, params).

    The sign-flipped variant Pi4' is unphysical for every model: its formal
    energy family is unbounded below.
    """
    if rep is Representation.PI4_PRIME:
        return Classification(False, False)
    model.admit(params)
    real = model.reality(params)
    return Classification(real, not real)


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
    # exponents (a, b) of the weight (1-y)^a (1+y)^b; None where no states exist
    weight: tuple[float, float] | None = None
    _metric_power: float = 0.0        # power of cos theta in the Pi1 metric

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

    # -- states -------------------------------------------------------------

    def psi_ladder(self, n_max: int, p):
        """Rows psi_0(p), ..., psi_{n_max}(p) from one orthonormal recurrence sweep."""
        log_env, t = self._envelope(p)
        return np.exp(log_env) * orthonormal_ladder(n_max, *self.weight, t)

    def psi(self, n: int, p):
        """Metric-orthonormal wavefunction samples."""
        return self.psi_ladder(n, p)[n]

    def metric(self, p):
        """Normalized positive metric density on the stored parametrization."""
        self._require_states()
        angle, x = self._angle(p)
        scale = _FAMILIES[self.family].scale * math.sqrt(self.params.tau_check)
        power = self._metric_power - 2 * angle.e
        if power:  # cos^0 = 1: constant-metric cases skip evaluating cos
            scale = scale * angle.cos(x) ** power
        return scale * angle.dtheta(x)

    # -- helpers -------------------------------------------------------------

    def _envelope(self, p):
        """log e(p) of psi_n = e phat_n(t), and t = (1 + y) / 2, at the samples.

        e^2 rho = weight(y) |dy/dp| / mass.  rho and |dy/dp| share the factor
        sqrt(tc) dtheta/dx, which cancels, so e is a power of sin and cos of
        theta and a constant, summed as logarithms.
        """
        self._require_states()
        p = np.asarray(p, dtype=float)
        self._check_samples(p)
        angle, x = self._angle(p)
        s, c = angle.sin(x), angle.cos(x)
        fam = _FAMILIES[self.family]
        a, b = self.weight
        log_env = 0.5 * (fam.log_dy(s, c) + fam.log_weight(s, c, a, b)
                         - (self._metric_power - 2 * angle.e) * np.log(c)
                         - math.log(fam.scale) - log_jacobi_mass(a, b))
        return log_env, 0.5 * (1.0 + fam.y(s, c))

    def _angle(self, p):
        """The table entry and x = sqrt(tc) p at the samples."""
        return ANGLES[self.rep], math.sqrt(self.params.tau_check) * np.asarray(p, dtype=float)

    def _require_states(self):
        if self.weight is None:
            raise ParameterError(
                "bound-state evaluators unavailable for this pair "
                "(unphysical variant, broken symmetry or commutative limit)")

    def _check_samples(self, p):
        d = self.domain
        if np.any(p <= d.lo) or np.any(p >= d.hi):
            raise DomainError(
                f"samples must lie inside ({d.lo:.6g}, {d.hi:.6g}) "
                f"for {self.rep.value}")


# ---------------------------------------------------------------------------
# solve()

def solve(model: ModelSpec, rep: Representation,
          params: DeformationParams) -> ClosedFormSolution:
    """Closed-form solution for the pair, or a flagged unphysical record.

    States and metric come from the angle table: the states are orthogonal
    for the weight (1-y)^a (1+y)^b, with (a, b) = (lam, lam) or (a+, b+),
    the metric is scale * sqrt(tc) * cos^(m-2e) dtheta/dx for the family's
    power m, and the domain is the preimage of the family's angle range.
    """
    cls = classify_physical(model, rep, params)
    if rep is Representation.PI4_PRIME:
        return _solve_pi4_prime(model, rep, params)
    tau = params.tau
    base, eps = model.scales(params)
    # complex orders or exponents (broken symmetry) keep their energies but
    # have no normalizable states
    weight, power = None, 0.0
    if model.family == "jacobi":
        a_c, b_c = model.orders(params)
        c = 2.0 * tau * base
        parameters = {"a_plus": a_c, "b_plus": b_c, "a_minus": -a_c, "b_minus": -b_c,
                      "c": c}
        if cls.physical:
            weight = (a_c.real, b_c.real)
    else:
        c = tau * base / 2.0
        # the commutative limit keeps its energies; mu_- diverges there
        parameters = {"commutative_limit": True}
        if tau > 0.0:
            mu = model.mu_minus(params)
            if abs(complex(mu).imag) < 1e-300:
                mu = complex(mu).real
            parameters = {"mu_minus": mu, "mu_plus": -mu, "c": c,
                          "lambda": -mu, "epsilon": eps}
            if cls.physical:
                weight, power = (-mu, -mu), -4.0 * eps
    fam = _FAMILIES[model.family]
    # the paper-form metric on the segment carries the factor -i; written as
    # -(1j * sign) so the printed constant keeps its signed zero, (-0-1j)
    const = (1.0 if weight is None else -(1j * fam.sign) if ANGLES[rep].segment
             else fam.sign)
    return ClosedFormSolution(
        model=model, rep=rep, params=params, family=model.family, c=c,
        parameters=parameters, physical=cls.physical, metric_constant=const,
        domain=angle_domain(rep, params, half_cell=model.half_cell),
        _energy=model.energy(params), weight=weight, _metric_power=power)


def _solve_pi4_prime(model, rep, params):
    tau = params.tau
    hw = params.hbar * params.omega
    # only the oscillator has a published (unbounded) energy family
    c = tau * hw / 2.0 if model.pi4_prime_family and tau > 0 else 0.0

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

def native_quadrature(sol: ClosedFormSolution, order: int):
    """Quadrature nodes/weights for integrals over the solution's domain.

    The Gauss-Jacobi rule of the states' weight (1-y)^a (1+y)^b in the basis
    variable, pulled back to p through the momentum angle: each weight is
    the rule's unit-mass weight times mass / weight(y) |dp/dy|, summed as
    logarithms.  So psi_m psi_n rho integrates as phat_m phat_n on the
    rule, exactly once order > (m + n) / 2.
    """
    sol._require_states()
    a, b = sol.weight
    y, w = gauss_jacobi(order, a, b)
    fam = _FAMILIES[sol.family]
    angle = ANGLES[sol.rep]
    stc = math.sqrt(sol.params.tau_check)
    x = angle.x_of(fam.theta_of(y))
    s, c = angle.sin(x), angle.cos(x)
    # unit-mass weights past the double range are 0, and stay 0
    with np.errstate(divide="ignore"):
        log_w = (np.log(w) + log_jacobi_mass(a, b) - fam.log_weight(s, c, a, b)
                 - fam.log_dy(s, c))
    idx = np.argsort(x)
    return x[idx] / stc, (np.exp(log_w) / (stc * angle.dtheta(x)))[idx]


def gram_matrix(sol: ClosedFormSolution, n_max: int) -> np.ndarray:
    """G[m, n] = <psi_m | rho psi_n> for the orthonormal states.

    One ladder sweep gives every state, on the native rule of n_max + 2
    nodes, which integrates every entry exactly.
    """
    p, w = native_quadrature(sol, n_max + 2)
    states = sol.psi_ladder(n_max, p)
    return (states * (w * sol.metric(p))) @ states.T


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


def transformed_potential(model: ModelSpec, rep: Representation,
                          params: DeformationParams) -> PotentialSpec:
    """Closed-form potential data for the pair (Pi2 shares the Pi1 problem).

    q is proportional to the momentum angle, q = sqrt(2 / (tau base)) theta.
    """
    if rep is Representation.PI2:
        rep = Representation.PI1
    tau = params.tau
    if tau == 0.0 and model.family == "jacobi":
        raise ParameterError("the Jacobi family has no commutative limit; tau must be > 0")
    model.admit(params)
    base = model.scales(params)[0]
    if tau == 0.0:
        # commutative limit: harmonic well (k q)^2 with k = E_0, in the
        # stretched coordinate, on a box wide enough that low levels are
        # unaffected by truncation
        k = complex(model.energy(params)(0))
        if k.imag:
            raise ParameterError("complex commutative spectrum; no real well")
        k = k.real
        edge = 9.0 / math.sqrt(k)

        def V0(q):
            return (k * np.asarray(q)) ** 2

        return PotentialSpec(V=V0, q_lo=-edge, q_hi=edge)
    if model.family == "jacobi":
        csc2, sec2 = model.well(params)
        c = 2.0 * tau * base
        rc2 = math.sqrt(tau * base / 2.0)  # = sqrt(c)/2

        def V(q):
            s = rc2 * np.asarray(q)
            return csc2 / np.sin(s) ** 2 + sec2 / np.cos(s) ** 2

        q_lo, q_hi = 0.0, math.pi / math.sqrt(c)
    else:
        amp = model.well(params)
        c = tau * base / 2.0
        rc = math.sqrt(c)
        edge = math.pi / (2.0 * rc)

        def V(q):
            return amp * np.tan(rc * np.asarray(q)) ** 2

        q_lo, q_hi = -edge, edge
    if rep not in ANGLES:
        raise UnsupportedPair(f"no transformed potential for {rep}")
    return PotentialSpec(V=V, q_lo=q_lo, q_hi=q_hi)


def default_p0(model: ModelSpec, rep: Representation,
               params: DeformationParams) -> float:
    """Anchor point for the generic transform: 0 on symmetric domains, the
    q-midpoint image p(theta = pi/4) on half cells.  Raises where the model is
    not solved, as ``solve`` does."""
    model.admit(params)
    if not model.half_cell:
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
        mu = sol.parameters["mu_minus"]
        return FactorizationAnsatz(sol.c, nu=n - mu, mu=mu)
    if sol.family == "jacobi":
        phase = math.pi / 2.0 if coordinates == "model" else math.pi
        return FactorizationAnsatz(sol.c, phase=phase, nu=n,
                                   a=sol.parameters["a_plus"].real,
                                   b=sol.parameters["b_plus"].real)
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
    angle = ANGLES[rep]
    similarity = 2.0 * (ANGLES[shared].e - angle.e)
    stc = math.sqrt(params.tau_check)

    def log_rho(p):
        q = tr.q_of_p(p)
        w = ansatz.w(q)
        if np.any((1 - w ** 2) <= 0):
            raise BranchAmbiguity("1 - w^2 must keep one sign on the domain")
        # ln varrho - 2 Re chi + ln |v|^-2 + ln |dw/dp|
        return (ansatz.a * np.log1p(-w) + ansatz.b * np.log1p(w) - 2.0 * np.real(tr.chi(p))
                + 2.0 * np.log(np.abs(ansatz.dw(q))) - np.real(ansatz.intQ(w))
                - 0.5 * np.log(np.asarray(fgh.f(p), dtype=float))
                + similarity * np.log(angle.cos(stc * p)))

    ref = float(log_rho(np.array([p0]))[0])

    def rho(p):
        return np.exp(log_rho(np.atleast_1d(np.asarray(p, dtype=float))) - ref)

    return rho
