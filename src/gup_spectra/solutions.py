"""Closed-form bound states: energies, wavefunctions, metrics, Gram matrices.

Every solvable (model, representation) pair reduces, after the potential
transform, to one of two special-function ladders:

* associated-Legendre family (harmonic oscillator, Swanson): eigenfunctions
  proportional to P_{n - mu}^{mu}(z) with the negative-order branch mu = mu_-
  selected by normalizability, and a tan^2 well in the transformed variable;
* Jacobi family (inverse-square / Poeschl-Teller model): eigenfunctions
  proportional to P_n^{(a+, b+)}(w) on a half cell with csc^2 + sec^2 walls.

Both ladders live on the momentum angle theta = arctan(sqrt(tc) P), which
each representation's entry of ``algebra.REALIZATIONS`` gives in closed
form: the basis variable is y = z = sin(theta) or y = w = cos(2 theta), and
the metric, domain, quadrature and q(p) are powers and images of theta
assembled once per family.  Adding a representation is one entry in that
table; Pi4', whose entry has no angle, has no states.

Both families share one normalization, in closed form.  The states are
orthogonal for one Jacobi-type weight in y, (1-z^2)^lam or
(1-w)^a+ (1+w)^b+, so

    psi_n(p) = e(p) phat_n(y),   e^2 rho = weight(y) |dy/dp| / mass,

with phat_n the orthonormal ladder of ``specfun.orthonormal_rows`` and
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
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .algebra import (
    REALIZATIONS,
    DeformationParams,
    Domain,
    ModelSpec,
    Representation,
    coefficients,
    p_domain,
)
from .errors import ParameterError, UnsupportedPair
from .liouville import FactorizationAnsatz, to_potential
from .specfun import gauss_jacobi, log_jacobi_mass, orthonormal_rows

__all__ = [
    "ClosedFormSolution",
    "Classification",
    "PotentialSpec",
    "solve",
    "classify_physical",
    "metric_generic",
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

# frozen, its parameters read-only: ``solve`` hands the same solution to
# every caller of a configuration
@dataclass(frozen=True)
class ClosedFormSolution:
    model: ModelSpec
    rep: Representation
    params: DeformationParams
    family: str                       # "legendre" | "jacobi" | "unbounded"
    c: float
    parameters: Mapping               # a_plus, b_plus or mu_minus, epsilon
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
        """Rows psi_0(p), ..., psi_{n_max}(p): every row of one recurrence
        sweep, each times the envelope."""
        log_env, y = self._envelope(p)
        return np.exp(log_env) * np.array(list(orthonormal_rows(n_max, *self.weight, y)))

    def psi(self, n: int, p):
        """Metric-orthonormal psi_n(p), row n of ``psi_ladder`` bit for bit:
        one sweep to row n, holding two rows at a time, and only that row
        times the envelope."""
        log_env, y = self._envelope(p)
        for row in orthonormal_rows(n, *self.weight, y):
            pass
        return np.exp(log_env) * row

    def metric(self, p):
        """Normalized positive metric density on the stored parametrization."""
        self._require_states()
        self.domain.check(p)
        angle, x = self._angle(p)
        scale = _FAMILIES[self.family].scale * math.sqrt(self.params.tau_check)
        power = self._metric_power - 2 * angle.e
        if power:  # cos^0 = 1: constant-metric cases skip evaluating cos
            scale = scale * angle.cos(x) ** power
        return scale * angle.dtheta(x)

    # -- helpers -------------------------------------------------------------

    def _envelope(self, p):
        """log e(p) of psi_n = e phat_n(y), and y, at the samples.

        e^2 rho = weight(y) |dy/dp| / mass.  rho and |dy/dp| share the factor
        sqrt(tc) dtheta/dx, which cancels, so e is a power of sin and cos of
        theta and a constant, summed as logarithms.
        """
        self._require_states()
        p = np.asarray(p, dtype=float)
        self.domain.check(p)
        angle, x = self._angle(p)
        s, c = angle.sin(x), angle.cos(x)
        fam = _FAMILIES[self.family]
        a, b = self.weight
        log_env = 0.5 * (fam.log_dy(s, c) + fam.log_weight(s, c, a, b)
                         - (self._metric_power - 2 * angle.e) * np.log(c)
                         - math.log(fam.scale) - log_jacobi_mass(a, b))
        return log_env, fam.y(s, c)

    def _angle(self, p):
        """The entry's angle and x = sqrt(tc) p at the samples."""
        return (REALIZATIONS[self.rep].angle,
                math.sqrt(self.params.tau_check) * np.asarray(p, dtype=float))

    def _require_states(self):
        if self.weight is None:
            if REALIZATIONS[self.rep].angle is None:
                cause = f"{self.rep.value} has no momentum angle"
            elif not self.physical:
                cause = "the spectrum is complex"
            else:
                cause = "tau = 0, the commutative limit, where mu_- diverges"
            raise ParameterError(
                f"bound-state evaluators unavailable for this pair: {cause}")


# ---------------------------------------------------------------------------
# solve()

# A request asks for its configuration's solution once per state, rule,
# level and check, and then moves on, so a few configurations hold all the
# reuse there is.
@lru_cache(maxsize=8)
def solve(model: ModelSpec, rep: Representation,
          params: DeformationParams) -> ClosedFormSolution:
    """Closed-form solution for the pair, or a flagged unphysical record.

    States and metric come from the representation's momentum angle
    (``REALIZATIONS``): the states are orthogonal
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
        parameters = {"a_plus": a_c, "b_plus": b_c}
        if cls.physical:
            weight = (a_c.real, b_c.real)
    else:
        c = tau * base / 2.0
        # the commutative limit keeps its energies; mu_- diverges there
        parameters = {}
        if tau > 0.0:
            mu = model.mu_minus(params)
            if abs(complex(mu).imag) < 1e-300:
                mu = complex(mu).real
            parameters = {"mu_minus": mu, "epsilon": eps}
            if cls.physical:
                weight, power = (-mu, -mu), -4.0 * eps
    fam = _FAMILIES[model.family]
    domain = p_domain(rep, params, half_cell=model.half_cell)
    # the paper-form metric on the segment carries the factor -i; written as
    # -(1j * sign) so the printed constant keeps its signed zero, (-0-1j)
    const = (1.0 if weight is None else -(1j * fam.sign) if domain.imaginary_segment
             else fam.sign)
    return ClosedFormSolution(
        model=model, rep=rep, params=params, family=model.family, c=c,
        parameters=MappingProxyType(parameters), physical=cls.physical,
        metric_constant=const, domain=domain,
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
        parameters=MappingProxyType({}), physical=False,
        metric_constant=1.0,
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
    angle = REALIZATIONS[sol.rep].angle
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
# wells and ansatz wiring

@dataclass(frozen=True)
class PotentialSpec:
    """A well: -phi'' + V phi = E phi on (q_lo, q_hi), as the spectral
    oracle reads it."""

    V: Callable[[np.ndarray], np.ndarray]
    q_lo: float
    q_hi: float


def default_p0(model: ModelSpec, rep: Representation,
               params: DeformationParams) -> float:
    """Anchor point for the generic transform: 0 on symmetric domains, the
    q-midpoint image p(theta = pi/4) on half cells.  Raises where the model is
    not solved, as ``solve`` does."""
    model.admit(params)
    if not model.half_cell:
        return 0.0
    angle = REALIZATIONS[rep].angle
    if angle is None:
        raise UnsupportedPair(f"no anchor for {rep}")
    return float(angle.x_of(math.pi / 4.0)) / math.sqrt(params.tau_check)


def ansatz_for(sol: ClosedFormSolution, n: int,
               coordinates: str = "model") -> FactorizationAnsatz:
    """Factorization ansatz matching the solution's transformed problem.

    ``coordinates`` is "model" for the model's own coordinate (symmetric
    wells centered, half cells starting at q = 0) or "centered" for the
    generic transform anchored at ``default_p0`` (half cells recentered).
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
    """Metric density of the pair's own (f, g, h), normalized to 1 at the
    anchor p0.

    -f psi'' + g psi' + h psi is symmetric in L^2(rho dp) exactly when
    (rho f)' = -rho g, the Sturm-Liouville weight (Zettl, *Sturm-Liouville
    Theory*, AMS 2005).  With the gauge chi' = (f' + 2g) / (4f) of
    ``to_potential`` that weight is rho = f^(-1/2) e^(-2 Re chi), summed
    as logarithms.  Nothing here reads the closed form it is checked
    against.
    """
    fgh = coefficients(model, rep, params)
    p0 = default_p0(model, rep, params)
    tr = to_potential(fgh, p0)

    def log_rho(p):
        return -2.0 * np.real(tr.chi(p)) - 0.5 * np.log(np.asarray(fgh.f(p), dtype=float))

    ref = float(log_rho(np.array([p0]))[0])

    def rho(p):
        return np.exp(log_rho(np.atleast_1d(np.asarray(p, dtype=float))) - ref)

    return rho
