"""Closed-form bound states: energies, wavefunctions, metrics, normalizations.

Every solvable (model, representation) pair reduces, after the potential
transform, to one of two special-function ladders:

* associated-Legendre family (harmonic oscillator, Swanson): eigenfunctions
  proportional to P_{n - mu}^{mu}(z) with the negative-order branch mu = mu_-
  selected by normalizability, and a tan^2 well in the transformed variable;
* Jacobi family (inverse-square / Poeschl-Teller model): eigenfunctions
  proportional to P_n^{(a+, b+)}(w) on a half cell with csc^2 + sec^2 walls.

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
    DeformationParams,
    Domain,
    HarmonicOscillator,
    ModelSpec,
    PoschlTeller,
    Representation,
    Swanson,
    coefficients,
    p_domain,
)
from .errors import (
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
    v_from_Qw,
)
from .phase import discriminant
from .specfun import (
    JacobiSpec,
    LegendreSpec,
    assoc_legendre,
    gauss_legendre_nodes,
    jacobi,
)

__all__ = [
    "ClosedFormSolution",
    "Classification",
    "PotentialSpec",
    "solve",
    "classify_physical",
    "metric_generic",
    "wavefunction_eval",
    "transformed_potential",
    "native_quadrature",
    "gram_matrix",
    "ansatz_for",
    "default_p0",
]

_LEGENDRE_REPS = (Representation.PI1, Representation.PI2, Representation.PI3,
                  Representation.PI4)


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
    if isinstance(model, HarmonicOscillator):
        return 0.5
    if isinstance(model, Swanson):
        big = model.omega_shift(params)
        return (model.alpha - model.beta) / (params.tau * big) + 0.5
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
    _prefactor: Callable[[np.ndarray], np.ndarray] | None = None
    _z_of_p: Callable[[np.ndarray], np.ndarray] | None = None
    _metric: Callable[[np.ndarray], np.ndarray] | None = None
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
        if self.family == "legendre":
            return assoc_legendre(LegendreSpec(n, self.parameters["mu_minus"]), z)
        if self.family == "jacobi":
            return jacobi(JacobiSpec(n, self.parameters["a_plus"].real,
                                     self.parameters["b_plus"].real), z)
        raise UnsupportedPair("no bound-state basis for this pair")

    def z_of_p(self, p):
        self._require_states()
        return self._z_of_p(np.asarray(p, dtype=float))

    def psi_raw(self, n: int, p):
        """Unnormalized wavefunction samples."""
        self._require_states()
        p = np.asarray(p, dtype=float)
        self._check_samples(p)
        return self._prefactor(p) * self.basis(n, self._z_of_p(p))

    def norm(self, n: int) -> float:
        """Constant c_n with <psi_n | rho psi_n> = 1 for psi_n = psi_raw / c_n."""
        self._require_states()
        if n not in self._norms:
            pq, wq = native_quadrature(self, order=384)
            vals = self.psi_raw(n, pq)
            self._norms[n] = math.sqrt(float(np.real(
                np.sum(wq * np.abs(vals) ** 2 * self.metric(pq)))))
        return self._norms[n]

    def psi(self, n: int, p):
        """Metric-orthonormal wavefunction samples."""
        return self.psi_raw(n, p) / self.norm(n)

    def metric(self, p):
        """Normalized positive metric density on the stored parametrization."""
        self._require_states()
        return self._metric(np.asarray(p, dtype=float))

    # -- helpers -------------------------------------------------------------

    def _require_states(self):
        if self._prefactor is None:
            raise ParameterError(
                "bound-state evaluators unavailable for this pair "
                "(unphysical variant or commutative limit)")

    def _check_samples(self, p):
        d = self.domain
        lo = d.lo
        if isinstance(self.model, PoschlTeller):
            lo = max(lo, 0.0)
        if np.any(p <= lo) or np.any(p >= d.hi):
            raise DomainError(
                f"samples must lie inside ({lo:.6g}, {d.hi:.6g}) "
                f"for {self.rep.value}")


def wavefunction_eval(sol: ClosedFormSolution, n: int, p_samples):
    """Normalized psi_n on the solution's parametrization (s for Pi4)."""
    return sol.psi(n, p_samples)


# ---------------------------------------------------------------------------
# solve()

def solve(model: ModelSpec, rep: Representation, params: DeformationParams,
          branch: str = "minus") -> ClosedFormSolution:
    """Closed-form solution for the pair, or a flagged unphysical record.

    ``branch`` selects the Legendre order branch; anything but the default
    "minus" produces non-normalizable states and exists for negative tests.
    """
    cls = classify_physical(model, rep, params)
    if rep is Representation.PI4_PRIME:
        return _solve_pi4_prime(model, rep, params, cls)
    if isinstance(model, (HarmonicOscillator, Swanson)):
        return _solve_legendre(model, rep, params, cls, branch)
    if isinstance(model, PoschlTeller):
        return _solve_jacobi(model, rep, params, cls)
    raise UnsupportedPair(f"unknown model {model!r}")


def _ho_energy(params):
    hw = params.hbar * params.omega
    root = math.sqrt(1.0 + params.tau ** 2 / 4.0)

    def energy(n):
        return hw * (0.5 + n) * root + params.tau * hw / 4.0 * (1 + 2 * n + 2 * n * n)

    return energy


def _swanson_energy(model, params):
    tau = params.tau
    big = model.omega_shift(params)
    d = discriminant(model.alpha, model.beta, params.tau, params)
    sqrt_d = cmath.sqrt(complex(d))

    def energy(n):
        return 0.25 * ((tau + 2 * n * tau + 2 * n * n * tau) * big
                       + (2 * n + 1) * sqrt_d)

    return energy


def _pt_energy(model, params):
    tau = params.tau
    hw = params.hbar * params.omega
    a, b = jacobi_orders(model, params)

    def energy(n):
        return hw * tau / 2.0 * (1 + 2 * n + a + b) ** 2

    return energy


def _solve_pi4_prime(model, rep, params, cls):
    tau = params.tau
    hw = params.hbar * params.omega
    if isinstance(model, HarmonicOscillator) and tau > 0:
        c = tau * hw / 2.0

        def energy(n):
            return hw / (2.0 * tau) - c / 4.0 * (1 + 2 * n) ** 2

        parameters = {"c": c}
    else:
        def energy(n):
            raise UnsupportedPair(
                "no published energy family for this pair; the variant is "
                "unphysical for every model considered")

        parameters = {}
    return ClosedFormSolution(
        model=model, rep=rep, params=params, family="unbounded", c=parameters.get("c", 0.0),
        parameters=parameters, physical=False, metric_constant=1.0,
        domain=p_domain(rep, params), _energy=energy)


def _solve_legendre(model, rep, params, cls, branch):
    if rep not in _LEGENDRE_REPS:
        raise UnsupportedPair(f"{type(model).__name__} not tabulated for {rep}")
    tau = params.tau
    tc = params.tau_check
    hw = params.hbar * params.omega
    if isinstance(model, HarmonicOscillator):
        energy = _ho_energy(params)
        c = tau * hw / 2.0
        eps = 0.0
    else:
        energy = _swanson_energy(model, params)
        big = model.omega_shift(params)
        c = tau * big / 2.0
        eps = (model.alpha - model.beta) / (2.0 * tau * big) if tau > 0 else 0.0

    if tau == 0.0:
        return ClosedFormSolution(
            model=model, rep=rep, params=params, family="legendre", c=0.0,
            parameters={"commutative_limit": True}, physical=cls.physical,
            metric_constant=1.0, domain=p_domain(rep, params), _energy=energy)

    mu_minus = legendre_order(model, params)
    mu = mu_minus if branch == "minus" else -mu_minus
    if abs(complex(mu).imag) < 1e-300:
        mu = complex(mu).real
    parameters = {"mu_minus": mu, "mu_plus": -mu_minus, "c": c,
                  "lambda": -mu, "epsilon": eps}

    stc = math.sqrt(tc)

    if rep in (Representation.PI1, Representation.PI2):
        # the similarity partner carries the extra u^(-1) = (1+tc p^2)^(-1/2)
        # and its metric gains the inverse square of that factor
        expo = (-eps - 0.25) if rep is Representation.PI1 else (-eps - 0.75)
        mexp = (2 * eps - 1.0) if rep is Representation.PI1 else 2 * eps

        def z_of_p(p):
            return stc * p / np.sqrt(1.0 + tc * p ** 2)

        def prefactor(p):
            return (1.0 + tc * p ** 2) ** expo

        def metric(p):
            return stc * (1.0 + tc * p ** 2) ** mexp

        const = 1.0
    elif rep is Representation.PI3:
        pexp = 2 * eps + 0.5
        mexp = -4.0 * eps

        def z_of_p(p):
            return np.sin(stc * p)

        def prefactor(p):
            return np.cos(stc * p) ** pexp

        def metric(p):
            return stc * np.cos(stc * p) ** mexp

        const = 1.0
    else:  # PI4, real segment parametrization s
        pexp = eps - 0.25
        mexp = -2.0 * eps + 0.5

        def z_of_p(s):
            return stc * s

        def prefactor(s):
            return (1.0 - tc * s ** 2) ** pexp

        def metric(s):
            return stc * (1.0 - tc * s ** 2) ** mexp

        const = -1j  # paper-form metric carries the segment factor -i

    return ClosedFormSolution(
        model=model, rep=rep, params=params, family="legendre", c=c,
        parameters=parameters, physical=cls.physical, metric_constant=const,
        domain=p_domain(rep, params), _energy=energy,
        _prefactor=prefactor, _z_of_p=z_of_p, _metric=metric)


def _solve_jacobi(model, rep, params, cls):
    if rep not in _LEGENDRE_REPS:
        raise UnsupportedPair("inverse-square model not tabulated for this representation")
    tau = params.tau
    tc = params.tau_check
    hw = params.hbar * params.omega
    energy = _pt_energy(model, params)
    a_c, b_c = jacobi_orders(model, params)
    c = 2.0 * tau * hw
    parameters = {"a_plus": a_c, "b_plus": b_c, "a_minus": -a_c, "b_minus": -b_c,
                  "c": c}
    stc = math.sqrt(tc)

    if not cls.physical:
        # complex exponents: keep energies, no normalizable states
        return ClosedFormSolution(
            model=model, rep=rep, params=params, family="jacobi", c=c,
            parameters=parameters, physical=False, metric_constant=1.0,
            domain=_pt_domain(rep, params), _energy=energy)

    a, b = a_c.real, b_c.real

    if rep in (Representation.PI1, Representation.PI2):
        expo = -(1 + a + b) / 2.0 if rep is Representation.PI1 else -(1 + a + b) / 2.0 - 0.5

        def z_of_p(p):
            return (1.0 - tc * p ** 2) / (1.0 + tc * p ** 2)

        def prefactor(p):
            return p ** (0.5 + a) * (1.0 + tc * p ** 2) ** expo

        if rep is Representation.PI1:
            def metric(p):
                return 2.0 * stc / (1.0 + tc * p ** 2)
        else:
            # similarity partner: constant metric (Hermitian Hamiltonian)
            def metric(p):
                return 2.0 * stc * np.ones_like(np.asarray(p, dtype=float))

        const = -1.0
    elif rep is Representation.PI3:
        def z_of_p(p):
            return np.cos(2.0 * stc * p)

        def prefactor(p):
            return np.sin(stc * p) ** (0.5 + a) * np.cos(stc * p) ** (0.5 + b)

        def metric(p):
            return 2.0 * stc * np.ones_like(np.asarray(p, dtype=float))

        const = -1.0
    else:  # PI4
        def z_of_p(s):
            return 1.0 - 2.0 * tc * s ** 2

        def prefactor(s):
            return s ** (a + 0.5) * (1.0 - tc * s ** 2) ** ((2 * b - 1) / 4.0)

        def metric(s):
            return 2.0 * stc * np.sqrt(1.0 - tc * s ** 2)

        const = 1j

    return ClosedFormSolution(
        model=model, rep=rep, params=params, family="jacobi", c=c,
        parameters=parameters, physical=True, metric_constant=const,
        domain=_pt_domain(rep, params), _energy=energy,
        _prefactor=prefactor, _z_of_p=z_of_p, _metric=metric)


def _pt_domain(rep, params) -> Domain:
    tc = params.tau_check
    stc = math.sqrt(tc)
    if rep in (Representation.PI1, Representation.PI2):
        return Domain(0.0, math.inf)
    if rep is Representation.PI3:
        return Domain(0.0, math.pi / (2 * stc))
    if rep is Representation.PI4:
        return Domain(0.0, 1.0 / stc, imaginary_segment=True)
    raise UnsupportedPair(f"inverse-square model not tabulated for {rep}")


# ---------------------------------------------------------------------------
# native quadrature, Gram matrices

def native_quadrature(sol: ClosedFormSolution, order: int = 384):
    """Quadrature nodes/weights for integrals over the solution's domain."""
    z, w = gauss_legendre_nodes(order)
    tc = sol.params.tau_check
    dom = sol.domain
    model = sol.model
    rep = sol.rep
    if isinstance(model, PoschlTeller) and rep in (Representation.PI1, Representation.PI2):
        # half line (0, inf): substitute the Jacobi argument
        p = np.sqrt((1.0 - z) / (tc * (1.0 + z)))
        jac = 1.0 / (tc * p * (1.0 + z) ** 2)
        idx = np.argsort(p)
        return p[idx], (w * jac)[idx]
    if not dom.finite:
        # full line: substitute the Legendre argument z -> p
        p = z / (math.sqrt(tc) * np.sqrt(1.0 - z ** 2))
        jac = (1.0 - z ** 2) ** -1.5 / math.sqrt(tc)
        return p, w * jac
    lo = 0.0 if isinstance(model, PoschlTeller) else dom.lo
    mid = 0.5 * (lo + dom.hi)
    half = 0.5 * (dom.hi - lo)
    return mid + half * z, w * half


def gram_matrix(sol: ClosedFormSolution, n_max: int, order: int = 384) -> np.ndarray:
    """G[m, n] = <psi_m | rho psi_n> for the normalized states."""
    p, w = native_quadrature(sol, order)
    rho = sol.metric(p)
    states = np.array([sol.psi(n, p) for n in range(n_max + 1)])
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

    @property
    def q_domain(self):
        return (self.q_lo, self.q_hi)


def transformed_potential(model: ModelSpec, rep: Representation,
                          params: DeformationParams) -> PotentialSpec:
    """Closed-form potential data for the pair (Pi2 shares the Pi1 problem)."""
    if rep is Representation.PI2:
        rep = Representation.PI1
    tau = params.tau
    tc = params.tau_check
    hbar, m, om = params.hbar, params.mass, params.omega
    hw = hbar * om
    if tau == 0.0:
        if isinstance(model, PoschlTeller):
            raise ParameterError("the inverse-square model requires tau > 0")
        # commutative limit: harmonic well in the stretched coordinate, on a
        # box wide enough that low levels are unaffected by truncation
        if isinstance(model, Swanson):
            d = discriminant(model.alpha, model.beta, params.tau, params)
            if d < 0:
                raise ParameterError("complex commutative spectrum; no real well")
            k = 0.5 * math.sqrt(d) / 2.0
            base = model.omega_shift(params)
        else:
            k = 0.5 * hw
            base = hw
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
    stc = math.sqrt(tc)

    if isinstance(model, (HarmonicOscillator, Swanson)):
        if isinstance(model, HarmonicOscillator):
            c = tau * hw / 2.0
            amp = hw / (2.0 * tau)
            eps = 0.0
            big = None
        else:
            big = model.omega_shift(params)
            c = tau * big / 2.0
            amp = ((1 - tau) * hw ** 2 - tau * hw * (model.alpha + model.beta)
                   - 4 * model.alpha * model.beta) / (2.0 * tau * big)
            eps = (model.alpha - model.beta) / (2.0 * tau * big)
        rc = math.sqrt(c)
        edge = math.pi / (2.0 * rc)

        def V(q):
            return amp * np.tan(rc * np.asarray(q)) ** 2

        base = big if big is not None else hw
        if rep is Representation.PI1:
            arch = math.sqrt(2.0 / (tau * base))

            def q_of_p(p):
                return arch * np.arctan(stc * np.asarray(p))

            def chi(p):
                return -eps * np.log(1.0 + tc * np.asarray(p) ** 2)
        elif rep is Representation.PI3:
            lin = math.sqrt(2.0 / (m * hbar * om * base))

            def q_of_p(p):
                return lin * np.asarray(p)

            def chi(p):
                return 2.0 * eps * np.log(np.cos(stc * np.asarray(p)))
        elif rep is Representation.PI4:

            def q_of_p(s):
                return math.sqrt(2.0 / (tau * base)) * np.arcsin(stc * np.asarray(s))

            def chi(s):
                return (eps - 0.5) * np.log(1.0 - tc * np.asarray(s) ** 2)
        else:
            raise UnsupportedPair(f"no transformed potential for {rep}")
        return PotentialSpec(V=V, q_lo=-edge, q_hi=edge, c=c, family="legendre",
                             q_of_p=q_of_p, chi=chi, ansatz_phase=0.0)

    if isinstance(model, PoschlTeller):
        c = 2.0 * tau * hw
        rc2 = math.sqrt(tau * hw / 2.0)  # = sqrt(c)/2
        edge = math.pi / math.sqrt(2.0 * tau * hw)
        al, be = model.alpha, model.beta

        def V(q):
            s = rc2 * np.asarray(q)
            return 0.5 * hw * al / np.sin(s) ** 2 + be / (2 * m * tc) / np.cos(s) ** 2

        if rep is Representation.PI1:
            def q_of_p(p):
                return math.sqrt(2.0 / (tau * hw)) * np.arctan(stc * np.asarray(p))

            def chi(p):
                return np.zeros_like(np.asarray(p, dtype=float))
        elif rep is Representation.PI3:
            lin = math.sqrt(2.0 / (m * hbar ** 2 * om ** 2))

            def q_of_p(p):
                return lin * np.asarray(p)

            def chi(p):
                return np.zeros_like(np.asarray(p, dtype=float))
        elif rep is Representation.PI4:
            def q_of_p(s):
                return math.sqrt(2.0 / (tau * hw)) * np.arcsin(stc * np.asarray(s))

            def chi(s):
                return -0.5 * np.log(1.0 - tc * np.asarray(s) ** 2)
        else:
            raise UnsupportedPair(f"no transformed potential for {rep}")
        return PotentialSpec(V=V, q_lo=0.0, q_hi=edge, c=c, family="jacobi",
                             q_of_p=q_of_p, chi=chi, ansatz_phase=math.pi / 2.0)

    raise UnsupportedPair(f"unknown model {model!r}")


def default_p0(model: ModelSpec, rep: Representation,
               params: DeformationParams) -> float:
    """Anchor point for the generic transform: 0 on symmetric domains, the
    q-midpoint image on half cells."""
    if not isinstance(model, PoschlTeller):
        return 0.0
    tc = params.tau_check
    if rep in (Representation.PI1, Representation.PI2):
        return 1.0 / math.sqrt(tc)
    if rep is Representation.PI3:
        return math.pi / (4.0 * math.sqrt(tc))
    if rep is Representation.PI4:
        return 1.0 / math.sqrt(2.0 * tc)
    raise UnsupportedPair(f"no anchor for {rep}")


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

    rho = varrho(w) e^{-2 Re chi} |v|^{-2} dw/dp, normalized real-positive at
    the domain reference point.  The Pi2 metric is the Pi1 assembly divided by
    the squared similarity factor, rho_1 * (1 + tc p^2).
    """
    if rep is Representation.PI2:
        rho1 = metric_generic(model, Representation.PI1, params)
        tc = params.tau_check
        return lambda p: rho1(p) * (1.0 + tc * np.asarray(p, dtype=float) ** 2)
    sol = solve(model, rep, params)
    fgh = coefficients(model, rep, params)
    p0 = default_p0(model, rep, params)
    tr = to_potential(fgh, p0)
    ansatz = ansatz_for(sol, 0, coordinates="centered")
    v = v_from_Qw(ansatz)

    if sol.family == "jacobi":
        a = sol.parameters["a_plus"].real
        b = sol.parameters["b_plus"].real

        def varrho(w):
            return (1.0 - w) ** a * (1.0 + w) ** b
    else:
        def varrho(w):
            return np.ones_like(np.asarray(w, dtype=float))

    def rho_raw(p):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        q = tr.q_of_p(p)
        w = ansatz.w(q)
        dwdp = ansatz.dw(q) / np.sqrt(np.asarray(fgh.f(p), dtype=float))
        vv = v(q)
        return varrho(w) * np.exp(-2.0 * np.real(tr.chi(p))) * np.abs(vv) ** -2.0 * dwdp

    ref = float(np.real(rho_raw(np.array([p0]))[0])) or 1.0
    sign = 1.0 if ref > 0 else -1.0

    def rho(p):
        return sign * np.real(rho_raw(p))

    return rho
