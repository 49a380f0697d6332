"""Independent numerical checks: FD eigensolver and expectation engines.

The eigensolver discretizes -phi'' + V phi = E phi on a half-step-offset
uniform grid and extracts the lowest eigenvalues of the symmetric tridiagonal
matrix by LAPACK Sturm-sequence bisection.  Singular endpoints are handled by
measuring the inverse-square wall coefficient gamma = lim d^2 V directly from
the potential, eliminating the first interior row with the local power-law
ratio (exponent s = (1 + sqrt(1+4 gamma))/2), and extrapolating over grids
N, 2N, 4N with the wall-derived error exponents.  Everything is computed from
V alone, keeping the check independent of the closed forms it validates.

Expectation values come in two independent flavors:

* ``expectation_unified``: a single z-integral over the special-function
  basis, with P acting as z/sqrt(tc (1-z^2)) and X as the gauge-conjugated
  derivative; identical for every representation by construction.
* ``expectation_direct``: brute quadrature of psi* rho (F psi) on the
  representation's native momentum grid using the numerical operator actions
  (Pi1..Pi3; the segment representation is covered by the unified form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.special import roots_jacobi

from .algebra import (
    DeformationParams,
    HarmonicOscillator,
    ModelSpec,
    PoschlTeller,
    Representation,
    Swanson,
)
from .errors import ConvergenceFailure, NonIntegrable, ParameterError, UnsupportedPair
from .jets import Jet
from .operators import apply_P, apply_X, uniform_grid
from .solutions import (
    ClosedFormSolution,
    classify_physical,
    jacobi_orders,
    legendre_order,
    solve,
    transformed_potential,
    x_conjugation_coefficient,
)
from .specfun import JacobiSpec, LegendreSpec, assoc_legendre_jet, jacobi_jet

__all__ = [
    "EigenProblem",
    "SpectrumResult",
    "fd_eigenvalues",
    "verify_spectrum",
    "VerifyReport",
    "expectation_unified",
    "expectation_direct",
    "matrix_element_direct",
    "parse_word",
]

_V_CAP = 1e12


@dataclass(frozen=True)
class EigenProblem:
    """Dirichlet problem -phi'' + V phi = E phi on (q_lo, q_hi).

    ``singular_endpoints`` enables the wall-coefficient measurement; with it
    off, both ends are treated as plain regular Dirichlet walls.
    """

    V: Callable[[np.ndarray], np.ndarray]
    q_lo: float
    q_hi: float
    grid_size: int = 2048
    boundary: str = "dirichlet"
    singular_endpoints: bool = True

    def __post_init__(self):
        if self.grid_size < 64:
            raise ParameterError("grid_size must be at least 64")
        if self.boundary != "dirichlet":
            raise ParameterError("only Dirichlet boundaries are supported")
        if not (math.isfinite(self.q_lo) and math.isfinite(self.q_hi)
                and self.q_lo < self.q_hi):
            raise ParameterError("q domain must be a finite nonempty interval")


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    grid_sizes: tuple[int, ...]
    raw: list = field(default_factory=list)
    extrapolated: bool = True
    error_estimates: np.ndarray | None = None
    wall_exponents: tuple[float, float] = (math.inf, math.inf)


def _wall_gamma(V, q_wall, side, scale):
    """Inverse-square coefficient of V at an endpoint, from V alone."""
    d1 = 1e-4 * scale
    d2 = 2e-4 * scale
    g1 = float(V(np.array([q_wall - side * d1]))[0]) * d1 ** 2
    g2 = float(V(np.array([q_wall - side * d2]))[0]) * d2 ** 2
    return (4.0 * g1 - g2) / 3.0


def _wall_exponent(gamma):
    disc = 1.0 + 4.0 * gamma
    if disc < 0:
        raise ConvergenceFailure(
            f"wall coefficient {gamma:.6g} below the -1/4 collapse threshold")
    return 0.5 * (1.0 + math.sqrt(disc))


def _fd_once(V, lo, hi, n, count, s_lo, s_hi):
    h = (hi - lo) / n
    x = lo + (np.arange(n) + 0.5) * h
    v = np.clip(np.asarray(V(x), dtype=float), -_V_CAP, _V_CAP)
    d = 2.0 / h ** 2 + v
    e = np.full(n - 1, -1.0 / h ** 2)
    d[1] -= (1.0 / 3.0) ** s_lo / h ** 2
    d[n - 2] -= (1.0 / 3.0) ** s_hi / h ** 2
    return eigvalsh_tridiagonal(d[1:n - 1], e[1:n - 2], select="i",
                                select_range=(0, count - 1),
                                lapack_driver="stebz")


def _error_exponents(s_lo, s_hi):
    ps = {2.0, 4.0}
    for s in (s_lo, s_hi):
        p = 2.0 * s - 1.0
        if p < 2.0 and abs(s - round(s)) > 1e-6:
            ps.add(round(p, 12))
            ps.add(round(2.0 * p, 12))
    ordered = sorted(ps)
    return ordered[0], ordered[1]


def fd_eigenvalues(problem: EigenProblem, count: int) -> SpectrumResult:
    """Lowest ``count`` eigenvalues with grid-tripling extrapolation."""
    if count < 1:
        raise ParameterError("count must be positive")
    if count > problem.grid_size // 8:
        raise ParameterError("count must not exceed grid_size / 8")
    lo, hi, V = problem.q_lo, problem.q_hi, problem.V
    scale = hi - lo
    if problem.singular_endpoints:
        s_lo = _wall_exponent(_wall_gamma(V, lo, -1, scale))
        s_hi = _wall_exponent(_wall_gamma(V, hi, +1, scale))
    else:
        s_lo = s_hi = 1.0
    grids = (problem.grid_size, 2 * problem.grid_size, 4 * problem.grid_size)
    raw = [_fd_once(V, lo, hi, n, count, s_lo, s_hi) for n in grids]
    p1, p2 = _error_exponents(s_lo, s_hi)
    r1 = 2.0 ** p1
    a1 = (r1 * raw[1] - raw[0]) / (r1 - 1.0)
    a2 = (r1 * raw[2] - raw[1]) / (r1 - 1.0)
    r2 = 2.0 ** p2
    best = (r2 * a2 - a1) / (r2 - 1.0)
    err = np.abs(a2 - a1) + np.abs(best - a2) + 1e-15 * np.abs(best)
    scale_e = np.maximum(np.abs(best), 1.0)
    rough = np.abs(raw[1] - raw[2])
    bad = (rough > 1e3 * np.finfo(float).eps * scale_e) & (err > 0.05 * scale_e)
    if np.any(bad):
        raise ConvergenceFailure(
            "grid refinement did not converge: error estimates "
            f"{err[bad]} on levels {np.nonzero(bad)[0]}")
    return SpectrumResult(eigenvalues=best, grid_sizes=grids, raw=raw,
                          extrapolated=True, error_estimates=err,
                          wall_exponents=(s_lo, s_hi))


@dataclass
class VerifyReport:
    model: ModelSpec
    rep: Representation
    closed: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray
    passed: bool
    tolerance: float


def verify_spectrum(model: ModelSpec, rep: Representation,
                    params: DeformationParams, count: int = 6,
                    grid_size: int = 2048, tolerance: float = 1e-5) -> VerifyReport:
    """Compare closed-form energies against the FD oracle on the transformed well."""
    cls = classify_physical(model, rep, params)
    if cls.complex_spectrum:
        raise ParameterError("spectrum is complex here; the FD oracle needs a real well")
    if not cls.physical:
        raise ParameterError("unbounded family; nothing for the oracle to match")
    sol = solve(model, rep, params)
    pot = transformed_potential(model, rep, params)
    problem = EigenProblem(V=pot.V, q_lo=pot.q_lo, q_hi=pot.q_hi, grid_size=grid_size)
    res = fd_eigenvalues(problem, count)
    closed = np.array([float(np.real(sol.energy(n))) for n in range(count)])
    rel = np.abs(res.eigenvalues - closed) / np.maximum(np.abs(closed), 1e-300)
    return VerifyReport(model=model, rep=rep, closed=closed,
                        numeric=res.eigenvalues, rel_errors=rel,
                        passed=bool(np.all(rel < tolerance)), tolerance=tolerance)


# ---------------------------------------------------------------------------
# operator words

def parse_word(word) -> list[tuple[complex, list[tuple[str, int]]]]:
    """Parse an operator word into [(coefficient, [(symbol, power), ...]), ...].

    Accepts strings like "X", "P2", "XP+PX", "P-2", "H", or an already
    structured list of (symbol, power) factors.  Terms are summed; factors in
    a term compose right-to-left.
    """
    if isinstance(word, str):
        text = word.replace(" ", "")
        if text.upper() == "H":
            return [(1.0, [("H", 1)])]
        terms = []
        for chunk in text.split("+"):
            if not chunk:
                raise ParameterError(f"empty term in word {word!r}")
            factors = []
            i = 0
            while i < len(chunk):
                sym = chunk[i].upper()
                if sym not in ("X", "P"):
                    raise ParameterError(f"unknown symbol {chunk[i]!r} in word {word!r}")
                i += 1
                j = i
                if j < len(chunk) and chunk[j] == "-":
                    j += 1
                while j < len(chunk) and chunk[j].isdigit():
                    j += 1
                power = int(chunk[i:j]) if j > i else 1
                factors.append((sym, power))
                i = j
            terms.append((1.0, factors))
        return terms
    return [(1.0, [(str(s).upper(), int(k)) for (s, k) in word])]


def _word_weight(terms) -> int:
    return max(sum(abs(k) for _, k in factors) for _, factors in terms)


def _hamiltonian_terms(model: ModelSpec, params: DeformationParams):
    hbar, m, om = params.hbar, params.mass, params.omega
    if isinstance(model, HarmonicOscillator):
        return [(1.0 / (2 * m), [("P", 2)]),
                (0.5 * m * om ** 2, [("X", 2)])], 0.0
    if isinstance(model, Swanson):
        big = model.omega_shift(params)
        kin = (hbar * om * (1 - params.tau) - model.alpha - model.beta) / (2 * m * hbar * om)
        mix = 1j * (model.alpha - model.beta) / (2 * hbar)
        return [(kin, [("P", 2)]),
                (big * m * om / (2 * hbar), [("X", 2)]),
                (mix, [("X", 1), ("P", 1)]),
                (mix, [("P", 1), ("X", 1)])], 0.0
    if isinstance(model, PoschlTeller):
        tc = params.tau_check
        const = 0.5 * hbar * om * model.alpha + model.beta / (2 * m * tc)
        return [(model.beta / (2 * m), [("P", 2)]),
                (0.5 * hbar * om * model.alpha / tc, [("P", -2)]),
                (0.5 * m * om ** 2, [("X", 2)])], const
    raise UnsupportedPair(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# unified engine (z-space, analytic derivatives via jets)

# Callers sweep levels and words of one (model, params) at a time, and do not
# come back to a configuration once they move on, so a few entries hold all
# the reuse there is.
@lru_cache(maxsize=4)
def _gauss_jacobi(quad_order, alpha, beta):
    """Read-only Gauss-Jacobi rule for the weight (1-z)^alpha (1+z)^beta.

    It depends only on the model's exponents, so every level and word of one
    (model, params) shares it.
    """
    rule = roots_jacobi(quad_order, alpha, beta)
    for arr in rule:
        arr.flags.writeable = False
    return rule


@lru_cache(maxsize=4)
def _zspace(model, params, n, order, quad_order):
    """The basis space of one level, shared read-only between words."""
    zs = _ZSpace(model, params, n, order, quad_order)
    for arr in (zs.weight, zs.basis.d, zs.zjet.d, zs.one_minus_z2.d):
        arr.flags.writeable = False
    return zs


class _ZSpace:
    """Unified basis-variable machinery for one (model, params, n).

    Quadrature folds the algebraic endpoint weight of the basis into
    Gauss-Jacobi nodes, so the shipped operator words integrate exactly:
    (1-z^2)^(lam-1) for the Legendre family, (1-w)^(a-1) (1+w)^(b-1) for the
    Jacobi family.
    """

    def __init__(self, model, params, n, order=6, quad_order=256):
        self.model = model
        self.params = params
        self.n = n
        self.tc = params.tau_check
        if self.tc <= 0:
            raise ParameterError("the unified integral needs tau > 0")
        self.order = order
        if isinstance(model, PoschlTeller):
            a, b = jacobi_orders(model, params)
            cls = classify_physical(model, Representation.PI1, params)
            if not cls.physical:
                raise ParameterError("complex exponents; unified integral not real here")
            self.family = "jacobi"
            self.a, self.b = a.real, b.real
            self.z, self.wq = _gauss_jacobi(quad_order, self.a - 1.0, self.b - 1.0)
            self.basis = jacobi_jet(JacobiSpec(n, self.a, self.b), self.z, order)
            # remainder after folding (1-w)^(a-1) (1+w)^(b-1) into the nodes
            self.weight = (1.0 - self.z) * (1.0 + self.z)
        else:
            mu = legendre_order(model, params)
            if abs(complex(mu).imag) > 0:
                raise ParameterError("broken regime: unified integral not real here")
            self.family = "legendre"
            self.mu = complex(mu).real
            lam = -self.mu
            self.kappa = x_conjugation_coefficient(model, params)
            self.z, self.wq = _gauss_jacobi(quad_order, lam - 1.0, lam - 1.0)
            self.basis = assoc_legendre_jet(LegendreSpec(n, self.mu), self.z, order)
            self.weight = (1.0 - self.z ** 2) ** (1.0 - lam)
        zj = Jet.variable(self.z, order)
        self.one_minus_z2 = 1.0 - zj * zj
        self.zjet = zj

    # multiplicative P and its powers --------------------------------------
    def p_jet(self, power):
        if self.family == "legendre":
            base = self.zjet * self.one_minus_z2.power(-0.5) * self.tc ** -0.5
            return base.power(power) if power != 1 else base
        # jacobi variable w: p = sqrt((1-w)/(tc (1+w)))
        ratio = (1.0 - self.zjet) * (1.0 + self.zjet).reciprocal() * (1.0 / self.tc)
        if power % 2 == 0:
            out = ratio.power(power // 2)
        else:
            out = ratio.power(power / 2.0)
        return out

    def apply_x(self, state: Jet) -> Jet:
        hbar = self.params.hbar
        if self.family == "legendre":
            w = self.one_minus_z2.power(0.5)
            scal = self.zjet * self.one_minus_z2.power(-0.5) * (-self.kappa)
            return (w * state.derivative() + scal * state) * (1j * hbar * math.sqrt(self.tc))
        w = self.one_minus_z2.power(0.5)
        lnu = ((1.0 - self.zjet).reciprocal() * (-(self.a + 0.5) / 2.0)
               + (1.0 + self.zjet).reciprocal() * ((self.b + 0.5) / 2.0))
        return (w * state.derivative() + (w * lnu) * state) \
            * (-2j * hbar * math.sqrt(self.tc))

    def apply_term(self, factors, state: Jet) -> Jet:
        for sym, power in reversed(factors):
            if sym == "P":
                if power < 0 and self.family == "legendre":
                    raise NonIntegrable(
                        "negative momentum powers are only integrable for the "
                        "inverse-square model")
                if power < 0 and self.family == "jacobi" \
                        and self.a - abs(power) / 2.0 <= -1.0:
                    raise NonIntegrable(
                        "P^{-k} makes the endpoint weight non-integrable here")
                state = self.p_jet(power) * state
            elif sym == "X":
                for _ in range(power):
                    state = self.apply_x(state)
            elif sym == "H":
                terms, const = _hamiltonian_terms(self.model, self.params)
                acc = None
                for coeff, fs in terms:
                    t = self.apply_term(fs, state)
                    acc = t * coeff if acc is None else acc + t * coeff
                if const:
                    acc = acc + state * const
                state = acc
            else:
                raise ParameterError(f"unknown symbol {sym!r}")
        return state

    def norm(self) -> float:
        vals = self.basis.value
        return float(np.sum(self.wq * self.weight * np.abs(vals) ** 2))


def expectation_unified(model: ModelSpec, params: DeformationParams, n: int,
                        word, quad_order: int = 256) -> complex:
    """<psi_n| F |psi_n>_rho via the representation-independent basis integral."""
    terms = parse_word(word)
    weight = _word_weight(terms)
    if weight > 4:
        raise ParameterError("operator words longer than 4 factors are not supported")
    zs = _zspace(model, params, n, max(weight * 2, 4), quad_order)
    acc = 0.0 + 0.0j
    for coeff, factors in terms:
        out = zs.apply_term(factors, zs.basis)
        acc += coeff * np.sum(zs.wq * zs.weight * np.conj(zs.basis.value) * out.value)
    return complex(acc / zs.norm())


# ---------------------------------------------------------------------------
# direct engine (native momentum grid + numerical operator actions)

_DIRECT_REPS = (Representation.PI1, Representation.PI2, Representation.PI3)


def _direct_grid(sol: ClosedFormSolution, n_points, span_tol=1e-10):
    dom = sol.domain
    if math.isfinite(dom.lo):
        hi = dom.hi
        if not math.isfinite(hi):
            hi = _decay_span(sol, start=8.0 / math.sqrt(sol.params.tau_check),
                             tol=span_tol)
        h = (hi - dom.lo) / n_points
        return dom.lo + (np.arange(n_points) + 0.5) * h, h
    half = _decay_span(sol, start=8.0 / math.sqrt(sol.params.tau_check), tol=span_tol)
    grid = uniform_grid(-half, half, n_points)
    return grid, grid[1] - grid[0]


def _decay_span(sol, start, tol):
    """Half-width where the normalized P^2-weighted density is negligible.

    The words at hand raise the decay exponent by at most p^2, so the
    pointwise check on psi^2 rho (1 + p^2) bounds the quadrature tail.
    """
    norm0 = sol.norm(0)
    span = start
    for _ in range(80):
        probe = np.array([span])
        tail = float((np.abs(sol.psi_raw(0, probe) / norm0) ** 2 * sol.metric(probe)
                      * (1.0 + probe ** 2))[0])
        if tail < tol:
            return span
        span *= 1.3
    return span


def _apply_word_direct(sol, terms, psi, grid):
    rep, params = sol.rep, sol.params
    acc = np.zeros_like(np.asarray(psi, dtype=complex))
    for coeff, factors in terms:
        cur = np.asarray(psi, dtype=complex)
        for sym, power in reversed(factors):
            if sym == "P":
                if power >= 0:
                    for _ in range(power):
                        cur = apply_P(rep, params, cur, grid)
                else:
                    pmul = apply_P(rep, params, np.ones_like(cur), grid)
                    cur = cur * pmul ** power
            elif sym == "X":
                for _ in range(power):
                    cur = apply_X(rep, params, cur, grid)
            elif sym == "H":
                hterms, const = _hamiltonian_terms(sol.model, params)
                inner = _apply_word_direct(sol, [(c, f) for c, f in hterms], cur, grid)
                cur = inner + const * cur
            else:
                raise ParameterError(f"unknown symbol {sym!r}")
        acc = acc + coeff * cur
    return acc


def matrix_element_direct(model: ModelSpec, rep: Representation,
                          params: DeformationParams, m: int, n: int, word,
                          grid_size: int = 8192) -> complex:
    """<psi_m| rho F psi_n> by native-grid quadrature with operator actions."""
    if rep not in _DIRECT_REPS:
        raise UnsupportedPair(
            "direct quadrature runs on Pi1..Pi3; the segment representation "
            "is covered by the unified integral")
    sol = solve(model, rep, params)
    terms = parse_word(word)
    grid, h = _direct_grid(sol, grid_size)
    ket = sol.psi(n, grid)
    bra = ket if m == n else sol.psi(m, grid)
    out = _apply_word_direct(sol, terms, ket, grid)
    rho = sol.metric(grid)
    return complex(np.sum(np.conj(bra) * rho * out) * h)


def expectation_direct(model: ModelSpec, rep: Representation,
                       params: DeformationParams, n: int, word,
                       grid_size: int = 8192) -> complex:
    """<psi_n| F |psi_n>_rho on the representation's native momentum grid."""
    return matrix_element_direct(model, rep, params, n, n, word, grid_size)
