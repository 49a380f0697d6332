"""Independent numerical checks: FD eigensolver and expectation engines.

The eigensolver discretizes -phi'' + V phi = E phi on a half-step-offset
uniform grid and extracts the lowest eigenvalues of the symmetric tridiagonal
matrix T.  Singular endpoints are handled by measuring the inverse-square wall
coefficient gamma = lim d^2 V directly from the potential, eliminating the
first interior row with the local power-law ratio (exponent
s = (1 + sqrt(1+4 gamma))/2), and extrapolating over grids N, 2N, 4N with the
wall-derived error exponents.

Only the base grid N is bisected (LAPACK stebz, Sturm sequences).  Every grid
then polishes its seeds by shifted inverse iteration (one dgttrf per seed,
then dgttrs solves): the base grid its own bisected values, grids 2N and 4N
the values of the grid below, which are already right to about h^2.  A grid
keeps the polished values only under a certificate: disjoint residual
intervals, a Sturm count (stebz, range "V") with exactly the expected number
of eigenvalues below them, and Kato-Temple bounds min(|r|, |r|^2 / gap) of at
most eps * ||T||_1, the tolerance bisection stops at (Parlett, The Symmetric
Eigenvalue Problem, SIAM 1998).  A grid whose values do not certify is
bisected instead.  Everything is computed from V alone, never seeded from the
closed forms, keeping the check independent of what it validates.

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
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .algebra import DeformationParams, ModelSpec, Representation
from .errors import (
    ConvergenceFailure,
    NonFiniteResult,
    NonIntegrable,
    ParameterError,
    UnsupportedPair,
)
from .jets import Jet
from .operators import apply_P, apply_X, uniform_grid
from .solutions import (
    ClosedFormSolution,
    classify_physical,
    solve,
    transformed_potential,
)
from .specfun import JacobiSpec, jacobi_jet
from .specfun import gauss_jacobi as roots_jacobi

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
_EPS = float(np.finfo(float).eps)
# Inverse-iteration solves per seed: a bisected seed certifies after one or
# two, a seed from the grid below after two or three.
_POLISH_STEPS = 6


# scipy takes about 0.3 s to import and only the FD oracle calls it, so the
# oracle imports its routines on first use.  This one stays a module
# attribute, as does the numpy Gauss-Jacobi rule ``roots_jacobi`` imported
# above: callers and instrumentation look both up here.
def eigvalsh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigvalsh_tridiagonal, imported on first use."""
    from scipy.linalg import eigvalsh_tridiagonal as impl
    return impl(d, e, **kwargs)


@dataclass(frozen=True)
class EigenProblem:
    """Dirichlet problem -phi'' + V phi = E phi on (q_lo, q_hi).

    Both walls are Dirichlet walls whose inverse-square coefficient is
    measured from V (zero at a regular wall).  ``grid_size`` is the base
    grid N: it is bisected, and N, 2N and 4N are polished and certified (see
    ``fd_eigenvalues``).
    """

    V: Callable[[np.ndarray], np.ndarray]
    q_lo: float
    q_hi: float
    grid_size: int = 2048

    def __post_init__(self):
        if self.grid_size < 64:
            raise ParameterError("grid_size must be at least 64")
        if not (math.isfinite(self.q_lo) and math.isfinite(self.q_hi)
                and self.q_lo < self.q_hi):
            raise ParameterError("q domain must be a finite nonempty interval")


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    grid_sizes: tuple[int, ...]
    raw: list = field(default_factory=list)
    error_estimates: np.ndarray | None = None
    wall_exponents: tuple[float, float] = (math.inf, math.inf)
    # per grid: True where the polished values certified, False where the
    # grid fell back to bisection
    certified: tuple[bool, ...] = ()


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


def _fd_matrix(V, lo, hi, n, s_lo, s_hi):
    """Diagonal and off-diagonal of the interior FD matrix on grid n."""
    h = (hi - lo) / n
    x = lo + (np.arange(n) + 0.5) * h
    v = np.clip(np.asarray(V(x), dtype=float), -_V_CAP, _V_CAP)
    d = 2.0 / h ** 2 + v
    e = np.full(n - 1, -1.0 / h ** 2)
    d[1] -= (1.0 / 3.0) ** s_lo / h ** 2
    d[n - 2] -= (1.0 / 3.0) ** s_hi / h ** 2
    return d[1:n - 1], e[1:n - 2]


def _bisect(d, e, count):
    """Lowest ``count`` eigenvalues by Sturm bisection to stebz's default
    tolerance eps * ||T||_1."""
    return eigvalsh_tridiagonal(d, e, select="i", select_range=(0, count - 1),
                                lapack_driver="stebz")


def _gaps(values, radii):
    """Distance from each value to the nearest edge of its neighbours'
    intervals [value - radius, value + radius]; inf where there is none."""
    gap = np.full(values.shape, np.inf)
    gap[1:] = values[1:] - (values[:-1] + radii[:-1])
    gap[:-1] = np.minimum(gap[:-1], (values[1:] - radii[1:]) - values[:-1])
    return gap


def _polish(d, e, seeds):
    """Certified inverse-iteration refinement of ``seeds``, or None.

    ``seeds`` approximate the lowest len(seeds) eigenvalues of the symmetric
    tridiagonal T = (d, e) in ascending order; the last is a guard that only
    bounds the one below it.  Each seed sigma factors T - sigma I once and
    iterates solves from a fixed-seed random vector; the Rayleigh quotient
    of the iterate y of v is sigma + (y . v) / (y . y), with the residual r
    of the normalised iterate taken explicitly.  A seed stops once its
    Kato-Temple bound min(|r|, |r|^2 / gap), with gap half the distance to
    the neighbouring seeds, is below eps * ||T||_1.

    The values are returned only when they certify: the intervals
    value +- |r| are disjoint, a Sturm count puts exactly len(seeds)
    eigenvalues at or below the guard's interval, so each interval holds its
    own eigenvalue, and every Kato-Temple bound below the guard, now with
    the gaps to the neighbouring intervals, is at most eps * ||T||_1, the
    tolerance bisection stops at.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

    row = np.abs(d)
    row[:-1] += np.abs(e)
    row[1:] += np.abs(e)
    norm1 = float(row.max())
    tol = _EPS * norm1
    start = np.random.default_rng(1).uniform(-1.0, 1.0, d.size)
    half_gap = (0.5 * _gaps(seeds, np.zeros_like(seeds))).tolist()
    values = np.empty_like(seeds)
    resid = np.empty_like(seeds)
    for i, sigma in enumerate(seeds.tolist()):
        *lu, info = dgttrf(e, d - sigma, e)
        if info != 0:
            return None
        v = start
        for _ in range(_POLISH_STEPS):
            y = dgttrs(*lu, v)[0]
            yy = float(y @ y)
            lam = sigma + float(y @ v) / yy
            v = y / math.sqrt(yy)
            tv = d * v
            tv[:-1] += e * v[1:]
            tv[1:] += e * v[:-1]
            r = float(np.linalg.norm(tv - lam * v))
            if r <= tol or r * r <= tol * half_gap[i]:
                break
        values[i], resid[i] = lam, r
    if not np.all(values[:-1] + resid[:-1] < values[1:] - resid[1:]):
        return None
    # range "V" (1) from below the spectrum; a tolerance wider than the
    # spectrum stops stebz once it has counted, before any bisection
    m, *_, info = dstebz(d, e, 1, -2.0 * norm1, values[-1] + resid[-1], 0, 0,
                         4.0 * norm1, "E")
    if info != 0 or m != values.size:
        return None
    gap = _gaps(values, resid)[:-1]
    kept = resid[:-1]
    if not np.all((kept <= tol) | (kept * kept <= tol * gap)):
        return None
    return values


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
    """Lowest ``count`` eigenvalues with grid-tripling extrapolation.

    The base grid bisects count + 1 eigenvalues; the extra one is a guard
    whose residual interval bounds the gap above the top requested level.
    Each grid then refines its seeds by certified inverse iteration
    (``_polish``), seeded by the base grid's bisection or the grid below.
    A grid that fails the certificate falls back to bisection: the base
    grid keeps its bisected values, a refined grid bisects afresh.
    ``SpectrumResult.certified`` records which grids certified.  The raw
    values then go through Richardson extrapolation with the wall-derived
    exponents, and ConvergenceFailure is raised where the grids disagree.
    """
    if count < 1:
        raise ParameterError("count must be positive")
    if count > problem.grid_size // 8:
        raise ParameterError("count must not exceed grid_size / 8")
    lo, hi, V = problem.q_lo, problem.q_hi, problem.V
    scale = hi - lo
    s_lo = _wall_exponent(_wall_gamma(V, lo, -1, scale))
    s_hi = _wall_exponent(_wall_gamma(V, hi, +1, scale))
    grids = (problem.grid_size, 2 * problem.grid_size, 4 * problem.grid_size)
    seeds, raw, certified = None, [], []
    for n in grids:
        d, e = _fd_matrix(V, lo, hi, n, s_lo, s_hi)
        base = seeds is None
        if base:
            seeds = _bisect(d, e, count + 1)
        values = _polish(d, e, seeds)
        certified.append(values is not None)
        if values is None:
            values = seeds if base else _bisect(d, e, count + 1)
        seeds = values
        raw.append(values[:count])
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
                          error_estimates=err,
                          wall_exponents=(s_lo, s_hi), certified=tuple(certified))


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
    structured list of (symbol, power) factors, where ("H", k) applies H
    k times.  Terms are summed; factors in a term compose right-to-left.
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
                if chunk[i:j] == "-":
                    raise ParameterError(f"sign without a power in word {word!r}")
                power = int(chunk[i:j]) if j > i else 1
                factors.append((sym, power))
                i = j
            terms.append((1.0, factors))
        return terms
    return [(1.0, [(str(s).upper(), int(k)) for (s, k) in word])]


def _word_weight(terms) -> int:
    return max(sum(abs(k) for _, k in factors) for _, factors in terms)


def _repeats(sym: str, power: int) -> int:
    """Times X or H is applied for the factor (sym, power); a power of 0 is
    the identity.  Neither operator has an inverse in these engines."""
    if power < 0:
        raise ParameterError(f"{sym} has no inverse here, got power {power}")
    return power


# ---------------------------------------------------------------------------
# unified engine (z-space, analytic derivatives via jets)

# Callers sweep levels and words of one (model, params) at a time, and do not
# come back to a configuration once they move on, so a few entries hold all
# the reuse there is.
@lru_cache(maxsize=4)
def _gauss_jacobi(quad_order, alpha, beta):
    """Read-only Gauss-Jacobi rule for the weight (1-z)^alpha (1+z)^beta.

    It depends only on the model's exponents, so every level and word of one
    (model, params) shares it.  Its weights sum to 1, not to the weight's
    mass, which overflows at small tau; the engine only forms acc / norm.
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


def _frozen(jet: Jet) -> Jet:
    jet.d.flags.writeable = False
    return jet


class _ZSpace:
    """Unified basis-variable machinery for one (model, params, n).

    Quadrature folds the algebraic endpoint weight of the basis into
    Gauss-Jacobi nodes, so the shipped operator words integrate exactly:
    (1-z^2)^(lam-1) for the Legendre family, (1-w)^(a-1) (1+w)^(b-1) for the
    Jacobi family.

    Every word of the level shares the state-independent jets (the P powers
    and the X-action coefficients), each built once on first use, and the
    states derived from the basis, keyed by the single steps ("P", k),
    ("X", 1) and ("H", 1) that built them: X feeds X2, XP and PX, and H's
    terms pick up the P2, X2, ... states earlier words left.  The memos hold
    the very jets a cold evaluation computes, so values do not depend on the
    order in which words arrive.
    """

    def __init__(self, model, params, n, order=6, quad_order=256):
        self.model = model
        self.params = params
        self.n = n
        self.tc = params.tau_check
        if self.tc <= 0:
            raise ParameterError("the unified integral needs tau > 0")
        self.order = order
        self.family = model.family
        model.admit(params)
        # the weight's exponents: (a+, b+), or (lam, lam) in the Legendre family
        if self.family == "jacobi":
            a, b = model.orders(params)
            if not model.reality(params)[0]:
                raise ParameterError("complex exponents; unified integral not real here")
            self.a, self.b = a.real, b.real
        else:
            mu = model.mu_minus(params)
            if abs(complex(mu).imag) > 0:
                raise ParameterError("broken regime: unified integral not real here")
            self.a = self.b = -complex(mu).real
            # X acts as i hbar sqrt(tc) [(1-z^2)^(1/2) d/dz - kappa z (1-z^2)^(-1/2)]
            self.kappa = 2.0 * model.scales(params)[1] + 0.5
        self.z, self.wq = _gauss_jacobi(quad_order, self.a - 1.0, self.b - 1.0)
        zj = Jet.variable(self.z, order)
        self.one_minus_z2 = 1.0 - zj * zj
        self.zjet = zj
        self.basis = jacobi_jet(JacobiSpec(n, self.a, self.b), self.z, order)
        if self.family == "jacobi":
            # remainder after folding (1-w)^(a-1) (1+w)^(b-1) into the nodes
            self.weight = (1.0 - self.z) * (1.0 + self.z)
        else:
            # (1-z^2)^(lam/2) P_n^(lam, lam) is the Ferrers function without
            # its constant k_n, which leaves the double range at small tau
            self.basis = self.one_minus_z2.power(self.a / 2.0) * self.basis
            self.weight = (1.0 - self.z ** 2) ** (1.0 - self.a)
        self._p_jets = {}
        self._states = {(): self.basis}

    # state-independent jets, built on first use ---------------------------
    @cached_property
    def _z_over_root(self) -> Jet:
        """z (1-z^2)^(-1/2), shared by P and the Legendre X action."""
        return _frozen(self.zjet * self.one_minus_z2.power(-0.5))

    @cached_property
    def _ratio(self) -> Jet:
        """p^2 on the Jacobi variable w: (1-w) / (tc (1+w))."""
        return _frozen((1.0 - self.zjet) * (1.0 + self.zjet).reciprocal()
                       * (1.0 / self.tc))

    @cached_property
    def _x_action(self) -> tuple[Jet, Jet, complex]:
        """(w, c, k) with X psi = (w psi' + c psi) k."""
        hbar = self.params.hbar
        w = _frozen(self.one_minus_z2.power(0.5))
        if self.family == "legendre":
            return (w, _frozen(self._z_over_root * (-self.kappa)),
                    1j * hbar * math.sqrt(self.tc))
        lnu = ((1.0 - self.zjet).reciprocal() * (-(self.a + 0.5) / 2.0)
               + (1.0 + self.zjet).reciprocal() * ((self.b + 0.5) / 2.0))
        return w, _frozen(w * lnu), -2j * hbar * math.sqrt(self.tc)

    # multiplicative P and its powers --------------------------------------
    def p_jet(self, power):
        out = self._p_jets.get(power)
        if out is None:
            if self.family == "legendre":
                base = self._z_over_root * self.tc ** -0.5
                out = base.power(power) if power != 1 else base
            elif power % 2 == 0:
                # jacobi variable w: p = sqrt((1-w)/(tc (1+w)))
                out = self._ratio.power(power // 2)
            else:
                out = self._ratio.power(power / 2.0)
            out = self._p_jets[power] = _frozen(out)
        return out

    def apply_x(self, state: Jet) -> Jet:
        w, c, k = self._x_action
        return (w * state.derivative() + c * state) * k

    def apply_term(self, factors, key=()) -> Jet:
        """The term ``factors`` applied to the memoized state at ``key``."""
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
                key = self._step(key, "P", power)
            elif sym == "X":
                for _ in range(_repeats(sym, power)):
                    key = self._step(key, "X", 1)
            elif sym == "H":
                for _ in range(_repeats(sym, power)):
                    key = self._step(key, "H", 1)
            else:
                raise ParameterError(f"unknown symbol {sym!r}")
        return self._states[key]

    def _step(self, key, sym, power):
        """Key of the state one step past ``key``, computing it if new."""
        new = key + ((sym, power),)
        if new in self._states:
            return new
        state = self._states[key]
        if sym == "P":
            out = self.p_jet(power) * state
        elif sym == "X":
            out = self.apply_x(state)
        else:
            terms, const = self.model.hamiltonian(self.params)
            out = None
            for coeff, fs in terms:
                t = self.apply_term(fs, key)
                out = t * coeff if out is None else out + t * coeff
            if const:
                out = out + state * const
        self._states[new] = _frozen(out)
        return new

    @cached_property
    def bra(self) -> np.ndarray:
        """Quadrature weights times the conjugate basis value."""
        bra = self.wq * self.weight * np.conj(self.basis.value)
        bra.flags.writeable = False
        return bra

    @cached_property
    def norm(self) -> float:
        return float(np.sum(self.wq * self.weight * np.abs(self.basis.value) ** 2))


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
        acc += coeff * np.sum(zs.bra * zs.apply_term(factors).value)
    norm = zs.norm
    # A basis that under- or overflows leaves a norm of 0 or inf, and the
    # quotient would be a bare ZeroDivisionError or a silent 0.  A NaN norm
    # needs no check: it makes the value NaN, which callers already reject.
    if norm == 0.0 or norm == math.inf:
        raise NonFiniteResult(f"basis norm of level {n} is {norm!r}")
    return complex(acc / norm)


# ---------------------------------------------------------------------------
# direct engine (native momentum grid + numerical operator actions)

_DIRECT_REPS = (Representation.PI1, Representation.PI2, Representation.PI3)
_DECAY_TOL = 1e-10  # psi^2 rho (1 + p^2) at the edge of an unbounded grid


def _direct_grid(sol: ClosedFormSolution, n_points):
    dom = sol.domain
    if math.isfinite(dom.lo):
        hi = dom.hi
        if not math.isfinite(hi):
            hi = _decay_span(sol)
        h = (hi - dom.lo) / n_points
        return dom.lo + (np.arange(n_points) + 0.5) * h, h
    half = _decay_span(sol)
    grid = uniform_grid(-half, half, n_points)
    return grid, grid[1] - grid[0]


def _decay_span(sol):
    """Half-width where the normalized P^2-weighted density is negligible.

    The words at hand raise the decay exponent by at most p^2, so the
    pointwise check on psi^2 rho (1 + p^2) bounds the quadrature tail.  The
    probe is the first of the spans 8 / sqrt(tc) * 1.3^k, k < 80, below
    ``_DECAY_TOL``, all evaluated at once; if none is, the next span.
    """
    spans = [8.0 / math.sqrt(sol.params.tau_check)]
    for _ in range(80):
        spans.append(spans[-1] * 1.3)
    probe = np.array(spans[:-1])
    # far spans may under- or overflow; they only need to compare with _DECAY_TOL
    with np.errstate(all="ignore"):
        tail = np.abs(sol.psi(0, probe)) ** 2 * sol.metric(probe) * (1.0 + probe ** 2)
    below = np.flatnonzero(tail < _DECAY_TOL)
    return spans[below[0]] if below.size else spans[-1]


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
                for _ in range(_repeats(sym, power)):
                    cur = apply_X(rep, params, cur, grid)
            elif sym == "H":
                hterms, const = sol.model.hamiltonian(params)
                for _ in range(_repeats(sym, power)):
                    cur = _apply_word_direct(sol, hterms, cur, grid) + const * cur
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
