"""Independent numerical checks: FD eigensolver and expectation engines.

The eigensolver takes the wall exponents s (phi ~ distance^s, with
s = (1 + sqrt(1 + 4 gamma))/2) from the inverse-square coefficient gamma
= lim d^2 V that it measures from the potential, factors them out of phi
(phi = g u), and discretizes the equation for u by the integro-interpolation
method on uniform cells (Samarskii, The Theory of Difference Schemes, 2001;
Pryce, Numerical Solution of Sturm-Liouville Problems, 1993).  The lowest
eigenvalues of the symmetric tridiagonal matrix T converge at second order
at every wall, so grids N, 2N and 4N are extrapolated with the exponents 2
and 4.

Only the base grid N is bisected (LAPACK stebz, Sturm sequences), and only
to seeds: to an absolute tolerance of 1e-10 * ||T||_1.  Every grid then
polishes its seeds by shifted inverse iteration (one dgttrf per seed, then
dgttrs solves, each seed stopped on the residual its last solve implies):
the base grid its bisected seeds, grid 2N the values of grid N, and grid 4N
the Richardson prediction lambda_2N - (lambda_N - lambda_2N) / 4 from grids
N and 2N.  A grid keeps the polished values only under a certificate built
from their explicit residuals, all formed in one pass: disjoint residual
intervals, a Sturm count (stebz, range "V") with exactly the expected
number of eigenvalues below them, and Kato-Temple bounds
min(|r|, |r|^2 / gap) of at most eps * ||T||_1, the tolerance stebz's own
bisection stops at (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998).
A grid whose values do not certify is bisected afresh to that tolerance.
Everything is computed from V alone, never seeded from the closed forms,
keeping the check independent of what it validates.

Expectation values come in two independent flavors:

* ``expectation_unified``: a single z-integral over the special-function
  basis, with P acting as z/sqrt(tc (1-z^2)) and X as the gauge-conjugated
  derivative; identical for every representation by construction.  Each
  term of a word goes to the Gauss-Jacobi rule that is exact for its
  endpoint exponents and degree, and a divergent term is NonIntegrable.
* ``expectation_direct``: brute quadrature of psi* rho (F psi) on the
  representation's momentum domain using the numerical operator actions
  (Pi1..Pi3; the segment representation is covered by the unified form).
  The samples are uniform in a variable t that a double-exponential map
  takes to the domain, sized from the (f, g, h) coefficients; X takes
  order-8 differences in t.  Like the unified engine it evaluates a level
  once: the grid, psi_n, rho and the states the words build from psi_n are
  shared by every word asked of that level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (
    DeformationParams,
    FGHCoefficients,
    ModelSpec,
    Representation,
    coefficients,
)
from .errors import (
    ConvergenceFailure,
    NonFiniteResult,
    NonIntegrable,
    ParameterError,
    UnsupportedPair,
)
from .jets import Jet
from .liouville import TransformResult
from .operators import LINE_REACH, apply_P, apply_X, line_map, mapped_grid
from .solutions import (
    PotentialSpec,
    classify_physical,
    solve,
    transformed_potential,
)
from .specfun import JacobiSpec, gauss_legendre_nodes, jacobi_jet, log_jacobi_mass
from .specfun import gauss_jacobi as roots_jacobi

__all__ = [
    "SpectrumResult",
    "fd_eigenvalues",
    "verify_spectrum",
    "VerifyReport",
    "expectation_unified",
    "expectation_direct",
    "parse_word",
]

# Gauss nodes per interior cell and flux span, and of each wall cell's
# Gauss-Jacobi rule (``_fd_matrix``)
_CELL_NODES = 3
# Largest wall exponent the FD gauge takes out of phi (``_fd_matrix``)
_GAUGE_CAP = 2.0
# The base grid puts at least this many cells across
# (q_hi - q_lo) / sqrt((s_lo + s_hi)(2 count - 1)).  The ground state of a
# well whose walls have the exponents s_lo and s_hi is about
# (q_hi - q_lo) / sqrt(s_lo + s_hi) wide, and the top level's wavelength at
# the centre is that width over sqrt(2 count - 1), up to a constant.
_WIDTH_CELLS = 3.6
# The base grid puts at least this many cells under each requested level.
_LEVEL_CELLS = 8
# The base grid starts at this many cells and doubles until the two rules
# above hold, which only narrow wells (small tau) and many levels ask for,
# to no more than ``_MAX_BASE`` cells: a well that needs more raises
# ConvergenceFailure, and a level count that does raises ParameterError,
# both before any grid is built.
_LEAST_BASE = 128
_MAX_BASE = 16384
# W is capped at this many (n / (q_hi - q_lo))^2 (``_fd_matrix``)
_BARRIER_CAP = 1e4
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
# Inverse-iteration solves per seed: a seed bisected to _SEED_TOL, or
# predicted by Richardson on grid 4N, stops after one or two; one from the
# grid below after two to four, rarely more.
_POLISH_STEPS = 6
# The base grid's seeds are bisected to this absolute tolerance, in units of
# ||T||_1: inverse iteration takes them the rest of the way to eps * ||T||_1.
_SEED_TOL = 1e-10


# scipy takes about 0.3 s to import and only the FD oracle calls it, so the
# oracle imports its routines on first use.  This one stays a module
# attribute, as does the numpy Gauss-Jacobi rule ``roots_jacobi`` imported
# above: callers and instrumentation look both up here.
def eigvalsh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigvalsh_tridiagonal, imported on first use."""
    from scipy.linalg import eigvalsh_tridiagonal as impl
    return impl(d, e, **kwargs)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    grid_sizes: tuple[int, ...]
    # each grid's values, before extrapolation
    raw: list[np.ndarray]
    error_estimates: np.ndarray
    wall_exponents: tuple[float, float]
    # per grid: True where the polished values certified, False where the
    # grid fell back to bisection
    certified: tuple[bool, ...]


def _wall_gamma(V, q_wall, side, scale):
    """Inverse-square coefficient of V at an endpoint, from V alone."""
    d1 = 1e-4 * scale
    d2 = 2e-4 * scale
    g1 = float(V(np.array([q_wall - side * d1]))[0]) * d1 ** 2
    g2 = float(V(np.array([q_wall - side * d2]))[0]) * d2 ** 2
    return (4.0 * g1 - g2) / 3.0


def _wall_exponent(gamma):
    if not math.isfinite(gamma):
        raise ConvergenceFailure(f"wall coefficient {gamma} is not finite")
    disc = 1.0 + 4.0 * gamma
    if disc < 0:
        raise ConvergenceFailure(
            f"wall coefficient {gamma:.6g} below the -1/4 collapse threshold")
    return 0.5 * (1.0 + math.sqrt(disc))


def _fd_matrix(V, lo, hi, n, walls):
    """Diagonal and off-diagonal of the factored FD matrix T on grid n.

    phi = g u with g = x^a y^b exp(-(a x^2 + b y^2) / 2), where x and y are
    the distances from q_lo and q_hi in units of hi - lo, and ``walls``
    holds a and b, the wall exponents capped at ``_GAUGE_CAP``, with the
    rules of their wall cells (``_walls``).  The problem becomes
    -(g^2 u')' + g^2 W u = E g^2 u with W = V - g''/g; the Gaussian factor
    cancels the 1/x and 1/y terms that x^a y^b alone leaves in g''/g, so W
    is bounded at a wall with s <= ``_GAUGE_CAP`` and u is smooth there.  A
    wall with a larger s keeps the rest of its inverse-square barrier in W,
    and u vanishes there like x^(s - a).

    Integrating over the n cells of width h (Samarskii's integro-interpolation
    method) gives A u = E M u: M_i and R_i are the cell integrals of g^2 and
    g^2 W, and the flux between cell centres i and i + 1 is
    (u_{i+1} - u_i) / B_i, with B_i the integral of g^-2 between them (the
    harmonic mean).  The flux vanishes at both walls.  Interior cells and
    flux spans take ``_CELL_NODES`` Gauss-Legendre nodes, and the wall cells
    Gauss-Jacobi rules of weight t^(2a) and t^(2b) in t = distance / h.
    T = M^(-1/2) A M^(-1/2) is symmetric tridiagonal.
    """
    (a, t_lo, w_lo), (b, t_hi, w_hi) = walls
    span = hi - lo
    x, w = gauss_legendre_nodes(_CELL_NODES)
    # node positions and cell weights in units of h, one row per node
    cell = np.arange(n) + 0.5 * (1.0 + x)[:, None]
    weight = np.repeat(0.5 * w[:, None], n, axis=1)
    cell[:, 0], weight[:, 0] = t_lo, w_lo
    cell[:, -1], weight[:, -1] = n - t_hi, w_hi

    def log_gauge2(at):
        xl, yh = at / n, (n - at) / n
        return (2.0 * a * np.log(xl) + 2.0 * b * np.log(yh)
                - (a * xl * xl + b * yh * yh))

    xl, yh = cell / n, (n - cell) / n
    q = np.where(xl <= yh, lo + xl * span, hi - yh * span)
    W = np.asarray(V(q), dtype=float) - (
        a * (a - 1.0) / (xl * xl) + b * (b - 1.0) / (yh * yh)
        - (a + b) * (2.0 * (a + b) + 1.0) + (b * yh - a * xl) ** 2) / span ** 2
    # no eigenfunction of the grid reaches past a barrier of 1e4 / h^2; the
    # cap keeps ||T||_1, and with it the seed and certificate tolerances,
    # near the scale of the flux terms
    W = np.minimum(W, _BARRIER_CAP * (n / span) ** 2)
    mass = weight * np.exp(log_gauge2(cell))
    m = mass.sum(axis=0)
    d = (mass * W).sum(axis=0) / m
    between = np.arange(1, n) + 0.5 * x[:, None]
    flux = (n / span) ** 2 / ((0.5 * w) @ np.exp(-log_gauge2(between)))
    d[:-1] += flux / m[:-1]
    d[1:] += flux / m[1:]
    return d, -flux / np.sqrt(m[:-1] * m[1:])


def _walls(s_lo, s_hi):
    """(a, t, w) of each wall: its exponent capped at ``_GAUGE_CAP`` and the
    rule of its cell (``_wall_rule``), one rule for both walls where the
    capped exponents are equal.  Every grid of a problem shares them."""
    a, b = min(s_lo, _GAUGE_CAP), min(s_hi, _GAUGE_CAP)
    lo = (a, *_wall_rule(a))
    return lo, lo if b == a else (b, *_wall_rule(b))


def _wall_rule(s):
    """Nodes t in (0, 1) and weights w of a wall cell's rule: sum_k w_k f(t_k)
    integrates f over (0, 1), exactly where f is t^(2s) times a polynomial
    of degree below 2 ``_CELL_NODES``."""
    xj, wj = roots_jacobi(_CELL_NODES, 0.0, 2.0 * s)
    t = 0.5 * (1.0 + xj)
    return t, wj / ((2.0 * s + 1.0) * t ** (2.0 * s))


def _bisect(d, e, count, tol=0.0):
    """Lowest ``count`` eigenvalues by Sturm bisection to the absolute
    tolerance ``tol``; 0 is stebz's default, eps * ||T||_1."""
    return eigvalsh_tridiagonal(d, e, select="i", select_range=(0, count - 1),
                                lapack_driver="stebz", tol=tol)


def _norm1(d, e):
    """||T||_1 of the symmetric tridiagonal T = (d, e)."""
    row = np.abs(d)
    row[:-1] += np.abs(e)
    row[1:] += np.abs(e)
    return float(row.max())


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
    iterates solves (T - sigma I) y = v from a fixed-seed random vector.
    The Rayleigh quotient of y is sigma + (y . v) / (y . y), and the residual
    of y / |y| that the solve implies is
    sqrt((v . v - (y . v)^2 / (y . y)) / (y . y)).  A seed stops once that
    residual's Kato-Temple bound min(|r|, |r|^2 / gap), with gap half the
    distance to the neighbouring seeds, is below eps * ||T||_1.

    The implied residual leaves out the solve's round-off, so the
    certificate takes the explicit residuals r = |T v - value v| of the
    final iterates, formed for all seeds in one pass.  The values are
    returned only when they certify: the intervals value +- |r| are
    disjoint, a Sturm count puts exactly len(seeds) eigenvalues at or below
    the guard's interval, so each interval holds its own eigenvalue, and
    every Kato-Temple bound below the guard, now with the gaps to the
    neighbouring intervals, is at most eps * ||T||_1, the tolerance
    bisection stops at.
    """
    from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

    norm1 = _norm1(d, e)
    tol = _EPS * norm1
    start = np.random.default_rng(1).uniform(-1.0, 1.0, d.size)
    # r^2 <= tol * max(tol, half gap) is the stop on the Kato-Temple bound
    stop = (tol * np.maximum(tol, 0.5 * _gaps(seeds, np.zeros_like(seeds)))).tolist()
    values = np.empty_like(seeds)
    vectors = np.empty((seeds.size, d.size))
    for i, sigma in enumerate(seeds.tolist()):
        *lu, info = dgttrf(e, d - sigma, e)
        if info != 0:
            return None
        v = start
        for _ in range(_POLISH_STEPS):
            y = dgttrs(*lu, v)[0]
            yy = float(y @ y)
            yv = float(y @ v)
            r2 = (float(v @ v) - yv * yv / yy) / yy
            v = y / math.sqrt(yy)
            if r2 <= stop[i]:
                break
        values[i] = sigma + yv / yy
        vectors[i] = v
    tv = d * vectors
    tv[:, :-1] += e * vectors[:, 1:]
    tv[:, 1:] += e * vectors[:, :-1]
    tv -= values[:, None] * vectors
    resid = np.sqrt(np.einsum("ij,ij->i", tv, tv))
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


def fd_eigenvalues(well: PotentialSpec | TransformResult, count: int) -> SpectrumResult:
    """Lowest ``count`` eigenvalues of -phi'' + V phi = E phi on the well,
    extrapolated over three grids.

    ``well`` gives V and the finite ends q_lo < q_hi: the closed-form
    ``solutions.PotentialSpec`` or the generic ``liouville.TransformResult``.
    Both ends are Dirichlet walls, their inverse-square coefficients
    measured from V (zero at a regular wall).  The grids are N, 2N and 4N
    cells of the factored scheme (``_fd_matrix``), N sized from the level
    count and the wall exponents as ``_LEAST_BASE`` says.
    The base grid bisects count + 1 seeds to ``_SEED_TOL`` * ||T||_1; the
    extra one is a guard whose residual interval bounds the gap above the
    top requested level.  Each grid then refines its seeds by certified
    inverse iteration (``_polish``): grid 2N is seeded by the values of
    grid N, and grid 4N by their Richardson prediction
    lambda_2N - (lambda_N - lambda_2N) / 4.  A grid that fails the
    certificate is bisected afresh to stebz's default tolerance,
    eps * ||T||_1.  ``SpectrumResult.certified`` records which grids
    certified.  The raw values then go through Richardson extrapolation
    with the exponents 2 and 4, and ConvergenceFailure is raised where the
    grids disagree.  Each error estimate adds to the Richardson terms the
    three grids' tolerances eps * ||T||_1, weighted as the extrapolation
    weights their values.
    """
    lo, hi, V = well.q_lo, well.q_hi, well.V
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterError("q domain must be a finite nonempty interval")
    if count < 1:
        raise ParameterError("count must be positive")
    if _LEVEL_CELLS * count > _MAX_BASE:
        raise ParameterError(
            f"{count} levels need a base grid of {_LEVEL_CELLS * count} cells, "
            f"above the limit of {_MAX_BASE}")
    scale = hi - lo
    s_lo = _wall_exponent(_wall_gamma(V, lo, -1, scale))
    s_hi = _wall_exponent(_wall_gamma(V, hi, +1, scale))
    need = max(_LEVEL_CELLS * count,
               _WIDTH_CELLS * math.sqrt((s_lo + s_hi) * (2 * count - 1)))
    base = _LEAST_BASE
    while base < need and 2 * base <= _MAX_BASE:
        base *= 2
    if base < need:
        raise ConvergenceFailure(
            f"the well is too narrow: {count} levels need a base grid of "
            f"{need:.3g} cells, above the limit of {_MAX_BASE}")
    grids = (base, 2 * base, 4 * base)
    walls = _walls(s_lo, s_hi)
    levels, certified, tols = [], [], []
    for n in grids:
        d, e = _fd_matrix(V, lo, hi, n, walls)
        norm1 = _norm1(d, e)
        tols.append(_EPS * norm1)
        if not levels:
            seeds = _bisect(d, e, count + 1, _SEED_TOL * norm1)
        elif len(levels) == 1:
            seeds = levels[0]
        else:
            seeds = levels[1] - (levels[0] - levels[1]) / 4.0
        values = _polish(d, e, seeds)
        certified.append(values is not None)
        if values is None:
            values = _bisect(d, e, count + 1)
        levels.append(values)
    raw = [values[:count] for values in levels]
    a1 = (4.0 * raw[1] - raw[0]) / 3.0
    a2 = (4.0 * raw[2] - raw[1]) / 3.0
    best = (16.0 * a2 - a1) / 15.0
    # best = (64 raw[2] - 20 raw[1] + raw[0]) / 45, and each raw value is
    # within its grid's tolerance of that grid's eigenvalue
    err = (np.abs(a2 - a1) + np.abs(best - a2) + 1e-15 * np.abs(best)
           + (64.0 * tols[2] + 20.0 * tols[1] + tols[0]) / 45.0)
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
    # the FD oracle's result: its eigenvalues and their provenance
    spectrum: SpectrumResult
    rel_errors: np.ndarray
    passed: bool
    tolerance: float


def verify_spectrum(model: ModelSpec, rep: Representation,
                    params: DeformationParams, count: int = 6,
                    tolerance: float = 1e-5) -> VerifyReport:
    """Compare closed-form energies against the FD oracle on the transformed well."""
    cls = classify_physical(model, rep, params)
    if cls.complex_spectrum:
        raise ParameterError("spectrum is complex here; the FD oracle needs a real well")
    if not cls.physical:
        raise ParameterError("unbounded family; nothing for the oracle to match")
    sol = solve(model, rep, params)
    res = fd_eigenvalues(transformed_potential(model, rep, params), count)
    closed = np.real(sol.energies(count - 1))
    rel = np.abs(res.eigenvalues - closed) / np.maximum(np.abs(closed), 1e-300)
    return VerifyReport(model=model, rep=rep, closed=closed,
                        spectrum=res, rel_errors=rel,
                        passed=bool(np.all(rel < tolerance)), tolerance=tolerance)


# ---------------------------------------------------------------------------
# operator words

def parse_word(word) -> list[tuple[complex, list[tuple[str, int]]]]:
    """Parse an operator word into [(coefficient, [(symbol, power), ...]), ...].

    Accepts strings like "X", "P2", "XP+PX", "P-2", "H", "H2", or an
    already structured list of (symbol, power) factors, where ("H", k)
    applies H k times.  Terms are summed; factors in a term compose
    right-to-left.
    """
    if isinstance(word, str):
        text = word.replace(" ", "")
        terms = []
        for chunk in text.split("+"):
            if not chunk:
                raise ParameterError(f"empty term in word {word!r}")
            factors = []
            i = 0
            while i < len(chunk):
                sym = chunk[i].upper()
                if sym not in ("X", "P", "H"):
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _frozen(jet: Jet) -> Jet:
    _read_only(jet.d)
    return jet


class _StateMemo:
    """States derived from a level's basis state, shared between words.

    A state is keyed by the single steps ("P", k), ("X", 1) and ("H", 1)
    that built it from the basis state at (): X feeds X2, XP and PX, and H's
    terms pick up the P2, X2, ... states earlier words left.  The memo holds
    the very states a cold evaluation computes, so values do not depend on
    the order in which words arrive.  A power of 0 is the identity.  An
    engine supplies ``_states`` and ``_derive``, the read-only state one
    step past a key.
    """

    _states: dict

    def apply_term(self, factors, key=()):
        """The term ``factors`` applied to the memoized state at ``key``."""
        for sym, power in reversed(factors):
            if sym == "P":
                if power:
                    key = self._step(key, "P", power)
            elif sym in ("X", "H"):
                for _ in range(_repeats(sym, power)):
                    key = self._step(key, sym, 1)
            else:
                raise ParameterError(f"unknown symbol {sym!r}")
        return self._states[key]

    def _step(self, key, sym, power):
        """Key of the state one step past ``key``, computing it if new."""
        new = key + ((sym, power),)
        if new not in self._states:
            self._states[new] = self._derive(key, sym, power)
        return new


# ---------------------------------------------------------------------------
# unified engine (basis variable, exact Gauss-Jacobi rules, analytic jets)

def _shift(model, params, factors) -> tuple[int, int, int]:
    """(u, v, x): the shifts of the state the term ``factors`` makes of a
    level's basis state (``_ZSpace``), and the times it applies X, counting
    those of each H."""
    u = v = x = 0
    for sym, power in reversed(factors):
        dx = 0
        if sym == "P":
            if model.family == "jacobi":
                du, dv = -power, power
            elif power < 0:
                raise NonIntegrable(
                    "negative momentum powers are only integrable for the "
                    "inverse-square model")
            else:
                du = dv = power
        elif sym == "X":
            du = dv = dx = _repeats(sym, power)
        elif sym == "H":
            k = _repeats(sym, power)
            terms, _ = model.hamiltonian(params)
            sides = list(zip(*(_shift(model, params, fs) for _, fs in terms)))
            dx = k * max(sides[2])
            # only the basis state is at (0, 0), and H only scales it
            du, dv = (0, 0) if (u, v) == (0, 0) else (k * max(0, *side) for side in sides[:2])
        else:
            raise ParameterError(f"unknown symbol {sym!r}")
        u, v, x = u + du, v + dv, x + dx
    return u, v, x


# A level asks for two rules, and callers do not come back to a level once
# they move on, so a few levels' rules hold all the reuse there is.
@lru_cache(maxsize=8)
def _gauss_jacobi(alpha, beta, m):
    """Read-only m-node Gauss-Jacobi rule for the weight (1-y)^alpha (1+y)^beta.

    Its weights sum to 1, not to the weight's mass, which overflows at small
    tau; the engine scales by ratios of masses only.
    """
    return tuple(_read_only(arr) for arr in roots_jacobi(m, alpha, beta))


@lru_cache(maxsize=4)
def _zspace(model, params, n, shifts, order):
    """The basis space of one level for the rules at ``shifts`` and jets of
    ``order``, shared read-only between the words that take them."""
    zs = _ZSpace(model, params, n, shifts, order)
    for arr in (zs.basis.d, zs.zjet.d, zs.one_minus_z2.d):
        _read_only(arr)
    return zs


class _ZSpace(_StateMemo):
    """Unified basis-variable machinery for one (model, params, n), the two
    Gauss-Jacobi rules at ``shifts`` and jets of ``order``.

    The level's state is the Jacobi polynomial P_n^(a,b)(y) of the weight
    (1-y)^a (1+y)^b of the Pi1 states of ``solve``: (lam, lam) in z for the
    Legendre family, (a+, b+) in w for the Jacobi family.  P acts as the
    multiplier p(y), X as the derivative conjugated by the square root of
    that weight.  A state (1-y)^(-u/2) (1+y)^(-v/2) r, with r a polynomial
    of degree n + (u + v)/2, keeps that form (``_shift``): X adds 1 to u
    and to v; P^j adds j to both in the Legendre family, and -j to u, j to
    v in the Jacobi family; H adds the per-side maximum over its terms, 2
    for every model here, but leaves the basis state, its eigenstate, at
    (0, 0).  So a term integrates (1-y)^(a - u/2)
    (1+y)^(b - v/2) times a polynomial of degree 2n + (u + v)/2.  An
    exponent <= -1 is ``NonIntegrable``, and so is a negative power of P in
    the Legendre family, which has a pole at p = 0, z = 0.  Otherwise a
    Gauss-Jacobi rule integrates the term exactly (Golub & Welsch, Math.
    Comp. 23 (1969) 221).

    The exponents of terms whose u have one parity differ by integers, and
    the terms share one rule, ``shifts[u % 2]`` = (U, V): the rule of
    (1-y)^(a - U/2) (1+y)^(b - V/2), with U and V at least the u and v of
    each of those terms.  Against it every term of the class is a
    polynomial of degree 2n + (U + V)/2, so the rule has n + (U + V) // 4
    + 1 nodes, one more where that is odd and the rule symmetric.  The
    norm takes the even rule.

    The jets are evaluated once, on the union of both rules' nodes, and a
    term sums over its rule's slice.  Every word of the level shares the
    state-independent jets (the P powers and the X-action coefficients),
    each built once on first use, and the states derived from the basis
    (``_StateMemo``).  Each X a term applies, those inside its H's
    included, takes one of the jets' ``order`` derivatives.
    """

    def __init__(self, model, params, n, shifts, order):
        self.model = model
        self.params = params
        self.tc = params.tau_check
        sol = solve(model, Representation.PI1, params)
        self.family = sol.family
        self.a, self.b = sol.weight
        if self.family == "legendre":
            # X acts as i hbar sqrt(tc) [(1-z^2)^(1/2) d/dz - kappa z (1-z^2)^(-1/2)]
            # on the Ferrers states (1-z^2)^(lam/2) P_n, so with kappa + lam on P_n
            self.kappa = 2.0 * sol.parameters["epsilon"] + 0.5 + self.a
        rules = []
        for u, v in shifts:
            alpha, beta = self.a - u / 2.0, self.b - v / 2.0
            m = n + (u + v) // 4 + 1
            # a symmetric rule of even size is symmetric node for node and
            # has no node at y = 0, where the Legendre p is 0 and p_jet's
            # powers would divide by it
            rules.append(_gauss_jacobi(alpha, beta, m + m % 2 if alpha == beta else m))
        ends = np.cumsum([0] + [y.size for y, _ in rules])
        self.slices = tuple(slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:]))
        z = np.concatenate([y for y, _ in rules])
        self.zjet = Jet.variable(z, order)
        self.one_minus_z2 = (1.0 - self.zjet) * (1.0 + self.zjet)
        self.basis = jacobi_jet(JacobiSpec(n, self.a, self.b), z, order)
        self._p_jets = {}
        self._states = {(): self.basis}
        # the measure (1-y)^a (1+y)^b is the rule's weight times the
        # remainder (1-y)^(U/2) (1+y)^(V/2), and its mass ratio to the norm's
        log_mass = [log_jacobi_mass(self.a - u / 2.0, self.b - v / 2.0) for u, v in shifts]
        self.bras = tuple(
            _read_only(w * (1.0 - y) ** (u / 2.0) * (1.0 + y) ** (v / 2.0)
                       * math.exp(lm - log_mass[0]) * self.basis.value[sl])
            for (u, v), (y, w), lm, sl in zip(shifts, rules, log_mass, self.slices))
        self.norm = float(np.sum(self.bras[0] * self.basis.value[self.slices[0]]))

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

    def _derive(self, key, sym, power) -> Jet:
        state = self._states[key]
        if sym == "P":
            return _frozen(self.p_jet(power) * state)
        if sym == "X":
            return _frozen(self.apply_x(state))
        terms, const = self.model.hamiltonian(self.params)
        out = None
        for coeff, fs in terms:
            t = self.apply_term(fs, key)
            out = t * coeff if out is None else out + t * coeff
        if const:
            out = out + state * const
        return _frozen(out)


def _lowest(e, shift):
    """``shift``, or the next lower shift of its parity where e - shift/2,
    an endpoint exponent, would not exceed -1."""
    return shift if e - shift / 2.0 > -1.0 else shift - 2


def expectation_unified(model: ModelSpec, params: DeformationParams, n: int,
                        word) -> complex:
    """<psi_n| F |psi_n>_rho via the representation-independent basis
    integral, each term on a Gauss-Jacobi rule that is exact for it
    (``_ZSpace``); ``NonIntegrable`` where a term diverges."""
    terms = parse_word(word)
    if _word_weight(terms) > 4:
        raise ParameterError("operator words longer than 4 factors are not supported")
    if params.tau_check <= 0:
        raise ParameterError("the unified integral needs tau > 0")
    weight = solve(model, Representation.PI1, params).weight
    if weight is None:
        raise ParameterError("complex spectrum: unified integral not real here")
    a, b = weight
    shifts = [_shift(model, params, factors) for _, factors in terms]
    for u, v, _ in shifts:
        if a - u / 2.0 <= -1.0 or b - v / 2.0 <= -1.0:
            raise NonIntegrable(
                f"a term of {word!r} leaves the endpoint weight "
                f"(1-y)^{a - u / 2.0:.6g} (1+y)^{b - v / 2.0:.6g}, which is "
                "not integrable")
    # Each parity's rule sits at the per-side largest shift of its terms, and
    # at least at the shifts of H, X2 and X (as far as they integrate), so
    # that the words of weight 2 share one space per level.
    rules = [[_lowest(a, s), _lowest(b, s)] for s in (2, 1)]
    for u, v, _ in shifts:
        rule = rules[u % 2]
        rule[:] = max(rule[0], u), max(rule[1], v)
    # and the jets carry a derivative for each X, at least for those of H
    order = max(2, *(x for _, _, x in shifts))
    zs = _zspace(model, params, n, tuple(map(tuple, rules)), order)
    acc = 0.0 + 0.0j
    for (coeff, factors), (u, _, _) in zip(terms, shifts):
        part = zs.bras[u % 2] * zs.apply_term(factors).value[zs.slices[u % 2]]
        acc += coeff * np.sum(part)
    norm = zs.norm
    # A basis that under- or overflows leaves a norm of 0 or inf, and the
    # quotient would be a bare ZeroDivisionError or a silent 0.  A NaN norm
    # needs no check: it makes the value NaN, which callers already reject.
    if norm == 0.0 or norm == math.inf:
        raise NonFiniteResult(f"basis norm of level {n} is {norm!r}")
    return complex(acc / norm)


# ---------------------------------------------------------------------------
# direct engine (mapped momentum grid + numerical operator actions)

_DIRECT_REPS = (Representation.PI1, Representation.PI2, Representation.PI3)
# |u| of a cell's map: tanh(17) = 1 - 3.4e-15 keeps its outermost samples
# representable inside its walls
_CELL_REACH = 17.0


def _map(fgh: FGHCoefficients):
    """(phi, u0, a, reach) of ``mapped_grid`` on the domain of ``fgh``, from
    the coefficients alone: phi(u) gives p and dp/du, and |u| stops at
    ``reach``.  With u = u0 + a sinh t, phi makes a double-exponential map:

    * the line (-inf, inf): p = L sinh u (``line_map``);
    * the half line (0, inf): p = L exp u;
    * a cell (lo, hi): p = lo + (hi - lo) / (1 + exp(-2u)), tanh u rescaled.

    d/dt takes order-8 differences on every map: their error stays where it
    is made, while a trigonometric derivative's round-off, eps times the
    largest sample, reaches every sample, and for Swanson with
    alpha + beta > 1 psi_n or psi_n rho grows toward both ends.

    f turns from f(0) to its growth at about p_f = 2 (f(0) / f''(0))^(1/2),
    1/sqrt(tc) on Pi1 (f is constant on Pi3).  On a symmetric domain the
    state is centred at p = 0 and, to leading order, Gaussian of width
    w = (4 f^2 / (g'^2 + 2 f h''))^(1/4) there; with L = min(w, p_f), the
    line takes u0 = 0 and a = 1, the cell (-W, W) u0 = 0 and
    a = min(1, 3 pi L / (2 W)).  On a half domain the state goes like p^k0
    at the wall p = 0, and like p^-k1 toward infinity or d^k1 at the
    distance d from the far wall, each k from the indicial equation of
    -f psi'' + g psi' + h psi = 0 there.  The two power laws balance at
    L = p_f (k0 / k1)^(1/2) on the half line (a = 1), and on the half cell
    (a = 1/2) at u0 = log(k0 / k1) / 4, where the two wall distances have
    the ratio (k0 / k1)^(1/2).
    """
    dom = fgh.domain
    f0, ddf0 = float(fgh.f(0.0)), float(fgh.ddf(0.0))
    p_f = 2.0 * math.sqrt(f0 / ddf0) if ddf0 > 0.0 else math.inf
    if dom.lo < 0.0:
        d = 1e-3 * min(p_f, dom.hi)
        h2 = float(fgh.h(d) + fgh.h(-d) - 2.0 * fgh.h(0.0)) / (d * d)
        curv = float(fgh.dg(0.0)) ** 2 + 2.0 * f0 * h2
        L = min((4.0 * f0 * f0 / curv) ** 0.25 if curv > 0.0 else math.inf, p_f)
        if math.isinf(dom.hi):
            return line_map(L), 0.0, 1.0, LINE_REACH
        return _cell(dom), 0.0, min(1.0, 1.5 * math.pi * L / dom.hi), _CELL_REACH
    d = 1e-6 * min(p_f, dom.hi)
    k0 = _wall_power(f0, d * d * float(fgh.h(d)))
    if math.isinf(dom.hi):
        # f ~ F p^4, g ~ G p^3 and h ~ H p^2 toward infinity, where p^-k
        # solves the indicial equation F k (k + 1) + G k = H
        big = 1e6 * p_f
        F = float(fgh.f(big)) / big ** 4
        G = float(fgh.g(big)) / big ** 3
        H = float(fgh.h(big)) / big ** 2
        k1 = (math.sqrt((F + G) ** 2 + 4.0 * F * H) - (F + G)) / (2.0 * F)
        L = p_f * math.sqrt(k0 / k1)

        def phi(u):
            p = L * np.exp(u)
            return p, p

        return phi, 0.0, 1.0, LINE_REACH
    d = 1e-6 * dom.hi
    k1 = _wall_power(float(fgh.f(dom.hi)), d * d * float(fgh.h(dom.hi - d)))
    return _cell(dom), 0.25 * math.log(k0 / k1), 0.5, _CELL_REACH


def _cell(dom):
    """phi(u) of the cell map, exact in the distance to the lower wall."""
    lo, span = dom.lo, dom.hi - dom.lo

    def phi(u):
        c = np.cosh(u)
        return lo + span / (1.0 + np.exp(-2.0 * u)), (0.5 * span) / (c * c)

    return phi


def _wall_power(f_wall, h_wall):
    """k of psi ~ d^k at a wall where f -> f_wall, g d -> 0 and h d^2 -> h_wall."""
    return 0.5 + math.sqrt(0.25 + h_wall / f_wall)


# A request asks Pi1..Pi3 for one level word after word, so one level per
# representation holds all the reuse there is, and nothing outlives the
# request.
@lru_cache(maxsize=len(_DIRECT_REPS))
def _direct_level(model, rep, params, n, grid_size):
    """The native grid of one level, shared read-only between words."""
    # Pi2 shares the Pi1 domain and (f, g, h) table by similarity
    shared = Representation.PI1 if rep is Representation.PI2 else rep
    return _DirectLevel(solve(model, rep, params), n,
                        mapped_grid(*_map(coefficients(model, shared, params)), grid_size))


class _DirectLevel(_StateMemo):
    """Grid, ket, metric and derived states (``_StateMemo``) of one
    (model, rep, params, n, grid_size).  A word sums its terms onto a zero
    array in order and H adds its constant last, the sums a cold evaluation
    makes.

    The t-range ends at the outermost samples whose norm weight
    |psi_n|^2 rho dp is finite and reaches eps^2 of the largest finite one.
    Beyond them the level keeps no sample: they add nothing a double can
    hold, and there psi_n or rho can leave the double range while the
    density vanishes (Swanson at small tau), or grow so far that X^2 psi_n
    would.  Between them psi_n, rho and the weight must be finite and rho
    a normal double (a subnormal rho has lost its digits); otherwise the
    level raises ``NonFiniteResult``.  A level that keeps fewer than the 9
    samples of X's order-8 stencil raises ``ConvergenceFailure``: the grid
    is too coarse for the state.
    """

    def __init__(self, sol, n, samples):
        self.sol = sol
        grid, dp = samples
        ket = sol.psi(n, grid)
        rho = sol.metric(grid)
        weight = np.abs(ket) ** 2 * rho * dp
        finite = np.isfinite(weight)
        top = np.max(weight, where=finite, initial=0.0)
        keep = np.flatnonzero(finite & (weight >= _EPS ** 2 * top))
        keep = slice(keep[0], keep[-1] + 1) if keep.size else slice(0, 0)
        grid, dp, ket, rho = grid[keep], dp[keep], ket[keep], rho[keep]
        if not (grid.size and np.all(finite[keep]) and np.all(rho >= _TINY)):
            raise NonFiniteResult(
                f"psi_{n} or rho on {sol.rep.value} leaves the normal double "
                "range where the density is not negligible")
        if grid.size < 9:
            raise ConvergenceFailure(
                f"psi_{n} on {sol.rep.value} keeps {grid.size} of {weight.size} "
                "samples, fewer than the 9 of the order-8 stencil")
        self.grid, self.dp = _read_only(grid), _read_only(dp)
        self.ket, self.rho = _read_only(ket), _read_only(rho)
        self.bra = _read_only(np.conj(ket) * rho * dp)
        self._states = {(): _read_only(np.asarray(ket, dtype=complex))}

    def apply(self, terms, key=()) -> np.ndarray:
        """The word ``terms`` applied to the memoized state at ``key``."""
        acc = np.zeros_like(self._states[key])
        for coeff, factors in terms:
            acc = acc + coeff * self.apply_term(factors, key)
        return acc

    def _derive(self, key, sym, power) -> np.ndarray:
        rep, params = self.sol.rep, self.sol.params
        cur = self._states[key]
        if sym == "P" and power >= 0:
            for _ in range(power):
                cur = apply_P(rep, params, cur, self.grid)
        elif sym == "P":
            # P vanishes only at p = 0: off a half cell's wall, P^{-k} has a
            # pole inside the domain, which no grid integrates
            if self.sol.domain.contains(0.0):
                raise NonIntegrable(
                    f"P^{power} has a pole at p = 0, inside the {rep.value} domain")
            pmul = apply_P(rep, params, np.ones_like(cur), self.grid)
            cur = cur * pmul ** power
        elif sym == "X":
            cur = apply_X(rep, params, cur, self.grid, self.dp)
        else:
            hterms, const = self.sol.model.hamiltonian(params)
            cur = self.apply(hterms, key) + const * cur
        return _read_only(cur)


def expectation_direct(model: ModelSpec, rep: Representation,
                       params: DeformationParams, n: int, word,
                       grid_size: int = 2048) -> complex:
    """<psi_n| F |psi_n>_rho by quadrature on a mapped grid with operator actions.

    ``grid_size`` counts samples t_k uniform in a variable t, which a
    double-exponential map takes to the representation's momentum domain
    (``_map``): sinh-sinh on the line of Pi1 and Pi2, exp-sinh on
    the half line of the inverse-square model there, and tanh-sinh on the
    Pi3 cells.  The quadrature weights are the samples' widths phi'(t_k) h,
    and X differentiates as phi'(t)^(-1) d/dt by order-8 differences in t,
    for every map.  Samples whose norm weight is below eps^2 of the largest
    are dropped at the ends of the t-range (``_DirectLevel``), so a level
    holds at most ``grid_size`` samples.  The level n (grid, psi_n, rho and
    the states F builds from psi_n) is shared with the other words asked of
    it, so each X or P step is taken once per level.  Where psi_n or rho
    leaves the double range inside the density, or the value is not finite,
    ``NonFiniteResult`` is raised.
    """
    if rep not in _DIRECT_REPS:
        raise UnsupportedPair(
            "direct quadrature runs on Pi1..Pi3; the segment representation "
            "is covered by the unified integral")
    if params.tau_check <= 0:
        raise ParameterError("the direct engine needs tau > 0")
    level = _direct_level(model, rep, params, n, grid_size)
    out = level.apply(parse_word(word))
    value = complex(np.sum(level.bra * out))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteResult(
            f"direct {rep.value} value of {word!r} at level {n} is {value!r}")
    return value
