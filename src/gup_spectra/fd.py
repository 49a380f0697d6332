"""Independent FD eigensolver: the lowest levels of -phi'' + V phi = E phi
on a finite well with Dirichlet walls, from V alone.

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
keeping the check independent of what it validates: this module takes
nothing from the package but ``errors`` and two quadrature rules of
``specfun``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ParameterError
from .specfun import gauss_jacobi, gauss_legendre_nodes

__all__ = ["SpectrumResult", "fd_eigenvalues"]

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
# Inverse-iteration solves per seed: a seed bisected to _SEED_TOL, or
# predicted by Richardson on grid 4N, stops after one or two; one from the
# grid below after two to four, rarely more.
_POLISH_STEPS = 6
# The base grid's seeds are bisected to this absolute tolerance, in units of
# ||T||_1: inverse iteration takes them the rest of the way to eps * ||T||_1.
_SEED_TOL = 1e-10


# scipy takes about 0.3 s to import and only the FD oracle calls it, so the
# oracle imports its routines on first use.  This one stays a module
# attribute, where callers and instrumentation look it up.
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
    xj, wj = gauss_jacobi(_CELL_NODES, 0.0, 2.0 * s)
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


def fd_eigenvalues(well, count: int) -> SpectrumResult:
    """Lowest ``count`` eigenvalues of -phi'' + V phi = E phi on the well,
    extrapolated over three grids.

    ``well`` is anything with V and the finite ends q_lo < q_hi, such as
    the closed-form ``solutions.PotentialSpec`` or the generic
    ``liouville.TransformResult``; only those three attributes are read.
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
