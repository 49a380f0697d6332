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

Everything runs on numpy.  Each grid polishes count + 1 seeds by shifted
inverse iteration, all seeds at once: one odd-even reduction of T - sigma I
over the vector of shifts (Buzbee, Golub and Nielson, SIAM J. Numer. Anal.
7, 1970) factors every shift and carries the first solve, and each further
solve reuses its multipliers.  The iteration runs on a window of the grid's
rows, outside which the wanted eigenvectors have decayed below round-off:
where the wall exponents are large the levels sit in a narrow well, and
the window holds a fifth to a half of the rows.  Every grid starts from
the vectors of the grid below, interpolated to its cells, and takes its
seeds from the grids below: the Richardson prediction
lambda_2 + (lambda_2 - lambda_1) / 4 of the two grids below it, or the
Rayleigh quotients of the carried vectors where there is one.  Below the
base grid N, the same window of grids N/4 and N/2 is solved by a dense
eigensolver while it has at most 128 rows of grid N/2; a wider one, which
only many levels ask for, is iterated from multisection seeds that the
reduction's negative-pivot counts place.  A grid keeps the polished values
only under a certificate built from their explicit residuals on all its
rows, which the iteration also stops on: disjoint residual intervals, a
Sturm count with exactly the expected number of eigenvalues below them,
and Kato-Temple bounds min(|r|, |r|^2 / gap) of at most eps * ||T||_1
(Parlett, The Symmetric Eigenvalue Problem, SIAM 1998).  The count is the
natural-order Sturm recurrence that LAPACK's bisection runs (Barth, Martin
and Wilkinson, Numer. Math. 9, 1967), which is backward stable; the
reduction's counts only place seeds.  A grid whose values do not certify
is bisected with the Sturm count to eps * ||T||_1.
Everything is computed from V alone, never seeded from the closed forms,
keeping the check independent of what it validates: this module takes
nothing from the package but ``errors`` and the Gauss-Jacobi rule of
``specfun``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ParameterError
from .specfun import gauss_jacobi

__all__ = ["SpectrumResult", "fd_eigenvalues"]

# Gauss nodes per interior cell and flux span, and of each wall cell's
# Gauss-Jacobi rule (``_fd_matrix``); the interior Gauss-Legendre rule on (-1, 1)
_CELL_NODES = 3
_CELL_RULE = np.polynomial.legendre.leggauss(_CELL_NODES)
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
# LAPACK's safe minimum, which sets the Sturm count's least pivot
_TINY = float(np.finfo(float).tiny)
# Inverse-iteration solves per seed: a seed predicted from the grids below
# and started from their vectors stops after one or two.  The first
# _FIXED_SOLVES keep the seed's shift, the rest move it to the Rayleigh
# quotient.
_POLISH_STEPS = 6
_FIXED_SOLVES = 3
# Solves on the grid below the base when it is iterated from multisection
# seeds (``_below``): enough for vectors whose Rayleigh quotients seed the
# base grid well within their gaps.
_SEED_STEPS = 2
# A window of grid N/2 below the base of at most this many rows is solved
# densely for seeds (``_below``).
_DENSE_MAX = 128
# A solving ``_Reduction`` stops at this many rows and inverts them densely.
_TAIL = 8
# A grid's eigenvectors are computed on a window of its rows (``_window``),
# outside which they have decayed by e^-_DECAY; the grid below the base
# places its window from a bound on its top level (``_probe``), computed on
# at least _PROBE rows.
_DECAY = 36.0
_PROBE = 32
# Multisection (``_multisect``): the first pass counts at _FIRST_SHIFTS
# shifts above the lower Gershgorin bound, their distances from it
# geometrically spaced from _GEOM_FLOOR of the Gershgorin width to all of
# it; each later pass puts _BRACKET_SHIFTS equally spaced shifts into every
# bracket that is still wider than _SEED_WIDTH of the distance between its
# neighbours' midpoints, for at most _MULTISECTIONS passes.
_FIRST_SHIFTS = 32
_GEOM_FLOOR = 1e-12
_BRACKET_SHIFTS = 8
_SEED_WIDTH = 0.1
_MULTISECTIONS = 10


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


def _wall_gammas(V, lo, hi):
    """Inverse-square coefficients of V at q_lo and q_hi, from V alone: one
    call on the points 1e-4 and 2e-4 of the span inside each wall."""
    d = np.array([1e-4, 2e-4]) * (hi - lo)
    g = np.asarray(V(np.concatenate([lo + d, hi - d])), dtype=float).reshape(2, 2) * d ** 2
    return [(4.0 * g1 - g2) / 3.0 for g1, g2 in g.tolist()]


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
    T = M^(-1/2) A M^(-1/2) is symmetric tridiagonal; it is returned as
    (d, e) with the cell averages R_i / M_i of W, the rows' potential,
    which place a window on the grid (``_window``).
    """
    (a, t_lo, w_lo), (b, t_hi, w_hi) = walls
    span = hi - lo
    x, w = _CELL_RULE
    # node positions and cell weights in units of h, one row per node
    cell = np.arange(n) + 0.5 * (1.0 + x)[:, None]
    weight = np.repeat(0.5 * w[:, None], n, axis=1)
    cell[:, 0], weight[:, 0] = t_lo, w_lo
    cell[:, -1], weight[:, -1] = n - t_hi, w_hi

    def log_gauge2(xl, yh):
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
    mass = weight * np.exp(log_gauge2(xl, yh))
    m = mass.sum(axis=0)
    potential = (mass * W).sum(axis=0) / m
    between = np.arange(1, n) + 0.5 * x[:, None]
    flux = (n / span) ** 2 / ((0.5 * w) @ np.exp(-log_gauge2(between / n, (n - between) / n)))
    d = potential.copy()
    d[:-1] += flux / m[:-1]
    d[1:] += flux / m[1:]
    return d, -flux / np.sqrt(m[:-1] * m[1:]), potential


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


def _norm1(d, e):
    """||T||_1 of the symmetric tridiagonal T = (d, e)."""
    row = np.abs(d)
    row[:-1] += np.abs(e)
    row[1:] += np.abs(e)
    return float(row.max())


def _gershgorin(d, e):
    """Lower and upper Gershgorin bounds of the spectrum of T = (d, e)."""
    radius = np.zeros_like(d)
    radius[:-1] += np.abs(e)
    radius[1:] += np.abs(e)
    return float((d - radius).min()), float((d + radius).max())


def _apply(d, e, vectors, shifts):
    """(T - sigma I) v for each row v of ``vectors`` and its shift sigma,
    T = (d, e)."""
    out = (d - shifts[:, None]) * vectors
    out[:, :-1] += e * vectors[:, 1:]
    out[:, 1:] += e * vectors[:, :-1]
    return out


def _gaps(values, radii):
    """Distance from each value to the nearest edge of its neighbours'
    intervals [value - radius, value + radius]; inf where there is none."""
    gap = np.full(values.shape, np.inf)
    gap[1:] = values[1:] - (values[:-1] + radii[:-1])
    gap[:-1] = np.minimum(gap[:-1], (values[1:] - radii[1:]) - values[:-1])
    return gap


def _sturm(d, e):
    """The Sturm count of T = (d, e): x -> the number of eigenvalues below x.

    It runs the natural-order recurrence q_j = (d_j - e_{j-1}^2 / q_{j-1}) - x
    and counts q_j < pivmin, with every |q_j| < pivmin replaced by -pivmin,
    as LAPACK's dstebz counts: off-diagonals with e^2 <= |d_j d_{j+1}| eps^2
    + tiny split the matrix, and pivmin is tiny * max(1, max e^2) over the
    rest.  The count is exact for a matrix within a few ulps of T.
    """
    e2 = e * e
    e2[np.abs(d[1:] * d[:-1]) * _EPS ** 2 + _TINY > e2] = 0.0
    pivmin = _TINY * max(1.0, float(e2.max(initial=0.0)))
    diag, off = d.tolist(), [0.0] + e2.tolist()

    def below(x):
        # Python floats throughout: numpy scalars would slow the loop
        x, count, q = float(x), 0, 1.0
        for dj, ej in zip(diag, off):
            q = dj - ej / q - x
            if q < pivmin:
                count += 1
                if q > -pivmin:
                    q = -pivmin
        return count

    return below


def _bisect(d, e, count):
    """Lowest ``count`` eigenvalues by bisection with the Sturm count
    (``_sturm``) to the absolute tolerance eps * ||T||_1.  Each count also
    narrows the brackets of the levels above the one it bisects."""
    below = _sturm(d, e)
    tol = _EPS * _norm1(d, e)
    lo, hi = _gershgorin(d, e)
    lower, upper = [lo] * count, [hi] * count
    values = np.empty(count)
    for k in range(count):
        a, b = lower[k], upper[k]
        mid = 0.5 * (a + b)
        while b - a > tol and a < mid < b:
            m = below(mid)
            if m > k:
                b = mid
                for j in range(k + 1, min(m, count)):
                    upper[j] = min(upper[j], mid)
            else:
                a = mid
            for j in range(max(m, k + 1), count):
                lower[j] = max(lower[j], mid)
            mid = 0.5 * (a + b)
        values[k] = mid
    return values


class _Reduction:
    """Odd-even reduction of T - sigma I for a vector of shifts sigma
    (Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7, 1970), one row of
    every array per shift.

    Each level eliminates the even rows of the level above, which are
    coupled only to odd rows, so their pivots form a diagonal block D and
    the odd rows keep the Schur complement, again tridiagonal.  By
    Sylvester's law of inertia the negative pivots of all levels count the
    eigenvalues below sigma (``negative``).  The reduction does not pivot
    and T - sigma I is indefinite, so neither the counts nor the solves are
    backward stable: the counts only place seeds, and the polished values
    only stand under their certificate.  The couplings are kept negated,
    which leaves the pivots unchanged and turns the elimination's
    subtractions into additions.

    Without ``rhs`` the reduction runs down to one row and only counts.
    With it, one row per shift or one row for all, it stops at ``_TAIL``
    rows, whose matrices it inverts densely (LU with pivoting), and
    ``solution`` is (T - sigma I)^-1 rhs by ``solve``, which reuses the
    multipliers and the inverses for further right-hand sides.
    """

    def __init__(self, d, e, shifts, rhs=None):
        self.levels = []
        # the first level splits d, not d - sigma, so its rows are contiguous
        b, m, c = None, d.size, -e
        with np.errstate(all="ignore"):
            while m > (1 if rhs is None else _TAIL):
                if b is None:
                    even, odd = d[0::2] - shifts[:, None], d[1::2] - shifts[:, None]
                else:
                    even, odd = b[:, 0::2], b[:, 1::2]
                k = m // 2
                # the couplings are read more than once, so they are copied
                # out contiguous
                cl, cr = np.ascontiguousarray(c[..., 0::2]), np.ascontiguousarray(c[..., 1::2])
                j = cr.shape[-1]
                inv = 1.0 / even
                left = cl * inv[:, :k]
                right = cr * inv[:, 1:j + 1]
                b = odd - left * cl
                b[:, :j] -= right * cr
                m = k
                c = right[:, :k - 1] * cl[..., 1:]
                self.levels.append((inv, left, right))
        self.last = d - shifts[:, None] if b is None else b
        if rhs is None:
            return
        rows, m = self.last.shape
        tail = np.zeros((rows, m, m))
        flat = tail.reshape(rows, m * m)
        flat[:, ::m + 1] = self.last
        flat[:, 1::m + 1] = flat[:, m::m + 1] = -c
        try:
            self.inverse = np.linalg.inv(tail)
        except np.linalg.LinAlgError:
            self.inverse = np.full_like(tail, np.nan)
        self.solution = self.solve(rhs)

    def negative(self):
        """Negative pivots of T - sigma I, per shift, of a reduction
        without ``rhs`` (the inverses of the eliminated pivots keep their
        signs)."""
        count = (self.last < 0.0).sum(axis=1)
        for inv, _, _ in self.levels:
            count += (inv < 0.0).sum(axis=1)
        return count

    def solve(self, rhs):
        """(T - sigma I)^-1 rhs, one row of rhs per shift or one row for
        all: eliminate down the levels, solve the tail, then substitute
        back up with the eliminated rows' right-hand sides."""
        fes, f = [], rhs
        with np.errstate(all="ignore"):
            for _, left, right in self.levels:
                k, j = left.shape[1], right.shape[1]
                # read twice, so copied out contiguous
                fes.append(np.ascontiguousarray(f[..., 0::2]))
                f = f[..., 1::2] + left * fes[-1][..., :k]
                f[:, :j] += right * fes[-1][..., 1:j + 1]
            # f is one row for all shifts where no level was eliminated
            x = (self.inverse @ f[..., None])[..., 0]
            for (inv, left, right), fe in zip(reversed(self.levels), reversed(fes)):
                k, j = left.shape[1], right.shape[1]
                xe = fe * inv
                xe[:, :k] += left * x
                xe[:, 1:j + 1] += right * x[:, :j]
                full = np.empty((x.shape[0], xe.shape[1] + k))
                full[:, 0::2] = xe
                full[:, 1::2] = x
                x = full
        return x


def _multisect(d, e, count):
    """Seeds for the lowest ``count`` eigenvalues: the midpoints of brackets
    narrowed by the negative-pivot counts of ``_Reduction``.

    The first pass counts at shifts geometrically spaced above the lower
    Gershgorin bound, so it brackets every low level within a factor of its
    distance from that bound; each later pass splits every bracket that is
    wider than ``_SEED_WIDTH`` of the distance between its neighbours'
    midpoints.
    """
    lo, hi = _gershgorin(d, e)
    xs = np.concatenate(([lo], lo + (hi - lo) * np.geomspace(
        _GEOM_FLOOR, 1.0, _FIRST_SHIFTS)))
    counts = _Reduction(d, e, xs[1:]).negative()
    counts = np.concatenate(([0], counts))
    levels = np.arange(count)
    split = np.arange(1, _BRACKET_SHIFTS + 1) / (_BRACKET_SHIFTS + 1)
    for _ in range(_MULTISECTIONS):
        order = np.argsort(xs, kind="stable")
        xs, counts = xs[order], np.maximum.accumulate(counts[order])
        # count(x) <= k up to lower, > k from upper on
        upper = np.searchsorted(counts, levels, side="right")
        lower, upper = upper - 1, np.minimum(upper, xs.size - 1)
        mid = 0.5 * (xs[lower] + xs[upper])
        wide = (xs[upper] - xs[lower]) > _SEED_WIDTH * _gaps(mid, np.zeros_like(mid))
        if not wide.any():
            break
        # levels sharing a bracket are adjacent
        lower, upper = lower[wide], upper[wide]
        first = np.ones(lower.size, dtype=bool)
        first[1:] = lower[1:] != lower[:-1]
        a, b = xs[lower[first], None], xs[upper[first], None]
        new = (a + (b - a) * split).ravel()
        xs = np.concatenate((xs, new))
        counts = np.concatenate((counts, _Reduction(d, e, new).negative()))
    return mid


def _iterate(d, e, seeds, start, steps, tol):
    """Shifted inverse iteration from ``seeds``: values, unit vectors and
    the squares of their explicit residuals |T v - value v|.

    One ``_Reduction`` factors T - sigma I for every seed sigma, and each
    seed iterates solves (T - sigma I) y = v from its row of ``start``.
    The Rayleigh quotient of y is sigma + (y . v) / (y . y).  The
    reduction does not pivot, so a small pivot can spoil a solve while the
    residual it implies looks converged; a seed stops once the Kato-Temple
    bound min(|r|, |r|^2 / gap) of the explicit residual r of y / |y|,
    with gap half the distance to the neighbouring seeds, is below
    ``tol``, or after ``steps`` solves.  The first ``_FIXED_SOLVES`` solves
    keep the seeds' shifts; after them a seed still unconverged moves its
    shift to its Rayleigh quotient at every solve (Rayleigh quotient
    iteration).
    """
    # r^2 <= tol * max(tol, half gap) is the stop on the Kato-Temple bound
    stop = tol * np.maximum(tol, 0.5 * _gaps(seeds, np.zeros_like(seeds)))
    reduction = _Reduction(d, e, seeds, start)
    y, v, rows, shifts = reduction.solution, start, np.arange(seeds.size), seeds
    # a solve that overflows gives non-finite values, which never certify
    with np.errstate(all="ignore"):
        for step in range(steps):
            yy = np.einsum("ij,ij->i", y, y)
            # v is one row for all seeds, or one row each
            yv = (y * v).sum(axis=1)
            v = y / np.sqrt(yy)[:, None]
            quotient = shifts + yv / yy
            residual = _apply(d, e, v, quotient)
            r2 = np.einsum("ij,ij->i", residual, residual)
            done = (r2 <= stop[rows]) | (step == steps - 1)
            if step == 0:
                if done.all():
                    return quotient, v, r2
                todo = np.ones(seeds.size, dtype=bool)
                values, squares = np.empty_like(seeds), np.empty_like(seeds)
                vectors = np.empty((seeds.size, d.size))
            done &= todo
            values[rows[done]] = quotient[done]
            vectors[rows[done]] = v[done]
            squares[rows[done]] = r2[done]
            todo &= ~done
            if not todo.any():
                break
            if step + 1 < _FIXED_SOLVES:
                y = reduction.solve(v)
                continue
            rows, v, shifts = rows[todo], v[todo], quotient[todo]
            todo = todo[todo]
            reduction = _Reduction(d, e, shifts, v)
            y = reduction.solution
    return values, vectors, squares


def _polish(d, e, seeds, start=None, window=None):
    """Certified inverse-iteration refinement of ``seeds`` (``_iterate``):
    the values and their vectors, or None.

    ``seeds`` approximate the lowest len(seeds) eigenvalues of the symmetric
    tridiagonal T = (d, e) in ascending order; the last is a guard that only
    bounds the one below it.  The iteration starts from the rows of
    ``start``, the vectors of the grid below carried over (``_prolong``),
    or from a fixed-seed random vector.  It runs on the rows i:j of
    ``window`` (``_window``), all by default; the vectors are zero outside.

    The residual the solves imply leaves out their round-off, so the
    certificate takes the explicit residuals r = |T v - value v| of the
    final iterates on all rows of T: those of the window's rows, which the
    iteration formed, and the couplings of the rows next to the window to
    its end rows.  The values are returned only when they certify: the
    intervals value +- |r| are disjoint, the Sturm count (``_sturm``) puts
    exactly len(seeds) eigenvalues below the guard's interval, so each
    interval holds its own eigenvalue, and every Kato-Temple bound below
    the guard, now with the gaps to the neighbouring intervals, is at most
    eps * ||T||_1, the tolerance bisection stops at.
    """
    i, j = (0, d.size) if window is None else window
    if start is None:
        start = np.random.default_rng(1).uniform(-1.0, 1.0, d.size)
    tol = _EPS * _norm1(d, e)
    values, inner, squares = _iterate(d[i:j], e[i:j - 1], seeds, start[..., i:j],
                                      _POLISH_STEPS, tol)
    if not np.all(np.isfinite(values)):
        return None
    vectors = inner
    if j - i < d.size:
        vectors = np.zeros((seeds.size, d.size))
        vectors[:, i:j] = inner
        # the rows next to the window see its end rows through their couplings
        if i > 0:
            squares += (e[i - 1] * inner[:, 0]) ** 2
        if j < d.size:
            squares += (e[j - 1] * inner[:, -1]) ** 2
    resid = np.sqrt(squares)
    if not np.all(values[:-1] + resid[:-1] < values[1:] - resid[1:]):
        return None
    # the guard's interval reaches at least eps * ||T||_1 above its value,
    # the round-off floor of a computed residual
    if _sturm(d, e)(values[-1] + max(resid[-1], tol)) != values.size:
        return None
    gap = _gaps(values, resid)[:-1]
    kept = resid[:-1]
    if not np.all((kept <= tol) | (kept * kept <= tol * gap)):
        return None
    return values, vectors


def _dense(d, e, count, vectors):
    """Lowest ``count`` eigenvalues of T = (d, e) by a dense eigensolver,
    and with ``vectors`` their unit vectors, one row each."""
    n = d.size
    full = np.zeros((n, n))
    full.flat[::n + 1] = d
    full.flat[n::n + 1] = e
    if not vectors:
        return np.linalg.eigvalsh(full)[:count]
    values, rows = np.linalg.eigh(full)
    return values[:count], rows[:, :count].T


def _rayleigh(d, e, vectors):
    """Rayleigh quotient of each row of ``vectors`` on T = (d, e)."""
    return (np.einsum("ij,ij->i", _apply(d, e, vectors, np.zeros(len(vectors))), vectors)
            / np.einsum("ij,ij->i", vectors, vectors))


def _prolong(vectors):
    """Vectors of grid n carried to grid 2n: each coarse cell value
    interpolated linearly to the two fine cell centres it holds, with zeros
    beyond the walls.  Inverse iteration removes the interpolation's
    rough part in its first solve."""
    quarter = np.zeros((vectors.shape[0], vectors.shape[1] + 2))
    np.multiply(vectors, 0.25, out=quarter[:, 1:-1])
    rest = vectors - quarter[:, 1:-1]
    fine = np.empty((vectors.shape[0], 2 * vectors.shape[1]))
    np.add(rest, quarter[:, :-2], out=fine[:, 0::2])
    np.add(rest, quarter[:, 2:], out=fine[:, 1::2])
    return fine


def _probe(d, e, potential, count):
    """An upper bound on the ``count``-th eigenvalue of T = (d, e): that of
    the rows around the lowest ``potential``, max(``_PROBE``, 2 count) of
    them, or None where they would be more than a quarter of T's.  A
    principal submatrix's eigenvalues lie above T's (Cauchy interlacing)."""
    rows = max(_PROBE, 2 * count)
    if 4 * rows > d.size:
        return None
    i = min(max(int(np.argmin(potential)) - rows // 2, 0), d.size - rows)
    return _dense(d[i:i + rows], e[i:i + rows - 1], count, False)[-1]


def _window(potential, e, top):
    """Rows i:j of a grid outside which every eigenvector of T = (d, e)
    below ``top`` has decayed by e^-``_DECAY`` (``_polish``).

    The vectors oscillate on the rows whose ``potential`` (``_fd_matrix``)
    is below ``top`` and decay beyond them: by arccosh(1 + (w - top) /
    (2 |e|)) per row of potential w, the rate of the decaying solution of
    a uniform tridiagonal matrix.
    """
    allowed = np.flatnonzero(potential <= top)
    if allowed.size == 0:
        return 0, potential.size
    a, b = allowed[0], allowed[-1] + 1
    if a == 0 and b == potential.size:
        return a, b
    # the rows before a, nearest first, with their couplings to the next
    # row, and the rows from b on with theirs to the row before
    before = slice(a - 1, None, -1) if a else slice(0)
    rates = [np.arccosh(1.0 + (potential[rows] - top) / (2.0 * np.abs(e[coupling])))
             for rows, coupling in ((before, before), (slice(b, None), slice(b - 1, None)))]
    return (int(a - np.searchsorted(np.cumsum(rates[0]), _DECAY)),
            int(b + np.searchsorted(np.cumsum(rates[1]), _DECAY)))


def _below(V, lo, hi, base, walls, count):
    """Values of grids below the base that seed it, and vectors carried to
    the base grid as its start (``_prolong``).

    Grid base/2 is cut to a window (``_window``) from a bound on its top
    level where there is one (``_probe``).  A window of
    at most ``_DENSE_MAX`` rows and the same cells of grid base/4 are solved
    densely, and the vectors of grid base/4 carried up twice.  A wider
    window is iterated from multisection seeds (``_multisect``,
    ``_iterate``) and uncertified: its values only seed the base grid,
    whose certificate decides.
    """
    d, e, potential = _fd_matrix(V, lo, hi, base // 2, walls)
    top = _probe(d, e, potential, count)
    i, j = (0, d.size) if top is None else _window(potential, e, top)
    vectors = np.zeros((count, d.size))
    if count <= (j - i) // 2 and j - i <= _DENSE_MAX:
        # the cells i:j of grid base/2 are the cells i/2:j/2 of grid base/4
        dq, eq, _ = _fd_matrix(V, lo, hi, base // 4, walls)
        quarter, inner = _dense(dq[i // 2:(j + 1) // 2], eq[i // 2:(j + 1) // 2 - 1], count, True)
        vectors[:, i // 2:(j + 1) // 2] = inner
        half = _dense(d[i:j], e[i:j - 1], count, False)
        return [quarter, half], _prolong(_prolong(vectors[:, :base // 4]))
    d, e = d[i:j], e[i:j - 1]
    values, vectors[:, i:j], _ = _iterate(d, e, _multisect(d, e, count),
                                          np.random.default_rng(1).uniform(-1.0, 1.0, d.size),
                                          _SEED_STEPS, _EPS * _norm1(d, e))
    return [values], _prolong(vectors)


def fd_eigenvalues(well, count: int) -> SpectrumResult:
    """Lowest ``count`` eigenvalues of -phi'' + V phi = E phi on the well,
    extrapolated over three grids.

    ``well`` is anything with V and the finite ends q_lo < q_hi, such as
    ``solutions.PotentialSpec`` or ``liouville.TransformResult``; only those
    three attributes are read.
    Both ends are Dirichlet walls, their inverse-square coefficients
    measured from V (zero at a regular wall).  The grids are N, 2N and 4N
    cells of the factored scheme (``_fd_matrix``), N sized from the level
    count and the wall exponents as ``_LEAST_BASE`` says.  Every grid
    refines count + 1 seeds by certified inverse iteration (``_polish``);
    the extra one is a guard whose residual interval bounds the gap above
    the top requested level; it runs on the grid's window for a level a
    gap above the guard's seed (``_window``).  A grid starts from the
    vectors of the grid below, carried to its cells (``_prolong``), and is
    seeded by the Richardson prediction lambda_2 + (lambda_2 - lambda_1) / 4
    from the two grids below it, or by the Rayleigh quotients of the
    carried vectors where there is one grid below (``_below``).  A grid that
    fails the certificate is bisected to eps * ||T||_1 (``_bisect``).
    ``SpectrumResult.certified`` records which grids certified.  The raw
    values then go through Richardson
    extrapolation with the exponents 2 and 4, and ConvergenceFailure is
    raised where the grids disagree.  Each error estimate adds to the
    Richardson terms the three grids' tolerances eps * ||T||_1, weighted as
    the extrapolation weights their values.
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
    s_lo, s_hi = (_wall_exponent(gamma) for gamma in _wall_gammas(V, lo, hi))
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
    levels, start = _below(V, lo, hi, base, walls, count + 1)
    certified, tols, window = [], [], None
    for n in grids:
        d, e, potential = _fd_matrix(V, lo, hi, n, walls)
        tols.append(_EPS * _norm1(d, e))
        if len(levels) > 1:
            seeds = levels[-1] + (levels[-1] - levels[-2]) / 4.0
        else:
            seeds = _rayleigh(d, e, start)
        # a gap above the guard's seed; a grid above one that needed all its
        # rows needs them too
        if window != (0, n // 2):
            window = _window(potential, e, 2.0 * seeds[-1] - seeds[-2])
        else:
            window = (0, n)
        polished = _polish(d, e, seeds, start, window)
        certified.append(polished is not None)
        levels.append(_bisect(d, e, count + 1) if polished is None else polished[0])
        if n < grids[-1]:
            start = None if polished is None else _prolong(polished[1])
    raw = [values[:count] for values in levels[-3:]]
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
