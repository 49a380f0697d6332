"""Liouville-type transform of -f psi'' + g psi' + h psi = E psi to potential form.

The change of gauge and variable

    psi(p) = exp(chi(p)) phi(p),   chi' = (f' + 2g)/(4f),   q' = f^(-1/2),

turns the general second-order problem into -phi''(q) + V(q) phi = E phi with

    V = (4 g^2 + 3 f'^2 + 8 g f')/(16 f) - f''/4 - g'/2 + h

evaluated through the inverse map p(q).  A further factorization
phi = v(q) F(w(q)) against a classical-special-function ODE
F'' + Q(w) F' + R(w) F = 0 fixes v = (w')^(-1/2) exp(1/2 int Q dw) and yields
the master identity

    E - V(q) = w'''/(2 w') - 3/4 (w''/w')^2 + (w')^2 R
               - (w')^2 Q'(w)/2 - (w')^2 Q(w)^2 / 4,

whose pointwise residual is the structural check for every shipped solution.

``to_potential`` tabulates q and chi once per (f, g, h) and anchor, as
per-panel Chebyshev series over the whole domain (Boyd, *Chebyshev and
Fourier Spectral Methods*, 2001), and answers each later query from that
table: one panel lookup and one series evaluation, with no further
coefficient evaluation.  Every transform of the same (f, g, h) triple and
anchor shares the table and its inverse.  ``p_of_q`` inverts the
table by barycentric interpolation (Berrut & Trefethen, SIAM Review 46 (2004)
501) and one Newton step.  ``solutions.metric_generic`` reads the metric
f^(-1/2) e^(-2 Re chi) off the same table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .algebra import FGHCoefficients
from .errors import NonMonotoneMap, SingularCoefficient

__all__ = [
    "TransformResult",
    "FactorizationAnsatz",
    "to_potential",
    "master_residual",
]

_ORDER = 20          # Gauss-Legendre nodes per panel
_DEPTH = 16          # panels halve this many times toward each domain end
_TAYLOR = 1e-6       # f from Taylor data this close to a finite end (fraction of span)


@dataclass
class TransformResult:
    """Gauge function, coordinate map and potential of the transformed problem."""

    chi: Callable[[np.ndarray], np.ndarray]
    q_of_p: Callable[[np.ndarray], np.ndarray]
    p_of_q: Callable[[np.ndarray], np.ndarray]
    V: Callable[[np.ndarray], np.ndarray]
    q_lo: float
    q_hi: float


def to_potential(fgh: FGHCoefficients, p0: float) -> TransformResult:
    """Transform a coefficient triple into potential form, anchored at p0.

    chi(p0) = 0 and q(p0) = 0 fix the integration constants.  Raises
    ``SingularCoefficient`` when f is not strictly positive on the interior
    and ``NonMonotoneMap`` when the coordinate integral fails to converge.
    ``p_of_q`` maps q at or beyond q_lo or q_hi to the nearest domain end: a
    finite end exactly, an infinite one to p0 +- L tan(pi/2), about 1.6e16 L
    for the length scale L of that side.  After this returns, ``chi``,
    ``q_of_p`` and ``p_of_q`` read the table only; ``V`` evaluates the
    coefficients at the points ``p_of_q`` gives, in the shape of its input.
    ``V`` keeps its last query and answer: a query equal to the last in
    shape and values (a master residual per level on one q-grid) returns a
    copy of that answer, and any other query, or the same array changed in
    place, is evaluated afresh.  Equal (fgh, p0) share one table
    (``_table``), and each call returns a new result around it.
    """
    table = _table(fgh, p0)
    last = []   # V's last query, as floats, and its answer

    def V(q):
        q = np.asarray(q, dtype=float)
        if not (last and q.shape == last[0].shape and np.all(q == last[0])):
            p = table.p_of_q(np.ravel(q))
            f = fgh.f(p)
            df = fgh.df(p)
            g = fgh.g(p)
            last[:] = q.copy(), ((4 * g ** 2 + 3 * df ** 2 + 8 * g * df) / (16 * f)
                                 - fgh.ddf(p) / 4.0 - fgh.dg(p) / 2.0
                                 + fgh.h(p)).reshape(q.shape)
        return last[1].copy()

    return TransformResult(chi=table.chi, q_of_p=table.q_of_p, p_of_q=table.p_of_q,
                           V=V, q_lo=table.q_lo, q_hi=table.q_hi)


# A request transforms its configuration's (f, g, h) for the spectrum check,
# the metric and the round trip, and then moves on, so two tables hold all
# the reuse there is.
@lru_cache(maxsize=2)
def _table(fgh: FGHCoefficients, p0: float) -> _Table:
    """The table of (fgh, p0), after checking the anchor and the sign of f
    on 211 probes of the domain."""
    dom = fgh.domain
    lo, hi = dom.lo, dom.hi
    if not (lo < p0 < hi):
        raise NonMonotoneMap(f"anchor p0={p0} outside domain ({lo}, {hi})")

    probe_lo = lo + 1e-9 * (min(hi, p0 + 1.0) - lo) if math.isfinite(lo) else p0 - 50.0
    probe_hi = hi - 1e-9 * (hi - max(lo, p0 - 1.0)) if math.isfinite(hi) else p0 + 50.0
    probes = np.linspace(probe_lo, probe_hi, 211)
    fvals = np.asarray(fgh.f(probes), dtype=float)
    if np.any(fvals <= 0.0):
        raise SingularCoefficient(
            "f must be strictly positive on the interior; negate the equation "
            "or use the segment parametrization first"
        )

    # length scale of an infinite end: f(p0 + L) is about 3 f(p0) when f is
    # convex at p0; 1 otherwise
    f_p0 = float(fgh.f(p0))
    ddf_p0 = float(fgh.ddf(p0))
    scale = 2.0 * math.sqrt(f_p0 / ddf_p0) if ddf_p0 > 0.0 else 1.0
    return _Table(fgh, p0, scale, f_p0)


class _Panels:
    """The panel layout in s that every table shares, with its constant
    matrices; built on the first transform, not at import."""

    def __init__(self):
        edges = np.concatenate([[0.0, 0.25], 1.0 - 0.5 ** np.arange(1, _DEPTH + 1), [1.0]])
        n = len(edges) - 1
        width = np.diff(edges)
        x, self.w = np.polynomial.legendre.leggauss(_ORDER)
        s = (edges[:-1] + 0.5 * width)[:, None] + 0.5 * width[:, None] * x
        knots = np.concatenate([[-1.0], x, [1.0]])
        self.edges = edges
        # rows stack the panels of the lower side, then those of the upper
        self.row_lo = np.tile(edges[:-1], 2)
        self.row_width = np.tile(width, 2)
        # node values -> Chebyshev coefficients in x of their interpolant, and
        # of its antiderivative from x = -1, whose value at x = 1 is the
        # Gauss-Legendre sum of the values
        self.values = np.linalg.inv(np.polynomial.chebyshev.chebvander(x, _ORDER - 1))
        self.integral = np.polynomial.chebyshev.chebint(self.values, lbnd=-1.0)
        # T_0 .. T_20 and s at each row's knots: its edges and nodes
        self.knot_basis = _basis(knots, _ORDER + 1)
        self.knot_s = self.row_lo[:, None] + 0.5 * self.row_width[:, None] * (knots + 1.0)
        # p(s) and dp/ds factors at the nodes, toward a finite or an infinite end
        self.wall_r2, self.wall_dr2 = (1.0 - s) ** 2, 2.0 * (1.0 - s)
        self.tan = np.tan(0.5 * np.pi * s)
        self.dtan = 0.5 * np.pi / np.cos(0.5 * np.pi * s) ** 2
        # the row of each q interval from q_lo to q_hi; q_hi itself falls in
        # the last one
        self.rising = np.concatenate(
            [np.arange(n - 1, -1, -1), np.arange(n, 2 * n), [2 * n - 1]])


@lru_cache(maxsize=None)
def _panels() -> _Panels:
    return _Panels()


def _basis(x, count):
    """T_0 .. T_(count-1) at each x, one row per point."""
    theta = np.arccos(np.minimum(np.maximum(x, -1.0), 1.0))
    return np.cos(theta[:, None] * np.arange(count))


class _Table:
    """q(p) and chi(p) on both sides of the anchor p0, as one stack of panels.

    Each side of p0 is mapped onto s in [0, 1]: s = 0 is p0 and s = 1 the
    domain end.  The map keeps f^(-1/2) dp/ds regular at s = 1: a finite end
    at distance D is graded as p = end - sign D (1 - s)^2, which cancels a
    linear zero of f, and an infinite end is mapped by
    p = p0 + sign L tan(pi s / 2), which cancels growth of f like p^4.
    chi' dp/ds still grows like 1/(1 - s), so the panels halve toward s = 1.

    Both sides share the panel edges in s; row side * panels + k holds panel
    k of the lower (side 0) or upper (side 1) side.  The constructor
    evaluates q' and chi' once, at 20 Gauss-Legendre nodes per panel, and an
    integration matrix turns these values into the Chebyshev series of q(s)
    and chi(s) on each panel, offset by the cumulative panel sums at its
    left edge.  A query is one panel lookup and one series evaluation, for
    all points at once.  The inverse table of ``p_of_q`` holds the series' q
    at each panel's edges and nodes with their barycentric weights; it is
    built on the first inversion, and one Newton step on the series of q(s)
    polishes each interpolated s.
    """

    def __init__(self, fgh: FGHCoefficients, p0: float, scale: float, f_p0: float):
        grid = _panels()
        self.grid = grid
        self.panels = len(grid.edges) - 1
        ends = np.array([fgh.domain.lo, fgh.domain.hi])
        self.p0 = p0
        self.sign = np.array([-1.0, 1.0])
        self.finite = np.isfinite(ends)
        # an infinite end takes p0 as a stand-in in the finite-end formulas,
        # whose results np.where discards there
        self.end = np.where(self.finite, ends, p0)
        self.span = np.where(self.finite, np.abs(self.end - p0), scale)

        half = 0.5 * grid.row_width[:self.panels]
        side = np.arange(2)[:, None, None]
        sign, span = self.sign[side], self.span[side]
        finite = self.finite[side]
        p = np.where(finite, self.end[side] - sign * span * grid.wall_r2,
                     p0 + sign * span * grid.tan)
        dpds = sign * span * np.where(finite, grid.wall_dr2, grid.dtan)
        # near the wall f comes from its Taylor data, which keeps the
        # distance to the wall exact; a root of f there evaluates to
        # round-off, which would shift q toward the wall by about its
        # square root
        wall = np.zeros((3, 2, 1, 1))
        for i in np.flatnonzero(self.finite):
            f_end = float(fgh.f(ends[i]))
            wall[:, i, 0, 0] = (f_end if f_end > 1e-12 * f_p0 else 0.0,
                                fgh.df(ends[i]), fgh.ddf(ends[i]))
        d = span * grid.wall_r2
        taylor = wall[0] - sign * wall[1] * d + 0.5 * wall[2] * d * d
        f = np.where(finite & (d < _TAYLOR * span), taylor, fgh.f(p))
        dq = dpds / np.sqrt(f)
        dchi = (fgh.df(p) + 2.0 * fgh.g(p)) / (4.0 * f) * dpds

        steps = half * (dq @ grid.w)
        self.q_edges = np.concatenate([np.zeros((2, 1)), np.cumsum(steps, axis=1)], axis=1)
        chi_edges = np.concatenate(
            [np.zeros((2, 1)), np.cumsum(half * (dchi @ grid.w), axis=1)], axis=1)
        for i in range(2):
            rising = self.sign[i] * steps[i]
            if not np.all(np.isfinite(self.q_edges[i])) or np.any(rising <= 0.0):
                raise NonMonotoneMap("q(p) table is not strictly increasing")
            # a convergent end halves the panel sums with the panel width; a
            # divergent one keeps (log) or grows them
            if rising[-2] > 0.75 * rising[-3]:
                raise NonMonotoneMap("f^(-1/2) is not integrable toward the domain end")
        self.q_lo = float(self.q_edges[0, -1])
        self.q_hi = float(self.q_edges[1, -1])
        self._dq = dq
        self._q_series = self._stack(dq, half, self.q_edges)
        self._chi_series = self._stack(dchi, half, chi_edges)
        self._inverse = None

    def _stack(self, nodes, half, edges):
        """Per-row Chebyshev coefficients in x of the cumulative integral."""
        coef = np.tile(half, 2)[:, None] * (nodes.reshape(-1, _ORDER) @ self.grid.integral.T)
        coef[:, 0] += edges[:, :-1].ravel()
        return coef

    def _p(self, s, side):
        sign, span = self.sign[side], self.span[side]
        return np.where(self.finite[side], self.end[side] - sign * span * (1.0 - s) ** 2,
                        self.p0 + sign * span * np.tan(0.5 * np.pi * s))

    def _x(self, s, row):
        """The panel coordinate x in [-1, 1] of s in row ``row``."""
        return 2.0 * (s - self.grid.row_lo[row]) / self.grid.row_width[row] - 1.0

    def _locate(self, p):
        """Row and panel coordinate of each p (p < p0: the lower side)."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        side = (p >= self.p0).astype(np.intp)
        sign, span = self.sign[side], self.span[side]
        to_end = 1.0 - np.sqrt(np.minimum(np.maximum(sign * (self.end[side] - p) / span, 0.0), 1.0))
        to_inf = np.arctan(np.maximum(sign * (p - self.p0), 0.0) / span) / (0.5 * np.pi)
        s = np.where(self.finite[side], to_end, to_inf)
        k = np.minimum(np.searchsorted(self.grid.edges, s, side="right") - 1, self.panels - 1)
        row = side * self.panels + k
        return row, self._x(s, row)

    @staticmethod
    def _sum(coef, row, x):
        return np.einsum("ij,ij->i", _basis(x, coef.shape[1]), coef[row])

    def q_of_p(self, p):
        return self._sum(self._q_series, *self._locate(p))

    def chi(self, p):
        return self._sum(self._chi_series, *self._locate(p))

    def _build_inverse(self):
        """The q edges in increasing order, and per row the q of the edges
        and nodes, the barycentric weights of s(q) there and the series of
        q'(s)."""
        grid = self.grid
        edges = np.concatenate([self.q_edges[0, ::-1], self.q_edges[1, 1:]])
        q = self._q_series @ grid.knot_basis.T
        q[:, 0] = self.q_edges[:, :-1].ravel()
        q[:, -1] = self.q_edges[:, 1:].ravel()
        # barycentric weights, up to a factor per row; q scaled to [0, 1] per
        # row keeps their products in range
        u = (q - q[:, :1]) / (q[:, -1:] - q[:, :1])
        diff = u.T[:, :, None] - u
        knots = np.arange(u.shape[1])
        diff[knots, :, knots] = 1.0
        weights = 1.0 / np.multiply.reduce(diff, axis=0)
        slope = self._dq.reshape(-1, _ORDER) @ grid.values.T
        return edges, q, weights, slope

    def p_of_q(self, q):
        """Barycentric s(q) on the panel that holds q, one Newton step on the
        series of q(s), then p(s); q at or beyond an end gives that end."""
        if self._inverse is None:
            self._inverse = self._build_inverse()
        edges, q_knots, weights, slope = self._inverse
        grid = self.grid
        q = np.atleast_1d(np.asarray(q, dtype=float))
        qc = np.minimum(np.maximum(q, self.q_lo), self.q_hi)
        row = grid.rising[np.searchsorted(edges, qc, side="right") - 1]
        d = qc[:, None] - q_knots[row]
        s_knots = grid.knot_s[row]
        # a q on a knot takes that knot's s
        hit = d == 0.0
        d[hit] = 1.0
        terms = np.where(hit, 0.0, weights[row]) / d
        s = np.einsum("ij,ij->i", terms, s_knots) / terms.sum(axis=1)
        at_knot = hit.any(axis=1)
        s[at_knot] = s_knots[at_knot, hit[at_knot].argmax(axis=1)]

        basis = _basis(self._x(s, row), _ORDER + 1)
        resid = np.einsum("ij,ij->i", basis, self._q_series[row]) - qc
        rate = np.einsum("ij,ij->i", basis[:, :_ORDER], slope[row])
        lo = grid.row_lo[row]
        s = np.minimum(np.maximum(s - resid / np.where(rate != 0.0, rate, np.inf), lo),
                       lo + grid.row_width[row])
        s[(q <= self.q_lo) | (q >= self.q_hi)] = 1.0
        return self._p(s, row // self.panels)


# ---------------------------------------------------------------------------
# factorization ansatz

@dataclass
class FactorizationAnsatz:
    """Special-function factorization phi = v(q) F(w(q)).

    F solves (1-w^2) F'' + (b - a - (2+a+b) w) F' + [nu (nu+1+a+b) - mu^2/(1-w^2)] F = 0,
    that is Q = (b - a - (2+a+b) w)/(1-w^2) and
    R = nu (nu+1+a+b)/(1-w^2) - mu^2/(1-w^2)^2.  a = b = 0 is the associated
    Legendre equation of degree nu and order mu; mu = 0, nu = n the Jacobi
    equation of P_n^(a, b).  w(q) = sin(sqrt(c) q + phase), so w'' = -c w
    and (w')^2/(1-w^2) = c identically.
    """

    c: float
    phase: float = 0.0
    nu: complex = 0.0
    mu: complex = 0.0
    a: float = 0.0
    b: float = 0.0

    def w(self, q):
        return np.sin(np.sqrt(self.c) * np.asarray(q) + self.phase)

    def dw(self, q):
        rc = np.sqrt(self.c)
        return rc * np.cos(rc * np.asarray(q) + self.phase)

    def Q(self, w):
        a, b = self.a, self.b
        return (b - a - (2 + a + b) * w) / (1 - w ** 2)

    def dQ(self, w):
        a, b = self.a, self.b
        return -((2 + a + b) - 2 * (b - a) * w + (2 + a + b) * w ** 2) / (1 - w ** 2) ** 2

    def R(self, w):
        nu, mu = self.nu, self.mu
        return (nu * (nu + 1 + self.a + self.b) / (1 - w ** 2)
                - mu ** 2 / (1 - w ** 2) ** 2)


def master_residual(ansatz: FactorizationAnsatz, transform: TransformResult,
                    E, q_grid) -> float:
    """Max pointwise residual of the master identity on an interior q-grid."""
    q = np.asarray(q_grid, dtype=float)
    w = ansatz.w(q)
    wp = ansatz.dw(q)
    wpp = -ansatz.c * w
    wppp = -ansatz.c * wp
    rhs = (wppp / (2 * wp) - 0.75 * (wpp / wp) ** 2 + wp ** 2 * ansatz.R(w)
           - wp ** 2 * ansatz.dQ(w) / 2.0 - wp ** 2 * ansatz.Q(w) ** 2 / 4.0)
    lhs = E - transform.V(q)
    return float(np.max(np.abs(rhs - lhs)))

