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

``to_potential`` tabulates q and chi once, as cumulative Gauss-Legendre panel
sums over the whole domain, and answers each later query with batched numpy
calls; ``v_from_Qw`` uses the closed-form antiderivative of Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import FGHCoefficients
from .errors import BranchAmbiguity, NonMonotoneMap, SingularCoefficient
from .specfun import gauss_legendre_nodes

__all__ = [
    "TransformResult",
    "FactorizationAnsatz",
    "legendre_ansatz",
    "jacobi_ansatz",
    "to_potential",
    "master_residual",
    "v_from_Qw",
]

_ORDER = 20          # Gauss-Legendre nodes per panel
_DEPTH = 16          # panels halve this many times toward each domain end
_TAYLOR = 1e-6       # f from Taylor data this close to a finite end (fraction of span)
_NEWTON_STEPS = 60
_S_TOL = 1e-14       # Newton stops once the step in s is this small


@dataclass
class TransformResult:
    """Gauge function, coordinate map and potential of the transformed problem."""

    chi: Callable[[np.ndarray], np.ndarray]
    q_of_p: Callable[[np.ndarray], np.ndarray]
    p_of_q: Callable[[np.ndarray], np.ndarray]
    V: Callable[[np.ndarray], np.ndarray]
    q_lo: float
    q_hi: float
    p0: float

    @property
    def q_domain(self) -> tuple[float, float]:
        return (self.q_lo, self.q_hi)


def to_potential(fgh: FGHCoefficients, p0: float) -> TransformResult:
    """Transform a coefficient triple into potential form, anchored at p0.

    chi(p0) = 0 and q(p0) = 0 fix the integration constants.  Raises
    ``SingularCoefficient`` when f is not strictly positive on the interior
    and ``NonMonotoneMap`` when the coordinate integral fails to converge.
    ``p_of_q`` maps q outside (q_lo, q_hi) to the nearest domain end.
    """
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
    lower = _Half(fgh, p0, lo, scale, f_p0)
    upper = _Half(fgh, p0, hi, scale, f_p0)

    def chi(p):
        return _by_side(p, p0, lower, upper, _Half.chi_of_p)

    def q_of_p(p):
        return _by_side(p, p0, lower, upper, _Half.q_of_p)

    def p_of_q(q):
        return _by_side(q, 0.0, lower, upper, _Half.p_of_q)

    def V_of_p(p):
        f = fgh.f(p)
        df = fgh.df(p)
        g = fgh.g(p)
        return ((4 * g ** 2 + 3 * df ** 2 + 8 * g * df) / (16 * f)
                - fgh.ddf(p) / 4.0 - fgh.dg(p) / 2.0 + fgh.h(p))

    def V(q):
        return V_of_p(p_of_q(q))

    return TransformResult(chi=chi, q_of_p=q_of_p, p_of_q=p_of_q, V=V,
                           q_lo=float(lower.q[-1]), q_hi=float(upper.q[-1]), p0=p0)


def _by_side(x, x0, lower, upper, method):
    """Evaluate ``method`` on the half that holds each point (x < x0: lower)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full_like(x, np.nan)
    for half, side in ((lower, x < x0), (upper, x >= x0)):
        if np.any(side):
            out[side] = method(half, x[side])
    return out


class _Half:
    """The domain on one side of the anchor p0, mapped onto s in [0, 1].

    s = 0 is p0 and s = 1 the domain end.  The map keeps f^(-1/2) dp/ds
    regular at s = 1: a finite end at distance D is graded as
    p = end - sign D (1 - s)^2, which cancels a linear zero of f, and an
    infinite end is mapped by p = p0 + sign L tan(pi s / 2), which cancels
    growth of f like p^4.  chi' dp/ds still grows like 1/(1 - s), so the
    panels halve toward s = 1.  q and chi are tabulated at the panel edges as
    cumulative Gauss-Legendre panel sums; a query adds one Gauss-Legendre
    integral from the edge below it.
    """

    def __init__(self, fgh: FGHCoefficients, p0: float, end: float,
                 scale: float, f_p0: float):
        self.fgh = fgh
        self.p0 = p0
        self.end = end
        self.sign = 1.0 if end > p0 else -1.0
        self.finite = math.isfinite(end)
        if self.finite:
            self.span = abs(end - p0)
            # near the wall f comes from its Taylor data, which keeps the
            # distance to the wall exact; a root of f there evaluates to
            # round-off, which would shift q toward the wall by about its
            # square root
            f_end = float(fgh.f(end))
            self.f_end = f_end if f_end > 1e-12 * f_p0 else 0.0
            self.df_end = float(fgh.df(end))
            self.ddf_end = float(fgh.ddf(end))
        else:
            self.span = scale
        self.edges = np.concatenate(
            [[0.0, 0.25], 1.0 - 0.5 ** np.arange(1, _DEPTH + 1), [1.0]])
        a, b = self.edges[:-1], self.edges[1:]
        dq = self._integral(self._dq, a, b)
        self.q = np.concatenate([[0.0], np.cumsum(dq)])
        self.chi = np.concatenate([[0.0], np.cumsum(self._integral(self._dchi, a, b))])
        steps = self.sign * dq
        if not np.all(np.isfinite(self.q)) or np.any(steps <= 0.0):
            raise NonMonotoneMap("q(p) table is not strictly increasing")
        # a convergent end halves the panel sums with the panel width; a
        # divergent one keeps (log) or grows them
        if steps[-2] > 0.75 * steps[-3]:
            raise NonMonotoneMap("f^(-1/2) is not integrable toward the domain end")

    def p(self, s):
        if self.finite:
            return self.end - self.sign * self.span * (1.0 - s) ** 2
        return self.p0 + self.sign * self.span * np.tan(0.5 * np.pi * s)

    def s_of(self, p):
        if self.finite:
            rel = np.clip(self.sign * (self.end - p) / self.span, 0.0, 1.0)
            return 1.0 - np.sqrt(rel)
        return np.arctan(np.maximum(self.sign * (p - self.p0), 0.0) / self.span) / (0.5 * np.pi)

    def _map(self, s):
        """p(s), dp/ds and f(p(s))."""
        if self.finite:
            r = 1.0 - s
            d = self.span * r * r
            p = self.end - self.sign * d
            dpds = 2.0 * self.sign * self.span * r
            taylor = self.f_end - self.sign * self.df_end * d + 0.5 * self.ddf_end * d * d
            f = np.where(d < _TAYLOR * self.span, taylor, self.fgh.f(p))
        else:
            t = 0.5 * np.pi * s
            p = self.p0 + self.sign * self.span * np.tan(t)
            dpds = 0.5 * np.pi * self.sign * self.span / np.cos(t) ** 2
            f = self.fgh.f(p)
        return p, dpds, f

    def _dq(self, s):
        _, dpds, f = self._map(s)
        return dpds / np.sqrt(f)

    def _dchi(self, s):
        p, dpds, f = self._map(s)
        return (self.fgh.df(p) + 2.0 * self.fgh.g(p)) / (4.0 * f) * dpds

    @staticmethod
    def _integral(integrand, a, b):
        """Gauss-Legendre integrals of ``integrand`` over each [a, b], batched."""
        x, w = gauss_legendre_nodes(_ORDER)
        half = 0.5 * (b - a)
        nodes = (0.5 * (a + b))[..., None] + half[..., None] * x
        return half * (integrand(nodes) @ w)

    def _cell(self, s):
        return np.clip(np.searchsorted(self.edges, s, side="right") - 1,
                       0, len(self.edges) - 2)

    def _at(self, table, integrand, s):
        k = self._cell(s)
        return table[k] + self._integral(integrand, self.edges[k], s)

    def q_of_p(self, p):
        return self._at(self.q, self._dq, self.s_of(p))

    def chi_of_p(self, p):
        return self._at(self.chi, self._dchi, self.s_of(p))

    def p_of_q(self, q):
        """Bracketed Newton iteration on q(s), batched over all targets."""
        u = self.sign * q  # increases along s
        table = self.sign * self.q
        k = np.clip(np.searchsorted(table, u, side="right") - 1, 0, len(table) - 2)
        a, b = self.edges[k], self.edges[k + 1]
        frac = np.clip((u - table[k]) / (table[k + 1] - table[k]), 0.0, 1.0)
        s = a + (b - a) * frac
        todo = np.arange(s.size)
        for _ in range(_NEWTON_STEPS):
            st, kt, at, bt = s[todo], k[todo], a[todo], b[todo]
            q_st = self.q[kt] + self._integral(self._dq, self.edges[kt], st)
            resid = self.sign * q_st - u[todo]
            at = np.where(resid < 0.0, st, at)
            bt = np.where(resid > 0.0, st, bt)
            slope = self.sign * self._dq(st)
            with np.errstate(divide="ignore", invalid="ignore"):
                nxt = st - resid / slope
            nxt = np.where((nxt >= at) & (nxt <= bt), nxt, 0.5 * (at + bt))
            s[todo], a[todo], b[todo] = nxt, at, bt
            todo = todo[np.abs(nxt - st) > _S_TOL]
            if todo.size == 0:
                break
        return self.p(s)


# ---------------------------------------------------------------------------
# factorization ansatz

@dataclass
class FactorizationAnsatz:
    """Special-function factorization phi = v(q) F(w(q)).

    ``family`` is "associated_legendre" (Q = 2w/(w^2-1)) or "jacobi".
    w(q) = sin(sqrt(c) q + phase), so (w')^2/(1-w^2) = c identically.
    """

    family: str
    c: float
    phase: float = 0.0
    nu: complex = 0.0
    mu: complex = 0.0
    n: int = 0
    a: float = 0.0
    b: float = 0.0
    w_ref: float = 0.0  # lower integration limit for int Q dw

    def w(self, q):
        return np.sin(np.sqrt(self.c) * np.asarray(q) + self.phase)

    def dw(self, q):
        rc = np.sqrt(self.c)
        return rc * np.cos(rc * np.asarray(q) + self.phase)

    def ddw(self, q):
        return -self.c * self.w(q)

    def dddw(self, q):
        return -self.c * self.dw(q)

    def Q(self, w):
        if self.family == "associated_legendre":
            return 2 * w / (w ** 2 - 1)
        a, b = self.a, self.b
        return (b - a - (2 + a + b) * w) / (1 - w ** 2)

    def dQ(self, w):
        if self.family == "associated_legendre":
            return -2 * (w ** 2 + 1) / (w ** 2 - 1) ** 2
        a, b = self.a, self.b
        return -((2 + a + b) - 2 * (b - a) * w + (2 + a + b) * w ** 2) / (1 - w ** 2) ** 2

    def intQ(self, w):
        """An antiderivative of Q in w, valid on each interval that avoids w = +-1."""
        if self.family == "associated_legendre":
            return np.log(np.abs(w ** 2 - 1))
        return (1 + self.a) * np.log(np.abs(1 - w)) + (1 + self.b) * np.log(np.abs(1 + w))

    def R(self, w):
        if self.family == "associated_legendre":
            nu, mu = self.nu, self.mu
            return nu * (nu + 1) / (1 - w ** 2) - mu ** 2 / (1 - w ** 2) ** 2
        return self.n * (self.n + 1 + self.a + self.b) / (1 - w ** 2)

    def c_residual(self, q_grid) -> float:
        w = self.w(q_grid)
        wp = self.dw(q_grid)
        return float(np.max(np.abs(wp ** 2 / (1 - w ** 2) - self.c)))


def legendre_ansatz(c: float, nu, mu, phase: float = 0.0) -> FactorizationAnsatz:
    return FactorizationAnsatz(family="associated_legendre", c=c, phase=phase,
                               nu=nu, mu=mu)


def jacobi_ansatz(c: float, n: int, a: float, b: float,
                  phase: float = 0.0) -> FactorizationAnsatz:
    return FactorizationAnsatz(family="jacobi", c=c, phase=phase, n=n, a=a, b=b)


def master_residual(ansatz: FactorizationAnsatz, transform: TransformResult,
                    E, q_grid) -> float:
    """Max pointwise residual of the master identity on an interior q-grid."""
    q = np.asarray(q_grid, dtype=float)
    w = ansatz.w(q)
    wp = ansatz.dw(q)
    wpp = ansatz.ddw(q)
    wppp = ansatz.dddw(q)
    rhs = (wppp / (2 * wp) - 0.75 * (wpp / wp) ** 2 + wp ** 2 * ansatz.R(w)
           - wp ** 2 * ansatz.dQ(w) / 2.0 - wp ** 2 * ansatz.Q(w) ** 2 / 4.0)
    lhs = E - transform.V(q)
    return float(np.max(np.abs(rhs - lhs)))


def v_from_Qw(ansatz: FactorizationAnsatz) -> Callable[[np.ndarray], np.ndarray]:
    """v(q) = (w')^(-1/2) exp(1/2 int_{w_ref}^{w(q)} Q), from the closed-form
    antiderivative ``ansatz.intQ``.

    The returned callable raises ``BranchAmbiguity`` when 1 - w^2 changes sign
    over the evaluation points.
    """
    def v(q):
        q = np.atleast_1d(np.asarray(q, dtype=float))
        w = ansatz.w(q)
        if np.any((1 - w ** 2) <= 0):
            raise BranchAmbiguity("1 - w^2 must keep one sign on the domain")
        wp = ansatz.dw(q).astype(complex)
        integral = np.real(ansatz.intQ(w) - ansatz.intQ(ansatz.w_ref))
        return wp ** (-0.5) * np.exp(0.5 * integral)

    return v
