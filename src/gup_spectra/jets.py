"""Small derivative-jet arithmetic used by the expectation engine.

A Jet stores f, f', ..., f^(K) sampled on a grid (rows of ``d``).  Sums,
Leibniz products and real powers are exact at each node, so composed operator
words evaluate with analytic derivatives throughout.

Products and powers sum their Leibniz terms ``comb(n, j) * a[j] * b[n - j]``
as stacked arrays, one numpy reduction per product or per power row, in the
order of the scalar double loop: left to right from 0.0.  Each term is the
same IEEE product, so every row is bit-identical to that loop.  Products and
powers take jets of order up to 32.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet"]

_MAX_ORDER = 32
_STEPS = np.arange(_MAX_ORDER + 1)
# comb(n, j) as floats, the Leibniz weights, and the lag n - j of the second
# factor; the terms above the diagonal (j > n) read row 0 and are then zeroed
_BINOMIAL = np.array([[math.comb(n, j) for j in range(_MAX_ORDER + 1)]
                      for n in range(_MAX_ORDER + 1)], dtype=float)
_LAG = np.maximum(np.subtract.outer(_STEPS, _STEPS), 0)
_ABOVE = np.less.outer(_STEPS, _STEPS)


def _weights(order, ndim):
    """comb(n, j) for n, j <= order, with unit axes for ndim - 1 row axes."""
    if order > _MAX_ORDER:
        raise ValueError(f"jet order {order} exceeds the supported {_MAX_ORDER}")
    return _BINOMIAL[: order + 1, : order + 1].reshape((order + 1,) * 2 + (1,) * (ndim - 1))


def _row_sum(terms, axis):
    """0.0 + t[0] + t[1] + ... along ``axis``, added left to right.

    numpy adds rows of two or more points elementwise in this order, but
    sums a lone point's terms pairwise from eight terms on; such terms are
    reduced as a zero-copy pair of columns.
    """
    if math.prod(terms.shape[axis + 1:]) == 1:
        pair = np.broadcast_to(terms[..., None], terms.shape + (2,))
        return np.add.reduce(pair, axis=axis, initial=0.0)[..., 0]
    return np.add.reduce(terms, axis=axis, initial=0.0)


class Jet:
    __slots__ = ("d",)

    def __init__(self, rows):
        self.d = np.asarray(rows)

    @property
    def order(self) -> int:
        return self.d.shape[0] - 1

    @property
    def value(self) -> np.ndarray:
        return self.d[0]

    @classmethod
    def variable(cls, z, order):
        z = np.asarray(z)
        rows = np.zeros((order + 1,) + z.shape, dtype=z.dtype)
        rows[0] = z
        if order >= 1:
            rows[1] = 1.0
        return cls(rows)

    @classmethod
    def constant(cls, c, like, order):
        like = np.asarray(like)
        rows = np.zeros((order + 1,) + like.shape, dtype=np.result_type(like.dtype, type(c)))
        rows[0] = c
        return cls(rows)

    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.d[0], order=self.order)

    def __add__(self, other):
        o = self._coerce(other)
        k = min(self.order, o.order)
        return Jet(self.d[: k + 1] + o.d[: k + 1])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        k = min(self.order, o.order)
        return Jet(self.d[: k + 1] - o.d[: k + 1])

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.d * other)
        k = min(self.order, other.order)
        a, b = self.d[: k + 1], other.d[: k + 1]
        # stacking needs the rows of a and b at one rank
        ndim = max(a.ndim, b.ndim)
        a = a.reshape(a.shape[:1] + (1,) * (ndim - a.ndim) + a.shape[1:])
        b = b.reshape(b.shape[:1] + (1,) * (ndim - b.ndim) + b.shape[1:])
        # terms[n, j] = comb(n, j) * a[j] * b[n - j], zeroed above j = n
        terms = _weights(k, ndim) * a * b[_LAG[: k + 1, : k + 1]]
        terms[_ABOVE[: k + 1, : k + 1]] = 0.0
        return Jet(_row_sum(terms, axis=1))

    __rmul__ = __mul__

    def derivative(self):
        """Jet of f' (order drops by one)."""
        if self.order < 1:
            raise ValueError("jet order exhausted; raise the tracking order")
        return Jet(self.d[1:])

    def power(self, sigma):
        """Jet of f**sigma via the recurrence u w' = sigma u' w.

        Row n + 1 sums comb(n, j) (sigma u[j+1] w[n-j]) over j = 0..n, then
        subtracts comb(n, j) u[j] w[n+1-j] over j = 1..n, and divides by u[0].
        The subtracted terms are appended negated, the same IEEE operation.
        """
        k = self.order
        u = self.d
        # the rows are built last to first in ``rev`` (rev[k - i] = w[i]), so
        # that w[n - j] over j = 0..n is the forward slice rev[k - n:]
        rev = np.empty_like(u, dtype=np.result_type(u.dtype, type(sigma), float))
        rev[k] = u[0].astype(rev.dtype) ** sigma
        su = sigma * u[1:]
        # comb(n, j) at full row size: numpy multiplies slices of equal shape
        # much faster than it broadcasts a column against them
        c = np.empty((k, k + 1) + u.shape[1:])
        c[...] = _weights(k, u.ndim)[:k]
        for n in range(k):
            plus = c[n, : n + 1] * (su[: n + 1] * rev[k - n:])
            minus = -c[n, 1 : n + 1] * u[1 : n + 1] * rev[k - n : k]
            rev[k - n - 1] = _row_sum(np.concatenate([plus, minus]), axis=0) / u[0]
        return Jet(rev[::-1].copy())

    def reciprocal(self):
        return self.power(-1.0)
