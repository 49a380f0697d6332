"""Special-function kernel: Gauss-Jacobi rules and orthonormal Jacobi ladders.

Every solvable pair's states come from one Jacobi-type weight
(1-y)^a (1+y)^b on (-1, 1): (1-z^2)^lam in z for the oscillator and
Swanson, (1-w)^a+ (1+w)^b+ in w for the inverse-square model.  One chain
sequence of that weight (Chihara) and one three-term recurrence of its
rows, centred on the weight (``_recurrence``: in y itself where a == b,
else from the end where the nodes crowd), drive

* ``gauss_jacobi``, the Golub-Welsch rule of unit total mass;
* ``orthonormal_rows``, the polynomials phat_0, ..., phat_n orthonormal
  for the unit-mass weight (DLMF 18.3, 18.9), whose squares the rule's
  Christoffel weights sum; the closed-form states and the unified
  expectation engine's basis jets both take them; and
* the spectrum oracle's basis, the same recurrence on the t-form of its
  own chain, derivatives from a complex argument.

So the one normalization constant left is the weight's mass
2^(a+b+1) B(a+1, b+1), which ``log_jacobi_mass`` gives in log space by
Stirling's formula: it leaves the double range for exponents in the thousands.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError

__all__ = [
    "gauss_jacobi",
    "orthonormal_rows",
    "log_jacobi_mass",
]


# ---------------------------------------------------------------------------
# quadrature

def _check_range(m: int, a: float, b: float):
    """ParameterError where (2m + a + b)^2 overflows."""
    top = 2.0 * m + a + b
    if top * top == math.inf:
        raise ParameterError(f"Jacobi exponents a={a:.6g}, b={b:.6g} leave the "
                             "double range of the recurrence; tau is too small")


def _jacobi_chain(m: int, a: float, b: float):
    """Chain sequence of the weight (1-t)^a t^b on (0, 1), degrees 0..m-1.

    Returns (odd, even), the z_{2k+1} and z_{2k} of (Chihara, An
    Introduction to Orthogonal Polynomials, 1978), with s = a + b:

        z_{2k}   = k (k+a) / ((2k+s)(2k+s+1)),              k >= 1, z_0 = 0,
        z_{2k+1} = (k+b+1)(k+s+1) / ((2k+s+1)(2k+s+2)),     k >= 0.

    The Jacobi matrix in t is L L^T, with L lower bidiagonal: sqrt(z_{2k+1})
    on the diagonal and sqrt(z_{2k}) below it.  So its diagonal is
    z_{2k} + z_{2k+1} and its off-diagonal sqrt(z_{2k-1} z_{2k}).  Every z is
    positive, so an entry near t = 0 keeps its relative precision, which the
    same entry formed on u = 2t - 1 would cancel away.  z_1 takes its limit
    form (b+1)/(s+2), finite at a + b = -1.

    Past s ~ 1.3e154 the denominators overflow and the off-diagonal, there
    from m = 2 on, underflows to 0, where no recurrence runs: ParameterError.
    """
    if m > 1:
        _check_range(m, a, b)
    s = a + b
    k = np.arange(1.0, m)
    odd = np.empty(m)
    odd[0] = (b + 1.0) / (s + 2.0)
    odd[1:] = (k + b + 1.0) * (k + s + 1.0) / ((2.0 * k + s + 1.0) * (2.0 * k + s + 2.0))
    even = np.zeros(m)
    even[1:] = k * (k + a) / ((2.0 * k + s) * (2.0 * k + s + 1.0))
    return odd, even


def _orthonormal_rows(x, diag, off):
    """Yield p_0(x), ..., p_{m-1}(x) of a Jacobi matrix of size m, in one sweep.

    p_k are the orthonormal polynomials of the matrix's unit-mass weight,
    p_0 = 1, by its three-term recurrence; ``diag`` and ``off`` are its
    diagonal and off-diagonal.  The off-diagonal is positive, so every p_k
    has a positive leading coefficient.  Each row is a fresh array, formed
    in place from the two before it by the operations of
    ((x - d_k) p_k - e_{k-1} p_{k-1}) * (1 / e_k) in that order, d and e
    the diagonal and off-diagonal; the sweep holds those two rows and one
    work row, so a caller that keeps only the last row holds no others.
    At x + ih a row's real part is p_k(x) and its imaginary part
    h p_k'(x), each to O(h^2) with no difference to cancel (the complex
    step; Squire and Trapp, SIAM Rev. 40 (1998) 110).
    """
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    yield cur
    below = 0.0
    term = np.empty_like(x)
    for d, above in zip(diag.tolist(), off.tolist()):
        row = np.subtract(x, d)
        row *= cur
        np.multiply(below, prev, out=term)
        row -= term
        row *= 1.0 / above
        prev, cur = cur, row
        yield cur
        below = above


def _t_form(odd, even):
    """(diagonal, off-diagonal) of the Jacobi matrix L L^T of a chain, in t."""
    return odd + even, np.sqrt(odd[:-1] * even[1:])


def _recurrence(m: int, a: float, b: float):
    """(end, diag, off): the Jacobi matrix of the unit-mass weight
    (1-y)^a (1+y)^b, degrees 0..m-1, in a variable centred on the weight.

    Where a == b (the oscillator and every Swanson pair) the variable is y
    itself and ``end`` is 0: the diagonal is 0 and the off-diagonal is
    2 sqrt(z_{2k+1} z_{2k+2}) of the chain, each entry at its relative
    precision, so no node near y = 0 loses digits to a difference from the
    t-form's diagonal near 1/2.  Otherwise the variable is
    x = (y - end) / 2, measured from the end y = end of the smaller
    exponent, where the nodes crowd: the t-form of the chain (a, b) from
    end = -1, or of (b, a) from end = 1 with the diagonal negated, whose
    rows are (-1)^k those of (b, a) at -x, that is, the rows in y.
    """
    flip = a < b
    diag, off = _t_form(*_jacobi_chain(m, *((b, a) if flip else (a, b))))
    if a == b:
        return 0, np.zeros(m), 2.0 * off
    return (1, -diag, off) if flip else (-1, diag, off)


def _christoffel_weights(x, diag, off):
    """Unit-mass Gauss weights 1 / sum_k p_k(x)^2 at the nodes x (Christoffel).

    Near the ends of a rule concentrated by large exponents the sum can pass
    the double range: those weights lie below 1e-308 of the mass and come
    out as 0.
    """
    total = np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):
        for row in _orthonormal_rows(x, diag, off):
            total += row * row
    # an overflowed sum is inf, or NaN once inf - inf followed
    return np.where(np.isnan(total), 0.0, 1.0 / total)


def gauss_jacobi(m: int, alpha: float, beta: float):
    """Gauss-Jacobi rule for (1-x)^alpha (1+x)^beta on (-1, 1), in numpy.

    Called like ``scipy.special.roots_jacobi``, with ascending nodes, but
    the weights sum to 1, not to the mass 2^(alpha+beta+1) B(alpha+1,
    beta+1), which overflows for large exponents.  Golub-Welsch (Math.
    Comp. 23 (1969) 221): for alpha != beta the nodes are the eigenvalues
    of the dense matrix of ``_recurrence`` (only the lower triangle, which
    ``eigvalsh`` reads, is filled), measured from the end where they crowd,
    and the weights the Christoffel sums of its rows there.

    For alpha == beta the rule is symmetric.  Its nonzero nodes are +-sqrt(t)
    of the m // 2-point rule of (1-t)^alpha t^(-+1/2) on (0, 1), the weight
    of the even or odd polynomials in x^2 = t, and a rule of odd size adds
    x = 0.  Those sqrt(t) are the singular values of the chain's bidiagonal
    factor, which LAPACK computes to high relative accuracy (Demmel & Kahan,
    SIAM J. Sci. Stat. Comput. 11 (1990) 873); the square roots of
    eigenvalues accurate to eps would be off by about 2e-12 relative at the
    nodes nearest x = 0, where the weights are largest.  An even rule takes
    half the Christoffel weights of the half-size rule, an odd one the
    Christoffel sums of the centred rows in x, so both are symmetric node
    for node.

    Past alpha + beta ~ 1.3e154 no rule is made, one node or many: the
    chain's denominators (2m + alpha + beta)^2 overflow (``_jacobi_chain``),
    and so would anything its callers evaluate on the nodes.
    """
    if m < 1 or m != int(m):
        raise ParameterError(f"node count must be a positive integer, got {m}")
    if not (alpha > -1.0 and beta > -1.0):
        raise ParameterError(
            f"Jacobi exponents must exceed -1, got alpha={alpha}, beta={beta}")
    m = int(m)
    _check_range(m, alpha, beta)
    if alpha != beta:
        end, diag, off = _recurrence(m, alpha, beta)
        mat = np.zeros((m, m))
        mat.flat[::m + 1] = diag
        mat.flat[m::m + 1] = off
        x = np.linalg.eigvalsh(mat)
        return 2.0 * x + end, _christoffel_weights(x, diag, off)
    half, parity = divmod(m, 2)
    r = np.empty(0)
    if half:
        odd, even = _jacobi_chain(half, alpha, parity - 0.5)
        # L^T: LAPACK's reduction to bidiagonal form leaves an upper
        # bidiagonal matrix exactly as it is
        upper = np.zeros((half, half))
        upper.flat[::half + 1] = np.sqrt(odd)
        upper.flat[1::half + 1] = np.sqrt(even[1:])
        r = np.linalg.svd(upper, compute_uv=False)[::-1]
    if parity:
        x = np.concatenate((-r[::-1], [0.0], r))
        _, diag, off = _recurrence(m, alpha, beta)
        return x, _christoffel_weights(x, diag, off)
    w = 0.5 * _christoffel_weights(r * r, *_t_form(odd, even))
    return np.concatenate((-r[::-1], r)), np.concatenate((w[::-1], w))


def orthonormal_rows(n: int, a: float, b: float, y):
    """The sweep phat_0(y), ..., phat_n(y), one row at a time.

    phat_k are orthonormal for the unit-mass weight (1-y)^a (1+y)^b / mass
    on (-1, 1) (DLMF 18.3, 18.9) and have positive leading coefficients.
    The recurrence runs in the variable of ``_recurrence``: y itself where
    a == b, else the distance from the end where the nodes crowd.  The
    degree and exponents are checked here, before the first row is drawn.
    """
    if n < 0 or n != int(n):
        raise ParameterError(f"degree must be a nonnegative integer, got {n}")
    if not (a > -1.0 and b > -1.0):
        raise ParameterError(f"Jacobi exponents must exceed -1, got a={a}, b={b}")
    end, diag, off = _recurrence(int(n) + 1, a, b)
    y = np.asarray(y, dtype=float)
    return _orthonormal_rows(y if end == 0 else (y - end) * 0.5, diag, off)


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k-1)), k = 1..7, of Stirling's series; from x = 12 on the
# next term is below 5e-18
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0,
             -691.0 / 360360.0, 1.0 / 156.0)


def _stirling_remainder(x: float) -> float:
    """d(x) = log Gamma(x) - (x - 1/2) log x + x - log(2 pi) / 2 (DLMF 5.11.1).

    Below 12 it shifts x upward: Gamma(x + 1) = x Gamma(x) gives
    d(x) = d(x + 1) + (x + 1/2) log(1 + 1/x) - 1, each step a small positive
    term, where log Gamma(x) minus the main term would cancel from about 28.
    """
    acc = 0.0
    while x < 12.0:
        acc += (x + 0.5) * math.log1p(1.0 / x) - 1.0
        x += 1.0
    return acc + sum(c * x ** (1 - 2 * k) for k, c in enumerate(_STIRLING, 1))


# A configuration asks for its weight's mass once per state, rule and level;
# a few configurations hold all the reuse there is.
@lru_cache(maxsize=8)
def log_jacobi_mass(a: float, b: float) -> float:
    """log of the mass 2^(a+b+1) B(a+1, b+1) of (1-y)^a (1+y)^b on (-1, 1).

    With p = a + 1, q = b + 1 and s = p + q it is, by Stirling's formula,
    (p - 1/2) log(2p/s) + (q - 1/2) log(2q/s) - log(s)/2 + log(2 pi)/2
    + d(p) + d(q) - d(s), free of the log-gamma terms of size s log s that
    cancel in the plain sum (3e-11 at exponents of 1e4).  For |t| < 1/2,
    t = (p - q)/s, the logs are (s - 1)/2 log(1 - t^2) + s t atanh(t), exact
    as t -> 0.  Where no mass exists (a or b <= -1) it raises
    ParameterError, as ``gauss_jacobi`` does.
    """
    p, q = a + 1.0, b + 1.0
    if min(p, q) <= 0.0:
        raise ParameterError(f"Jacobi exponents must exceed -1, got a={a}, b={b}")
    s = p + q
    t = (p - q) / s
    if abs(t) < 0.5:
        logs = 0.5 * (s - 1.0) * math.log1p(-t * t) + s * t * math.atanh(t)
    else:
        logs = (p - 0.5) * math.log(2.0 * p / s) + (q - 0.5) * math.log(2.0 * q / s)
    return (logs - 0.5 * math.log(s) + _HALF_LOG_2PI + _stirling_remainder(p)
            + _stirling_remainder(q) - _stirling_remainder(s))
