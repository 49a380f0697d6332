"""Special-function kernel: Gauss-Jacobi rules, orthonormal Jacobi ladders
and Jacobi polynomials.

Every solvable pair's states come from one Jacobi-type weight
(1-y)^a (1+y)^b on (-1, 1): (1-z^2)^lam in z for the oscillator and
Swanson, (1-w)^a+ (1+w)^b+ in w for the inverse-square model.  One chain
sequence of that weight (Chihara) and one recurrence of its rows drive

* ``gauss_jacobi``, the Golub-Welsch rule of unit total mass;
* ``orthonormal_rows``, the polynomials phat_0, ..., phat_n orthonormal
  for the unit-mass weight (DLMF 18.3, 18.9), whose squares the rule's
  Christoffel weights sum; ``orthonormal_ladder`` keeps every row; and
* the spectrum oracle's basis, derivatives from a complex argument.

So the one normalization constant left is the weight's mass
2^(a+b+1) B(a+1, b+1), which ``log_jacobi_mass`` gives in log space by
Stirling's formula: it leaves the double range for exponents in the thousands.

The unified expectation engine's basis jets use the classical Jacobi
polynomials P_n^{(a,b)} with real a, b > -1, by the standard three-term
recurrence.  ``jacobi_jet`` returns value and derivatives up to a requested
order from d/dx P_n^{(a,b)} = (n+a+b+1)/2 P_{n-1}^{(a+1,b+1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .jets import Jet

__all__ = [
    "JacobiSpec",
    "gauss_jacobi",
    "orthonormal_rows",
    "orthonormal_ladder",
    "log_jacobi_mass",
    "jacobi",
    "jacobi_jet",
]


@dataclass(frozen=True)
class JacobiSpec:
    n: int
    a: float
    b: float

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ParameterError(f"degree must be a nonnegative integer, got {self.n}")
        if self.a <= -1 or self.b <= -1:
            raise ParameterError(
                f"Jacobi parameters must exceed -1, got a={self.a}, b={self.b}"
            )


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


def _orthonormal_rows(t, odd, even):
    """Yield p_0(t), ..., p_{m-1}(t) for a chain of length m, in one sweep.

    p_k are the orthonormal polynomials of the chain's unit-mass weight,
    p_0 = 1, by the three-term recurrence of the Jacobi matrix L L^T.  Its
    off-diagonal is positive, so every p_k has a positive leading
    coefficient.  Each row is a fresh array, formed in place from the two
    before it by the operations of ((t - d_k) p_k - e_{k-1} p_{k-1}) *
    (1 / e_k) in that order, d and e the matrix's diagonal and
    off-diagonal; the sweep holds those two rows and one work row, so a
    caller that keeps only the last row holds no others.
    At t = x + ih a row's real part is p_k(x) and its imaginary part
    h p_k'(x), each to O(h^2) with no difference to cancel (the complex
    step; Squire and Trapp, SIAM Rev. 40 (1998) 110).
    """
    diag = (odd + even).tolist()
    off = np.sqrt(odd[:-1] * even[1:]).tolist()
    prev = np.zeros_like(t)
    cur = np.ones_like(t)
    yield cur
    below = 0.0
    term = np.empty_like(t)
    for d, above in zip(diag, off):
        row = np.subtract(t, d)
        row *= cur
        np.multiply(below, prev, out=term)
        row -= term
        row *= 1.0 / above
        prev, cur = cur, row
        yield cur
        below = above


def _christoffel_weights(t, odd, even):
    """Unit-mass Gauss weights 1 / sum_k p_k(t)^2 at the nodes t (Christoffel).

    Near the ends of a rule concentrated by large exponents the sum can pass
    the double range: those weights lie below 1e-308 of the mass and come
    out as 0.
    """
    total = np.zeros_like(t)
    with np.errstate(over="ignore", invalid="ignore"):
        for row in _orthonormal_rows(t, odd, even):
            total += row * row
    # an overflowed sum is inf, or NaN once inf - inf followed
    return np.where(np.isnan(total), 0.0, 1.0 / total)


def gauss_jacobi(m: int, alpha: float, beta: float):
    """Gauss-Jacobi rule for (1-x)^alpha (1+x)^beta on (-1, 1), in numpy.

    Called like ``scipy.special.roots_jacobi``, with ascending nodes, but
    the weights sum to 1, not to the mass 2^(alpha+beta+1) B(alpha+1,
    beta+1), which overflows for large exponents.  Golub-Welsch (Math.
    Comp. 23 (1969) 221): the nodes are the eigenvalues of the dense Jacobi
    matrix (only the lower triangle, which ``eigvalsh`` reads, is filled) in
    t = (1 -+ x)/2, measured from the end with the smaller exponent, where
    the nodes crowd and the chain keeps its relative precision.

    For alpha == beta and even m the weight in x^2 = t is (1-t)^alpha
    t^(-1/2) on (0, 1), and the rule is +-sqrt(t) of that weight's
    m/2-point rule, with half its weights.  Those sqrt(t) are the singular
    values of the chain's bidiagonal factor, which LAPACK computes to high
    relative accuracy (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11 (1990)
    873).  The square roots of eigenvalues accurate to eps would be off by
    about 2e-12 relative at the nodes nearest x = 0, where the weights are
    largest.

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
    if alpha == beta and m % 2 == 0:
        half = m // 2
        odd, even = _jacobi_chain(half, alpha, -0.5)
        # L^T: LAPACK's reduction to bidiagonal form leaves an upper
        # bidiagonal matrix exactly as it is
        upper = np.zeros((half, half))
        upper.flat[::half + 1] = np.sqrt(odd)
        upper.flat[1::half + 1] = np.sqrt(even[1:])
        r = np.linalg.svd(upper, compute_uv=False)[::-1]
        w = 0.5 * _christoffel_weights(r * r, odd, even)
        return np.concatenate((-r[::-1], r)), np.concatenate((w[::-1], w))
    flip = alpha < beta
    odd, even = _jacobi_chain(m, *((beta, alpha) if flip else (alpha, beta)))
    mat = np.zeros((m, m))
    mat.flat[::m + 1] = odd + even
    mat.flat[m::m + 1] = np.sqrt(odd[:-1] * even[1:])
    t = np.linalg.eigvalsh(mat)
    w = _christoffel_weights(t, odd, even)
    if flip:
        return 1.0 - 2.0 * t[::-1], w[::-1]
    return 2.0 * t - 1.0, w


def orthonormal_rows(n: int, a: float, b: float, t):
    """The sweep phat_0(t), ..., phat_n(t), one row at a time.

    phat_k are orthonormal for the unit-mass weight (1-t)^a t^b / B(a+1, b+1)
    on (0, 1), that is, for (1-y)^a (1+y)^b / mass in y = 2t - 1 (DLMF 18.3),
    and have positive leading coefficients.  Taking t rather than y keeps
    the recurrence coefficients at their relative precision near t = 0.
    The degree is checked here, before the first row is drawn.
    """
    if n < 0 or n != int(n):
        raise ParameterError(f"degree must be a nonnegative integer, got {n}")
    return _orthonormal_rows(np.asarray(t, dtype=float), *_jacobi_chain(int(n) + 1, a, b))


def orthonormal_ladder(n: int, a: float, b: float, t):
    """Every row of the sweep ``orthonormal_rows``, kept: phat_0(t), ...,
    phat_n(t) as an (n + 1) x len(t) array."""
    return np.array(list(orthonormal_rows(n, a, b, t)))


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


# ---------------------------------------------------------------------------
# Jacobi

def jacobi(spec: JacobiSpec, x):
    """P_n^{(a,b)}(x) by the standard three-term recurrence."""
    n, a, b = spec.n, spec.a, spec.b
    x = np.asarray(x)
    pm1 = np.ones_like(x)
    if n == 0:
        return pm1
    pm2, pm1 = pm1, ((a - b) + (a + b + 2) * x) / 2
    for k in range(2, n + 1):
        c1 = 2 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = (2 * k + a + b - 1) * (a ** 2 - b ** 2)
        c3 = (2 * k + a + b - 1) * (2 * k + a + b) * (2 * k + a + b - 2)
        c4 = 2 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        pm2, pm1 = pm1, ((c2 + c3 * x) * pm1 - c4 * pm2) / c1
    return pm1


def jacobi_jet(spec: JacobiSpec, x, order: int) -> Jet:
    rows = []
    n, a, b = spec.n, spec.a, spec.b
    fac = 1.0
    for k in range(order + 1):
        if k > 0:
            fac = fac * 0.5 * (n + a + b + k)
        if n - k < 0:
            rows.append(np.zeros_like(np.asarray(x, dtype=float)))
        else:
            rows.append(fac * jacobi(JacobiSpec(n - k, a + k, b + k), x))
    return Jet(np.asarray(rows))
