"""Special-function kernel: Gauss-Jacobi rules, orthonormal Jacobi ladders,
associated Legendre functions and Jacobi polynomials.

Every solvable pair's states come from one Jacobi-type weight
(1-y)^a (1+y)^b on (-1, 1): (1-z^2)^lam in z for the oscillator and
Swanson, (1-w)^a+ (1+w)^b+ in w for the inverse-square model.  One chain
sequence of that weight (Chihara) drives both

* ``gauss_jacobi``, the Golub-Welsch rule of unit total mass, and
* ``orthonormal_ladder``, the polynomials phat_0, ..., phat_n orthonormal
  for the unit-mass weight (DLMF 18.3, 18.9), from the same recurrence the
  rule's Christoffel weights sum.

So the one normalization constant left is the weight's mass
2^(a+b+1) B(a+1, b+1), which ``log_jacobi_mass`` gives in log space by
Stirling's formula: it leaves the double range for exponents in the thousands.

Two classical families stay for the operator jets and the public API:

* Ferrers (real-branch) associated Legendre functions of negative real
  order, P_{n+lam}^{-lam}(z) with n a nonnegative integer and lam > 0 real,
  evaluated through the Gegenbauer connection

      P_{n+lam}^{-lam}(z) = k_n(lam) (1-z^2)^(lam/2) C_n^{(lam+1/2)}(z),
      k_n(lam) = n! / (2^lam Gamma(lam+1) (2lam+1)_n),

  which pins the standard hypergeometric normalization (checked against the
  closed form P_nu^{-nu}(z) = (1-z^2)^(nu/2) / (2^nu Gamma(nu+1))).  The
  recurrences are polynomial in z, so complex arguments and complex order
  (broken-symmetry regimes) evaluate through the same code path.  k_n
  leaves the double range at small tau, so no solver path uses it.

* Jacobi polynomials P_n^{(a,b)} with real a, b > -1, by the standard
  three-term recurrence.  ``jacobi_jet`` returns value and derivatives up to
  a requested order from d/dx P_n^{(a,b)} = (n+a+b+1)/2 P_{n-1}^{(a+1,b+1)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParameterError, UnsupportedOrder
from .jets import Jet

__all__ = [
    "LegendreSpec",
    "JacobiSpec",
    "gauss_legendre_nodes",
    "gauss_jacobi",
    "orthonormal_ladder",
    "log_jacobi_mass",
    "gegenbauer",
    "assoc_legendre",
    "jacobi",
    "jacobi_jet",
]


@dataclass(frozen=True)
class LegendreSpec:
    """P_{n - mu}^{mu}: band index n >= 0, real (or complex) order mu <= 0."""

    n: int
    mu: complex

    def __post_init__(self):
        if self.n < 0 or self.n != int(self.n):
            raise ParameterError(f"band index must be a nonnegative integer, got {self.n}")
        mu = complex(self.mu)
        if mu.imag == 0.0 and mu.real > 0 and abs(mu.real - round(mu.real)) > 1e-12:
            raise UnsupportedOrder(
                "positive non-integer order is outside the implemented branch"
            )


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

@lru_cache(maxsize=64)
def gauss_legendre_nodes(count: int):
    """Gauss-Legendre nodes and weights on (-1, 1), computed once per count."""
    if count < 1:
        raise ParameterError("node count must be positive")
    return np.polynomial.legendre.leggauss(count)


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
    s = a + b
    top = 2.0 * m + s
    if m > 1 and top * top == math.inf:
        raise ParameterError(f"Jacobi exponents a={a:.6g}, b={b:.6g} leave the "
                             "double range of the recurrence; tau is too small")
    k = np.arange(1.0, m)
    odd = np.empty(m)
    odd[0] = (b + 1.0) / (s + 2.0)
    odd[1:] = (k + b + 1.0) * (k + s + 1.0) / ((2.0 * k + s + 1.0) * (2.0 * k + s + 2.0))
    even = np.zeros(m)
    even[1:] = k * (k + a) / ((2.0 * k + s) * (2.0 * k + s + 1.0))
    return odd, even


def _orthonormal_rows(t, odd, even):
    """Yield p_0(t), ..., p_{m-1}(t) for a chain of length m.

    p_k are the orthonormal polynomials of the chain's unit-mass weight,
    p_0 = 1, by the three-term recurrence of the Jacobi matrix L L^T.  Its
    off-diagonal is positive, so every p_k has a positive leading
    coefficient.
    """
    diag = (odd + even).tolist()
    off = np.sqrt(odd[:-1] * even[1:]).tolist()
    prev = np.zeros_like(t)
    cur = np.ones_like(t)
    yield cur
    below = 0.0
    for d, above in zip(diag, off):
        prev, cur = cur, ((t - d) * cur - below * prev) * (1.0 / above)
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
    """
    if m < 1 or m != int(m):
        raise ParameterError(f"node count must be a positive integer, got {m}")
    if not (alpha > -1.0 and beta > -1.0):
        raise ParameterError(
            f"Jacobi exponents must exceed -1, got alpha={alpha}, beta={beta}")
    m = int(m)
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


def orthonormal_ladder(n: int, a: float, b: float, t):
    """Rows phat_0(t), ..., phat_n(t) from one recurrence sweep.

    phat_k are orthonormal for the unit-mass weight (1-t)^a t^b / B(a+1, b+1)
    on (0, 1), that is, for (1-y)^a (1+y)^b / mass in y = 2t - 1 (DLMF 18.3),
    and have positive leading coefficients.  Taking t rather than y keeps
    the recurrence coefficients at their relative precision near t = 0.
    """
    if n < 0 or n != int(n):
        raise ParameterError(f"degree must be a nonnegative integer, got {n}")
    t = np.asarray(t, dtype=float)
    return np.array(list(_orthonormal_rows(t, *_jacobi_chain(int(n) + 1, a, b))))


def _lgamma(x: float) -> float:
    """log|Gamma(x)|; like scipy's gammaln, +inf at the poles and past overflow."""
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):
        return math.inf


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


def log_jacobi_mass(a: float, b: float) -> float:
    """log of the mass 2^(a+b+1) B(a+1, b+1) of (1-y)^a (1+y)^b on (-1, 1).

    With p = a + 1, q = b + 1 and s = p + q it is, by Stirling's formula,
    (p - 1/2) log(2p/s) + (q - 1/2) log(2q/s) - log(s)/2 + log(2 pi)/2
    + d(p) + d(q) - d(s), free of the log-gamma terms of size s log s that
    cancel in the plain sum (3e-11 at exponents of 1e4).  For |t| < 1/2,
    t = (p - q)/s, the logs are (s - 1)/2 log(1 - t^2) + s t atanh(t), exact
    as t -> 0.  The plain sum is kept only where no mass exists (a or
    b <= -1).
    """
    p, q = a + 1.0, b + 1.0
    if min(p, q) <= 0.0:
        return ((a + b + 1.0) * math.log(2.0) + _lgamma(p) + _lgamma(q)
                - _lgamma(a + b + 2.0))
    s = p + q
    t = (p - q) / s
    if abs(t) < 0.5:
        logs = 0.5 * (s - 1.0) * math.log1p(-t * t) + s * t * math.atanh(t)
    else:
        logs = (p - 0.5) * math.log(2.0 * p / s) + (q - 0.5) * math.log(2.0 * q / s)
    return (logs - 0.5 * math.log(s) + _HALF_LOG_2PI + _stirling_remainder(p)
            + _stirling_remainder(q) - _stirling_remainder(s))


# ---------------------------------------------------------------------------
# Gegenbauer and associated Legendre

def gegenbauer(n: int, a, z):
    """C_n^{(a)}(z) by the three-term recurrence; polynomial in z and a."""
    z = np.asarray(z)
    cm1 = np.ones_like(z)
    if n == 0:
        return cm1
    cm2, cm1 = cm1, 2 * a * z
    for k in range(2, n + 1):
        cm2, cm1 = cm1, (2 * (k + a - 1) * z * cm1 - (k + 2 * a - 2) * cm2) / k
    return cm1


def _log_kn(n: int, lam):
    """log k_n(lam) of the Ferrers normalization."""
    if np.iscomplexobj(lam):
        # complex order (broken-symmetry regimes) is the only scipy user here,
        # so the import waits for it instead of slowing every start-up
        from scipy.special import loggamma as lg
    else:
        lg = _lgamma
    return (_lgamma(n + 1) - lam * math.log(2.0) - lg(lam + 1)
            - (lg(2 * lam + 1 + n) - lg(2 * lam + 1)))


def _check_real_domain(z):
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        if np.any(np.abs(z) > 1.0 + 1e-14):
            raise DomainError("argument must satisfy |z| <= 1 on the real branch")
    return z


def assoc_legendre(spec: LegendreSpec, z):
    """Ferrers P_{n - mu}^{mu}(z); complex z evaluates the analytic recurrence."""
    z = _check_real_domain(z)
    lam = -spec.mu
    if isinstance(lam, complex) and lam.imag == 0.0:
        lam = lam.real
    kn = np.exp(_log_kn(spec.n, lam))
    complex_kn = np.any(np.iscomplex(kn))
    zz = np.asarray(z, dtype=complex if (np.iscomplexobj(z) or complex_kn) else float)
    env = (1 - zz ** 2 + 0j) ** (lam / 2.0) if np.iscomplexobj(zz) or isinstance(lam, complex) \
        else (1 - zz ** 2) ** (lam / 2.0)
    return kn * env * gegenbauer(spec.n, lam + 0.5, zz)


# ---------------------------------------------------------------------------
# Jacobi

def jacobi(spec: JacobiSpec, x):
    """P_n^{(a,b)}(x) by the standard three-term recurrence."""
    n, a, b = spec.n, spec.a, spec.b
    x = np.asarray(x)
    pm1 = np.ones_like(x)
    if n == 0:
        return pm1
    pm2, pm1 = pm1, (a + 1) + (a + b + 2) * (x - 1) / 2
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
