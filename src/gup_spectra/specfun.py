"""Special-function kernel: quadrature, associated Legendre, Jacobi.

The bound-state ladders of the solvable models are built from two families:

* Ferrers (real-branch) associated Legendre functions of negative real order,
  P_{n+lam}^{-lam}(z) with n a nonnegative integer and lam > 0 real.  These
  are evaluated through the Gegenbauer connection

      P_{n+lam}^{-lam}(z) = k_n(lam) (1-z^2)^(lam/2) C_n^{(lam+1/2)}(z),
      k_n(lam) = n! / (2^lam Gamma(lam+1) (2lam+1)_n),

  which pins the standard hypergeometric normalization (checked against the
  closed form P_nu^{-nu}(z) = (1-z^2)^(nu/2) / (2^nu Gamma(nu+1))).  The
  recurrences are polynomial in z, so complex arguments and complex order
  (broken-symmetry regimes) evaluate through the same code path.

* Jacobi polynomials P_n^{(a,b)} with real a, b > -1, by the standard
  three-term recurrence, with the closed-form orthogonality normalization.

Each recurrence is written once, as a generator of successive degrees: the
per-degree evaluators keep its last row, and the ``*_ladder`` variants stack
every degree 0..n from the same single sweep.

Derivatives come from the ladder identities d/dz C_n^{(a)} = 2a C_{n-1}^{(a+1)}
and d/dx P_n^{(a,b)} = (n+a+b+1)/2 * P_{n-1}^{(a+1,b+1)}; ``*_jet`` variants
return value and derivatives up to a requested order for operator words.
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
    "integrate_adaptive",
    "gegenbauer",
    "assoc_legendre",
    "assoc_legendre_ladder",
    "assoc_legendre_deriv",
    "assoc_legendre_jet",
    "legendre_norm",
    "jacobi",
    "jacobi_ladder",
    "jacobi_deriv",
    "jacobi_jet",
    "jacobi_norm",
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

    @property
    def degree(self) -> complex:
        return self.n - self.mu


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
def _leggauss_cached(count: int):
    x, w = np.polynomial.legendre.leggauss(count)
    return x, w


def gauss_legendre_nodes(count: int):
    """Gauss-Legendre nodes and weights on (-1, 1)."""
    if count < 1:
        raise ParameterError("node count must be positive")
    return _leggauss_cached(int(count))


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
    """
    k = np.arange(1.0, m)
    s = a + b
    odd = np.empty(m)
    odd[0] = (b + 1.0) / (s + 2.0)
    odd[1:] = (k + b + 1.0) * (k + s + 1.0) / ((2.0 * k + s + 1.0) * (2.0 * k + s + 2.0))
    even = np.zeros(m)
    even[1:] = k * (k + a) / ((2.0 * k + s) * (2.0 * k + s + 1.0))
    return odd, even


def _christoffel_weights(t, odd, even):
    """Unit-mass Gauss weights 1 / sum_k p_k(t)^2 at the nodes t (Christoffel).

    p_k are the orthonormal polynomials of the chain's recurrence, p_0 = 1.
    Near the ends of a rule concentrated by large exponents the sum can pass
    the double range: those weights lie below 1e-308 of the mass and come
    out as 0.
    """
    diag = (odd + even).tolist()
    off = np.sqrt(odd[:-1] * even[1:]).tolist()
    prev = np.zeros_like(t)
    cur = np.ones_like(t)
    total = np.ones_like(t)
    below = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for d, above in zip(diag, off):
            prev, cur = cur, ((t - d) * cur - below * prev) * (1.0 / above)
            total += cur * cur
            below = above
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


def integrate_adaptive(f, order: int = 128, tol: float = 1e-11, max_order: int = 4096):
    """Integrate f over (-1, 1), doubling the rule until two results agree."""
    x, w = gauss_legendre_nodes(order)
    prev = np.sum(w * f(x))
    order *= 2
    while order <= max_order:
        x, w = gauss_legendre_nodes(order)
        cur = np.sum(w * f(x))
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        order *= 2
    return prev


# ---------------------------------------------------------------------------
# Gegenbauer and associated Legendre

def _last(rows):
    for row in rows:
        pass
    return row


def _gegenbauer_rows(n: int, a, z):
    """Yield C_0^{(a)}(z), ..., C_n^{(a)}(z), one three-term step each."""
    z = np.asarray(z)
    cm2 = np.ones_like(z)
    yield cm2
    if n == 0:
        return
    cm1 = 2 * a * z
    yield cm1
    for k in range(2, n + 1):
        cm2, cm1 = cm1, (2 * (k + a - 1) * z * cm1 - (k + 2 * a - 2) * cm2) / k
        yield cm1


def gegenbauer(n: int, a, z):
    """C_n^{(a)}(z) by the three-term recurrence; polynomial in z and a."""
    return _last(_gegenbauer_rows(n, a, z))


def _lgamma_scalar(x: float) -> float:
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):
        return math.inf


def _lgamma(x):
    """log|Gamma(x)| of a real scalar, or of an array element by element.

    Like scipy's gammaln it reads +inf at the poles and past overflow; the
    arrays here are the at most n_max + 1 degrees of one ladder.
    """
    if isinstance(x, np.ndarray) and x.ndim:
        return np.array([_lgamma_scalar(v) for v in x.astype(float).tolist()])
    return _lgamma_scalar(x)


def _log_kn(n: int, lam):
    """log k_n(lam); ``n`` may be an array of degrees."""
    if np.iscomplexobj(np.asarray(lam)) or isinstance(lam, complex):
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


def _ferrers_parts(spec: LegendreSpec, z, degrees):
    """(lam, z in the working dtype, (1-z^2)^(lam/2), k_n(lam) at the degrees)."""
    z = _check_real_domain(z)
    lam = -spec.mu
    if isinstance(lam, complex) and lam.imag == 0.0:
        lam = lam.real
    kn = np.exp(_log_kn(degrees, lam))
    complex_kn = np.any(np.iscomplex(kn))
    zz = np.asarray(z, dtype=complex if (np.iscomplexobj(z) or complex_kn) else float)
    env = (1 - zz ** 2 + 0j) ** (lam / 2.0) if np.iscomplexobj(zz) or isinstance(lam, complex) \
        else (1 - zz ** 2) ** (lam / 2.0)
    return lam, zz, env, kn


def assoc_legendre(spec: LegendreSpec, z):
    """Ferrers P_{n - mu}^{mu}(z); complex z evaluates the analytic recurrence."""
    lam, zz, env, kn = _ferrers_parts(spec, z, spec.n)
    return kn * env * gegenbauer(spec.n, lam + 0.5, zz)


def assoc_legendre_ladder(spec: LegendreSpec, z):
    """Rows P_{k - mu}^{mu}(z) for k = 0..spec.n from one Gegenbauer sweep."""
    lam, zz, env, kn = _ferrers_parts(spec, z, np.arange(spec.n + 1))
    kn = kn.reshape((-1,) + (1,) * zz.ndim)
    return kn * env * np.array(list(_gegenbauer_rows(spec.n, lam + 0.5, zz)))


def assoc_legendre_deriv(spec: LegendreSpec, z):
    """d/dz of the Ferrers function, from the Gegenbauer ladder."""
    return assoc_legendre_jet(spec, z, 1).d[1]


def assoc_legendre_jet(spec: LegendreSpec, z, order: int) -> Jet:
    """Jet of P_{n-mu}^{mu} at z up to the requested derivative order."""
    z = _check_real_domain(z)
    lam = -spec.mu
    if isinstance(lam, complex) and lam.imag == 0.0:
        lam = lam.real
    complex_path = np.iscomplexobj(np.asarray(z)) or isinstance(lam, complex)
    zz = np.asarray(z, dtype=complex if complex_path else float)
    zj = Jet.variable(zz, order)
    env = (1.0 - zj * zj).power(lam / 2.0)
    kn = np.exp(_log_kn(spec.n, lam))

    # jet of C_n^{(a)}: d^k C_n^{(a)} = 2^k (a)_k C_{n-k}^{(a+k)}
    a = lam + 0.5
    rows = []
    fac = 1.0
    for k in range(order + 1):
        if k > 0:
            fac = fac * 2 * (a + k - 1)
        if spec.n - k < 0:
            rows.append(np.zeros_like(zz))
        else:
            rows.append(fac * gegenbauer(spec.n - k, a + k, zz))
    cj = Jet.from_rows(np.asarray(rows))
    return (env * cj) * kn


def legendre_norm(spec: LegendreSpec, tol: float = 1e-11) -> float:
    """Weight-1 norm integral of |P_{n-mu}^{mu}|^2 over (-1, 1), by quadrature."""
    def f(z):
        v = assoc_legendre(spec, z)
        return np.abs(v) ** 2

    return float(np.real(integrate_adaptive(f, tol=tol)))


def legendre_norm_closed(spec: LegendreSpec) -> float:
    """Closed form of the weight-1 norm via the Gegenbauer orthogonality.

    Used as an independent cross-check of ``legendre_norm``.
    """
    lam = float(np.real(-spec.mu))
    n = spec.n
    a = lam + 0.5
    log_hn = (math.log(math.pi) + (1 - 2 * a) * math.log(2.0)
              + _lgamma(n + 2 * a) - _lgamma(n + 1) - math.log(n + a)
              - 2 * _lgamma(a))
    return float(np.exp(2 * _log_kn(n, lam) + log_hn))


# ---------------------------------------------------------------------------
# Jacobi

def _jacobi_rows(n: int, a, b, x):
    """Yield P_0^{(a,b)}(x), ..., P_n^{(a,b)}(x), one three-term step each."""
    x = np.asarray(x)
    one = np.ones_like(x)
    yield one
    if n == 0:
        return
    pm1 = (a + 1) + (a + b + 2) * (x - 1) / 2
    yield pm1
    pm2 = one
    for k in range(2, n + 1):
        c1 = 2 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = (2 * k + a + b - 1) * (a ** 2 - b ** 2)
        c3 = (2 * k + a + b - 1) * (2 * k + a + b) * (2 * k + a + b - 2)
        c4 = 2 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        pm2, pm1 = pm1, ((c2 + c3 * x) * pm1 - c4 * pm2) / c1
        yield pm1


def jacobi(spec: JacobiSpec, x):
    """P_n^{(a,b)}(x) by the standard three-term recurrence."""
    return _last(_jacobi_rows(spec.n, spec.a, spec.b, x))


def jacobi_ladder(spec: JacobiSpec, x):
    """Rows P_k^{(a,b)}(x) for k = 0..spec.n from one recurrence sweep."""
    return np.array(list(_jacobi_rows(spec.n, spec.a, spec.b, x)))


def jacobi_deriv(spec: JacobiSpec, x):
    if spec.n == 0:
        return np.zeros_like(np.asarray(x, dtype=float))
    inner = JacobiSpec(spec.n - 1, spec.a + 1, spec.b + 1)
    return 0.5 * (spec.n + spec.a + spec.b + 1) * jacobi(inner, x)


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
    return Jet.from_rows(np.asarray(rows))


def jacobi_norm(spec: JacobiSpec) -> float:
    """Orthogonality normalization: integral of (1-x)^a (1+x)^b P_n^2 over (-1,1).

    N_n = 2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1)
          / ( n! (2n+a+b+1) Gamma(n+a+b+1) ).

    At n = 0 the last two factors merge into Gamma(a+b+2), giving the Beta
    function form 2^(a+b+1) B(a+1, b+1), which stays finite at a+b+1 = 0.
    """
    n, a, b = spec.n, spec.a, spec.b
    if n == 0:
        tail = _lgamma(a + b + 2)
    else:
        tail = math.log(2 * n + a + b + 1) + _lgamma(n + a + b + 1)
    log_nn = ((a + b + 1) * math.log(2.0) + _lgamma(n + a + 1) + _lgamma(n + b + 1)
              - _lgamma(n + 1) - tail)
    return float(np.exp(log_nn))
