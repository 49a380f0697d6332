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
from scipy.special import gammaln, loggamma

from .errors import DomainError, ParameterError, UnsupportedOrder
from .jets import Jet

__all__ = [
    "LegendreSpec",
    "JacobiSpec",
    "gauss_legendre_nodes",
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


def _log_kn(n: int, lam):
    if np.iscomplexobj(np.asarray(lam)) or isinstance(lam, complex):
        lg = loggamma
    else:
        lg = gammaln
    return (gammaln(n + 1) - lam * math.log(2.0) - lg(lam + 1)
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
              + gammaln(n + 2 * a) - gammaln(n + 1) - math.log(n + a)
              - 2 * gammaln(a))
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
    """
    n, a, b = spec.n, spec.a, spec.b
    log_nn = ((a + b + 1) * math.log(2.0) + gammaln(n + a + 1) + gammaln(n + b + 1)
              - gammaln(n + 1) - math.log(2 * n + a + b + 1) - gammaln(n + a + b + 1))
    return float(np.exp(log_nn))
