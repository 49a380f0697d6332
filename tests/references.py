"""Independent references for the tests: adaptive Gauss-Legendre quadrature
and the closed-form Jacobi norm.  The package normalizes through
``specfun.orthonormal_ladder`` and ``specfun.log_jacobi_mass`` instead; these
stay here to check it against."""

import math

import numpy as np

from gup_spectra.specfun import JacobiSpec, gauss_legendre_nodes


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


def jacobi_norm(spec: JacobiSpec) -> float:
    """Orthogonality normalization: integral of (1-x)^a (1+x)^b P_n^2 over (-1,1).

    N_n = 2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1)
          / ( n! (2n+a+b+1) Gamma(n+a+b+1) ).

    At n = 0 the last two factors merge into Gamma(a+b+2), giving the Beta
    function form 2^(a+b+1) B(a+1, b+1), which stays finite at a+b+1 = 0.
    """
    n, a, b = spec.n, spec.a, spec.b
    if n == 0:
        tail = math.lgamma(a + b + 2)
    else:
        tail = math.log(2 * n + a + b + 1) + math.lgamma(n + a + b + 1)
    log_nn = ((a + b + 1) * math.log(2.0) + math.lgamma(n + a + 1) + math.lgamma(n + b + 1)
              - math.lgamma(n + 1) - tail)
    return float(np.exp(log_nn))
