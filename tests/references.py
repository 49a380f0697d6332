"""Independent references for the tests: adaptive Gauss-Legendre quadrature,
the classical Jacobi polynomials and their closed-form norms, and the
closed-form transformed wells.  The package runs the orthonormal rows of
``specfun.orthonormal_rows`` and normalizes through
``specfun.log_jacobi_mass`` instead, and takes its wells from the Liouville
transform of each Hamiltonian's (f, g, h); these stay here to check it
against."""

import math
from functools import lru_cache

import numpy as np

from gup_spectra.algebra import REALIZATIONS, HarmonicOscillator, Swanson
from gup_spectra.errors import UnsupportedPair
from gup_spectra.solutions import PotentialSpec


@lru_cache(maxsize=64)
def gauss_legendre(order: int):
    """numpy's Gauss-Legendre nodes and weights on (-1, 1), once per order."""
    return np.polynomial.legendre.leggauss(order)


def integrate_adaptive(f, order: int = 128, tol: float = 1e-11, max_order: int = 4096):
    """Integrate f over (-1, 1), doubling the rule until two results agree."""
    x, w = gauss_legendre(order)
    prev = np.sum(w * f(x))
    order *= 2
    while order <= max_order:
        x, w = gauss_legendre(order)
        cur = np.sum(w * f(x))
        if abs(cur - prev) <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
        order *= 2
    return prev


def jacobi(n: int, a: float, b: float, x):
    """P_n^(a,b)(x) by the classical three-term recurrence in x (DLMF 18.9.1),
    unnormalized: its values leave the double range where the orthonormal
    rows do not."""
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


def jacobi_norm(n: int, a: float, b: float) -> float:
    """Orthogonality normalization: integral of (1-x)^a (1+x)^b P_n^2 over (-1,1).

    N_n = 2^(a+b+1) Gamma(n+a+1) Gamma(n+b+1)
          / ( n! (2n+a+b+1) Gamma(n+a+b+1) ).

    At n = 0 the last two factors merge into Gamma(a+b+2), giving the Beta
    function form 2^(a+b+1) B(a+1, b+1), which stays finite at a+b+1 = 0.
    """
    if n == 0:
        tail = math.lgamma(a + b + 2)
    else:
        tail = math.log(2 * n + a + b + 1) + math.lgamma(n + a + b + 1)
    log_nn = ((a + b + 1) * math.log(2.0) + math.lgamma(n + a + 1) + math.lgamma(n + b + 1)
              - math.lgamma(n + 1) - tail)
    return float(np.exp(log_nn))


def well_amplitudes(model, params):
    """Amplitudes of the closed-form well at tau > 0: A of A tan^2(sqrt(c) q)
    for the Legendre family, (A, B) of A csc^2(sqrt(c) q / 2)
    + B sec^2(sqrt(c) q / 2) for the Jacobi family."""
    tau, hw = params.tau, params.hbar * params.omega
    if isinstance(model, HarmonicOscillator):
        return hw / (2.0 * tau)
    if isinstance(model, Swanson):
        al, be = model.alpha, model.beta
        return (((1 - tau) * hw ** 2 - tau * hw * (al + be) - 4 * al * be)
                / (2.0 * tau * model.omega_shift(params)))
    return 0.5 * hw * model.alpha, model.beta / (2 * params.mass * params.tau_check)


def closed_form_well(model, rep, params) -> PotentialSpec:
    """The closed-form transformed well of the pair at tau > 0.

    q is proportional to the momentum angle, q = sqrt(2 / (tau base)) theta,
    which every representation with an angle in ``REALIZATIONS`` shares, so
    the well is the model's alone: symmetric wells are centred at q = 0,
    half-cell wells start at q = 0.
    """
    tau = params.tau
    model.admit(params)
    if REALIZATIONS[rep].angle is None:
        raise UnsupportedPair(f"no transformed potential for {rep}")
    base = model.scales(params)[0]
    if model.family == "jacobi":
        csc2, sec2 = well_amplitudes(model, params)
        c = 2.0 * tau * base
        rc2 = math.sqrt(tau * base / 2.0)  # = sqrt(c)/2

        def V(q):
            s = rc2 * np.asarray(q)
            return csc2 / np.sin(s) ** 2 + sec2 / np.cos(s) ** 2

        return PotentialSpec(V=V, q_lo=0.0, q_hi=math.pi / math.sqrt(c))
    amp = well_amplitudes(model, params)
    rc = math.sqrt(tau * base / 2.0)
    edge = math.pi / (2.0 * rc)

    def V(q):
        return amp * np.tan(rc * np.asarray(q)) ** 2

    return PotentialSpec(V=V, q_lo=-edge, q_hi=edge)
