"""Independent spectrum oracle: the lowest levels of -phi'' + V phi = E phi
on a finite well with Dirichlet walls, from V alone.

With x and y the distances to q_lo and q_hi in units of the span L, the
oracle measures each wall's inverse-square coefficient gamma from V and its
exponent s = (1 + sqrt(1 + 4 gamma))/2 (phi ~ x^s), factors the gauge
g = x^a y^b out of phi = g u, and solves the ground-state form

    integral g^2 u'^2 + g^2 (V - g''/g) u^2 dq = E integral g^2 u^2 dq

by Rayleigh-Ritz over the polynomials u of one degree (Boyd, *Chebyshev and
Fourier Spectral Methods*, 2001; Guo, Shen and Wang, Appl. Numer. Math. 59
(2009) 1011).  With (a, b) the wall exponents, V - g''/g keeps only a 1/x
and a 1/y term at the walls, so every integrand is x^(2a-1) y^(2b-1) times a
function analytic on the closed interval, and u converges geometrically in
the degree.  One Gauss-Jacobi rule of that weight, ``_EXTRA_NODES`` nodes
past the degree, takes every integral; the weight stays integrable down to
a = 1/2, the wall of the -1/4 collapse threshold.

The basis is the orthonormal polynomials of the weight x^(2a) y^(2b),
``specfun._orthonormal_rows`` of the t-form of its chain sequence
(``specfun._t_form``) at the nodes x + ih:
the real parts are p_k(x) and the imaginary parts h p_k'(x) to O(h^2) (the
complex step; Squire and Trapp, SIAM Rev. 40 (1998) 110), each then times
sqrt(w x y).  The mass matrix is formed on the same rule, not taken to be
the identity, so a defect in the chain changes only which basis of the
same polynomials the solve takes, never the levels.  Each level is
the Rayleigh quotient of an eigenvector of the Cholesky-reduced pencil: the
eigensolver's values carry eps times the pencil's norm, which grows like
the fourth power of the degree, while the quotients of the low, smooth
vectors do not: at 101 levels of PT(1, 0.5) on Pi3 at tau 50 the values
miss by up to 2e-9 relative at degrees 197 to 389, the quotients by 4e-14.

Where both wall exponents exceed ``_WIDE_WALL`` and differ by more than
``_WALL_RATIO`` times, the weight x^(2a) y^(2b) of the wall exponents peaks
far from the well's minimum, and u would have to carry the difference
(Poschl-Teller at small tau).  There (a, b) put the weight's peak at the
minimum with the width of the ground state of the well's harmonic
approximation, scaled down where that would pass (s_lo, s_hi).

Each level's round-off is two terms: eps times the size of the terms of
V - g''/g that cancel, weighted by the level's state, and 8.3 eps E_top
per degree for the pencil.  Where the first passes ``_AGREE`` of
max(|E|, 1) (the wall exponents of a well near tau = 0 are in the
millions), the well is too narrow for the oracle.  The degree starts at
count + ``_STEP`` and grows by ``_STEP``, or by an eighth where that is
more, until two degrees agree to ``_AGREE`` of max(|E|, 1) plus that
round-off on every level, and each error estimate is the last difference
plus the round-off.  The first two degrees share the second's rule, basis
and Cholesky factor: the inverse factor is lower triangular, so the first
degree's reduced pencil is the leading block of the second's, and by
Cauchy interlacing no level of the first lies below the second's, so the
first difference is one-signed up to round-off.  Every later degree takes
a rule of its own.  Everything is computed from V alone, never seeded
from the closed forms, keeping the check independent of what it
validates: this module takes nothing from the package but ``errors`` and
the Gauss-Jacobi rule, chain sequence, its t-form matrix and orthonormal
rows of ``specfun``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ParameterError
from .specfun import _jacobi_chain, _orthonormal_rows, _t_form, gauss_jacobi

__all__ = ["SpectrumResult", "spectral_eigenvalues"]

# The degree grows from count + _STEP in steps of _STEP, or of an eighth
# of the degree past 192, to no more than _MAX_DEGREE, until two degrees
# agree to _AGREE of max(|E|, 1) plus the round-off
_STEP = 24
_MAX_DEGREE = 2048
_AGREE = 1e-9
# nodes of the rule past the degree
_EXTRA_NODES = 20
# the gauge follows the well's minimum where both wall exponents exceed
# _WIDE_WALL and one exceeds _WALL_RATIO times the other; the minimum is
# placed on _GAUGE_SAMPLES uniform points
_WIDE_WALL = 5.0
_WALL_RATIO = 4.0
_GAUGE_SAMPLES = 1024
# the basis's complex step, a power of two so that dividing by it is exact
_COMPLEX_STEP = 2.0 ** -70
_EPS = float(np.finfo(float).eps)


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    # the degree of every solve, the last one's values the eigenvalues
    degrees: tuple[int, ...]
    # each degree's values
    raw: list[np.ndarray]
    error_estimates: np.ndarray
    wall_exponents: tuple[float, float]


def _wall_gammas(V, lo, hi):
    """Inverse-square coefficients of V at q_lo and q_hi, from V alone: one
    call on the points 1e-4 and 2e-4 of the span inside each wall."""
    d = np.array([1e-4, 2e-4]) * (hi - lo)
    g = np.asarray(V(np.concatenate([lo + d, hi - d])), dtype=float).reshape(2, 2) * d ** 2
    return [(4.0 * g1 - g2) / 3.0 for g1, g2 in g.tolist()]


def _wall_exponent(gamma):
    if not math.isfinite(gamma):
        raise ConvergenceFailure(f"wall coefficient {gamma} is not finite")
    disc = 1.0 + 4.0 * gamma
    if disc < 0:
        raise ConvergenceFailure(
            f"wall coefficient {gamma:.6g} below the -1/4 collapse threshold")
    return 0.5 * (1.0 + math.sqrt(disc))


def _gauge(V, lo, hi, s_lo, s_hi):
    """The gauge exponents (a, b): the wall exponents, or where those are
    both above ``_WIDE_WALL`` and apart by more than ``_WALL_RATIO`` times,
    the exponents whose weight x^(2a) y^(2b) peaks at the well's minimum
    x_m with the width of the ground state of its harmonic approximation
    V_m + kappa^2 (q - q_m)^2, |phi|^2 ~ exp(-kappa (q - q_m)^2).  The
    weight peaks at a / (a + b) with log-curvature (a + b)^3 / (a b) in x,
    so a + b = kappa L^2 x_m y_m, scaled down to keep a <= s_lo and
    b <= s_hi.  The minimum and its curvature come from a parabola through
    the least of ``_GAUGE_SAMPLES`` uniform samples of V and its
    neighbours."""
    if min(s_lo, s_hi) <= _WIDE_WALL or max(s_lo, s_hi) <= _WALL_RATIO * min(s_lo, s_hi):
        return s_lo, s_hi
    span = hi - lo
    x = np.linspace(0.0, 1.0, _GAUGE_SAMPLES + 1)[1:-1]
    v = np.asarray(V(lo + x * span), dtype=float)
    i = min(max(int(np.argmin(v)), 1), x.size - 2)
    h = x[1] - x[0]
    bend = v[i - 1] - 2.0 * v[i] + v[i + 1]
    xm = x[i] + 0.5 * h * (v[i - 1] - v[i + 1]) / bend
    # kappa L^2 = sqrt(V''/2) L^2, with V'' = bend / (h L)^2
    total = min(math.sqrt(0.5 * bend) / h * span * xm * (1.0 - xm),
                s_lo / xm, s_hi / (1.0 - xm))
    return xm * total, (1.0 - xm) * total


def _ritz(V, lo, hi, a, b, degrees, count):
    """For each of the ascending ``degrees``, the lowest ``count`` Ritz
    values of the ground-state form over the polynomials p_0 ... p_(degree-1)
    in the gauge x^a y^b, as Rayleigh quotients of the reduced pencil's
    eigenvectors, and the round-off of each: eps times the level's mean of
    |V| and of the terms of g''/g, whose difference is the potential of the
    form.  The rule, the basis and the Cholesky factor are those of the last
    degree; the inverse factor is lower triangular, so an earlier degree's
    reduced pencil is the leading block of the last one's.  Each matrix is
    dropped once the solves have used it."""
    degree = degrees[-1]
    span = hi - lo
    nodes, w = gauss_jacobi(degree + _EXTRA_NODES, 2.0 * b - 1.0, 2.0 * a - 1.0)
    x, y = 0.5 * (1.0 + nodes), 0.5 * (1.0 - nodes)
    v = np.asarray(V(np.where(x <= y, lo + x * span, hi - y * span)), dtype=float)
    # g''/g = (a(a-1)/x^2 + b(b-1)/y^2 - 2ab/(xy)) / L^2
    terms = np.array([a * (a - 1.0) / (x * x), b * (b - 1.0) / (y * y),
                      -2.0 * a * b / (x * y)]) / span ** 2
    rows = np.empty((degree, x.size), dtype=complex)
    matrix = _t_form(*_jacobi_chain(degree, 2.0 * b, 2.0 * a))
    for k, row in enumerate(_orthonormal_rows(x + 1j * _COMPLEX_STEP, *matrix)):
        rows[k] = row
    scale = np.sqrt(w * x * y)
    dp = rows.imag / _COMPLEX_STEP * scale
    pencil = dp @ dp.T / span ** 2
    del dp
    p = rows.real * scale
    del rows
    try:
        factor = np.linalg.inv(np.linalg.cholesky(p @ p.T))
    except np.linalg.LinAlgError:
        raise ConvergenceFailure(
            f"the mass matrix of degree {degree} is not positive definite") from None
    pencil += (p * (v - terms.sum(axis=0))) @ p.T
    pencil = factor @ pencil @ factor.T
    size = np.abs(v) + np.abs(terms).sum(axis=0)
    out = []
    for d in degrees:
        block = pencil[:d, :d]
        vectors = np.linalg.eigh(block)[1][:, :count]
        states = (factor[:d].T @ vectors).T @ p
        out.append((np.einsum("ij,ij->j", vectors, block @ vectors),
                    _EPS * ((states * states) @ size)))
    return out


def _next_degree(degree):
    return degree + max(_STEP, degree // 8)


def spectral_eigenvalues(well, count: int) -> SpectrumResult:
    """Lowest ``count`` eigenvalues of -phi'' + V phi = E phi on the well,
    by Rayleigh-Ritz over polynomials of growing degree.

    ``well`` is anything with V and the finite ends q_lo < q_hi, such as
    ``solutions.PotentialSpec``; only those three attributes are read.  Both
    ends are Dirichlet walls, their inverse-square coefficients measured
    from V (zero at a regular wall).  The module docstring gives the
    method, the degrees and the error estimates.  The first two degrees
    come from one solve, the first a leading block of the second, so
    ``raw[0]`` lies above ``raw[1]`` up to round-off; every later degree is
    solved on its own.  ConvergenceFailure is
    raised where the degrees do not agree by ``_MAX_DEGREE`` or round-off
    passes ``_AGREE``.
    """
    lo, hi, V = well.q_lo, well.q_hi, well.V
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ParameterError("q domain must be a finite nonempty interval")
    if count < 1:
        raise ParameterError("count must be positive")
    second = _next_degree(count + _STEP)
    if second > _MAX_DEGREE:
        raise ParameterError(
            f"{count} levels need degree {second}, above the limit of {_MAX_DEGREE}")
    s_lo, s_hi = (_wall_exponent(gamma) for gamma in _wall_gammas(V, lo, hi))
    a, b = _gauge(V, lo, hi, s_lo, s_hi)
    degrees, raw = [], []
    # the first two degrees share one rule, basis and factor
    sizes = (count + _STEP, second)
    while sizes[-1] <= _MAX_DEGREE:
        for degree, (values, roundoff) in zip(sizes, _ritz(V, lo, hi, a, b, sizes, count)):
            scale = _AGREE * np.maximum(np.abs(values), 1.0)
            if np.any(roundoff > scale):
                raise ConvergenceFailure(
                    "the well is too narrow: round-off in V - g''/g reaches "
                    f"{np.max(roundoff / scale) * _AGREE:.3g} of max(|E|, 1), above {_AGREE:g}")
            degrees.append(degree)
            raw.append(values)
            # the pencil's round-off, which no degree removes
            roundoff += 8.3 * _EPS * float(np.max(np.abs(values))) * degree
        if np.all(np.abs(raw[-1] - raw[-2]) <= scale + roundoff):
            break
        sizes = (_next_degree(degrees[-1]),)
    else:
        raise ConvergenceFailure(f"the levels have not converged at degree {degrees[-1]}")
    err = np.abs(raw[-1] - raw[-2]) + roundoff
    return SpectrumResult(eigenvalues=values, degrees=tuple(degrees), raw=raw,
                          error_estimates=err, wall_exponents=(s_lo, s_hi))
