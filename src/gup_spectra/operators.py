"""Momentum-space operator actions for the five representations.

Every grid is ``mapped_grid``'s: samples p_k = phi(t_k) of a map from a
variable t sampled uniformly, with widths dp_k = phi'(t_k) h (h the t
spacing), which are also the quadrature weights.  X acts through the
canonical x = i*hbar*d/dp = i*hbar*phi'(t)^(-1) d/dt, with d/dt by order-8
differences (one-sided stencils near the ends).  P acts multiplicatively
everywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import DeformationParams, Representation, p_domain
from .errors import DomainMismatch

__all__ = [
    "line_map",
    "mapped_grid",
    "default_grid",
    "fd_derivative",
    "apply_X",
    "apply_P",
    "commutator_residual",
]

# |u| of a line's map: e^40 = 2.4e17 reaches past the power-law tails of a
# line's states
LINE_REACH = 40.0


def line_map(L: float):
    """phi(u) of the sinh map p = L sinh u: (p, dp/du)."""
    return lambda u: (L * np.sinh(u), L * np.cosh(u))


def mapped_grid(phi, u0: float, a: float, reach: float, n: int):
    """(p, dp): ``n`` samples p_k = phi(u_k) and their widths.

    The u_k = u0 + a sinh t_k come from midpoints t_k uniform in t, and |u|
    stops at ``reach``; phi(u) gives p and dp/du.  With phi itself a sinh,
    exp or tanh of u, this is a double-exponential map (Takahasi & Mori,
    Publ. RIMS 9 (1974) 721): a state that vanishes like a power of the
    distance at a wall, or decays like a power of p toward infinity, is
    smooth in t and decays double-exponentially at both ends of the t-range,
    so the sum over the widths dp_k = phi'(t_k) h converges geometrically in
    the count (Boyd, Chebyshev and Fourier Spectral Methods, 2001,
    ch. 16-17).
    """
    t0, t1 = math.asinh((-reach - u0) / a), math.asinh((reach - u0) / a)
    h = (t1 - t0) / n
    t = t0 + (np.arange(n) + 0.5) * h
    p, dpdu = phi(u0 + a * np.sinh(t))
    return p, dpdu * (a * h) * np.cosh(t)


def default_grid(rep: Representation, params: DeformationParams):
    """(p, dp) for operator tests on the given representation: 2048 samples
    of the sinh-sinh map, over the inner 76% of a finite domain."""
    dom = p_domain(rep, params)
    reach = math.asinh(0.76 * dom.hi) if dom.finite else LINE_REACH
    return mapped_grid(line_map(1.0), 0.0, 1.0, reach, 2048)


def _stencil(offsets):
    """First-derivative weights for the given integer offsets (unit spacing)."""
    m = len(offsets)
    a = np.vander(np.asarray(offsets, dtype=float), m, increasing=True).T
    rhs = np.zeros(m)
    rhs[1] = 1.0
    return np.linalg.solve(a, rhs)


_CENTRAL8 = _stencil(range(-4, 5))
_EDGE8 = np.array([_stencil(range(-i, 9 - i)) for i in range(4)])


def fd_derivative(values: np.ndarray) -> np.ndarray:
    """Order-8 first derivative in the sample index (unit spacing); shifted
    stencils within 4 samples of the ends."""
    v = np.asarray(values)
    n = len(v)
    if n < 9:
        raise ValueError("need at least 9 samples for the order-8 stencil")
    out = np.empty_like(v, dtype=complex)
    out[4:n - 4] = np.convolve(v, _CENTRAL8[::-1], mode="valid")
    out[:4] = _EDGE8 @ v[:9]
    out[n - 4:] = -(_EDGE8 @ v[n - 9:][::-1])[::-1]
    return out


def _check_grid(rep, params, grid):
    dom = p_domain(rep, params)
    if rep is Representation.PI4:
        # operator expressions are real-analytic; actions are exercised on
        # the real line regardless of the segment domain
        return
    if dom.finite and not dom.contains(grid):
        raise DomainMismatch(
            f"grid [{grid.min():.6g}, {grid.max():.6g}] leaves the {rep.value} "
            f"domain ({dom.lo:.6g}, {dom.hi:.6g})"
        )


def apply_P(rep: Representation, params: DeformationParams,
            psi: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """P psi on the sample grid; multiplicative in every representation."""
    _check_grid(rep, params, grid)
    tc = params.tau_check
    p = np.asarray(grid, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    if rep in (Representation.PI1, Representation.PI2):
        return p * psi
    if rep is Representation.PI3:
        if tc == 0.0:
            return p * psi
        stc = math.sqrt(tc)
        return np.tan(stc * p) / stc * psi
    u = np.sqrt(1 + tc * p ** 2)
    if rep is Representation.PI4:
        return -1j * p / u * psi
    if rep is Representation.PI4_PRIME:
        return p / u * psi
    raise DomainMismatch(f"unknown representation {rep}")


def apply_X(rep: Representation, params: DeformationParams,
            psi: np.ndarray, grid: np.ndarray, dp) -> np.ndarray:
    """X psi on the sample grid, in the operator order fixed by the algebra.

    ``dp`` is each sample's width phi'(t_k) h on the map that placed the
    samples (module docstring).  Pi4 multiplies by u = (1 + tc p^2)^(1/2)
    first and differentiates after; the reversed order fails the commutation
    relation.
    """
    _check_grid(rep, params, grid)
    hbar = params.hbar
    tc = params.tau_check
    p = np.asarray(grid, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    u2 = 1 + tc * p ** 2

    def d(values):
        return fd_derivative(np.asarray(values, dtype=complex)) / dp

    if rep is Representation.PI1:
        return u2 * (1j * hbar) * d(psi)
    if rep is Representation.PI2:
        u = np.sqrt(u2)
        return u * (1j * hbar) * d(u * psi)
    if rep is Representation.PI3:
        return 1j * hbar * d(psi)
    if rep is Representation.PI4:
        return -hbar * d(np.sqrt(u2) * psi)
    if rep is Representation.PI4_PRIME:
        return 1j * hbar * d(np.sqrt(u2) * psi)
    raise DomainMismatch(f"unknown representation {rep}")


def commutator_residual(rep: Representation, params: DeformationParams,
                        psi: np.ndarray, grid: np.ndarray, dp,
                        reference_sign: int | None = None) -> float:
    """Relative L2 residual of (XP - PX) psi against i*hbar*(1 +/- tc P^2) psi,
    both norms weighted by the sample widths ``dp``.

    The reference sign defaults to +1 for Pi1..Pi4 and to -1 for Pi4', which
    realizes the sign-flipped relation.  Passing the opposite sign measures
    the size of the violation instead.
    """
    if reference_sign is None:
        reference_sign = -1 if rep is Representation.PI4_PRIME else +1
    xp = apply_X(rep, params, apply_P(rep, params, psi, grid), grid, dp)
    px = apply_P(rep, params, apply_X(rep, params, psi, grid, dp), grid)
    p2 = apply_P(rep, params, apply_P(rep, params, psi, grid), grid)
    ref = 1j * params.hbar * (np.asarray(psi, dtype=complex)
                              + reference_sign * params.tau_check * p2)
    num = np.sqrt(np.sum(np.abs(xp - px - ref) ** 2 * dp))
    den = np.sqrt(np.sum(np.abs(psi) ** 2 * dp))
    return float(num / den)
