"""Momentum-space operator actions for the five representations.

X acts through the canonical x = i*hbar*d/dp, realized numerically by
trigonometric (FFT) differentiation when the samples decay at the grid ends
and by order-8 central differences otherwise (finite intervals keep the
one-sided stencils near the edges).  P acts multiplicatively everywhere.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import DeformationParams, Representation, p_domain
from .errors import DomainMismatch

__all__ = [
    "uniform_grid",
    "default_grid",
    "spectral_derivative",
    "fd_derivative",
    "apply_X",
    "apply_P",
    "commutator_residual",
]


def uniform_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """Endpoint-exclusive uniform grid compatible with periodic FFT derivatives."""
    return np.linspace(lo, hi, n, endpoint=False)


def default_grid(rep: Representation, params: DeformationParams,
                 n: int = 2048) -> np.ndarray:
    """A sensible sampling grid for operator tests on the given representation:
    the inner 76% of a finite domain, else [-12, 12)."""
    dom = p_domain(rep, params)
    if dom.finite:
        margin = 0.12 * (dom.hi - dom.lo)
        return uniform_grid(dom.lo + margin, dom.hi - margin, n)
    return uniform_grid(-12.0, 12.0, n)


def spectral_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    n = len(values)
    k = 2j * np.pi * np.fft.fftfreq(n, d=dx)
    return np.fft.ifft(k * np.fft.fft(values))


def _stencil(offsets):
    """First-derivative weights for the given integer offsets (unit spacing)."""
    m = len(offsets)
    a = np.vander(np.asarray(offsets, dtype=float), m, increasing=True).T
    rhs = np.zeros(m)
    rhs[1] = 1.0
    return np.linalg.solve(a, rhs)


_CENTRAL8 = _stencil(range(-4, 5))
_EDGE8 = [_stencil(range(-i, 9 - i)) for i in range(4)]


def fd_derivative(values: np.ndarray, dx: float) -> np.ndarray:
    """Order-8 first derivative; shifted stencils within 4 points of the ends."""
    v = np.asarray(values)
    n = len(v)
    if n < 9:
        raise ValueError("need at least 9 samples for the order-8 stencil")
    out = np.empty_like(v, dtype=complex)
    core = np.convolve(v, _CENTRAL8[::-1], mode="valid")
    out[4:n - 4] = core
    for i in range(4):
        out[i] = np.dot(_EDGE8[i], v[:9])
        out[n - 1 - i] = -np.dot(_EDGE8[i], v[n - 9:][::-1])
    return out / dx


def _derivative(values, grid):
    dx = grid[1] - grid[0]
    v = np.asarray(values, dtype=complex)
    edge = max(abs(v[0]), abs(v[-1]))
    if edge <= 1e-13 * max(np.max(np.abs(v)), 1e-300):
        return spectral_derivative(v, dx)
    return fd_derivative(v, dx)


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
            psi: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """X psi on the sample grid, in the operator order fixed by the algebra.

    Pi4 multiplies by u = (1 + tc p^2)^(1/2) first and differentiates after;
    the reversed order fails the commutation relation.
    """
    _check_grid(rep, params, grid)
    hbar = params.hbar
    tc = params.tau_check
    p = np.asarray(grid, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    u2 = 1 + tc * p ** 2
    if rep is Representation.PI1:
        return u2 * (1j * hbar) * _derivative(psi, grid)
    if rep is Representation.PI2:
        u = np.sqrt(u2)
        return u * (1j * hbar) * _derivative(u * psi, grid)
    if rep is Representation.PI3:
        return 1j * hbar * _derivative(psi, grid)
    if rep is Representation.PI4:
        return -hbar * _derivative(np.sqrt(u2) * psi, grid)
    if rep is Representation.PI4_PRIME:
        return 1j * hbar * _derivative(np.sqrt(u2) * psi, grid)
    raise DomainMismatch(f"unknown representation {rep}")


def commutator_residual(rep: Representation, params: DeformationParams,
                        psi: np.ndarray, grid: np.ndarray,
                        reference_sign: int | None = None) -> float:
    """Relative L2 residual of (XP - PX) psi against i*hbar*(1 +/- tc P^2) psi.

    The reference sign defaults to +1 for Pi1..Pi4 and to -1 for Pi4', which
    realizes the sign-flipped relation.  Passing the opposite sign measures
    the size of the violation instead.
    """
    if reference_sign is None:
        reference_sign = -1 if rep is Representation.PI4_PRIME else +1
    xp = apply_X(rep, params, apply_P(rep, params, psi, grid), grid)
    px = apply_P(rep, params, apply_X(rep, params, psi, grid), grid)
    p2 = apply_P(rep, params, apply_P(rep, params, psi, grid), grid)
    ref = 1j * params.hbar * (np.asarray(psi, dtype=complex)
                              + reference_sign * params.tau_check * p2)
    num = np.linalg.norm(xp - px - ref)
    den = np.linalg.norm(psi)
    return float(num / den)

