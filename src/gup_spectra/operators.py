"""Momentum-space operator actions for the five representations.

X acts through the canonical x = i*hbar*d/dp on samples p_k = phi(t_k) of a
map from a variable t sampled uniformly: d/dp = phi'(t)^(-1) d/dt.  The
caller passes each sample's width dp_k = phi'(t_k) h (h the t spacing), which
is also its quadrature weight, and fixes the method of d/dt: trigonometric
(FFT) differentiation where the mapped samples decay at both ends of t, and
order-8 differences otherwise (one-sided stencils near the ends).  A uniform
grid is the identity map (``identity_map``).  P acts multiplicatively
everywhere.
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
    "identity_map",
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


def spectral_derivative(values: np.ndarray) -> np.ndarray:
    """Trigonometric first derivative in the sample index (unit spacing)."""
    k = 2j * np.pi * np.fft.fftfreq(len(values))
    return np.fft.ifft(k * np.fft.fft(values))


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


def _derivative(values, dp, periodic):
    """d/dp of samples whose widths are ``dp``: d/dk in the sample index k,
    by FFT when ``periodic`` and by order-8 differences otherwise, over dp."""
    v = np.asarray(values, dtype=complex)
    return (spectral_derivative(v) if periodic else fd_derivative(v)) / dp


def identity_map(grid: np.ndarray, psi: np.ndarray) -> tuple[float, bool]:
    """(dp, periodic) of a uniform grid, the identity map t = p, for ``psi``:
    FFT where psi decays at both grid ends, order-8 differences otherwise."""
    v = np.abs(np.asarray(psi))
    periodic = bool(max(v[0], v[-1]) <= 1e-13 * max(np.max(v), 1e-300))
    return float(grid[1] - grid[0]), periodic


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
            psi: np.ndarray, grid: np.ndarray, dp, periodic: bool) -> np.ndarray:
    """X psi on the sample grid, in the operator order fixed by the algebra.

    ``dp`` is each sample's width phi'(t_k) h on the map that placed the
    samples, and ``periodic`` selects FFT over order-8 differences in t
    (module docstring).  Pi4 multiplies by u = (1 + tc p^2)^(1/2) first and
    differentiates after; the reversed order fails the commutation relation.
    """
    _check_grid(rep, params, grid)
    hbar = params.hbar
    tc = params.tau_check
    p = np.asarray(grid, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    u2 = 1 + tc * p ** 2

    def d(values):
        return _derivative(values, dp, periodic)

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
                        psi: np.ndarray, grid: np.ndarray,
                        reference_sign: int | None = None) -> float:
    """Relative L2 residual of (XP - PX) psi against i*hbar*(1 +/- tc P^2) psi.

    The reference sign defaults to +1 for Pi1..Pi4 and to -1 for Pi4', which
    realizes the sign-flipped relation.  Passing the opposite sign measures
    the size of the violation instead.  The grid is uniform: the identity
    map, with the derivative method ``identity_map`` picks for psi.
    """
    if reference_sign is None:
        reference_sign = -1 if rep is Representation.PI4_PRIME else +1
    ident = identity_map(grid, psi)
    xp = apply_X(rep, params, apply_P(rep, params, psi, grid), grid, *ident)
    px = apply_P(rep, params, apply_X(rep, params, psi, grid, *ident), grid)
    p2 = apply_P(rep, params, apply_P(rep, params, psi, grid), grid)
    ref = 1j * params.hbar * (np.asarray(psi, dtype=complex)
                              + reference_sign * params.tau_check * p2)
    num = np.linalg.norm(xp - px - ref)
    den = np.linalg.norm(psi)
    return float(num / den)

