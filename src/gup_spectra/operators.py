"""Momentum-space operator actions for the five representations.

X and P act as the representation's entry of ``algebra.REALIZATIONS`` says:
X = i*hbar*(a(y) d/dy + b(y)) and P = P(y) on the stored coordinate y, which
is p, or s on the Pi4 segment p = i*s.  ``fields`` evaluates that entry on
a grid once, and ``x_action`` applies X from it.  Every grid is
``mapped_grid``'s: samples y_k = phi(t_k) of a map from a variable t
sampled uniformly, with widths dp_k = phi'(t_k) h (h the t spacing), which
are also the quadrature weights.  d/dy is phi'(t)^(-1) d/dt, with d/dt by
order-8 differences (one-sided stencils near the ends).
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import REALIZATIONS, DeformationParams, Representation, p_domain

__all__ = [
    "line_map",
    "mapped_grid",
    "default_grid",
    "fd_derivative",
    "fields",
    "x_action",
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


def _derivative(v: np.ndarray) -> np.ndarray:
    """``fd_derivative`` of real samples."""
    n = len(v)
    out = np.empty(n)
    out[4:n - 4] = np.convolve(v, _CENTRAL8[::-1], mode="valid")
    out[:4] = _EDGE8 @ v[:9]
    out[n - 4:] = -(_EDGE8 @ v[n - 9:][::-1])[::-1]
    return out


def fd_derivative(values: np.ndarray) -> np.ndarray:
    """Order-8 first derivative in the sample index (unit spacing); shifted
    stencils within 4 samples of the ends.  The result is complex; the real
    and imaginary parts of the samples are differentiated as two float
    arrays, which is faster than one complex convolution and differs from
    it by round-off only."""
    v = np.asarray(values)
    if len(v) < 9:
        raise ValueError("need at least 9 samples for the order-8 stencil")
    out = np.empty(len(v), dtype=complex)
    out.real = _derivative(v.real)
    out.imag = _derivative(v.imag) if np.iscomplexobj(v) else 0.0
    return out


def fields(rep: Representation, params: DeformationParams, grid: np.ndarray):
    """X's coefficients (i hbar a, i hbar b) and P's multiplier P(y), as
    complex values, on a grid checked against ``p_domain``.

    a and b = beta a' come from ``REALIZATIONS``, with b None where
    beta = 0.  X psi is ``x_action`` on the coefficients and P psi the
    product with the multiplier, so a caller that applies X and P many times
    on one grid evaluates them once.
    """
    p_domain(rep, params).check(grid)
    entry, y, tc = REALIZATIONS[rep], np.asarray(grid, dtype=float), params.tau_check
    ihbar = 1j * params.hbar
    a, da = entry.x_fields(y, tc)
    p, _ = entry.p_fields(y, tc)
    return ((a * ihbar, entry.beta * da * ihbar if entry.beta else None),
            np.asarray(p, dtype=complex))


def x_action(coefficients, psi: np.ndarray, dp) -> np.ndarray:
    """X psi = i hbar a psi' + i hbar b psi from ``fields``'s coefficients
    (i hbar a, i hbar b) and the sample widths ``dp``: each sample's width
    phi'(t_k) h on the map that placed the samples (module docstring)."""
    ia, ib = coefficients
    psi = np.asarray(psi, dtype=complex)
    out = ia * (fd_derivative(psi) / dp)
    return out if ib is None else out + ib * psi


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
    x, p = fields(rep, params, grid)
    psi_c = np.asarray(psi, dtype=complex)
    p_psi = p * psi_c
    xp = x_action(x, p_psi, dp)
    px = p * x_action(x, psi_c, dp)
    ref = 1j * params.hbar * (psi_c + reference_sign * params.tau_check * (p * p_psi))
    num = np.sqrt(np.sum(np.abs(xp - px - ref) ** 2 * dp))
    den = np.sqrt(np.sum(np.abs(psi) ** 2 * dp))
    return float(num / den)
