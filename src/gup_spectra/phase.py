"""Reality / broken-symmetry phase analysis for the solvable models.

For the Swanson model the spectrum is real exactly when the discriminant

    D(alpha, beta, tau) = 4 (hw^2 - 4 alpha beta) + tau Omega (tau Omega - 4 hw),
    Omega = alpha + beta + hw,

is nonnegative; D = 0 is the exceptional-point locus.  One kernel solves
D = 0 for beta over a whole array of alpha at fixed tau (a quadratic for
tau > 0, linear at tau = 0) and Newton-polishes every root at once, each
element leaving the iteration when it converges.  ``scan`` calls it once per
tau to trace the boundary curves over an alpha window, and is its one
caller.  For the inverse-square model reality holds on the open
quadrant alpha > -tau/4, beta > -tau^2/4.  Both tests are declared with the
models in ``algebra``; this module re-exports them.

The kernel repeats the scalar arithmetic operation for operation, so every
root is the float the per-alpha loop computed.  The two squares in the
quadratic stay libm's ``pow`` (``np.float_power``): numpy's square is
correctly rounded and ``pow`` not always, so the two can differ in the last
bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .algebra import _TAU_MIN, DeformationParams, discriminant, pt_model_reality
from .errors import NoRoot, ParameterError

__all__ = [
    "PhaseQuery",
    "PhaseCurve",
    "discriminant",
    "pt_model_reality",
    "scan",
]

_BOUNDARY_TOL = 1e-9
_NEWTON_STEPS = 60
# longest cycle of Newton iterates detected; the boundary roots past the
# reach of |D| < 1e-9 cycle with periods 2 to 4
_CYCLE = 4
# outside [_TAU_MIN, _TAU_MAX], tau^2 (the leading coefficient in beta)
# underflows or overflows
_TAU_MAX = math.sqrt(sys.float_info.max)


def _check_tau(tau):
    if not tau >= 0:
        raise ParameterError("tau must be >= 0")
    if 0.0 < tau < _TAU_MIN:
        raise ParameterError(f"tau = {tau!r} is too small: tau^2 underflows; "
                             "use tau = 0 for the undeformed boundary")
    if tau > _TAU_MAX:
        raise ParameterError(f"tau = {tau!r} is too large: tau^2 overflows")


def _squares(x: np.ndarray) -> np.ndarray:
    """x ** 2 per element by libm ``pow``, as the scalar loop's ``**`` took
    it; a quadratic whose squares overflow has no representable boundary."""
    try:
        with np.errstate(over="raise"):
            return np.float_power(x, 2.0)
    except FloatingPointError:
        raise ParameterError("the boundary quadratic overflows double precision "
                             "at this tau and alpha window") from None


def _polish(alpha, beta, tau, params):
    """Newton polish of D(beta) = 0 per element, with the derivative in closed
    form; NaN where |D| < 1e-9 is out of reach or the slope vanishes.

    The iteration is deterministic, so an element whose beta comes back to
    one of its last _CYCLE values repeats that cycle for good without
    converging; it leaves at once as NaN."""
    hw = params.hbar * params.omega
    out = np.full(beta.shape, np.nan)
    live = np.arange(beta.size)
    seen = np.full((_CYCLE, beta.size), np.nan)
    for step in range(_NEWTON_STEPS + 1):
        d = discriminant(alpha, beta, tau, params)
        done = np.abs(d) < _BOUNDARY_TOL
        out[live[done]] = beta[done]
        if step == _NEWTON_STEPS:
            break
        slope = -16.0 * alpha + 2.0 * tau ** 2 * (alpha + beta + hw) - 4.0 * tau * hw
        go = ~done & (slope != 0.0) & ~(seen == beta).any(axis=0)
        if not go.any():
            break
        live, alpha, beta, d, slope = live[go], alpha[go], beta[go], d[go], slope[go]
        seen = np.vstack((seen[1:, go], beta))
        beta = beta - d / slope
    return out


def _boundary_roots(alpha: np.ndarray, tau: float, params: DeformationParams):
    """Roots beta of D(alpha, beta, tau) = 0 for every alpha at once.

    Returns (roots, real).  ``roots`` has shape (2, len(alpha)): the
    candidates q / tau^2 and c / q of the cancellation-stable quadratic
    formula, each kept where Omega > 0 and the polish converges and NaN
    elsewhere (tau = 0 has the one hyperbola root alpha * beta = hw^2 / 4,
    unpolished).  ``real`` is False where D = 0 has no real root in beta.
    """
    hw = params.hbar * params.omega
    roots = np.full((2, alpha.size), np.nan)
    if tau == 0.0:
        real = alpha != 0.0
        at = np.flatnonzero(real)
        beta = hw ** 2 / (4.0 * alpha[at])
        omega_pos = alpha[at] + beta + hw > 0
        roots[0, at[omega_pos]] = beta[omega_pos]
        return roots, real
    s = alpha + hw
    a_q = tau ** 2
    b_q = 2.0 * tau ** 2 * s - 4.0 * tau * hw - 16.0 * alpha
    c_q = _squares(tau * s - 2.0 * hw)
    disc = _squares(b_q) - 4.0 * a_q * c_q
    real = ~(disc < 0)
    at = np.flatnonzero(real)
    b_q, c_q = b_q[at], c_q[at]
    qq = -0.5 * (b_q + np.copysign(np.sqrt(disc[at]), b_q))
    cand = np.full((2, at.size), np.nan)
    with np.errstate(over="ignore"):
        cand[0] = qq / a_q
    # a root past the double range is no root
    cand[0, np.isinf(cand[0])] = np.nan
    nonzero = qq != 0.0
    cand[1, nonzero] = c_q[nonzero] / qq[nonzero]
    alphas = np.broadcast_to(alpha[at], cand.shape)
    omega_pos = alphas + cand + hw > 0
    rows, cols = np.nonzero(omega_pos)
    roots[rows, at[cols]] = _polish(alphas[omega_pos], cand[omega_pos], tau, params)
    return roots, real


def _emitted(alpha, beta, tau, params):
    """Polished roots as emitted: rounded to 15 decimals, or left unrounded
    where the rounded root fails |D| < 1e-9.  At small tau |dD/dbeta| is
    about 16 |alpha|, so from alpha ~ 1e7 on a rounding of 5e-16 alone can
    move D by 1e-7."""
    rounded = np.array([round(b, 15) for b in beta.tolist()])
    ok = np.abs(discriminant(alpha, rounded, tau, params)) < _BOUNDARY_TOL
    return np.where(ok, rounded, beta)


@dataclass(frozen=True)
class PhaseQuery:
    params: DeformationParams
    alpha_lo: float
    alpha_hi: float
    alpha_steps: int
    tau_list: tuple[float, ...]

    def __post_init__(self):
        if not self.alpha_lo < self.alpha_hi:
            raise ParameterError("need alpha_lo < alpha_hi")
        if self.alpha_steps < 2:
            raise ParameterError("need at least 2 alpha samples")
        for tau in self.tau_list:
            _check_tau(tau)


@dataclass
class PhaseCurve:
    """Lower boundary branch beta(alpha) for one tau.

    Points above the curve have broken symmetry (complex pairs); points below
    are unbroken.  ``monotone`` records the in-window consistency check.
    """

    tau: float
    points: list[tuple[float, float]] = field(default_factory=list)
    monotone: bool = True


def scan(query: PhaseQuery) -> list[PhaseCurve]:
    """Boundary curves over the alpha window, lower-beta branch per tau.

    One kernel call per tau finds and polishes the roots of every alpha; an
    alpha without a root is left out.  Each emitted point is re-verified, and
    NoRoot is raised at the first one with |D| >= 1e-9.
    """
    curves = []
    alphas = np.linspace(query.alpha_lo, query.alpha_hi, query.alpha_steps)
    for tau in query.tau_list:
        curve = PhaseCurve(tau=tau)
        roots, _ = _boundary_roots(alphas, float(tau), query.params)
        # the lower root; on a tie the first candidate, as the per-alpha
        # loop's sorted set keeps it
        lower = np.where(np.isnan(roots[0]) | (roots[1] < roots[0]), roots[1], roots[0])
        kept = ~np.isnan(lower)
        alpha, beta = alphas[kept], lower[kept]
        if tau != 0.0:
            # every emitted root is within 5e-16 of its polished root, so
            # unless the two roots are closer than 1e-15 the emitted lower
            # root is the lowest one the per-alpha loop emits
            beta = _emitted(alpha, beta, float(tau), query.params)
        bad = np.abs(discriminant(alpha, beta, float(tau), query.params)) >= _BOUNDARY_TOL
        if bad.any():
            raise NoRoot(f"emitted point failed re-verification at "
                         f"alpha={float(alpha[bad.argmax()])}")
        curve.points = list(zip(alpha.tolist(), beta.tolist()))
        if curve.points:
            curve.monotone = bool(np.all(np.diff(beta) <= 1e-12)
                                  or np.all(np.diff(beta) >= -1e-12))
        curves.append(curve)
    return curves
