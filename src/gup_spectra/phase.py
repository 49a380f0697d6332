"""Reality / broken-symmetry phase analysis for the solvable models.

For the Swanson model the spectrum is real exactly when the discriminant

    D(alpha, beta, tau) = 4 (hw^2 - 4 alpha beta) + tau Omega (tau Omega - 4 hw),
    Omega = alpha + beta + hw,

is nonnegative; D = 0 is the exceptional-point locus.  ``boundary_beta``
solves D = 0 for beta at fixed alpha (a quadratic for tau > 0, linear at
tau = 0), and ``scan`` traces the boundary curves over an alpha window for a
list of tau values.  For the inverse-square model reality holds on the open
quadrant alpha > -tau/4, beta > -tau^2/4.  Both tests are declared with the
models in ``algebra``; this module re-exports them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import DeformationParams, discriminant, pt_model_reality
from .errors import NoRoot, ParameterError

__all__ = [
    "PhaseQuery",
    "PhaseCurve",
    "discriminant",
    "boundary_beta",
    "pt_model_reality",
    "scan",
]

_BOUNDARY_TOL = 1e-9


def _refine_root(alpha, tau, params, beta, tol=_BOUNDARY_TOL):
    """Newton polish of D(beta) = 0 with a derivative in closed form; None
    when |D| < tol is out of reach."""
    hw = params.hbar * params.omega
    for _ in range(60):
        d = discriminant(alpha, beta, tau, params)
        if abs(d) < tol:
            return beta
        omega_big = alpha + beta + hw
        slope = -16.0 * alpha + 2.0 * tau ** 2 * omega_big - 4.0 * tau * hw
        if slope == 0.0:
            break
        beta -= d / slope
    d = discriminant(alpha, beta, tau, params)
    return beta if abs(d) < tol else None


def boundary_beta(alpha: float, tau: float,
                  params: DeformationParams | None = None) -> list[float]:
    """Real beta roots of D(alpha, beta, tau) = 0 with Omega > 0, ascending.

    tau = 0 reduces to the hyperbola alpha * beta = hw^2 / 4.  For tau > 0
    the quadratic is solved with the cancellation-stable formulation and each
    root is polished on its own until |D| < 1e-9.  A root that does not get
    there is left out, and NoRoot is raised when no root with Omega > 0 is
    left, so the list is never empty.
    """
    params = params or DeformationParams()
    hw = params.hbar * params.omega
    if tau < 0:
        raise ParameterError("tau must be >= 0")
    if tau == 0.0:
        if alpha == 0.0:
            raise NoRoot("no finite boundary at alpha = 0, tau = 0")
        beta = hw ** 2 / (4.0 * alpha)
        if alpha + beta + hw <= 0:
            raise NoRoot("boundary root violates Omega > 0")
        return [beta]
    s = alpha + hw
    a_q = tau ** 2
    b_q = 2.0 * tau ** 2 * s - 4.0 * tau * hw - 16.0 * alpha
    c_q = (tau * s - 2.0 * hw) ** 2
    disc = b_q ** 2 - 4.0 * a_q * c_q
    if disc < 0:
        raise NoRoot(f"D > 0 for all beta at alpha={alpha}, tau={tau}")
    sq = math.sqrt(disc)
    qq = -0.5 * (b_q + math.copysign(sq, b_q))
    cand = [qq / a_q]
    if qq != 0.0:
        cand.append(c_q / qq)
    roots = [_refine_root(alpha, tau, params, r) for r in cand if alpha + r + hw > 0]
    roots = [r for r in roots if r is not None]
    if not roots:
        raise NoRoot(f"no polished boundary root with Omega > 0 at alpha={alpha}, "
                     f"tau={tau}")
    return sorted(set(round(r, 15) for r in roots))


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
        if any(t < 0 for t in self.tau_list):
            raise ParameterError("tau values must be >= 0")


@dataclass
class PhaseCurve:
    """Lower boundary branch beta(alpha) for one tau.

    Points above the curve have broken symmetry (complex pairs); points below
    are unbroken.  ``monotone`` records the in-window consistency check.
    """

    tau: float
    points: list[tuple[float, float]] = field(default_factory=list)
    region_above: str = "broken"
    region_below: str = "unbroken"
    branch: str = "lower"
    monotone: bool = True


def scan(query: PhaseQuery) -> list[PhaseCurve]:
    """Boundary curves over the alpha window, lower-beta branch per tau."""
    curves = []
    alphas = np.linspace(query.alpha_lo, query.alpha_hi, query.alpha_steps)
    for tau in query.tau_list:
        curve = PhaseCurve(tau=tau)
        for a in alphas:
            try:
                roots = boundary_beta(float(a), float(tau), query.params)
            except NoRoot:
                continue
            beta = roots[0]
            if abs(discriminant(float(a), beta, float(tau), query.params)) >= _BOUNDARY_TOL:
                raise NoRoot(f"emitted point failed re-verification at alpha={a}")
            curve.points.append((float(a), float(beta)))
        if curve.points:
            betas = [b for _, b in curve.points]
            curve.monotone = bool(np.all(np.diff(betas) <= 1e-12)
                                  or np.all(np.diff(betas) >= -1e-12))
        curves.append(curve)
    return curves
