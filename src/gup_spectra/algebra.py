"""Deformed Heisenberg algebra: parameters, representations, models, ODE coefficients.

The commutator [X, P] = i*hbar*(1 + tau_check * P^2) admits several concrete
realizations in terms of the canonical pair (x, p) with x = i*hbar*d/dp acting
on momentum-space wavefunctions:

    Pi1:  X = (1 + tc p^2) x,                  P = p
    Pi2:  X = u x u,  u = (1 + tc p^2)^(1/2),  P = p
    Pi3:  X = x,                               P = tan(sqrt(tc) p)/sqrt(tc)
    Pi4:  X = i x u,                           P = -i p / u
    Pi4': X = x u,                             P = p / u

with tc = tau / (m * omega * hbar).  Pi4' satisfies the sign-flipped relation
[X, P] = i*hbar*(1 - tc P^2) instead and is kept as a diagnostic.

For each solvable model the momentum-space Schroedinger equation takes the
second-order form

    -f(p) psi'' + g(p) psi' + h(p) psi = E psi,

and ``coefficients`` returns the (f, g, h) triple together with the analytic
derivatives needed by the potential transform.  For Pi4 the natural domain is
the segment p = i*s with s real; the triple is returned in the real
parametrization s, on which f is positive and the transform machinery applies
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Union

import numpy as np

from .errors import (
    IntrinsicNoncommutativity,
    ParameterError,
    UnsupportedPair,
)

__all__ = [
    "DeformationParams",
    "Representation",
    "Domain",
    "MomentumAngle",
    "ANGLES",
    "HarmonicOscillator",
    "Swanson",
    "PoschlTeller",
    "ModelSpec",
    "FGHCoefficients",
    "p_domain",
    "angle_domain",
    "coefficients",
]


@dataclass(frozen=True)
class DeformationParams:
    """Physical constants and the dimensionless deformation strength.

    tau_check = tau / (mass * omega * hbar) carries dimension of an inverse
    squared momentum; tau itself is dimensionless.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    tau: float = 0.0

    def __post_init__(self):
        for name in ("hbar", "mass", "omega", "tau"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ParameterError(f"{name} must be finite, got {v!r}")
        if self.hbar <= 0 or self.mass <= 0 or self.omega <= 0:
            raise ParameterError("hbar, mass and omega must be positive")
        if self.tau < 0:
            raise ParameterError(f"tau must be >= 0, got {self.tau}")

    @property
    def tau_check(self) -> float:
        return self.tau / (self.mass * self.omega * self.hbar)


class Representation(Enum):
    PI1 = "pi1"
    PI2 = "pi2"
    PI3 = "pi3"
    PI4 = "pi4"
    PI4_PRIME = "pi4p"


@dataclass(frozen=True)
class Domain:
    """Interval of the real parametrization of the momentum variable.

    For Pi4 the physical momenta lie on the imaginary segment p = i*s with
    s in (lo, hi); ``imaginary_segment`` marks that the coordinate stored
    here is s rather than p.  Models that live on a half cell (the
    inverse-square models) use the half-cell domain from ``angle_domain``,
    which starts at lo = 0.
    """

    lo: float
    hi: float
    imaginary_segment: bool = False

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def contains(self, values, margin: float = 0.0) -> bool:
        v = np.asarray(values, dtype=float)
        return bool(np.all(v > self.lo + margin) and np.all(v < self.hi - margin))


@dataclass(frozen=True)
class MomentumAngle:
    """The angle theta = arctan(sqrt(tc) P) on one representation.

    P is the same physical momentum in every representation, so theta is the
    one coordinate they share.  Each map takes x = sqrt(tc) p (x = sqrt(tc) s
    on the Pi4 segment) and gives sin and cos of theta in closed form, so no
    precision is lost near the walls.  ``wall`` is x at theta = pi/2.  States
    of the representation carry cos(theta)^e beyond the Pi1 shape: e = 1 is
    the u^(-1) similarity factor of Pi2, e = -1 the segment factor of Pi4.
    """

    theta: Callable
    sin: Callable
    cos: Callable
    dtheta: Callable   # d theta / dx
    x_of: Callable     # inverse of theta
    wall: float
    e: int
    segment: bool = False


_TAN_ANGLE = MomentumAngle(
    theta=np.arctan,
    sin=lambda x: x / np.sqrt(1.0 + x * x),
    cos=lambda x: 1.0 / np.sqrt(1.0 + x * x),
    dtheta=lambda x: 1.0 / (1.0 + x * x),
    x_of=np.tan, wall=math.inf, e=0)

ANGLES = {
    Representation.PI1: _TAN_ANGLE,
    Representation.PI2: replace(_TAN_ANGLE, e=1),
    Representation.PI3: MomentumAngle(
        theta=lambda x: x, sin=np.sin, cos=np.cos, dtheta=np.ones_like,
        x_of=lambda t: t, wall=math.pi / 2.0, e=0),
    Representation.PI4: MomentumAngle(
        theta=np.arcsin, sin=lambda x: x, cos=lambda x: np.sqrt(1.0 - x * x),
        dtheta=lambda x: 1.0 / np.sqrt(1.0 - x * x),
        x_of=np.sin, wall=1.0, e=-1, segment=True),
}


def angle_domain(rep: Representation, params: DeformationParams,
                 half_cell: bool = False) -> Domain:
    """Preimage of theta in (-pi/2, pi/2), or of the half cell (0, pi/2).

    Without deformation every wall recedes to infinity.
    """
    if rep not in ANGLES:
        raise UnsupportedPair(f"no momentum angle for {rep}")
    angle = ANGLES[rep]
    tc = params.tau_check
    hi = angle.wall / math.sqrt(tc) if tc > 0.0 else math.inf
    return Domain(0.0 if half_cell else -hi, hi, imaginary_segment=angle.segment)


def p_domain(rep: Representation, params: DeformationParams) -> Domain:
    """Natural momentum domain of a representation."""
    if rep is Representation.PI4_PRIME:
        return Domain(-math.inf, math.inf)
    return angle_domain(rep, params)


@dataclass(frozen=True)
class HarmonicOscillator:
    """H = P^2/(2m) + (m omega^2 / 2) X^2."""

    kind: str = "harmonic_oscillator"


@dataclass(frozen=True)
class Swanson:
    """Non-Hermitian oscillator hw(A+ A + 1/2) + alpha A A + beta A+ A+.

    alpha and beta carry dimension of energy; the combination
    Omega = alpha + beta + hbar*omega must be positive in the solved regime.
    """

    alpha: float
    beta: float
    kind: str = "swanson"

    def omega_shift(self, params: DeformationParams) -> float:
        return self.alpha + self.beta + params.hbar * params.omega


@dataclass(frozen=True)
class PoschlTeller:
    """Intrinsically noncommutative model with a P^{-2} term.

    H = (beta/2m) P^2 + (hbar omega alpha / (2 tc)) P^{-2}
        + (m omega^2 / 2) X^2 + hbar omega alpha / 2 + beta/(2 m tc).

    alpha and beta are dimensionless; tau = 0 is not admissible.
    """

    alpha: float
    beta: float
    kind: str = "poschl_teller"


ModelSpec = Union[HarmonicOscillator, Swanson, PoschlTeller]

Scalar = Union[float, np.ndarray]
CoeffFn = Callable[[Scalar], Scalar]


@dataclass(frozen=True)
class FGHCoefficients:
    """Coefficient triple of -f psi'' + g psi' + h psi = E psi.

    df, ddf, dg are the analytic derivatives consumed by the potential
    transform.  f does not vanish on the interior of ``domain``.  When
    ``domain.imaginary_segment`` is set, the independent variable is the real
    parametrization s of p = i*s.
    """

    f: CoeffFn
    g: CoeffFn
    h: CoeffFn
    df: CoeffFn
    ddf: CoeffFn
    dg: CoeffFn
    domain: Domain


def _swanson_omega(model: Swanson, params: DeformationParams) -> float:
    big_omega = model.omega_shift(params)
    if big_omega <= 0:
        raise ParameterError(
            f"Swanson model solved only for alpha + beta + hbar*omega > 0, got {big_omega}"
        )
    return big_omega


def _ho_coeffs(rep, params):
    hbar, m, om, tau = params.hbar, params.mass, params.omega, params.tau
    tc = params.tau_check
    f0 = 0.5 * m * om ** 2 * hbar ** 2
    g0 = tau * hbar * om

    if rep is Representation.PI1:
        return FGHCoefficients(
            f=lambda p: f0 * (1 + tc * p ** 2) ** 2,
            g=lambda p: -g0 * p * (1 + tc * p ** 2),
            h=lambda p: p ** 2 / (2 * m),
            df=lambda p: 4 * f0 * tc * p * (1 + tc * p ** 2),
            ddf=lambda p: 4 * f0 * tc * (1 + 3 * tc * p ** 2),
            dg=lambda p: -g0 * (1 + 3 * tc * p ** 2),
            domain=p_domain(rep, params),
        )
    if rep is Representation.PI3:
        stc = math.sqrt(tc) if tc > 0 else 0.0

        def h3(p):
            if tc == 0.0:
                return p ** 2 / (2 * m)
            return np.tan(stc * p) ** 2 / (2 * m * tc)

        return FGHCoefficients(
            f=lambda p: f0 * np.ones_like(np.asarray(p, dtype=float)),
            g=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            h=h3,
            df=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            ddf=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            dg=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            domain=p_domain(rep, params),
        )
    if rep is Representation.PI4:
        # real parametrization p = i*s; f is positive on |s| < 1/sqrt(tc)
        return FGHCoefficients(
            f=lambda s: f0 * (1 - tc * s ** 2),
            g=lambda s: 1.5 * g0 * s,
            h=lambda s: s ** 2 / (2 * m * (1 - tc * s ** 2)) + 0.5 * g0,
            df=lambda s: -2 * f0 * tc * s,
            ddf=lambda s: -2 * f0 * tc * np.ones_like(np.asarray(s, dtype=float)),
            dg=lambda s: 1.5 * g0 * np.ones_like(np.asarray(s, dtype=float)),
            domain=p_domain(rep, params),
        )
    if rep is Representation.PI4_PRIME:
        return FGHCoefficients(
            f=lambda p: f0 * (1 + tc * p ** 2),
            g=lambda p: -1.5 * g0 * p,
            h=lambda p: p ** 2 / (2 * m * (1 + tc * p ** 2)) - 0.5 * g0,
            df=lambda p: 2 * f0 * tc * p,
            ddf=lambda p: 2 * f0 * tc * np.ones_like(np.asarray(p, dtype=float)),
            dg=lambda p: -1.5 * g0 * np.ones_like(np.asarray(p, dtype=float)),
            domain=p_domain(rep, params),
        )
    raise UnsupportedPair(f"harmonic oscillator not tabulated for {rep}")


def _swanson_coeffs(model, rep, params):
    hbar, m, om, tau = params.hbar, params.mass, params.omega, params.tau
    tc = params.tau_check
    big = _swanson_omega(model, params)
    al, be = model.alpha, model.beta
    bmina = be - al
    a0 = 0.5 * m * hbar * om * big

    if rep is Representation.PI1:
        c2 = (tau * (al - be + hbar * om) + al + be - hbar * om) / (2 * hbar * m * om)
        return FGHCoefficients(
            f=lambda p: a0 * (1 + tc * p ** 2) ** 2,
            g=lambda p: (bmina - tau * big) * p * (1 + tc * p ** 2),
            h=lambda p: 0.5 * bmina - c2 * p ** 2,
            df=lambda p: 4 * a0 * tc * p * (1 + tc * p ** 2),
            ddf=lambda p: 4 * a0 * tc * (1 + 3 * tc * p ** 2),
            dg=lambda p: (bmina - tau * big) * (1 + 3 * tc * p ** 2),
            domain=p_domain(rep, params),
        )
    if rep is Representation.PI3:
        if tc == 0.0:
            raise UnsupportedPair("Pi3 Swanson table needs tau > 0 (commutative limit is Pi1)")
        stc = math.sqrt(tc)
        return FGHCoefficients(
            f=lambda p: a0 * np.ones_like(np.asarray(p, dtype=float)),
            g=lambda p: bmina / stc * np.tan(stc * p),
            h=lambda p: (0.5 * hbar * om
                         + 0.5 * (bmina - hbar * om) / np.cos(stc * p) ** 2
                         + (hbar * om - al - be) / (2 * tau) * np.tan(stc * p) ** 2),
            df=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            ddf=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            dg=lambda p: bmina / np.cos(stc * p) ** 2,
            domain=p_domain(rep, params),
        )
    if rep is Representation.PI4:
        kk = al + be - hbar * om + tau * (2 * bmina + hbar * om) + tau ** 2 * big
        return FGHCoefficients(
            f=lambda s: a0 * (1 - tc * s ** 2),
            g=lambda s: (bmina + 1.5 * tau * big) * s,
            h=lambda s: ((bmina + tau * big) - s ** 2 / (m * hbar * om) * kk)
                        / (2 * (1 - tc * s ** 2)),
            df=lambda s: -2 * a0 * tc * s,
            ddf=lambda s: -2 * a0 * tc * np.ones_like(np.asarray(s, dtype=float)),
            dg=lambda s: (bmina + 1.5 * tau * big) * np.ones_like(np.asarray(s, dtype=float)),
            domain=p_domain(rep, params),
        )
    raise UnsupportedPair(f"Swanson model not tabulated for {rep}")


def _poschl_teller_coeffs(model, rep, params):
    hbar, m, om, tau = params.hbar, params.mass, params.omega, params.tau
    tc = params.tau_check
    if tau == 0.0:
        raise IntrinsicNoncommutativity(
            "the inverse-square model has no commutative limit; tau must be > 0"
        )
    al, be = model.alpha, model.beta
    f0 = 0.5 * m * om ** 2 * hbar ** 2
    g0 = tau * hbar * om
    stc = math.sqrt(tc)
    half_cell = angle_domain(rep, params, half_cell=True)

    if rep is Representation.PI1:
        return FGHCoefficients(
            f=lambda p: f0 * (1 + tc * p ** 2) ** 2,
            g=lambda p: -g0 * p * (1 + tc * p ** 2),
            h=lambda p: (1 + tc * p ** 2) * (al * m * hbar * om + be * p ** 2)
                        / (2 * m * tc * p ** 2),
            df=lambda p: 4 * f0 * tc * p * (1 + tc * p ** 2),
            ddf=lambda p: 4 * f0 * tc * (1 + 3 * tc * p ** 2),
            dg=lambda p: -g0 * (1 + 3 * tc * p ** 2),
            domain=half_cell,
        )
    if rep is Representation.PI3:
        return FGHCoefficients(
            f=lambda p: f0 * np.ones_like(np.asarray(p, dtype=float)),
            g=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            h=lambda p: (0.5 * hbar * om * al / np.sin(stc * p) ** 2
                         + be / (2 * m * tc) / np.cos(stc * p) ** 2),
            df=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            ddf=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            dg=lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            domain=half_cell,
        )
    if rep is Representation.PI4:
        return FGHCoefficients(
            f=lambda s: f0 * (1 - tc * s ** 2),
            g=lambda s: 1.5 * g0 * s,
            h=lambda s: (be / (2 * m) * s ** 2 / (1 - tc * s ** 2)
                         + 0.5 * hbar * om * al * (1 - tc * s ** 2) / (tc * s ** 2)
                         + 0.5 * g0 + 0.5 * hbar * om * al + be / (2 * m * tc)),
            df=lambda s: -2 * f0 * tc * s,
            ddf=lambda s: -2 * f0 * tc * np.ones_like(np.asarray(s, dtype=float)),
            dg=lambda s: 1.5 * g0 * np.ones_like(np.asarray(s, dtype=float)),
            domain=half_cell,
        )
    raise UnsupportedPair(f"inverse-square model not tabulated for {rep}")


def coefficients(model: ModelSpec, rep: Representation,
                 params: DeformationParams) -> FGHCoefficients:
    """Closed-form (f, g, h) triple for a (model, representation) pair.

    Implemented pairs: each model for Pi1, Pi3 and Pi4 (Pi4 in the real
    segment parametrization), plus Pi4' for the harmonic oscillator.  Pi2 is
    related to Pi1 by the similarity map u = (1 + tc p^2)^(1/2) and shares
    its transformed potential; request Pi1 instead.
    """
    if rep is Representation.PI2:
        raise UnsupportedPair(
            "Pi2 is handled by similarity with Pi1 (same potential and spectrum)"
        )
    if isinstance(model, HarmonicOscillator):
        return _ho_coeffs(rep, params)
    if isinstance(model, Swanson):
        if rep is Representation.PI4_PRIME:
            raise UnsupportedPair("no coefficient table for Swanson with Pi4'")
        return _swanson_coeffs(model, rep, params)
    if isinstance(model, PoschlTeller):
        if rep is Representation.PI4_PRIME:
            raise UnsupportedPair("no coefficient table for the inverse-square model with Pi4'")
        return _poschl_teller_coeffs(model, rep, params)
    raise UnsupportedPair(f"unknown model {model!r}")
