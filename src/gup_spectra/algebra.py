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

Each model is declared once, as a class that holds its Hamiltonian as X/P
words and its spectral data (family, orders, energies, admissible range,
reality test, closed-form well); no other module switches on the model type.

In every representation the momentum-space Schroedinger equation takes the
second-order form

    -f(p) psi'' + g(p) psi' + h(p) psi = E psi,

and ``coefficients`` derives the (f, g, h) triple, with the analytic
derivatives needed by the potential transform, by composing the model's H
words with the representation's entry of ``REALIZATIONS``.  For Pi4 the
natural domain is the segment p = i*s with s real; the triple is returned in
the real parametrization s, on which f is positive and the transform
machinery applies unchanged.
"""

from __future__ import annotations

import cmath
import math
import sys
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
    "Realization",
    "REALIZATIONS",
    "HarmonicOscillator",
    "Swanson",
    "PoschlTeller",
    "ModelSpec",
    "FGHCoefficients",
    "p_domain",
    "angle_domain",
    "coefficients",
    "discriminant",
    "pt_model_reality",
]


# below this tau, tau^2 is not a normal double
_TAU_MIN = math.sqrt(sys.float_info.min)


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

    def contains(self, values) -> bool:
        v = np.asarray(values, dtype=float)
        return bool(np.all(v > self.lo) and np.all(v < self.hi))


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

    sin: Callable
    cos: Callable
    dtheta: Callable   # d theta / dx
    x_of: Callable     # inverse of theta
    wall: float
    e: int
    segment: bool = False


_TAN_ANGLE = MomentumAngle(
    sin=lambda x: x / np.sqrt(1.0 + x * x),
    cos=lambda x: 1.0 / np.sqrt(1.0 + x * x),
    dtheta=lambda x: 1.0 / (1.0 + x * x),
    x_of=np.tan, wall=math.inf, e=0)

ANGLES = {
    Representation.PI1: _TAN_ANGLE,
    Representation.PI2: replace(_TAN_ANGLE, e=1),
    Representation.PI3: MomentumAngle(
        sin=np.sin, cos=np.cos, dtheta=np.ones_like,
        x_of=lambda t: t, wall=math.pi / 2.0, e=0),
    Representation.PI4: MomentumAngle(
        sin=lambda x: x, cos=lambda x: np.sqrt(1.0 - x * x),
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


# ---------------------------------------------------------------------------
# model declarations

def discriminant(alpha: float, beta: float, tau: float,
                 params: DeformationParams | None = None) -> float:
    """D >= 0 iff the Swanson spectrum is real at these parameters."""
    params = params or DeformationParams()
    hw = params.hbar * params.omega
    omega_big = alpha + beta + hw
    return 4.0 * (hw ** 2 - 4.0 * alpha * beta) \
        + tau * omega_big * (tau * omega_big - 4.0 * hw)


def pt_model_reality(alpha: float, beta: float, tau: float) -> bool:
    """True iff the inverse-square model spectrum is real and bounded below."""
    if tau <= 0:
        raise ParameterError("the inverse-square model requires tau > 0")
    return alpha > -tau / 4.0 and beta > -tau ** 2 / 4.0


class _Model:
    """What a model declares besides ``hamiltonian`` (its X/P words).

    ``family`` is the ladder of its states: "legendre" with (base, eps) from
    ``scales`` and the order from ``mu_minus``, or "jacobi" with (a+, b+) from
    ``orders``.  A ``half_cell`` model lives on theta in (0, pi/2).  Also
    declared: ``energy`` (E_n), ``admit`` (raises outside the solved regime),
    ``reality`` (whether the spectrum is real), ``well`` (the closed-form
    transformed potential at tau > 0: A of A tan^2 for the Legendre family,
    (A, B) of A csc^2 + B sec^2 for the Jacobi family), the representations
    with an (f, g, h) table, at tau > 0 and at tau = 0, and whether a formal
    Pi4' energy family is published.
    """

    half_cell = False
    coefficient_reps = (Representation.PI1, Representation.PI3, Representation.PI4)
    commutative_coefficient_reps = coefficient_reps
    pi4_prime_family = False

    def admit(self, params):
        pass

    def scales(self, params):
        return params.hbar * params.omega, 0.0

    def reality(self, params):
        return True


@dataclass(frozen=True)
class HarmonicOscillator(_Model):
    """H = P^2/(2m) + (m omega^2 / 2) X^2."""

    family = "legendre"
    coefficient_reps = _Model.coefficient_reps + (Representation.PI4_PRIME,)
    commutative_coefficient_reps = coefficient_reps
    pi4_prime_family = True

    def hamiltonian(self, params):
        m, om = params.mass, params.omega
        return [(1.0 / (2 * m), [("P", 2)]),
                (0.5 * m * om ** 2, [("X", 2)])], 0.0

    def mu_minus(self, params):
        return -math.sqrt(1.0 + params.tau ** 2 / 4.0) / params.tau

    def energy(self, params):
        tau, hw = params.tau, params.hbar * params.omega
        root = math.sqrt(1.0 + tau ** 2 / 4.0)
        return lambda n: hw * (0.5 + n) * root + tau * hw / 4.0 * (1 + 2 * n + 2 * n * n)

    def well(self, params):
        """A of the well A tan^2(sqrt(c) q)."""
        return params.hbar * params.omega / (2.0 * params.tau)


@dataclass(frozen=True)
class Swanson(_Model):
    """Non-Hermitian oscillator hw(A+ A + 1/2) + alpha A A + beta A+ A+.

    alpha and beta carry dimension of energy; the model is solved for
    Omega = alpha + beta + hbar*omega > 0 only.
    """

    alpha: float
    beta: float
    family = "legendre"
    # at tau = 0 Pi3 is Pi1 and has no table of its own
    commutative_coefficient_reps = (Representation.PI1, Representation.PI4)

    def omega_shift(self, params: DeformationParams) -> float:
        return self.alpha + self.beta + params.hbar * params.omega

    def admit(self, params):
        big = self.omega_shift(params)
        if big <= 0:
            raise ParameterError(
                f"Swanson model solved only for alpha + beta + hbar*omega > 0, got {big}")

    def hamiltonian(self, params):
        hbar, m, om = params.hbar, params.mass, params.omega
        big = self.omega_shift(params)
        kin = (hbar * om * (1 - params.tau) - self.alpha - self.beta) / (2 * m * hbar * om)
        mix = 1j * (self.alpha - self.beta) / (2 * hbar)
        return [(kin, [("P", 2)]), (big * m * om / (2 * hbar), [("X", 2)]),
                (mix, [("X", 1), ("P", 1)]), (mix, [("P", 1), ("X", 1)])], 0.0

    def reality(self, params):
        return discriminant(self.alpha, self.beta, params.tau, params) >= 0.0

    def scales(self, params):
        big, tau = self.omega_shift(params), params.tau
        return big, (self.alpha - self.beta) / (2.0 * tau * big) if tau > 0 else 0.0

    def mu_minus(self, params):
        d = discriminant(self.alpha, self.beta, params.tau, params)
        return -cmath.sqrt(complex(d)) / (2.0 * params.tau * self.omega_shift(params))

    def energy(self, params):
        tau, big = params.tau, self.omega_shift(params)
        sqrt_d = cmath.sqrt(complex(discriminant(self.alpha, self.beta, tau, params)))
        return lambda n: 0.25 * ((tau + 2 * n * tau + 2 * n * n * tau) * big
                                 + (2 * n + 1) * sqrt_d)

    def well(self, params):
        """A of the well A tan^2(sqrt(c) q)."""
        tau, hw, al, be = params.tau, params.hbar * params.omega, self.alpha, self.beta
        return (((1 - tau) * hw ** 2 - tau * hw * (al + be) - 4 * al * be)
                / (2.0 * tau * self.omega_shift(params)))


@dataclass(frozen=True)
class PoschlTeller(_Model):
    """Intrinsically noncommutative model with a P^{-2} term.

    H = (beta/2m) P^2 + (hbar omega alpha / (2 tc)) P^{-2}
        + (m omega^2 / 2) X^2 + hbar omega alpha / 2 + beta/(2 m tc).

    alpha and beta are dimensionless; tau = 0 is not admissible.
    """

    alpha: float
    beta: float
    family = "jacobi"
    half_cell = True

    def admit(self, params):
        if params.tau == 0.0:
            raise IntrinsicNoncommutativity(
                "the inverse-square model has no commutative limit; tau must be > 0")
        if params.tau < _TAU_MIN:
            raise ParameterError(f"tau = {params.tau!r} is too small for the "
                                 "inverse-square model: tau^2 underflows")

    def hamiltonian(self, params):
        hbar, m, om, tc = params.hbar, params.mass, params.omega, params.tau_check
        const = 0.5 * hbar * om * self.alpha + self.beta / (2 * m * tc)
        return [(self.beta / (2 * m), [("P", 2)]),
                (0.5 * hbar * om * self.alpha / tc, [("P", -2)]),
                (0.5 * m * om ** 2, [("X", 2)])], const

    def reality(self, params):
        return pt_model_reality(self.alpha, self.beta, params.tau)

    def orders(self, params):
        """(a+, b+); complex when reality is broken."""
        tau = params.tau
        return (0.5 * cmath.sqrt(complex(1.0 + 4.0 * self.alpha / tau)),
                0.5 * cmath.sqrt(complex(1.0 + 4.0 * self.beta / tau ** 2)))

    def energy(self, params):
        tau, hw = params.tau, params.hbar * params.omega
        a, b = self.orders(params)
        return lambda n: hw * tau / 2.0 * (1 + 2 * n + a + b) ** 2

    def well(self, params):
        """(A, B) of the cell A csc^2(sqrt(c) q / 2) + B sec^2(sqrt(c) q / 2)."""
        hw = params.hbar * params.omega
        return 0.5 * hw * self.alpha, self.beta / (2 * params.mass * params.tau_check)


ModelSpec = Union[HarmonicOscillator, Swanson, PoschlTeller]

Scalar = Union[float, np.ndarray]
CoeffFn = Callable[[Scalar], Scalar]


# ---------------------------------------------------------------------------
# (f, g, h) from the Hamiltonian words

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


@dataclass(frozen=True)
class Realization:
    """X = i hbar (a(y) d/dy + b(y)) and P = P(y) on the stored coordinate y.

    a^2 = (1 + s tc y^2)^k is also kept as a polynomial in w = y^2, so f and
    its derivatives stay finite at a wall where a vanishes; b = beta a' with
    beta 0 or 1.  ``fields`` gives a, a', P and P' at (y, tc).
    """

    s: float
    k: int
    beta: float
    fields: Callable


def _pi1_fields(y, tc):
    return 1.0 + tc * y * y, 2.0 * tc * y, y, 1.0


def _pi3_fields(y, tc):
    if tc == 0.0:
        return 1.0, 0.0, y, 1.0
    rt = math.sqrt(tc)
    return 1.0, 0.0, np.tan(rt * y) / rt, 1.0 / np.cos(rt * y) ** 2


def _u_entry(s):
    """a = u, b = u', P = y / u with u^2 = v = 1 + s tc y^2."""
    def fields(y, tc):
        v = 1.0 + s * tc * y * y
        u = np.sqrt(v)
        return u, s * tc * y / u, y / u, 1.0 / (u * v)

    return Realization(s, 1, 1.0, fields)


# Pi2 shares the Pi1 problem by similarity.  Pi4 stores the segment p = i s,
# where X = i x u is i hbar (u d/ds + u') and P = -i p/u is s/u.
REALIZATIONS = {
    Representation.PI1: Realization(1.0, 2, 0.0, _pi1_fields),
    Representation.PI3: Realization(0.0, 0, 0.0, _pi3_fields),
    Representation.PI4: _u_entry(-1.0),
    Representation.PI4_PRIME: _u_entry(1.0),
}


def _horner(c, w):
    """sum c[i] w^i for a list of floats c, shaped like w."""
    if len(c) == 1:
        return c[0] + 0.0 * w
    out = c[-1] * w + c[-2]
    for ci in c[-3::-1]:
        out = out * w + ci
    return out


def coefficients(model: ModelSpec, rep: Representation,
                 params: DeformationParams) -> FGHCoefficients:
    """(f, g, h) of a (model, representation) pair, derived from the model's H.

    With X = i hbar (a d/dy + b) and P = P(y) from ``REALIZATIONS``, the words
    P^k, X^2, XP and PX of H give

        f = hbar^2 c_X2 a^2,
        g = -hbar^2 c_X2 (a a' + 2ab) + i hbar (c_XP + c_PX) a P,
        h = sum c_k P^k - hbar^2 c_X2 (a b' + b^2)
            + i hbar [c_XP (a P' + b P) + c_PX b P] + const,

    as closed-form numpy callables built once per call; terms whose
    coefficient vanishes are not evaluated.  Every model has a table on Pi1,
    Pi3 and Pi4 (Pi4 in the real segment parametrization), the oscillator
    also on Pi4'.  Pi2 is related to Pi1 by the similarity map
    u = (1 + tc p^2)^(1/2) and shares its transformed potential; request Pi1
    instead.
    """
    if rep is Representation.PI2:
        raise UnsupportedPair(
            "Pi2 is handled by similarity with Pi1 (same potential and spectrum)")
    if rep not in model.coefficient_reps:
        raise UnsupportedPair(f"no coefficient table for {type(model).__name__} with {rep}")
    model.admit(params)
    tc = params.tau_check
    if tc == 0.0 and rep not in model.commutative_coefficient_reps:
        raise UnsupportedPair(f"{rep} coincides with Pi1 at tau = 0; request Pi1")
    entry, hbar = REALIZATIONS[rep], params.hbar
    terms, const = model.hamiltonian(params)
    words = {tuple(word): c for c, word in terms}
    powers = [(w[0][1], words.pop(w)) for w in list(words) if len(w) == 1 and w[0][0] == "P"]
    x2 = hbar ** 2 * words.pop((("X", 2),), 0.0)
    xp = 1j * hbar * words.pop((("X", 1), ("P", 1)), 0.0)
    px = 1j * hbar * words.pop((("P", 1), ("X", 1)), 0.0)
    if words or xp.imag or px.imag:
        raise UnsupportedPair("H must be a real sum of P^k, X^2, XP and PX words")
    xp, mixed = xp.real, xp.real + px.real
    fields, beta = entry.fields, entry.beta

    # f = F(w) with w = y^2, so f' = 2y F'(w) and f'' = 2F'(w) + 4w F''(w);
    # a a' + 2ab = (1/2 + beta) (a^2)' and a b' + b^2 = beta (a^2)''/2.
    # Coefficient lists run from w^0 up.
    F = [x2 * math.comb(entry.k, j) * (entry.s * tc) ** j for j in range(entry.k + 1)]
    F1 = [(i + 1) * c for i, c in enumerate(F[1:])] or [0.0]
    F2 = [2 * (i + 1) * (2 * i + 1) * c for i, c in enumerate(F[1:])] or [0.0]
    G = [-(1.0 + 2.0 * beta) * c for c in F1]
    DG = [-(0.5 + beta) * c for c in F2]
    H = [const - 0.5 * F2[0]] + [-0.5 * c for c in F2[1:]] if beta else [const]
    DF = [2.0 * c for c in F1]

    def g(y):
        out = y * _horner(G, y * y)
        if mixed:
            a, _, p, _ = fields(y, tc)
            out = out + mixed * a * p
        return out

    def dg(y):
        out = _horner(DG, y * y)
        if mixed:
            a, da, p, dp = fields(y, tc)
            out = out + mixed * (da * p + a * dp)
        return out

    def h(y):
        a, da, p, dp = fields(y, tc)
        out = _horner(H, y * y)
        for k, c in powers:
            out = out + c * p ** k
        if xp:
            out = out + xp * a * dp
        if beta and mixed:
            out = out + mixed * da * p
        return out

    domain = (angle_domain(rep, params, half_cell=True) if model.half_cell
              else p_domain(rep, params))
    return FGHCoefficients(
        f=lambda y: _horner(F, y * y), g=g, h=h, df=lambda y: y * _horner(DF, y * y),
        ddf=lambda y: _horner(F2, y * y), dg=dg, domain=domain)
