"""The hand-written (f, g, h) tables, kept as the reference for the derived ones.

``algebra.coefficients`` derives each table from the model's Hamiltonian words
and the representation's realization of (X, P).  These closures are the tables
as they were written out by hand, pair by pair, before that derivation; the
tests compare the two.  They stay verbatim: do not edit them to match.
"""

import math

import numpy as np

from gup_spectra.algebra import (
    DeformationParams,
    FGHCoefficients,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
    angle_domain,
    p_domain,
)
from gup_spectra.errors import IntrinsicNoncommutativity, ParameterError, UnsupportedPair


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


def reference_coefficients(model, rep, params):
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
