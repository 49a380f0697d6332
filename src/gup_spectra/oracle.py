"""Independent numerical checks: the spectrum check and two expectation
engines.

``verify_spectrum`` compares the closed-form energies with the spectral
eigensolver (``spectral``) on the well of the Hamiltonian's own transform.

Expectation values come in two independent flavors:

* ``expectation_unified``: a single z-integral over the special-function
  basis, with P acting as z/sqrt(tc (1-z^2)) and X as the gauge-conjugated
  derivative; identical for every representation by construction.  Each
  term of a word goes to the Gauss-Jacobi rule that is exact for its
  endpoint exponents and degree, and a divergent term is NonIntegrable.
* ``expectation_direct``: brute quadrature of psi* rho (F psi) on the
  representation's momentum domain using the numerical operator actions
  (Pi1..Pi4; Pi4' has no bound states to take them on).
  The samples are uniform in a variable t that a double-exponential map
  takes to the domain, sized from the (f, g, h) coefficients, and their
  count grows with the level n; X takes order-8 differences in t.  Like
  the unified engine it evaluates a level once: the grid, psi_n, rho, the
  fields of X and P and the states the words build from psi_n are shared
  by every word asked of that level.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (
    DeformationParams,
    FGHCoefficients,
    ModelSpec,
    Representation,
    coefficients,
)
from .errors import (
    ConvergenceFailure,
    NonFiniteResult,
    NonIntegrable,
    ParameterError,
)
from .jets import Jet
from .liouville import to_potential
from .operators import (
    LINE_REACH,
    fields,
    line_map,
    mapped_grid,
    x_action,
)
from .solutions import PotentialSpec, classify_physical, default_p0, solve
from .specfun import log_jacobi_mass, orthonormal_rows
# ``roots_jacobi`` keeps scipy's name: instrumentation looks it up on this
# module and wraps it in every module that holds the same object.
from .specfun import gauss_jacobi as roots_jacobi
from .spectral import SpectrumResult, spectral_eigenvalues

__all__ = [
    "verify_spectrum",
    "VerifyReport",
    "expectation_unified",
    "expectation_direct",
    "parse_word",
]


# Degree of the well's Chebyshev series (``_series_well``), and the size of
# its last coefficients, against the largest, that shows it converged
_WELL_DEGREE = 24
_WELL_TAIL = 1e-9


@dataclass
class VerifyReport:
    closed: np.ndarray
    # the spectral oracle's result: its eigenvalues and their provenance
    spectrum: SpectrumResult
    rel_errors: np.ndarray
    passed: bool
    tolerance: float


def verify_spectrum(model: ModelSpec, rep: Representation,
                    params: DeformationParams, count: int = 6,
                    tolerance: float = 1e-5) -> VerifyReport:
    """Compare closed-form energies against the spectral oracle on the well
    of the Hamiltonian's own transform (``liouville.to_potential`` of its
    (f, g, h)), as one Chebyshev series (``_series_well``).  At tau = 0 q is
    unbounded, and the well is the harmonic (k q)^2 with k = E_0, on a box
    wide enough that the low levels do not feel its walls."""
    cls = classify_physical(model, rep, params)
    if cls.complex_spectrum:
        raise ParameterError("spectrum is complex here; the spectral oracle needs a real well")
    if not cls.physical:
        raise ParameterError("unbounded family; nothing for the oracle to match")
    sol = solve(model, rep, params)
    closed = np.real(sol.energies(count - 1))
    if params.tau == 0.0:
        k = closed[0]
        if k <= 0.0:
            raise ParameterError(f"E_0 = {k:.6g} at tau = 0: the well (E_0 q)^2 has no levels")
        edge = 9.0 / math.sqrt(k)
        well = PotentialSpec(V=lambda q: (k * np.asarray(q)) ** 2, q_lo=-edge, q_hi=edge)
    else:
        well = _series_well(to_potential(coefficients(model, rep, params),
                                         default_p0(model, rep, params)))
    res = spectral_eigenvalues(well, count)
    rel = np.abs(res.eigenvalues - closed) / np.maximum(np.abs(closed), 1e-300)
    return VerifyReport(closed=closed, spectrum=res, rel_errors=rel,
                        passed=bool(np.all(rel < tolerance)), tolerance=tolerance)


def _series_well(tr) -> PotentialSpec:
    """The well of a transform as one Chebyshev series.

    With x and y the distances to q_lo and q_hi in units of the span, every
    admissible well is an inverse-square term at each wall plus a part
    analytic on the closed interval, so W = V x^2 y^2 is analytic there and
    its Chebyshev coefficients in t = x - y fall geometrically (Trefethen,
    *Approximation Theory and Approximation Practice*, SIAM 2013, ch. 8).
    W is interpolated at ``_WELL_DEGREE`` + 1 Chebyshev points, one call of
    the pointwise V, and V = W / (x y)^2.  Where the last two coefficients
    stay above ``_WELL_TAIL`` of the largest, V is not such a well:
    ``ConvergenceFailure``.
    """
    lo, hi = tr.q_lo, tr.q_hi
    span = hi - lo
    nodes, to_chebyshev, to_powers = _well_rule()
    x, y = 0.5 * (1.0 + nodes), 0.5 * (1.0 - nodes)
    c = to_chebyshev @ (tr.V(np.where(nodes < 0.0, lo + x * span, hi - y * span)) * (x * y) ** 2)
    if np.max(np.abs(c[-2:])) > _WELL_TAIL * np.max(np.abs(c)):
        raise ConvergenceFailure(
            f"the well's Chebyshev series has not converged at degree {_WELL_DEGREE}: "
            f"last coefficients {np.abs(c[-2:])} against {np.max(np.abs(c)):.3g}")
    # W is analytic on the disc |t| < 3, since the nearest singularities of
    # such a well lie a span beyond each wall, so its coefficients in powers
    # of t fall like 3^-k and Horner's rule, two in-place steps per degree,
    # is as stable as Clenshaw's
    a = to_powers @ c

    def V(q):
        x, y = (q - lo) / span, (hi - q) / span
        t = x - y
        w = np.full_like(t, a[-1])
        for ak in a[-2::-1]:
            w *= t
            w += ak
        return w / (x * y) ** 2

    return PotentialSpec(V=V, q_lo=lo, q_hi=hi)


@lru_cache(maxsize=None)
def _well_rule():
    """The ``_WELL_DEGREE`` + 1 Chebyshev points of the first kind, the
    matrix that takes values there to the Chebyshev coefficients of their
    interpolant, and the one that takes those to its coefficients in powers
    of t."""
    cheb = np.polynomial.chebyshev
    nodes = cheb.chebpts1(_WELL_DEGREE + 1)
    # row k holds T_k in powers of t, from T_(k+1) = 2 t T_k - T_(k-1):
    # integers, so exact
    powers = np.eye(nodes.size)
    for k in range(1, nodes.size - 1):
        powers[k + 1] = np.roll(2.0 * powers[k], 1) - powers[k - 1]
    return nodes, np.linalg.inv(cheb.chebvander(nodes, _WELL_DEGREE)), powers.T


# ---------------------------------------------------------------------------
# operator words

# one factor of a term: a symbol and an optional signed decimal power
_FACTOR = re.compile(r"(.)(-?\d*)", re.DOTALL)


def parse_word(word: str) -> list[tuple[complex, list[tuple[str, int]]]]:
    """Parse an operator word into [(coefficient, [(symbol, power), ...]), ...].

    A word is a string like "X", "P2", "XP+PX", "P-2", "H" or "H2", where H2
    applies H twice.  Terms are summed; factors in a term compose
    right-to-left.  The symbols are X, P and H, and only P has an inverse; a
    power of 0 is the identity.
    """
    terms = []
    for chunk in word.replace(" ", "").split("+"):
        if not chunk:
            raise ParameterError(f"empty term in word {word!r}")
        factors = []
        for sym, power in _FACTOR.findall(chunk):
            if power == "-":
                raise ParameterError(f"sign without a power in word {word!r}")
            factors.append((sym.upper(), int(power) if power else 1))
        terms.append((1.0, factors))
    for _, factors in terms:
        for sym, power in factors:
            if sym not in ("X", "P", "H"):
                raise ParameterError(f"unknown symbol {sym!r} in word {word!r}")
            if power < 0 and sym != "P":
                raise ParameterError(f"{sym} has no inverse here, got power {power}")
    return terms


def _word_weight(terms) -> int:
    return max(sum(abs(k) for _, k in factors) for _, factors in terms)


def _read_only(arr):
    """``arr``, an array or a Jet, with its values made read-only."""
    (arr.d if isinstance(arr, Jet) else arr).flags.writeable = False
    return arr


class _StateMemo:
    """States derived from a level's basis state, shared between words.

    A state is keyed by the single steps ("P", k), ("X", 1) and ("H", 1)
    that built it from the basis state at (): X feeds X2, XP and PX, and H's
    terms pick up the P2, X2, ... states earlier words left.  The memo holds
    the very states a cold evaluation computes, so values do not depend on
    the order in which words arrive.  A power of 0 is the identity.  An
    engine supplies ``_states`` and ``_derive``, the read-only state one
    step past a key.
    """

    _states: dict

    def apply_term(self, factors, key=()):
        """The term ``factors`` applied to the memoized state at ``key``."""
        for sym, power in reversed(factors):
            if sym == "P":
                if power:
                    key = self._step(key, "P", power)
            else:
                for _ in range(power):
                    key = self._step(key, sym, 1)
        return self._states[key]

    def _step(self, key, sym, power):
        """Key of the state one step past ``key``, computing it if new."""
        new = key + ((sym, power),)
        if new not in self._states:
            self._states[new] = self._derive(key, sym, power)
        return new


# ---------------------------------------------------------------------------
# unified engine (basis variable, exact Gauss-Jacobi rules, analytic jets)

def _shift(model, params, factors) -> tuple[int, int, int]:
    """(u, v, x): the shifts of the state the term ``factors`` makes of a
    level's basis state (``_ZSpace``), and the times it applies X, counting
    those of each H."""
    u = v = x = 0
    for sym, power in reversed(factors):
        dx = 0
        if sym == "P":
            if model.family == "jacobi":
                du, dv = -power, power
            elif power < 0:
                raise NonIntegrable(
                    "negative momentum powers are only integrable for the "
                    "inverse-square model")
            else:
                du = dv = power
        elif sym == "X":
            du = dv = dx = power
        else:
            terms, _ = model.hamiltonian(params)
            sides = list(zip(*(_shift(model, params, fs) for _, fs in terms)))
            dx = power * max(sides[2])
            # only the basis state is at (0, 0), and H only scales it
            du, dv = (0, 0) if (u, v) == (0, 0) else (power * max(0, *side) for side in sides[:2])
        u, v, x = u + du, v + dv, x + dx
    return u, v, x


@lru_cache(maxsize=4)
def _zspace(model, params, n, shifts, order):
    """The basis space of one level for the rules at ``shifts`` and jets of
    ``order``, shared read-only between the words that take them."""
    zs = _ZSpace(model, params, n, shifts, order)
    for arr in (zs.basis.d, zs.zjet.d, zs.one_minus_z2.d):
        _read_only(arr)
    return zs


class _ZSpace(_StateMemo):
    """Unified basis-variable machinery for one (model, params, n), the two
    Gauss-Jacobi rules at ``shifts`` and jets of ``order``.

    The level's state is the orthonormal polynomial phat_n(y)
    (``_basis_jet``) of the weight (1-y)^a (1+y)^b of the Pi1 states of
    ``solve``: (lam, lam) in z for the Legendre family, (a+, b+) in w for
    the Jacobi family.  P acts as the
    multiplier p(y), X as the derivative conjugated by the square root of
    that weight.  A state (1-y)^(-u/2) (1+y)^(-v/2) r, with r a polynomial
    of degree n + (u + v)/2, keeps that form (``_shift``): X adds 1 to u
    and to v; P^j adds j to both in the Legendre family, and -j to u, j to
    v in the Jacobi family; H adds the per-side maximum over its terms, 2
    for every model here, but leaves the basis state, its eigenstate, at
    (0, 0).  So a term integrates (1-y)^(a - u/2)
    (1+y)^(b - v/2) times a polynomial of degree 2n + (u + v)/2.  An
    exponent <= -1 is ``NonIntegrable``, and so is a negative power of P in
    the Legendre family, which has a pole at p = 0, z = 0.  Otherwise a
    Gauss-Jacobi rule integrates the term exactly (Golub & Welsch, Math.
    Comp. 23 (1969) 221).

    The exponents of terms whose u have one parity differ by integers, and
    the terms share one rule, ``shifts[u % 2]`` = (U, V): the rule of
    (1-y)^(a - U/2) (1+y)^(b - V/2), with U and V at least the u and v of
    each of those terms.  Against it every term of the class is a
    polynomial of degree 2n + (U + V)/2, so the rule has n + (U + V) // 4
    + 1 nodes, one more where that is odd and the rule symmetric.  The
    norm takes the even rule.

    The jets are evaluated once, on the union of both rules' nodes, and a
    term sums over its rule's slice.  Every word of the level shares the
    state-independent jets (the P powers and the X-action coefficients),
    each built once on first use, and the states derived from the basis
    (``_StateMemo``).  Each X a term applies, those inside its H's
    included, takes one of the jets' ``order`` derivatives.
    """

    def __init__(self, model, params, n, shifts, order):
        self.model = model
        self.params = params
        self.tc = params.tau_check
        sol = solve(model, Representation.PI1, params)
        self.family = sol.family
        self.a, self.b = sol.weight
        if self.family == "legendre":
            # X acts as i hbar sqrt(tc) [(1-z^2)^(1/2) d/dz - kappa z (1-z^2)^(-1/2)]
            # on the Ferrers states (1-z^2)^(lam/2) P_n, so with kappa + lam on P_n
            self.kappa = 2.0 * sol.parameters["epsilon"] + 0.5 + self.a
        rules = []
        for u, v in shifts:
            alpha, beta = self.a - u / 2.0, self.b - v / 2.0
            m = n + (u + v) // 4 + 1
            # a symmetric rule of even size is symmetric node for node and
            # has no node at y = 0, where the Legendre p is 0 and p_jet's
            # powers would divide by it
            rules.append(roots_jacobi(m + m % 2 if alpha == beta else m, alpha, beta))
        ends = np.cumsum([0] + [y.size for y, _ in rules])
        self.slices = tuple(slice(lo, hi) for lo, hi in zip(ends[:-1], ends[1:]))
        z = np.concatenate([y for y, _ in rules])
        self.zjet = Jet.variable(z, order)
        self.one_minus_z2 = (1.0 - self.zjet) * (1.0 + self.zjet)
        # the measure (1-y)^a (1+y)^b is the rule's unit-mass weight times the
        # remainder (1-y)^(U/2) (1+y)^(V/2), and its mass ratio to the norm's
        log_mass = [log_jacobi_mass(self.a - u / 2.0, self.b - v / 2.0) for u, v in shifts]
        # a basis past the double range leaves a norm that is not finite,
        # which expectation_unified raises on
        with np.errstate(over="ignore", invalid="ignore"):
            self.basis = _basis_jet(n, self.a, self.b, z, order)
            self.bras = tuple(
                _read_only(w * (1.0 - y) ** (u / 2.0) * (1.0 + y) ** (v / 2.0)
                           * math.exp(lm - log_mass[0]) * self.basis.value[sl])
                for (u, v), (y, w), lm, sl in zip(shifts, rules, log_mass, self.slices))
            self.norm = float(np.sum(self.bras[0] * self.basis.value[self.slices[0]]))
        self._p_jets = {}
        self._states = {(): self.basis}

    # state-independent jets, built on first use ---------------------------
    @cached_property
    def _z_over_root(self) -> Jet:
        """z (1-z^2)^(-1/2), shared by P and the Legendre X action."""
        return _read_only(self.zjet * self.one_minus_z2.power(-0.5))

    @cached_property
    def _ratio(self) -> Jet:
        """p^2 on the Jacobi variable w: (1-w) / (tc (1+w))."""
        return _read_only((1.0 - self.zjet) * (1.0 + self.zjet).reciprocal()
                       * (1.0 / self.tc))

    @cached_property
    def _x_action(self) -> tuple[Jet, Jet, complex]:
        """(w, c, k) with X psi = (w psi' + c psi) k."""
        hbar = self.params.hbar
        w = _read_only(self.one_minus_z2.power(0.5))
        if self.family == "legendre":
            return (w, _read_only(self._z_over_root * (-self.kappa)),
                    1j * hbar * math.sqrt(self.tc))
        lnu = ((1.0 - self.zjet).reciprocal() * (-(self.a + 0.5) / 2.0)
               + (1.0 + self.zjet).reciprocal() * ((self.b + 0.5) / 2.0))
        return w, _read_only(w * lnu), -2j * hbar * math.sqrt(self.tc)

    # multiplicative P and its powers --------------------------------------
    def p_jet(self, power):
        out = self._p_jets.get(power)
        if out is None:
            if self.family == "legendre":
                base = self._z_over_root * self.tc ** -0.5
                out = base.power(power) if power != 1 else base
            elif power % 2 == 0:
                # jacobi variable w: p = sqrt((1-w)/(tc (1+w)))
                out = self._ratio.power(power // 2)
            else:
                out = self._ratio.power(power / 2.0)
            out = self._p_jets[power] = _read_only(out)
        return out

    def apply_x(self, state: Jet) -> Jet:
        w, c, k = self._x_action
        return (w * state.derivative() + c * state) * k

    def _derive(self, key, sym, power) -> Jet:
        state = self._states[key]
        if sym == "P":
            return _read_only(self.p_jet(power) * state)
        if sym == "X":
            return _read_only(self.apply_x(state))
        terms, const = self.model.hamiltonian(self.params)
        out = None
        for coeff, fs in terms:
            t = self.apply_term(fs, key)
            out = t * coeff if out is None else out + t * coeff
        if const:
            out = out + state * const
        return _read_only(out)


def _basis_jet(n, a, b, y, order) -> Jet:
    """phat_n(y) of the weight (1-y)^a (1+y)^b and its first ``order``
    derivatives, each the last row of an ``orthonormal_rows`` sweep:
    d/dy phat_n^(a,b) = c phat_(n-1)^(a+1,b+1), with s = a + b and
    c^2 = n (n+s+1) (s+2) (s+3) / (4 (a+1) (b+1)) (DLMF 18.9.15 with
    unit-mass norms), formed from the ratios (s+2) / (2 (a+1)) and
    (s+3) / (2 (b+1)) so that c stays in the double range wherever the
    chain does.  The scale of the basis cancels in each value over the norm."""
    rows = np.zeros((order + 1, y.size))
    scale = 1.0
    for k in range(min(order, n) + 1):
        for row in orthonormal_rows(n - k, a + k, b + k, y):
            pass
        rows[k] = scale * row
        s = a + b + 2 * k
        scale *= math.sqrt((n - k) * (n - k + s + 1.0)
                           * ((s + 2.0) / (2.0 * (a + k + 1.0)))
                           * ((s + 3.0) / (2.0 * (b + k + 1.0))))
    return Jet(rows)


def _lowest(e, shift):
    """``shift``, or the next lower shift of its parity where e - shift/2,
    an endpoint exponent, would not exceed -1."""
    return shift if e - shift / 2.0 > -1.0 else shift - 2


def expectation_unified(model: ModelSpec, params: DeformationParams, n: int,
                        word) -> complex:
    """<psi_n| F |psi_n>_rho via the representation-independent basis
    integral, each term on a Gauss-Jacobi rule that is exact for it
    (``_ZSpace``); ``NonIntegrable`` where a term diverges."""
    terms = parse_word(word)
    if _word_weight(terms) > 4:
        raise ParameterError("operator words longer than 4 factors are not supported")
    if params.tau_check <= 0:
        raise ParameterError("the unified integral needs tau > 0")
    weight = solve(model, Representation.PI1, params).weight
    if weight is None:
        raise ParameterError("complex spectrum: unified integral not real here")
    a, b = weight
    shifts = [_shift(model, params, factors) for _, factors in terms]
    for u, v, _ in shifts:
        if a - u / 2.0 <= -1.0 or b - v / 2.0 <= -1.0:
            raise NonIntegrable(
                f"a term of {word!r} leaves the endpoint weight "
                f"(1-y)^{a - u / 2.0:.6g} (1+y)^{b - v / 2.0:.6g}, which is "
                "not integrable")
    # Each parity's rule sits at the per-side largest shift of its terms, and
    # at least at the shifts of H, X2 and X (as far as they integrate), so
    # that the words of weight 2 share one space per level.
    rules = [[_lowest(a, s), _lowest(b, s)] for s in (2, 1)]
    for u, v, _ in shifts:
        rule = rules[u % 2]
        rule[:] = max(rule[0], u), max(rule[1], v)
    # and the jets carry a derivative for each X, at least for those of H
    order = max(2, *(x for _, _, x in shifts))
    zs = _zspace(model, params, n, tuple(map(tuple, rules)), order)
    norm = zs.norm
    # A basis that under- or overflows leaves a norm of 0, inf or NaN (0 * inf
    # at a node of zero weight), and the quotient would be a bare
    # ZeroDivisionError, a silent 0 or a NaN.
    if not 0.0 < norm < math.inf:
        raise NonFiniteResult(f"basis norm of level {n} is {norm!r}")
    acc = 0.0 + 0.0j
    for (coeff, factors), (u, _, _) in zip(terms, shifts):
        part = zs.bras[u % 2] * zs.apply_term(factors).value[zs.slices[u % 2]]
        acc += coeff * np.sum(part)
    return complex(acc / norm)


# ---------------------------------------------------------------------------
# direct engine (mapped momentum grid + numerical operator actions)

# |u| of a cell's map: tanh(17) = 1 - 3.4e-15 keeps its outermost samples
# representable inside its walls
_CELL_REACH = 17.0
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _map(fgh: FGHCoefficients):
    """(phi, u0, a, reach) of ``mapped_grid`` on the domain of ``fgh``, from
    the coefficients alone: phi(u) gives p and dp/du, and |u| stops at
    ``reach``.  With u = u0 + a sinh t, phi makes a double-exponential map:

    * the line (-inf, inf): p = L sinh u (``line_map``);
    * the half line (0, inf): p = L exp u;
    * a cell (lo, hi): p = lo + (hi - lo) / (1 + exp(-2u)), tanh u rescaled.

    d/dt takes order-8 differences on every map: their error stays where it
    is made, while a trigonometric derivative's round-off, eps times the
    largest sample, reaches every sample, and for Swanson with
    alpha + beta > 1 psi_n or psi_n rho grows toward both ends.

    f turns from f(0) to its growth at about p_f = 2 (f(0) / f''(0))^(1/2),
    1/sqrt(tc) on Pi1 (f is constant on Pi3 and falls on Pi4: p_f = inf).
    On a symmetric domain the state is centred at p = 0 and, to leading
    order, Gaussian of width w = (4 f^2 / (g'^2 + 2 f h''))^(1/4) there;
    with L = min(w, p_f), the line takes u0 = 0 and a = 1, the cell (-W, W)
    u0 = 0 and a = min(1, 3 pi L / (2 W)).  On a half domain the state goes
    like p^k0 at the wall p = 0, and like p^-k1 toward infinity or d^k1 at
    the distance d from the far wall, each k from ``_indicial``.  The two
    power laws balance at L = p_f (k0 / k1)^(1/2) on the half line (a = 1),
    and on the half cell (a = 1/2) at u0 = log(k0 / k1) / 4, where the two
    wall distances have the ratio (k0 / k1)^(1/2).
    """
    dom = fgh.domain
    f0, ddf0 = float(fgh.f(0.0)), float(fgh.ddf(0.0))
    p_f = 2.0 * math.sqrt(f0 / ddf0) if ddf0 > 0.0 else math.inf
    if dom.lo < 0.0:
        d = 1e-3 * min(p_f, dom.hi)
        h2 = float(fgh.h(d) + fgh.h(-d) - 2.0 * fgh.h(0.0)) / (d * d)
        curv = float(fgh.dg(0.0)) ** 2 + 2.0 * f0 * h2
        L = min((4.0 * f0 * f0 / curv) ** 0.25 if curv > 0.0 else math.inf, p_f)
        if math.isinf(dom.hi):
            return line_map(L), 0.0, 1.0, LINE_REACH
        return _cell(dom), 0.0, min(1.0, 1.5 * math.pi * L / dom.hi), _CELL_REACH
    k0 = _indicial(fgh, 1e-6 * min(p_f, dom.hi), 0.0)
    if math.isinf(dom.hi):
        L = p_f * math.sqrt(k0 / _indicial(fgh, 1e6 * p_f, math.inf))

        def phi(u):
            p = L * np.exp(u)
            return p, p

        return phi, 0.0, 1.0, LINE_REACH
    k1 = _indicial(fgh, (1.0 - 1e-6) * dom.hi, dom.hi)
    return _cell(dom), 0.25 * math.log(k0 / k1), 0.5, _CELL_REACH


def _cell(dom):
    """phi(u) of the cell map, exact in the distance to the lower wall."""
    lo, span = dom.lo, dom.hi - dom.lo

    def phi(u):
        c = np.cosh(u)
        return lo + span / (1.0 + np.exp(-2.0 * u)), (0.5 * span) / (c * c)

    return phi


def _indicial(fgh, p, wall):
    """The larger root k of the leading-order equation of -f psi'' + g psi'
    + h psi = 0 for psi ~ x^k, x the distance from ``wall`` to the probe p
    (x = 1/|p| toward a wall at infinity), with f, g and h read at p.

    With r = x / x', psi'/psi = k / r and psi''/psi = k (k - r') / r^2, so
    f k^2 - (f r' + g r) k - h r^2 = 0: r = p - wall and r' = 1 at a finite
    wall, r = -p and r' = -1 toward infinity.  Where f vanishes at the wall
    (the Pi4 segment), f, g r and h r^2 all vanish like x, and their
    ratios at the probe stay finite.  Where k <= 0, psi does not vanish at
    the wall (PT on Pi4 with beta <= 0), no balance of the walls sizes the
    map, and order-8 differences do not resolve psi: ``ConvergenceFailure``.
    """
    r, dr = (-p, -1.0) if math.isinf(wall) else (p - wall, 1.0)
    f, g, h = (float(c(p)) for c in (fgh.f, fgh.g, fgh.h))
    b = f * dr + g * r
    k = (b + math.sqrt(b * b + 4.0 * f * h * r * r)) / (2.0 * f)
    if k <= 0.0:
        raise ConvergenceFailure(f"psi_n ~ x^{k:.3g} does not vanish at the wall p = {wall:g}")
    return k


# Samples of a level up to n = 15.  Past it the count doubles each time
# n // 16 gains a binary digit, to the least power of two that holds
# 128 (n + 1), so that the n nodes of psi_n stay resolved: 4096 at n = 20,
# 8192 at n = 50 and 16384 at n = 100
_SAMPLES = 2048


# A request asks Pi1..Pi4 for one level word after word, so one level per
# representation with states holds all the reuse there is; a request that
# asks three representations leaves one level to the next.
@lru_cache(maxsize=4)
def _direct_level(model, rep, params, n):
    """The native grid of one level, shared read-only between words; the
    map reads the representation's own (f, g, h)."""
    count = _SAMPLES << (n // 16).bit_length()
    return _DirectLevel(solve(model, rep, params), n,
                        mapped_grid(*_map(coefficients(model, rep, params)), count))


class _DirectLevel(_StateMemo):
    """Grid, ket, metric and derived states (``_StateMemo``) of one
    (model, rep, params, n).  A word sums its terms onto a zero array in
    order and H adds its constant last, the sums a cold evaluation makes.

    The level takes the fields of X and P on its kept samples from
    ``operators.fields`` once, when it is built, which also checks the
    samples against the domain.  An X step is ``operators.x_action`` on X's
    coefficients and a P^k step k products with P's multiplier, as
    ``operators.commutator_residual`` applies them.

    The t-range ends at the outermost samples whose norm weight
    |psi_n|^2 rho dp is finite and reaches eps^2 of the largest finite one.
    Beyond them the level keeps no sample: they add nothing a double can
    hold, and there psi_n or rho can leave the double range while the
    density vanishes (Swanson at small tau), or grow so far that X^2 psi_n
    would.  Between them psi_n, rho and the weight must be finite and rho
    a normal double (a subnormal rho has lost its digits); otherwise the
    level raises ``NonFiniteResult``.  A level that keeps fewer than the 9
    samples of X's order-8 stencil raises ``ConvergenceFailure``: the grid
    is too coarse for the state.
    """

    def __init__(self, sol, n, samples):
        self.sol = sol
        grid, dp = samples
        # samples past the double range are masked below, and raise where
        # they are kept
        with np.errstate(over="ignore", invalid="ignore"):
            ket = sol.psi(n, grid)
            rho = sol.metric(grid)
            weight = np.abs(ket) ** 2 * rho * dp
        finite = np.isfinite(weight)
        top = np.max(weight, where=finite, initial=0.0)
        keep = np.flatnonzero(finite & (weight >= _EPS ** 2 * top))
        keep = slice(keep[0], keep[-1] + 1) if keep.size else slice(0, 0)
        grid, dp, ket, rho = grid[keep], dp[keep], ket[keep], rho[keep]
        if not (grid.size and np.all(finite[keep]) and np.all(rho >= _TINY)):
            raise NonFiniteResult(
                f"psi_{n} or rho on {sol.rep.value} leaves the normal double "
                "range where the density is not negligible")
        if grid.size < 9:
            raise ConvergenceFailure(
                f"psi_{n} on {sol.rep.value} keeps {grid.size} of {weight.size} "
                "samples, fewer than the 9 of the order-8 stencil")
        self.grid, self.dp = _read_only(grid), _read_only(dp)
        self.ket, self.rho = _read_only(ket), _read_only(rho)
        self.bra = _read_only(np.conj(ket) * rho * dp)
        self._states = {(): _read_only(np.asarray(ket, dtype=complex))}
        # the fields of X and P on the kept samples, for every step
        self._x, self._p = fields(sol.rep, sol.params, grid)

    def apply(self, terms, key=()) -> np.ndarray:
        """The word ``terms`` applied to the memoized state at ``key``."""
        acc = np.zeros_like(self._states[key])
        for coeff, factors in terms:
            acc = acc + coeff * self.apply_term(factors, key)
        return acc

    def _derive(self, key, sym, power) -> np.ndarray:
        cur = self._states[key]
        if sym == "P" and power >= 0:
            for _ in range(power):
                cur = self._p * cur
        elif sym == "P":
            # P vanishes only at p = 0: off a half cell's wall, P^{-k} has a
            # pole inside the domain, which no grid integrates
            if self.sol.domain.contains(0.0):
                raise NonIntegrable(
                    f"P^{power} has a pole at p = 0, inside the {self.sol.rep.value} domain")
            cur = cur * self._p ** power
        elif sym == "X":
            cur = x_action(self._x, cur, self.dp)
        else:
            hterms, const = self.sol.model.hamiltonian(self.sol.params)
            cur = self.apply(hterms, key) + const * cur
        return _read_only(cur)


def expectation_direct(model: ModelSpec, rep: Representation,
                       params: DeformationParams, n: int, word) -> complex:
    """<psi_n| F |psi_n>_rho by quadrature on a mapped grid with operator actions.

    The level takes samples t_k uniform in a variable t: 2048 up to n = 15,
    and past it the least power of two that holds 128 (n + 1)
    (``_SAMPLES``).  A double-exponential map takes t to the
    representation's momentum domain (``_map``): sinh-sinh on the line of
    Pi1 and Pi2, exp-sinh on the half line of the inverse-square model
    there, and tanh-sinh on the Pi3 cells and the Pi4 segment.  The
    quadrature weights are the samples' widths phi'(t_k) h, and X
    differentiates as phi'(t)^(-1) d/dt by order-8 differences in t, for
    every map.  Samples whose norm weight is below eps^2 of the largest are
    dropped at the ends of the t-range (``_DirectLevel``), so a level holds
    at most that many samples.  The level n (grid, psi_n, rho, the fields
    of X and P on the grid and the states F builds from psi_n) is shared
    with the other words asked of it, so the fields are evaluated and each
    X or P step is taken once per level.  Where psi_n or rho leaves
    the double range inside the density, or the value is not finite,
    ``NonFiniteResult`` is raised.
    """
    terms = parse_word(word)
    if params.tau_check <= 0:
        raise ParameterError("the direct engine needs tau > 0")
    level = _direct_level(model, rep, params, n)
    out = level.apply(terms)
    value = complex(np.sum(level.bra * out))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NonFiniteResult(
            f"direct {rep.value} value of {word!r} at level {n} is {value!r}")
    return value
