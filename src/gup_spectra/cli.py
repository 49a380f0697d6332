"""Command-line front end: spectra, wavefunctions, metrics, expectations,
phase scans, and the verification suites, emitted as deterministic CSV or
schema-versioned JSON.

Configuration precedence: explicit flags > config file (key=value lines) >
built-in defaults (hbar = mass = omega = 1, tau = 0.1, alpha = 0.1,
beta = 0.2, standard tolerances).  Exit codes: 0 success, 1 usage error,
2 verification failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .algebra import (
    REALIZATIONS,
    DeformationParams,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
    coefficients,
)
from .errors import GupSpectraError, NonFiniteResult, ParameterError
from .operators import commutator_residual, default_grid
from .liouville import master_residual, to_potential
from .oracle import (
    expectation_direct,
    expectation_unified,
    verify_spectrum,
)
from .phase import PhaseQuery, discriminant, scan
from .solutions import (
    ansatz_for,
    default_p0,
    gram_matrix,
    solve,
)

SCHEMA = "gup-spectra/2"

# each model from (alpha, beta); the oscillator reads neither
_MODELS = {
    "ho": lambda alpha, beta: HarmonicOscillator(),
    "swanson": Swanson,
    "pt": PoschlTeller,
}
_REPS = {rep.value: rep for rep in Representation}
_CHOICES = {"model": sorted(_MODELS), "rep": sorted(_REPS), "format": ("csv", "json")}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # options are spelled in full: a dropped phase --tau is not --taus
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    model: str = "ho"
    rep: str = Representation.PI1.value
    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 1.0
    tau: float = 0.1
    alpha: float = 0.1
    beta: float = 0.2
    nmax: int = 5
    grid: int = 2048
    tol: float = 1e-5
    format: str = "csv"
    out: str = ""

    def __post_init__(self):
        try:
            self.params()
        except ParameterError as exc:
            raise UsageError(str(exc)) from None
        for name in ("alpha", "beta"):
            if not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not 0 < self.tol < math.inf:
            raise UsageError("tolerances must be positive and finite")
        if self.nmax < 0:
            raise UsageError("nmax must be >= 0")
        if self.grid < 64:
            raise UsageError("grid must be >= 64")
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise UsageError(f"unknown {key} {getattr(self, key)!r}")

    def params(self) -> DeformationParams:
        return DeformationParams(hbar=self.hbar, mass=self.mass,
                                 omega=self.omega, tau=self.tau)

    def model_spec(self):
        return _MODELS[self.model](self.alpha, self.beta)

    def representation(self) -> Representation:
        return _REPS[self.rep]


# the run keys (options and config-file keys) and their defaults, in
# declaration order; each key's value has the type of its default
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
# the run keys each subcommand reads: its options, and its JSON echo
_RUN_KEYS = {
    "spectrum": "model rep hbar mass omega tau alpha beta nmax tol format out",
    "wavefunction": "model rep hbar mass omega tau alpha beta grid format out",
    "metric": "model rep hbar mass omega tau alpha beta grid format out",
    "expectation": "model rep hbar mass omega tau alpha beta nmax format out",
    "phase": "hbar omega format out",
    "verify": "hbar mass omega tau alpha beta out",
}


def _read_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read --config {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise UsageError(f"--config {path} is not UTF-8 text") from None
    data = {}
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        cast = type(_DEFAULTS[key])
        try:
            data[key] = cast(value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: invalid {cast.__name__} value "
                             f"{value!r} for {key}") from None
    return data


def build_config(args) -> RunConfig:
    """The run's configuration; a config file's value lands on ``args``
    wherever no flag gave one, so both read the same record."""
    if getattr(args, "config", None):
        for key, val in _read_config_file(args.config).items():
            if getattr(args, key, None) is None:
                setattr(args, key, val)
    merged = dict(_DEFAULTS)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    return RunConfig(**merged)


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.15g}"


def _emit(command, config, header, rows, extra):
    if any(not isinstance(v, str) and not math.isfinite(float(v))
           for row in rows for v in row):
        raise NonFiniteResult(f"{command} produced inf or NaN values")
    if config.format == "json":
        text = _envelope(command, config, {
            "rows": [dict(zip(header, [r if isinstance(r, str) else float(r)
                                       for r in row])) for row in rows],
            **extra})
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(config, text)


def _envelope(command, config, body) -> str:
    """The JSON envelope: schema, command and the run keys the command reads
    around ``body``."""
    echo = {key: getattr(config, key) for key in _RUN_KEYS[command].split()}
    payload = {"schema": SCHEMA, "command": command, "config": echo, **body}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write(config, text):
    """Write ``text`` to ``--out`` when given, else to stdout."""
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --out {config.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> int:
    config = build_config(args)
    model = config.model_spec()
    rep = config.representation()
    params = config.params()
    sol = solve(model, rep, params)
    header = ["n", "energy_re", "energy_im"]
    report = None
    if args.oracle or args.check:
        report = verify_spectrum(model, rep, params, count=config.nmax + 1,
                                 tolerance=config.tol)
        header += ["energy_oracle", "rel_err"]
    rows = []
    for n, e in enumerate(sol.energies(config.nmax)):
        e = complex(e)
        row = [n, e.real, e.imag]
        if report is not None:
            row += [report.spectrum.eigenvalues[n], report.rel_errors[n]]
        rows.append(row)
    extra = {"physical": sol.physical}
    if report is not None:
        oracle = report.spectrum
        extra["oracle"] = {
            "closed": report.closed.tolist(),
            "degrees": list(oracle.degrees),
            "error_estimates": oracle.error_estimates.tolist(),
            "wall_exponents": list(oracle.wall_exponents),
            "raw": [values.tolist() for values in oracle.raw],
            "tolerance": report.tolerance,
        }
    _emit("spectrum", config, header, rows, extra)
    if args.check and not report.passed:
        return 2
    return 0


def _display_grid(sol, config):
    dom = sol.domain
    lo, hi = dom.lo, dom.hi
    n = config.grid
    if math.isfinite(lo) and math.isfinite(hi):
        h = (hi - lo) / (n + 1)
        return np.linspace(lo + h, hi - h, n)
    tc = sol.params.tau_check
    span = 6.0 / math.sqrt(tc) if tc > 0 else 10.0
    if math.isfinite(lo):
        h = span / (n + 1)
        return np.linspace(lo + h, span, n)
    return np.linspace(-span, span, n)


def cmd_wavefunction(args) -> int:
    config = build_config(args)
    if args.n < 0:
        raise UsageError("n must be >= 0")
    sol = solve(config.model_spec(), config.representation(), config.params())
    grid = _display_grid(sol, config)
    psi = sol.psi(args.n, grid)
    rho = sol.metric(grid)
    rows = [[p, v.real, v.imag, r] for p, v, r in zip(grid, psi, rho)]
    extra = {"parametrization": "imaginary_segment_s" if sol.domain.imaginary_segment
             else "momentum_p"}
    _emit("wavefunction", config, ["p", "psi_re", "psi_im", "metric"], rows, extra)
    return 0


def cmd_metric(args) -> int:
    config = build_config(args)
    sol = solve(config.model_spec(), config.representation(), config.params())
    grid = _display_grid(sol, config)
    rho = sol.metric(grid)
    rows = [[p, r] for p, r in zip(grid, rho)]
    extra = {"discarded_constant": repr(sol.metric_constant)}
    _emit("metric", config, ["p", "rho"], rows, extra)
    return 0


def cmd_expectation(args) -> int:
    config = build_config(args)
    model = config.model_spec()
    params = config.params()
    words = args.words or ["P", "P2", "X", "X2", "H"]
    rep_given = args.rep is not None
    rows = []
    for n in range(config.nmax + 1):
        for word in words:
            if rep_given:
                val = expectation_direct(model, config.representation(), params, n, word)
            else:
                val = expectation_unified(model, params, n, word)
            rows.append([n, word, val.real, val.imag])
    engine = "direct" if rep_given else "unified"
    _emit("expectation", config, ["n", "word", "value_re", "value_im"], rows,
          {"engine": engine})
    return 0


def cmd_phase(args) -> int:
    config = build_config(args)
    params = config.params()
    if args.alpha_steps < 2:
        raise UsageError("--alpha-steps must be >= 2")
    if not -math.inf < args.alpha_lo < args.alpha_hi < math.inf:
        raise UsageError("need finite --alpha-lo below --alpha-hi")
    query = PhaseQuery(params=params, alpha_lo=args.alpha_lo,
                       alpha_hi=args.alpha_hi, alpha_steps=args.alpha_steps,
                       tau_list=args.taus)
    curves = scan(query)
    rows = []
    for curve in curves:
        for a, b in curve.points:
            rows.append([curve.tau, a, b])
    extra = {"branch": "lower", "regions": {"above": "broken", "below": "unbroken"},
             "monotone": [curve.monotone for curve in curves]}
    _emit("phase", config, ["tau", "alpha", "beta_boundary"], rows, extra)
    if args.check:
        # ``scan`` has re-verified every emitted point; these are the claims
        claims = [
            (2.0, 0.1, 0.0, True),
            (2.0, 0.1, 0.5, False),
            (15.0, 0.1, 0.0, False),
            (15.0, 0.1, 0.5, True),
        ]
        for alpha, beta, tau, real in claims:
            if (discriminant(alpha, beta, tau, params) >= 0.0) is not real:
                return 2
    return 0


# ---------------------------------------------------------------------------
# verify suites

# the representations with a momentum angle, on which every model has states
_STATE_REPS = tuple(rep for rep, entry in REALIZATIONS.items() if entry.angle)


def _suite_commutators(config):
    params = config.params()
    checks = []
    sigmas = (0.5, 1.0, 2.0)
    for rep in _STATE_REPS:
        grid, dp = default_grid(rep, params)
        psis = [np.exp(-s * grid ** 2) for s in sigmas]
        psis += [grid * np.exp(-s * grid ** 2) for s in sigmas[:2]]
        worst = max(commutator_residual(rep, params, psi, grid, dp) for psi in psis)
        checks.append((f"commutator[{rep.value}]", worst < 1e-7, worst, 1e-7))
    prime, p05 = Representation.PI4_PRIME, DeformationParams(tau=0.5)
    grid, dp = default_grid(prime, p05)
    psi = np.exp(-grid ** 2)
    ok, bad = (commutator_residual(prime, p05, psi, grid, dp, reference_sign=sign)
               for sign in (-1, +1))
    checks.append((f"commutator[{prime.value}] flipped-sign relation", ok < 1e-7, ok, 1e-7))
    checks.append((f"commutator[{prime.value}] violates unflipped relation",
                   bad > 0.1, bad, 0.1))
    return checks


def _suite_models(config):
    """Reference configurations for the verification suites.

    Swanson follows the configured alpha/beta; the inverse-square model uses
    the fixed point PT(1, 0.5), since one (alpha, beta) need not be
    admissible for both models.
    """
    params = config.params()
    return [
        (HarmonicOscillator(), params),
        (Swanson(alpha=config.alpha, beta=config.beta), params),
        (PoschlTeller(alpha=1.0, beta=0.5), params),
    ]


def _suite_orthonormality(config):
    checks = []
    for model, params in _suite_models(config):
        for rep in _STATE_REPS:
            sol = solve(model, rep, params)
            if not sol.physical:
                continue
            g = gram_matrix(sol, 4)
            dev = float(np.max(np.abs(g - np.eye(5))))
            checks.append((f"gram[{type(model).__name__}/{rep.value}]",
                           dev < 1e-8, dev, 1e-8))
    return checks


def _suite_invariance(config):
    checks = []
    words = ["P", "P2", "X", "X2", "H"]
    for model, params in _suite_models(config):
        sol = solve(model, Representation.PI1, params)
        for n in (0, 2):
            for word in words:
                vals = [expectation_unified(model, params, n, word)]
                vals += [expectation_direct(model, rep, params, n, word)
                         for rep in _STATE_REPS]
                dev = max(abs(a - b) for a in vals for b in vals)
                checks.append((f"invariance[{type(model).__name__}/n={n}/{word}]",
                               dev < 1e-6, dev, 1e-6))
            e_n = complex(sol.energy(n))
            h_val = expectation_unified(model, params, n, "H")
            dev_h = abs(h_val - e_n)
            checks.append((f"energy-expectation[{type(model).__name__}/n={n}]",
                           dev_h < 1e-8, dev_h, 1e-8))
            if not model.half_cell:  # <P> = 0 on a parity-symmetric domain
                p_val = abs(expectation_unified(model, params, n, "P"))
                checks.append((f"momentum-expectation[{type(model).__name__}/n={n}]",
                               p_val < 1e-10, p_val, 1e-10))
    return checks


def _suite_master_residual(config):
    checks = []
    for model, params in _suite_models(config):
        for rep in _STATE_REPS:
            sol = solve(model, rep, params)
            if not sol.physical:
                continue
            # the transform of the Hamiltonian's own (f, g, h), in the
            # coordinates ``ansatz_for`` calls centered
            tr = to_potential(coefficients(model, rep, params),
                              default_p0(model, rep, params))
            span = tr.q_hi - tr.q_lo
            qs = np.linspace(tr.q_lo + 0.05 * span, tr.q_hi - 0.05 * span, 101)
            worst = 0.0
            for n in range(6):
                ansatz = ansatz_for(sol, n, coordinates="centered")
                res = master_residual(ansatz, tr, float(np.real(sol.energy(n))), qs)
                worst = max(worst, res)
            checks.append((f"master[{type(model).__name__}/{rep.value}]",
                           worst < 1e-8, worst, 1e-8))
    return checks


_SUITES = {
    "commutators": _suite_commutators,
    "orthonormality": _suite_orthonormality,
    "invariance": _suite_invariance,
    "master-residual": _suite_master_residual,
}


def cmd_verify(args) -> int:
    config = build_config(args)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    suites = {}
    for name in names:
        suites[name] = [
            {"name": cname, "passed": bool(ok), "value": float(val),
             "tolerance": float(tol)}
            for cname, ok, val, tol in _SUITES[name](config)
        ]
    passed = all(check["passed"] for checks in suites.values() for check in checks)
    _write(config, _envelope("verify", config, {"suites": suites, "passed": passed}))
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(p, command):
    """``--config`` and the run keys ``command`` reads (``_RUN_KEYS``); a
    config file may set any run key, since one file serves them all."""
    for key in _RUN_KEYS[command].split():
        default = _DEFAULTS[key]
        p.add_argument(f"--{key}", type=type(default), choices=_CHOICES.get(key),
                       default=None)
    p.add_argument("--config", default=None)


def _tau_list(text):
    """--taus: comma-separated finite numbers >= 0, at least one."""
    try:
        taus = tuple(float(t) for t in text.split(","))
        if all(0.0 <= t < math.inf for t in taus):
            return taus
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected comma-separated finite numbers >= 0, got {text!r}")


def build_parser():
    parser = _Parser(prog="gup-spectra",
                     description="Deformed-commutator quantum models: spectra, "
                                 "wavefunctions, metrics, and phase diagrams.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form energies, optional spectral oracle")
    _add_common(p, "spectrum")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavefunction", help="psi_n samples with the metric column")
    _add_common(p, "wavefunction")
    p.add_argument("--n", type=int, default=0)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("metric", help="metric density on the natural domain")
    _add_common(p, "metric")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("expectation", help="metric-weighted expectation values")
    _add_common(p, "expectation")
    p.add_argument("words", nargs="*", default=None)
    p.set_defaults(func=cmd_expectation)

    p = sub.add_parser("phase", help="broken/unbroken boundary curves")
    _add_common(p, "phase")
    p.add_argument("--taus", type=_tau_list, default="0,0.25,0.5")
    p.add_argument("--alpha-lo", dest="alpha_lo", type=float, default=0.5)
    p.add_argument("--alpha-hi", dest="alpha_hi", type=float, default=16.0)
    p.add_argument("--alpha-steps", dest="alpha_steps", type=int, default=300)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("verify", help="run a library verification suite (JSON)")
    _add_common(p, "verify")
    p.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # numpy RuntimeWarnings end up as one summary line, not raw stderr lines
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        try:
            args = parser.parse_args(argv)
            return args.func(args)
        except UsageError as exc:
            print(f"usage error: {exc}", file=sys.stderr)
            return 1
        except GupSpectraError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        except OverflowError:
            # Python's float ** raises where numpy gives inf, on parameters
            # far outside the admissible domain
            print("numerical failure: the parameters overflow the double range",
                  file=sys.stderr)
            return 3
        finally:
            if caught:
                counts = Counter(w.category.__name__ for w in caught)
                print("warnings: " + ", ".join(f"{k} {name}" for name, k
                                               in sorted(counts.items())),
                      file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
