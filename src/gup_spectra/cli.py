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
    DeformationParams,
    HarmonicOscillator,
    PoschlTeller,
    Representation,
    Swanson,
)
from .errors import GupSpectraError, NonFiniteResult
from .operators import commutator_residual, default_grid
from .liouville import master_residual
from .oracle import (
    expectation_direct,
    expectation_unified,
    verify_spectrum,
)
from .phase import PhaseQuery, discriminant, scan
from .solutions import (
    ansatz_for,
    classify_physical,
    gram_matrix,
    solve,
    transformed_potential,
)

SCHEMA = "gup-spectra/1"

_MODELS = {
    "ho": "ho", "harmonic-oscillator": "ho", "harmonic_oscillator": "ho",
    "swanson": "swanson",
    "pt": "pt", "poschl-teller": "pt", "poschl_teller": "pt",
}

_REPS = {
    "pi1": Representation.PI1,
    "pi2": Representation.PI2,
    "pi3": Representation.PI3,
    "pi4": Representation.PI4,
    "pi4p": Representation.PI4_PRIME,
    "pi4prime": Representation.PI4_PRIME,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    model: str = "ho"
    rep: str = "pi1"
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
        if self.tol <= 0:
            raise UsageError("tolerances must be positive")
        if self.nmax < 0:
            raise UsageError("nmax must be >= 0")
        if self.grid < 64:
            raise UsageError("grid must be >= 64")
        if self.format not in ("csv", "json"):
            raise UsageError(f"unknown format {self.format!r}")
        if self.model not in _MODELS:
            raise UsageError(f"unknown model {self.model!r}")
        if self.rep not in _REPS:
            raise UsageError(f"unknown representation {self.rep!r}")

    def params(self) -> DeformationParams:
        return DeformationParams(hbar=self.hbar, mass=self.mass,
                                 omega=self.omega, tau=self.tau)

    def model_spec(self):
        kind = _MODELS[self.model]
        if kind == "ho":
            return HarmonicOscillator()
        if kind == "swanson":
            return Swanson(alpha=self.alpha, beta=self.beta)
        return PoschlTeller(alpha=self.alpha, beta=self.beta)

    def representation(self) -> Representation:
        return _REPS[self.rep]

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


# the run keys (options and config-file keys) and their defaults, in
# declaration order; each key's value has the type of its default
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_CHOICES = {"model": sorted(_MODELS), "rep": sorted(_REPS), "format": ("csv", "json")}


def _read_config_file(path) -> dict:
    data = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
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
            data[key] = type(_DEFAULTS[key])(value)
    return data


def build_config(args) -> RunConfig:
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
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


def _emit(command, config, header, rows, args, extra=None):
    if any(not isinstance(v, str) and not math.isfinite(float(v))
           for row in rows for v in row):
        raise NonFiniteResult(f"{command} produced inf or NaN values")
    if config.format == "json":
        payload = {
            "schema": SCHEMA,
            "command": command,
            "config": config.as_dict(),
            "rows": [dict(zip(header, [r if isinstance(r, str) else float(r)
                                       for r in row])) for row in rows],
        }
        if extra:
            payload.update(extra)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    _write(config, text)


def _write(config, text):
    """Write ``text`` to ``--out`` when given, else to stdout."""
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
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
    use_oracle = bool(args.oracle or args.check)
    header = ["n", "energy_re", "energy_im"]
    oracle_vals = None
    if use_oracle:
        report = verify_spectrum(model, rep, params, count=config.nmax + 1,
                                 grid_size=config.grid, tolerance=config.tol)
        oracle_vals = report
        header += ["energy_oracle", "rel_err"]
    rows = []
    breach = False
    for n in range(config.nmax + 1):
        e = complex(sol.energy(n))
        row = [n, e.real, e.imag]
        if oracle_vals is not None:
            row += [oracle_vals.numeric[n], oracle_vals.rel_errors[n]]
            breach = breach or oracle_vals.rel_errors[n] > config.tol
        rows.append(row)
    extra = {"physical": sol.physical}
    _emit("spectrum", config, header, rows, args, extra=extra)
    if args.check and breach:
        return 2
    return 0


def _display_grid(sol, config):
    dom = sol.domain
    lo, hi = dom.lo, dom.hi
    n = min(config.grid, 4096)
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
    sol = solve(config.model_spec(), config.representation(), config.params())
    grid = _display_grid(sol, config)
    psi = sol.psi(args.n, grid)
    rho = sol.metric(grid)
    rows = [[p, v.real, v.imag, r] for p, v, r in zip(grid, psi, rho)]
    extra = {"parametrization": "imaginary_segment_s" if sol.domain.imaginary_segment
             else "momentum_p"}
    _emit("wavefunction", config, ["p", "psi_re", "psi_im", "metric"], rows,
          args, extra=extra)
    return 0


def cmd_metric(args) -> int:
    config = build_config(args)
    sol = solve(config.model_spec(), config.representation(), config.params())
    grid = _display_grid(sol, config)
    rho = sol.metric(grid)
    rows = [[p, r] for p, r in zip(grid, rho)]
    extra = {"discarded_constant": repr(sol.metric_constant)}
    _emit("metric", config, ["p", "rho"], rows, args, extra=extra)
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
                val = expectation_direct(model, config.representation(), params,
                                         n, word, grid_size=config.grid)
            else:
                val = expectation_unified(model, params, n, word)
            rows.append([n, word, val.real, val.imag])
    engine = "direct" if rep_given else "unified"
    _emit("expectation", config, ["n", "word", "value_re", "value_im"], rows,
          args, extra={"engine": engine})
    return 0


def cmd_phase(args) -> int:
    config = build_config(args)
    params = config.params()
    query = PhaseQuery(params=params, alpha_lo=args.alpha_lo,
                       alpha_hi=args.alpha_hi, alpha_steps=args.alpha_steps,
                       tau_list=args.taus)
    curves = scan(query)
    rows = []
    for curve in curves:
        for a, b in curve.points:
            rows.append([curve.tau, a, b])
    extra = {"branch": "lower", "regions": {"above": "broken", "below": "unbroken"}}
    _emit("phase", config, ["tau", "alpha", "beta_boundary"], rows, args, extra=extra)
    if args.check:
        claims = [
            (2.0, 0.1, 0.0, True),
            (2.0, 0.1, 0.5, False),
            (15.0, 0.1, 0.0, False),
            (15.0, 0.1, 0.5, True),
        ]
        for alpha, beta, tau, real in claims:
            if (discriminant(alpha, beta, tau, params) >= 0.0) is not real:
                return 2
        for curve in curves:
            for a, b in curve.points:
                if abs(discriminant(a, b, curve.tau, params)) >= 1e-9:
                    return 2
    return 0


# ---------------------------------------------------------------------------
# verify suites

def _suite_commutators(config):
    params = config.params()
    checks = []
    sigmas = (0.5, 1.0, 2.0)
    grids = {}
    for rep in (Representation.PI1, Representation.PI2, Representation.PI3,
                Representation.PI4):
        grid = default_grid(rep, params, 2048)
        psis = [np.exp(-s * grid ** 2) for s in sigmas]
        psis += [grid * np.exp(-s * grid ** 2) for s in sigmas[:2]]
        worst = max(commutator_residual(rep, params, psi, grid) for psi in psis)
        checks.append((f"commutator[{rep.value}]", worst < 1e-7, worst, 1e-7))
        grids[rep] = grid
    p05 = DeformationParams(tau=0.5)
    grid = default_grid(Representation.PI4_PRIME, p05, 2048)
    psi = np.exp(-grid ** 2)
    ok = commutator_residual(Representation.PI4_PRIME, p05, psi, grid,
                             reference_sign=-1)
    bad = commutator_residual(Representation.PI4_PRIME, p05, psi, grid,
                              reference_sign=+1)
    checks.append(("commutator[pi4p] flipped-sign relation", ok < 1e-7, ok, 1e-7))
    checks.append(("commutator[pi4p] violates unflipped relation", bad > 0.1, bad, 0.1))
    return checks


def _suite_models(config):
    """Reference configurations for the verification suites.

    Swanson follows the configured alpha/beta; the inverse-square model uses
    a fixed well-conditioned reference point (its direct-grid cross-checks
    degrade when the origin exponent a+ drops below ~2).
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
        for rep in (Representation.PI1, Representation.PI2, Representation.PI3,
                    Representation.PI4):
            cls = classify_physical(model, rep, params)
            if not cls.physical:
                continue
            sol = solve(model, rep, params)
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
                for rep in (Representation.PI1, Representation.PI2,
                            Representation.PI3):
                    vals.append(expectation_direct(model, rep, params, n, word))
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
        for rep in (Representation.PI1, Representation.PI3, Representation.PI4):
            cls = classify_physical(model, rep, params)
            if not cls.physical:
                continue
            sol = solve(model, rep, params)
            pot = transformed_potential(model, rep, params)
            span = pot.q_hi - pot.q_lo
            qs = np.linspace(pot.q_lo + 0.05 * span, pot.q_hi - 0.05 * span, 101)
            worst = 0.0
            for n in range(6):
                ansatz = ansatz_for(sol, n, coordinates="model")
                res = master_residual(ansatz, pot, float(np.real(sol.energy(n))), qs)
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
    report = {"schema": SCHEMA, "command": "verify", "config": config.as_dict(),
              "suites": {}}
    all_ok = True
    for name in names:
        checks = _SUITES[name](config)
        report["suites"][name] = [
            {"name": cname, "passed": bool(ok), "value": float(val),
             "tolerance": float(tol)}
            for cname, ok, val, tol in checks
        ]
        all_ok = all_ok and all(ok for _, ok, _, _ in checks)
    report["passed"] = all_ok
    _write(config, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------
# argument wiring

def _add_common(p):
    for key, default in _DEFAULTS.items():
        p.add_argument(f"--{key}", type=type(default), choices=_CHOICES.get(key),
                       default=None)
    p.add_argument("--config", default=None)


def _tau_list(text):
    """--taus: comma-separated numbers, at least one."""
    try:
        return tuple(float(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def build_parser():
    parser = _Parser(prog="gup-spectra",
                     description="Deformed-commutator quantum models: spectra, "
                                 "wavefunctions, metrics, and phase diagrams.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form energies, optional FD oracle")
    _add_common(p)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavefunction", help="psi_n samples with the metric column")
    _add_common(p)
    p.add_argument("--n", type=int, default=0)
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("metric", help="metric density on the natural domain")
    _add_common(p)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("expectation", help="metric-weighted expectation values")
    _add_common(p)
    p.add_argument("words", nargs="*", default=None)
    p.set_defaults(func=cmd_expectation)

    p = sub.add_parser("phase", help="broken/unbroken boundary curves")
    _add_common(p)
    p.add_argument("--taus", type=_tau_list, default="0,0.25,0.5")
    p.add_argument("--alpha-lo", dest="alpha_lo", type=float, default=0.5)
    p.add_argument("--alpha-hi", dest="alpha_hi", type=float, default=16.0)
    p.add_argument("--alpha-steps", dest="alpha_steps", type=int, default=300)
    p.add_argument("--check", action="store_true")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("verify", help="run a library verification suite")
    _add_common(p)
    p.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # numpy / scipy warnings end up as one summary line, not raw stderr lines
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
        finally:
            if caught:
                counts = Counter(w.category.__name__ for w in caught)
                print("warnings: " + ", ".join(f"{k} {name}" for name, k
                                               in sorted(counts.items())),
                      file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
