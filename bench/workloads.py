"""Seeded request streams and per-request output checks for the workloads.

Every workload is a stream of blocks; block k of seed s depends on (s, k)
only, so runs of any number of blocks see the same inputs for the same
seed.  A block is balanced: it holds each cell of
the workload's grid (command; or model, representation and size) once and
spreads tau over its whole range in equal log-strata, which keeps the
request mix of a run steady whatever the block count.

Each check uses the threshold the repository's acceptance suite applies.
Thresholds on absolute differences are scaled by max(1, |reference|), which
equals the suite's absolute tolerance where the suite checks (references of
order 1) and keeps large energies at large tau from failing on round-off.
A failure is recorded as (reason, layer, tau decade); a request fails if
any of its checks fails.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time

import numpy as np

TAU_LO, TAU_HI = 1e-4, 50.0
NMAX_CHOICES = (4, 10, 20, 40, 100)
MODELS = ("ho", "swanson", "pt")
REPS = ("pi1", "pi2", "pi3", "pi4")
WORDS = ("P", "P2", "X", "X2", "H")

GRAM_TOL = 1e-8
FD_TOL = 1e-5
INDEPENDENCE_TOL = 1e-6
ENERGY_TOL = 1e-8
METRIC_TOL = 1e-8
ROUND_TRIP_TOL = 1e-10
MASTER_TOL = 1e-8
PHASE_TOL = 1e-9

DISPLAY_POINTS = 2048       # the CLI's default --grid, as wavefunction uses it
PHASE_EVERY = 5             # closed-form-sweep: a phase scan every k-th request
PHASE_STEPS = 300           # the CLI's default alpha window and sampling
METRIC_POINTS = 12          # crosscheck: metric_generic sample points
ROUND_TRIP_POINTS = 5       # crosscheck: p -> q -> p samples
RESIDUAL_POINTS = 11        # crosscheck: master-identity samples per level
DIRECT_WORDS = ("X2", "H")  # crosscheck: words for the direct engine, at n = 1


def _block_rng(seed, block, tag):
    return random.Random(f"{tag}:{seed}:{block}")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _tau_strata(rng, count):
    """count taus, one per equal log-stratum of [TAU_LO, TAU_HI], shuffled."""
    a, b = math.log(TAU_LO), math.log(TAU_HI)
    taus = [math.exp(a + (b - a) * (i + rng.random()) / count) for i in range(count)]
    rng.shuffle(taus)
    return taus


def swanson_discriminant(alpha, beta, tau):
    """D(alpha, beta, tau) in natural units; the spectrum is real iff D >= 0."""
    big = alpha + beta + 1.0
    return 4.0 * (1.0 - 4.0 * alpha * beta) + tau * big * (tau * big - 4.0)


def tau_decade(tau):
    return f"1e{math.floor(math.log10(tau))}"


class Failures:
    """Failure records of one request, with the request's tau decade."""

    def __init__(self, tau):
        self.decade = tau_decade(tau)
        self.records = []

    def add(self, reason, layer):
        self.records.append((reason, layer, self.decade))

    def check(self, ok, reason, layer):
        if not ok:
            self.add(reason, layer)
        return ok

    def error(self, exc, layer):
        self.add(f"error:{type(exc).__name__}", layer)


def _finite(x):
    return bool(np.all(np.isfinite(np.asarray(x))))


def _scaled(dev, ref):
    return dev / max(1.0, abs(ref))


# ---------------------------------------------------------------------------
# in-process workloads

def _model(gs, req):
    if req["model"] == "ho":
        return gs.HarmonicOscillator()
    if req["model"] == "swanson":
        return gs.Swanson(alpha=req["alpha"], beta=req["beta"])
    return gs.PoschlTeller(alpha=req["alpha"], beta=req["beta"])


def _display_grid(gs, sol):
    """The `wavefunction` command's sampling grid for a solution."""
    lo, hi = sol.domain.lo, sol.domain.hi
    if isinstance(sol.model, gs.PoschlTeller):
        lo = 0.0
    n = DISPLAY_POINTS
    if math.isfinite(lo) and math.isfinite(hi):
        h = (hi - lo) / (n + 1)
        return np.linspace(lo + h, hi - h, n)
    span = 6.0 / math.sqrt(sol.params.tau_check)
    if math.isfinite(lo):
        return np.linspace(lo + span / (n + 1), span, n)
    return np.linspace(-span, span, n)


# the acceptance suite's configurations, run through the same checks
REFERENCE_CONFIGS = ({"model": "ho"}, {"model": "swanson", "alpha": 0.1, "beta": 0.2},
                     {"model": "pt", "alpha": 1.0, "beta": 0.5})
REFERENCE_TAU = 0.25


def _draw_config(rng, model, tau, real):
    """Model parameters; a Swanson pair is redrawn until its spectrum is real
    (real=True) or broken (False), as far as 1000 draws allow at this tau."""
    req = {"model": model, "tau": tau}
    if model == "swanson":
        for _ in range(1000):
            alpha = _log_uniform(rng, 0.02, 12.5)
            beta = _log_uniform(rng, 0.02, 12.5)
            if (swanson_discriminant(alpha, beta, tau) >= 0.0) == real:
                break
        req.update(alpha=alpha, beta=beta)
    elif model == "pt":
        req.update(alpha=_log_uniform(rng, 0.25, 4.0), beta=_log_uniform(rng, 0.25, 4.0))
    return req


class ClosedFormSweep:
    """Closed-form path: spectra, states, metrics, Gram matrices, unified
    expectations and phase scans; no FD oracle, no liouville, no direct
    engine.  Configurations never repeat across requests.  A block holds
    every (model, nmax, representation) cell once, and its Swanson requests
    alternate between the real and the broken side of the exceptional-point
    curve."""

    name = "closed-form-sweep"
    block_size = len(MODELS) * len(NMAX_CHOICES) * len(REPS)

    def block(self, seed, k):
        rng = _block_rng(seed, k, self.name)
        taus = _tau_strata(rng, self.block_size)
        cells = [(m, nmax, r) for m in MODELS for nmax in NMAX_CHOICES for r in REPS]
        rng.shuffle(cells)
        out = []
        real = itertools.cycle((True, False))
        for i, ((model, nmax, rep), tau) in enumerate(zip(cells, taus)):
            req = _draw_config(rng, model, tau, real=next(real) if model == "swanson" else True)
            req.update(rep=rep, nmax=nmax)
            if (k * self.block_size + i) % PHASE_EVERY == 0:
                req["phase_taus"] = [0.0, rng.uniform(0.0, 1.0), tau]
            out.append(req)
        return out

    def reference(self):
        return [dict(c, tau=REFERENCE_TAU, rep="pi1", nmax=4,
                     phase_taus=[0.0, 0.25, 0.5]) for c in REFERENCE_CONFIGS]

    def run(self, gs, req, fails):
        params = gs.DeformationParams(tau=req["tau"])
        model = _model(gs, req)
        rep = gs.Representation(req["rep"])
        nmax = req["nmax"]
        if "phase_taus" in req:
            self._phase(gs, req, params, fails)
        try:
            cls = gs.classify_physical(model, rep, params)
            sol = gs.solve(model, rep, params)
            energies = sol.energies(nmax)
        except Exception as exc:  # a typed error is a counted failure
            fails.error(exc, "solutions")
            return
        if not fails.check(_finite(energies), "nonfinite_energy", "solutions"):
            return
        if not cls.physical:
            # broken phase classified as such: complex pairs are the answer
            fails.check(not cls.complex_spectrum or np.any(np.imag(energies) != 0),
                        "classification", "solutions")
            return
        try:
            grid = _display_grid(gs, sol)
            for n in (0, nmax // 2):
                fails.check(_finite(sol.psi(n, grid)), "nonfinite_psi", "solutions")
            rho = sol.metric(grid)
            fails.check(_finite(rho) and np.all(rho >= 0), "nonfinite_metric", "solutions")
            gram = gs.gram_matrix(sol, nmax)
            dev = float(np.max(np.abs(gram - np.eye(nmax + 1))))
            fails.check(dev <= GRAM_TOL, "gram_deviation", "solutions")
        except Exception as exc:
            fails.error(exc, "solutions")
        for n in (0, nmax // 2):
            energy = float(np.real(energies[n]))
            for word in WORDS:
                try:
                    val = gs.expectation_unified(model, params, n, word)
                except Exception as exc:
                    fails.error(exc, "oracle.unified")
                    continue
                if not fails.check(_finite(val), "nonfinite_expectation", "oracle.unified"):
                    continue
                if word == "H":
                    fails.check(_scaled(abs(val - energy), energy) <= ENERGY_TOL,
                                "energy_expectation", "oracle.unified")

    @staticmethod
    def _phase(gs, req, params, fails):
        query = gs.PhaseQuery(params=params, alpha_lo=0.5, alpha_hi=16.0,
                              alpha_steps=PHASE_STEPS, tau_list=tuple(req["phase_taus"]))
        try:
            curves = gs.scan(query)
        except Exception as exc:
            fails.error(exc, "phase")
            return
        worst = max((abs(swanson_discriminant(a, b, c.tau))
                     for c in curves for a, b in c.points), default=math.inf)
        fails.check(worst < PHASE_TOL, "phase_discriminant", "phase")


class Crosscheck:
    """The independent checks: FD oracle, direct engine against the unified
    one, generic metric assembly, and the generic Liouville transform."""

    name = "crosscheck"
    reps = ("pi1", "pi3", "pi4")
    block_size = len(MODELS) * len(reps)

    def block(self, seed, k):
        rng = _block_rng(seed, k, self.name)
        taus = _tau_strata(rng, self.block_size)
        cells = [(m, r) for m in MODELS for r in self.reps]
        rng.shuffle(cells)
        out = []
        for (model, rep), tau in zip(cells, taus):
            req = _draw_config(rng, model, tau, real=True)
            req["rep"] = rep
            out.append(req)
        return out

    def reference(self):
        return [dict(c, tau=REFERENCE_TAU, rep=r) for c in REFERENCE_CONFIGS
                for r in self.reps]

    def run(self, gs, req, fails):
        from gup_spectra.solutions import ansatz_for, default_p0

        params = gs.DeformationParams(tau=req["tau"])
        model = _model(gs, req)
        rep = gs.Representation(req["rep"])
        try:
            sol = gs.solve(model, rep, params)
            energies = [float(np.real(sol.energy(n))) for n in (0, 1)]
        except Exception as exc:
            fails.error(exc, "solutions")
            return
        try:
            report = gs.verify_spectrum(model, rep, params)
            rel = np.asarray(report.rel_errors)
            fails.check(_finite(rel) and np.max(rel) <= FD_TOL, "fd_rel_err", "oracle.fd")
        except Exception as exc:
            fails.error(exc, "oracle.fd")
        self._direct(gs, model, params, fails)
        self._metric(gs, model, rep, params, sol, fails)
        try:
            fgh = gs.coefficients(model, rep, params)
            tr = gs.to_potential(fgh, default_p0(model, rep, params))
            ps = self._interior(gs, model, fgh.domain, 6.0, ROUND_TRIP_POINTS)
            back = tr.p_of_q(tr.q_of_p(ps))
            dev = float(np.max(np.abs(back - ps) / np.maximum(1.0, np.abs(ps))))
            fails.check(dev <= ROUND_TRIP_TOL, "round_trip", "liouville")
            span = tr.q_hi - tr.q_lo
            qs = np.linspace(tr.q_lo + 0.05 * span, tr.q_hi - 0.05 * span,
                             RESIDUAL_POINTS)
            # both sides of the identity carry V, so its size sets the round-off;
            # every well here is largest at its outermost samples
            scale = max(abs(e) for e in energies) + float(np.max(np.abs(tr.V(qs[[0, -1]]))))
            for n, energy in enumerate(energies):
                res = gs.master_residual(ansatz_for(sol, n, coordinates="centered"),
                                         tr, energy, qs)
                fails.check(_scaled(res, scale) <= MASTER_TOL, "master_residual",
                            "liouville")
        except Exception as exc:
            fails.error(exc, "liouville")

    @staticmethod
    def _direct(gs, model, params, fails):
        for word in DIRECT_WORDS:
            try:
                ref = gs.expectation_unified(model, params, 1, word)
            except Exception as exc:
                fails.error(exc, "oracle.unified")
                continue
            if not fails.check(_finite(ref), "nonfinite_expectation", "oracle.unified"):
                continue
            for rep in (gs.Representation.PI1, gs.Representation.PI2,
                        gs.Representation.PI3):
                try:
                    val = gs.expectation_direct(model, rep, params, 1, word)
                except Exception as exc:
                    fails.error(exc, "oracle.direct")
                    continue
                ok = _finite(val) and _scaled(abs(val - ref), ref) <= INDEPENDENCE_TOL
                fails.check(ok, "rep_independence", "oracle.direct")

    def _metric(self, gs, model, rep, params, sol, fails):
        try:
            rho = gs.metric_generic(model, rep, params)
            pts = self._interior(gs, model, sol.domain, 8.0, METRIC_POINTS)
            ratio = rho(pts) / sol.metric(pts)
            dev = float(np.max(np.abs(ratio / ratio[0] - 1.0)))
            fails.check(_finite(ratio) and dev <= METRIC_TOL, "metric_ratio", "liouville")
        except Exception as exc:
            fails.error(exc, "liouville")

    @staticmethod
    def _interior(gs, model, dom, half, count):
        """Points inside the domain, 5% in from its ends, as the tests sample."""
        lo = dom.lo if math.isfinite(dom.lo) else -half
        hi = dom.hi if math.isfinite(dom.hi) else half
        if isinstance(model, gs.PoschlTeller):
            lo = max(lo, 0.05 * min(hi, half))
        span = hi - lo
        return np.linspace(lo + 0.05 * span, hi - 0.05 * span, count)


# ---------------------------------------------------------------------------
# cli-session

CLI_COMMANDS = {
    "spectrum": ["spectrum", "--model", "ho", "--tau", "0.2", "--nmax", "5"],
    "spectrum_oracle": ["spectrum", "--model", "swanson", "--alpha", "15",
                        "--beta", "0.1", "--tau", "0.5", "--nmax", "3",
                        "--oracle", "--check", "--tol", "1e-4"],
    "wavefunction": ["wavefunction", "--model", "pt", "--tau", "0.25",
                     "--alpha", "1", "--beta", "0.5", "--n", "0"],
    "metric": ["metric", "--model", "ho", "--rep", "pi1", "--tau", "0.2"],
    "expectation": ["expectation", "--model", "ho", "--tau", "0.2", "--nmax", "2",
                    "P", "P2", "X", "X2", "H"],
    "expectation_direct": ["expectation", "--model", "ho", "--rep", "pi1",
                           "--tau", "0.2", "--nmax", "2", "P", "P2", "X", "X2", "H"],
    "phase": ["phase", "--taus", "0,0.25,0.5", "--alpha-lo", "0.5", "--alpha-hi",
              "16", "--alpha-steps", "300", "--check"],
    "verify": ["verify", "all"],
    # the two calls the roadmap names as printing inf/NaN with exit 0
    "wavefunction_lowtau": ["wavefunction", "--model", "ho", "--tau", "0.01"],
    "expectation_lowtau": ["expectation", "--tau", "0.001", "H"],
}


def _cli_tau(name):
    """The command's --tau, or the CLI default 0.1 that phase and verify use."""
    argv = CLI_COMMANDS[name]
    return float(argv[argv.index("--tau") + 1]) if "--tau" in argv else 0.1


def _all_finite_json(node):
    if isinstance(node, dict):
        return all(_all_finite_json(v) for v in node.values())
    if isinstance(node, list):
        return all(_all_finite_json(v) for v in node)
    if isinstance(node, float):
        return math.isfinite(node)
    return True


def check_cli_output(name, rc, out, previous, fails):
    """Exit 0, finite numbers, and output identical to the previous run."""
    layer = f"cli.{name}"
    fails.check(rc == 0, f"exit_{rc}", layer)
    if name == "verify":
        try:
            report = json.loads(out)
            ok = _all_finite_json(report) and report.get("passed") is True
        except ValueError:
            ok = False
        fails.check(ok, "verify_report", layer)
    else:
        lines = out.splitlines()
        finite = bool(lines)
        for line in lines[1:]:
            for field in line.split(","):
                try:
                    finite = finite and math.isfinite(float(field))
                except ValueError:
                    pass  # operator words such as "P2"
        fails.check(finite, "nonfinite_output", layer)
    if name in previous:
        fails.check(previous[name] == out, "output_changed", layer)
    previous[name] = out


class CliSession:
    """One fresh `python -m gup_spectra.cli` process per command, in seeded
    order; a block is one pass over all ten commands."""

    name = "cli-session"
    block_size = len(CLI_COMMANDS)

    def block(self, seed, k):
        names = sorted(CLI_COMMANDS)
        _block_rng(seed, k, self.name).shuffle(names)
        return [{"command": n, "tau": _cli_tau(n)} for n in names]

    def reference(self):
        """The README examples; the two low-tau calls are known to fail."""
        return [n for n in CLI_COMMANDS if not n.endswith("_lowtau")]


def cli_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(root, argv, env, boot=None):
    """Run one command in a fresh interpreter; (rc, stdout, stderr, seconds)."""
    if boot is None:
        cmd = [sys.executable, "-m", "gup_spectra.cli", *argv]
    else:
        cmd = [sys.executable, *boot, *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=170)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - t0


def count_runtime_warnings(caught):
    return sum(1 for w in caught if issubclass(w.category, RuntimeWarning))


WORKLOADS = {w.name: w for w in (CliSession(), ClosedFormSweep(), Crosscheck())}
