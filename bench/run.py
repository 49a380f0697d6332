#!/usr/bin/env python3
"""gup-spectra benchmark: end-to-end numbers per workload, per-layer numbers
from a separate traced run.

Run from the repository root; nothing needs to be installed or built, the
package is imported from ``src``:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/selftest.py

Workloads, all closed loop with one client and BLAS capped at one thread:

* ``cli-session``: one fresh ``python -m gup_spectra.cli`` process per
  command, one after another: the eight README examples and the two calls
  that print inf/NaN (``wavefunction --model ho --tau 0.01`` and
  ``expectation --tau 0.001 H``), in seeded order.  Start-up is most of each
  command, and only this workload pays it per operation.
* ``closed-form-sweep``: in-process stream of configurations (model,
  representation, tau log-uniform on [1e-4, 50], nmax in {4..100}); each
  request classifies, solves, samples psi and the metric, builds the Gram
  matrix and evaluates unified expectations; every 5th runs a phase scan.
  No FD oracle, liouville or direct engine.  Configurations never repeat.
* ``crosscheck``: in-process stream of physical configurations; each
  request runs the FD oracle, the direct engine against the unified one,
  the generic metric assembly and the generic Liouville transform.

An operation is a command (cli-session) or a request.  Untraced runs
(``--trace 0``) run a fixed number of blocks of operations, set by
``--seconds`` and the workload's nominal block time (BLOCK_SECONDS), and
report the end-to-end metrics.  So a seed and a length fix the operations,
and with them ``attempted`` and ``failed``; at the seed commit a run takes
about ``--seconds``, and a faster program finishes sooner.  Traced runs
(``--trace 1``) run a fixed list of blocks twice, untraced and then traced,
so their counters repeat exactly for a seed, and report the per-layer
metrics; their ops/s gap is the tracing overhead.

Every operation's output is checked (see workloads.py).  ``failed`` counts
the operations with any failed check, and ``fail_ratio`` is failed over
attempted.  ``correct`` is true when the reference operations pass: the
README commands in cli-session, and for the in-process workloads the
acceptance suite's configurations (tau = 0.25; HO, Swanson(0.1, 0.2),
PT(1, 0.5)) run through the same checks before the timed window.

The last stdout line is the JSON result.  The full record (environment,
failure breakdown by reason, layer and tau decade, the tail percentile and
its sample count) is written to ``bench/out/``, and a traced run also
writes its spans there.
"""

import argparse
import datetime
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import Counter

# before numpy is first imported (by workloads, in main)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# Seconds one block takes at the seed commit (2-vCPU Xeon, BLAS on one
# thread): ten commands, 60 and 9 requests.  An untraced run takes
# round(seconds / BLOCK_SECONDS) blocks, at least one.
BLOCK_SECONDS = {"cli-session": 11.0, "closed-form-sweep": 4.0, "crosscheck": 1.0}
# Fixed per workload, so a faster program is judged at the same percentile.
# Each leaves at least 10 samples beyond it in a 20 s run: 20 commands,
# 300 and 180 requests.
TAIL_PERCENTILE = {"cli-session": 50, "closed-form-sweep": 95, "crosscheck": 90}
# traced runs take a fixed request list, about 10 s per pass at the seed commit
TRACE_BLOCKS = {"cli-session": 1, "closed-form-sweep": 3, "crosscheck": 12}

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _spanned(name, *extra):
    return [f"{name}.calls", f"{name}.self_s"] + [f"{name}.{e}" for e in extra]


PER_LAYER_NAMES = (
    ["import.total_s", "import.scipy_integrate_s", "import.scipy_special_s",
     "import.scipy_linalg_s", "import.gup_spectra_self_s"]
    + ["cli.{}.work_s".format(c) for c in (
        "spectrum", "spectrum_oracle", "wavefunction", "metric", "expectation",
        "expectation_direct", "phase", "verify", "wavefunction_lowtau",
        "expectation_lowtau")]
    + ["cli.emit.self_s"]
    + _spanned("specfun.assoc_legendre", "points") + _spanned("specfun.jacobi", "points")
    + _spanned("specfun.jet")
    + _spanned("solutions.solve") + _spanned("solutions.norm", "hit_ratio")
    + _spanned("solutions.psi", "points") + _spanned("solutions.gram_matrix")
    + _spanned("solutions.native_quadrature")
    + _spanned("oracle.expectation_unified", "fail") + _spanned("oracle.roots_jacobi")
    + _spanned("phase.scan", "points") + ["phase.boundary_beta.calls"]
    + _spanned("oracle.verify_spectrum", "fail") + _spanned("oracle.fd_eigenvalues")
    + _spanned("oracle.eigvalsh_tridiagonal", "rows")
    + _spanned("solutions.transformed_potential")
    + _spanned("oracle.expectation_direct", "fail")
    + _spanned("operators.apply_X", "points") + _spanned("operators.apply_P")
    + _spanned("liouville.to_potential") + _spanned("liouville.transform", "points")
    + ["liouville.v_from_Qw.calls", "liouville.v_from_Qw.points"]
    + _spanned("liouville.master_residual") + ["liouville.quad.calls"]
    + _spanned("solutions.metric_generic")
    + ["warnings.runtime", "trace.overhead_ratio"]
)

_UNIT_BY_SUFFIX = {"calls": "count", "points": "count", "rows": "count",
                   "fail": "count", "hit_ratio": "ratio", "runtime": "count",
                   "overhead_ratio": "ratio"}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    return _UNIT_BY_SUFFIX[name.rsplit(".", 1)[1]]


def per_layer_better(name):
    return "higher" if name.endswith("hit_ratio") else "lower"


# failure-record layer behind each ".fail" counter
_FAIL_LAYER = {"oracle.expectation_unified": "oracle.unified",
               "oracle.verify_spectrum": "oracle.fd",
               "oracle.expectation_direct": "oracle.direct"}


class Stats:
    """Latencies, failures and warnings of the operations of one pass."""

    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.reasons = Counter()
        self.layers = Counter()
        self.decades = Counter()
        self.decade_attempted = Counter()
        self.warnings = 0
        self.wall = 0.0
        self.failed_names = set()

    def add(self, seconds, fails, runtime_warnings, name=None):
        self.latencies.append(seconds)
        self.decade_attempted[fails.decade] += 1
        self.warnings += runtime_warnings
        if fails.records:
            self.failed += 1
            self.decades[fails.decade] += 1
            self.failed_names.add(name)
        for reason, layer, _ in fails.records:
            self.reasons[reason] += 1
            self.layers[layer] += 1

    @property
    def attempted(self):
        return len(self.latencies)

    def breakdown(self):
        return {
            "by_reason": dict(sorted(self.reasons.items())),
            "by_layer": dict(sorted(self.layers.items())),
            "failed_by_tau_decade": {d: [self.decades[d], self.decade_attempted[d]]
                                     for d in sorted(self.decade_attempted)},
        }


def run_requests(gs, wl, requests, stats, tracer=None):
    """Run in-process requests in order, adding to stats."""
    import workloads as W

    t0 = time.perf_counter()
    for req in requests:
        fails = W.Failures(req["tau"])
        if tracer is not None:
            tracer.request = stats.attempted
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = time.perf_counter()
            wl.run(gs, req, fails)
            d = time.perf_counter() - s
        stats.add(d, fails, W.count_runtime_warnings(caught))
    stats.wall += time.perf_counter() - t0


def run_commands(requests, stats, previous, env, boot_dir=None):
    """Run cli-session commands in order, adding to stats.  With boot_dir
    each runs traced and leaves its record there as cmd<i>.json, i being
    its index in stats."""
    import workloads as W

    t0 = time.perf_counter()
    for req in requests:
        name = req["command"]
        boot = None
        if boot_dir is not None:
            boot = [os.path.join(HERE, "cli_boot.py"),
                    os.path.join(boot_dir, f"cmd{stats.attempted}.json")]
        rc, out, err, d = W.run_cli(ROOT, W.CLI_COMMANDS[name], env, boot)
        fails = W.Failures(req["tau"])
        W.check_cli_output(name, rc, out, previous, fails)
        stats.add(d, fails, err.count("RuntimeWarning"), name)
    stats.wall += time.perf_counter() - t0


def run_blocks(name, seconds):
    """Blocks in an untraced run of the given nominal length."""
    return max(1, round(seconds / BLOCK_SECONDS[name]))


def measure_setup(env):
    """Median wall time of a fresh interpreter importing gup_spectra.cli."""
    cmd = [sys.executable, "-c", "import gup_spectra.cli"]
    # Output is captured, so the end of the child is seen on its pipes; a
    # bare wait with a timeout polls in steps of up to 50 ms.
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True,
                   timeout=120)  # warm caches
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=env, check=True, capture_output=True,
                       timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def import_breakdown(env):
    """import.* metrics from `python -X importtime`, median over repeats."""
    keys = ("import.total_s", "import.scipy_integrate_s", "import.scipy_special_s",
            "import.scipy_linalg_s", "import.gup_spectra_self_s")
    samples = {k: [] for k in keys}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import gup_spectra.cli"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        total = own = 0
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
                cum_us = int(parts[1])
            except ValueError:
                continue  # the header line
            module = parts[2].strip()
            total += self_us
            cumulative[module] = cum_us
            if module == "gup_spectra" or module.startswith("gup_spectra."):
                own += self_us
        for key, value in zip(keys, (
                total, cumulative.get("scipy.integrate", 0),
                cumulative.get("scipy.special", 0), cumulative.get("scipy.linalg", 0),
                own)):
            samples[key].append(value * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}


def tail(latencies, percentile):
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(args):
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown: not a git checkout"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def reference_ok(gs, wl):
    """The acceptance suite's configurations pass every check."""
    import workloads as W

    for req in wl.reference():
        fails = W.Failures(req["tau"])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wl.run(gs, req, fails)
        if fails.records:
            return False, fails.records
    return True, []


def untraced(gs, wl, args, env):
    is_cli = wl.name == "cli-session"
    stats = Stats()
    if is_cli:
        previous = {}
        run_block = functools.partial(run_commands, stats=stats, previous=previous,
                                      env=env)
    else:
        ok, ref_fail = reference_ok(gs, wl)
        run_block = functools.partial(run_requests, gs, wl, stats=stats)
    blocks = run_blocks(wl.name, args.seconds)
    for k in range(blocks):
        run_block(wl.block(args.seed, k))
    if is_cli:
        ref_fail = sorted(stats.failed_names & set(wl.reference()))
        ok = not ref_fail
    value, beyond = tail(stats.latencies, TAIL_PERCENTILE[wl.name])
    metrics = {
        "ops_per_s": (stats.attempted / stats.wall, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(stats.latencies), "ms"),
        "op_tail_ms": (1e3 * value, "ms"),
        "fail_ratio": (stats.failed / stats.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb(children=is_cli), "MB"),
    }
    extra = {"tail_percentile": TAIL_PERCENTILE[wl.name], "tail_beyond": beyond,
             "samples": stats.attempted, "blocks": blocks, "wall_s": stats.wall,
             "reference_failures": ref_fail, "failures": stats.breakdown(),
             "warnings_runtime": stats.warnings}
    return ok, stats, metrics, extra


def _merge_boot_records(boot_dir, count):
    import tracer as T

    merged = T.Tracer()
    work = {}
    for rid in range(count):
        with open(os.path.join(boot_dir, f"cmd{rid}.json"), encoding="utf-8") as fh:
            rec = json.load(fh)
        offset = len(merged.spans)
        for name, start, end, parent, _ in rec["spans"]:
            merged.spans.append([name, start, end,
                                 parent + offset if parent >= 0 else -1, rid])
        merged.counts.update(rec["counts"])
        work[rid] = rec["work_s"]
    return merged, work


def traced(gs, wl, args, env):
    import tracer as T

    blocks = [wl.block(args.seed, k) for k in range(TRACE_BLOCKS[wl.name])]
    # untraced and traced passes alternate, so drift in machine speed
    # reaches both alike
    plain, stats = Stats(), Stats()
    if wl.name == "cli-session":
        previous = {}
        requests = [req for block in blocks for req in block]
        boot_dir = tempfile.mkdtemp(prefix="boot-", dir=OUT)
        try:
            for req in requests:
                run_commands([req], plain, previous, env)
                run_commands([req], stats, previous, env, boot_dir)
            rec, work = _merge_boot_records(boot_dir, stats.attempted)
        finally:
            shutil.rmtree(boot_dir, ignore_errors=True)
        per_command = {}
        for rid, seconds in work.items():
            per_command.setdefault(requests[rid]["command"], []).append(seconds)
        cli_work = {n: statistics.median(v) for n, v in per_command.items()}
        ok = not (stats.failed_names & set(wl.reference()))
    else:
        ok, _ = reference_ok(gs, wl)
        rec = T.Tracer()
        for block in blocks:
            run_requests(gs, wl, block, plain)
            undo = T.install(rec)
            try:
                run_requests(gs, wl, block, stats, tracer=rec)
            finally:
                T.uninstall(undo)
        cli_work = {}
    imports = import_breakdown(env)
    overhead = (plain.attempted / plain.wall) / (stats.attempted / stats.wall) - 1.0
    metrics = layer_metrics(rec, stats, cli_work, imports, overhead)
    spans_path = os.path.join(OUT, f"{wl.name}-seed{args.seed}.spans.csv")
    rec.write_spans(spans_path)
    extra = {"spans_file": os.path.relpath(spans_path, ROOT), "spans": len(rec.spans),
             "samples": stats.attempted, "blocks": len(blocks),
             "ops_per_s_untraced": plain.attempted / plain.wall,
             "ops_per_s_traced": stats.attempted / stats.wall,
             "failures": stats.breakdown()}
    return ok, stats, metrics, extra


def layer_metrics(rec, stats, cli_work, imports, overhead):
    calls, self_s = rec.self_times()
    out = {}
    for name in PER_LAYER_NAMES:
        base, _, field = name.rpartition(".")
        if name in imports:
            value = imports[name]
        elif name.startswith("cli.") and field == "work_s":
            value = cli_work.get(base[len("cli."):], 0.0)
        elif name == "warnings.runtime":
            value = stats.warnings
        elif name == "trace.overhead_ratio":
            value = overhead
        elif field == "calls":
            value = calls[base] if base in calls else rec.counts.get(name, 0)
        elif field == "self_s":
            value = self_s[base]
        elif field in ("points", "rows"):
            value = rec.counts.get(base + ".points", 0)
        elif field == "fail":
            value = stats.layers[_FAIL_LAYER[base]]
        elif field == "hit_ratio":
            value = rec.counts.get(base + ".hits", 0) / calls[base] if calls[base] else 0.0
        else:
            raise KeyError(name)
        out[name] = (value, per_layer_unit(name))
    return out


def main(argv=None):
    import workloads as W

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gup_spectra", "cli.py")):
        print(f"bench: no gup_spectra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gup_spectra as gs

    os.makedirs(OUT, exist_ok=True)
    env = W.cli_env(ROOT)
    wl = W.WORKLOADS[args.workload]
    if args.trace:
        ok, stats, metrics, extra = traced(gs, wl, args, env)
    else:
        setup_s, extra_setup = measure_setup(env)
        ok, stats, metrics, extra = untraced(gs, wl, args, env)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        extra["setup_samples_s"] = extra_setup
    record = {"environment": environment(args), "correct": ok,
              "attempted": stats.attempted, "failed": stats.failed,
              **extra,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    path = os.path.join(OUT, f"{wl.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"# {wl.name} seed={args.seed} trace={args.trace} record={os.path.relpath(path, ROOT)}")
    for key in ("python", "numpy", "scipy", "cpu", "nproc", "blas_threads", "git_commit"):
        print(f"#   {key}: {record['environment'][key]}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    if not args.trace:
        print(f"# op_tail_ms is p{extra['tail_percentile']} of {extra['samples']} "
              f"samples, {extra['tail_beyond']} beyond it")
    else:
        print(f"# tracing overhead: {extra['ops_per_s_untraced']:.4g} ops/s untraced, "
              f"{extra['ops_per_s_traced']:.4g} ops/s traced")
    print(f"# failed {stats.failed} of {stats.attempted}: "
          + json.dumps(extra["failures"], sort_keys=True))
    print(json.dumps({"correct": ok, "attempted": stats.attempted, "failed": stats.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
