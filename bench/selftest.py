#!/usr/bin/env python3
"""Self-test of the benchmark harness (not of gup-spectra).

    python3 bench/selftest.py

Checks that a seed fixes the request list and the traced counters, that a
perturbed reference energy is counted as a failure, that every workload
completes a short run whose result line matches BENCHMARK.json, and that a
traced run reports the tracing overhead.  Takes about two minutes.
"""

import contextlib
import io
import json
import math
import os
import sys

import run  # sets the BLAS thread cap before numpy is imported

sys.path.insert(0, run.SRC)

import gup_spectra as gs  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

IN_PROCESS = ("closed-form-sweep", "crosscheck")


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        check.failed += 1


check.failed = 0


def same_seed_same_requests():
    for name, wl in W.WORKLOADS.items():
        first = [wl.block(7, k) for k in range(3)]
        again = [wl.block(7, k) for k in range(3)]
        other = [wl.block(8, k) for k in range(3)]
        check(json.dumps(first) == json.dumps(again), f"{name}: seed 7 repeats its requests")
        check(json.dumps(first) != json.dumps(other), f"{name}: seed 8 gives other requests")


def traced_counters(wl, requests):
    rec = T.Tracer()
    stats = run.Stats()
    undo = T.install(rec)
    try:
        run.run_requests(gs, wl, requests, stats, tracer=rec)
    finally:
        T.uninstall(undo)
    calls, _ = rec.self_times()
    return dict(calls), dict(rec.counts), dict(stats.layers), stats.warnings


def same_seed_same_counters():
    for name in IN_PROCESS:
        wl = W.WORKLOADS[name]
        requests = wl.block(3, 0)[:6]
        first = traced_counters(wl, requests)
        check(first == traced_counters(wl, requests) and sum(first[0].values()) > 0,
              f"{name}: traced counters repeat exactly for one seed")


def perturbed_energy_fails():
    cls = gs.ClosedFormSolution
    original = cls.energy
    cls.energy = lambda self, n: original(self, n) * (1.0 + 1e-3)
    try:
        for name, reason in (("closed-form-sweep", "energy_expectation"),
                             ("crosscheck", "fd_rel_err")):
            ok, records = run.reference_ok(gs, W.WORKLOADS[name])
            check(not ok and any(r[0] == reason for r in records),
                  f"{name}: a perturbed reference energy fails with {reason}")
    finally:
        cls.energy = original
    for name in IN_PROCESS:
        ok, records = run.reference_ok(gs, W.WORKLOADS[name])
        check(ok, f"{name}: the unperturbed reference passes {records}")


def result_line(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(argv)
    return rc, json.loads(buf.getvalue().strip().splitlines()[-1])


def smoke_runs():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
          == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == [(n, run.per_layer_unit(n), run.per_layer_better(n))
              for n in run.PER_LAYER_NAMES], "BENCHMARK.json per_layer matches run.py")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(W.WORKLOADS),
          "BENCHMARK.json names every workload")
    for name in W.WORKLOADS:
        rc, res = result_line(["--workload", name, "--seed", "1", "--seconds", "1"])
        units = {k: v["unit"] for k, v in res["metrics"].items()}
        finite = all(math.isfinite(v["value"]) for v in res["metrics"].values())
        check(rc == 0 and res["attempted"] >= 1 and units == e2e and finite,
              f"{name}: smoke run reports every end-to-end metric")
    run.TRACE_BLOCKS = dict(run.TRACE_BLOCKS, **{n: 1 for n in IN_PROCESS})
    rc, res = result_line(["--workload", "crosscheck", "--seed", "1", "--seconds", "1",
                           "--trace", "1"])
    units = {k: v["unit"] for k, v in res["metrics"].items()}
    overhead = res["metrics"].get("trace.overhead_ratio", {}).get("value")
    check(rc == 0 and units == layers and overhead is not None and math.isfinite(overhead),
          f"crosscheck: traced run reports every per-layer metric, overhead {overhead}")


def main():
    same_seed_same_requests()
    same_seed_same_counters()
    perturbed_energy_fails()
    smoke_runs()
    print(f"{check.failed} failed")
    return 1 if check.failed else 0


if __name__ == "__main__":
    sys.exit(main())
