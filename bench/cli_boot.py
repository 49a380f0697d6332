"""Run one gup-spectra CLI command with the layer tracer installed.

    python bench/cli_boot.py OUT.json ARGV...

Imports the CLI, installs the wrappers, calls ``gup_spectra.cli.main(ARGV)``
and writes the import time, the command's work time (wall time of ``main``),
its spans and its counters to OUT.json.  The command's own output goes to
stdout and stderr as usual, and its exit code is the command's.
"""

import json
import sys
import time

t0 = time.perf_counter()
import gup_spectra.cli as cli  # noqa: E402

t1 = time.perf_counter()
import tracer  # noqa: E402

rec = tracer.Tracer()
tracer.install(rec)
rc = 1
t2 = time.perf_counter()
try:
    rc = cli.main(sys.argv[2:])
finally:
    t3 = time.perf_counter()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_s": t1 - t0, "work_s": t3 - t2, "rc": rc,
                   "spans": rec.spans, "counts": rec.counts}, fh)
sys.exit(rc)
