#!/usr/bin/env python3
"""End-to-end CFTCG campaign benchmark.

Runs whole fuzzing campaigns (or service jobs) on four models through
the public API and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` the run repeats the same campaigns with every layer
boundary wrapped and reports the per-layer split instead.  The line
before it is a JSON detail record: one row per model, the latency tail
with its percentile and sample count, and every failed check.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload kernel_campaign --seed 1 \\
        --seconds 10 --trace 0
    python3 e2ebench/run.py --workload service_jobs --seed 1 --smoke

Every operation is checked: its suite is replayed on the independent
interpreter and must cover exactly the probes the engine claims; one
campaign per run is repeated and must reproduce its digest and coverage
exactly; in the traced run every campaign must reproduce the untraced
run's digest.  A failed check counts the operation as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--smoke", action="store_true",
        help="tiny budgets, one round, one set-up (the benchmark's tests)",
    )
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print("error: no repro package under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from measure import run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    # everything the run writes (compile caches, the C compiler's
    # temporaries, the service store) stays inside the checkout
    base = os.path.join(ROOT, ".e2ebench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    os.environ["TMPDIR"] = work
    tempfile.tempdir = work
    # a terminated run still stops its daemon and workers and removes
    # its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = run(args, work)
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
