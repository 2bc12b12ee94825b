#!/usr/bin/env python3
"""SegHDC benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload still-direct --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with spans around every layer's public
calls and reports the per-layer metrics.  Metric lines go to standard
output as they are measured; the last line is the JSON result named in
``BENCHMARK.json``.  Output checks run after the timed phases, and a
failed one makes the run exit 1.  The exit code is 2 when the program is
not in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Upper bound on one run, kept below the 180 s a run may take.
RUN_LIMIT_SECONDS = 170

WORKLOADS = ("still-direct", "wire-mixed", "gigapixel-tiled")


def _interrupt(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def _program_available() -> bool:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    source = str(ROOT / "src")
    sys.path.insert(0, source)
    # Replica subprocesses import the program the same way.
    os.environ["PYTHONPATH"] = source + (
        os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else ""
    )
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _program_available():
        print(f"error: the SegHDC sources are not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    import importlib

    import numpy

    from measure import descendants, reap, stop_resource_tracker
    from report import Report

    module = importlib.import_module(args.workload.replace("-", "_"))
    print(
        f"[{args.workload}] seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} topology={module.TOPOLOGY}",
        flush=True,
    )
    report = Report(args.workload)
    signal.signal(signal.SIGTERM, _interrupt)
    signal.signal(signal.SIGALRM, _interrupt)
    signal.alarm(RUN_LIMIT_SECONDS)
    unwrap = None
    try:
        tracer = None
        if args.trace:
            from spans import Tracer, instrument

            tracer = Tracer()
            unwrap = instrument(tracer)
        module.run(report, args.seed, args.seconds, tracer)
    finally:
        signal.alarm(0)
        if unwrap is not None:
            unwrap()
        stop_resource_tracker()
        with contextlib.suppress(RuntimeError):
            reap(descendants(), timeout=5.0)
    if set(report.metrics) != expected:
        print(
            f"error: metrics {sorted(set(report.metrics) ^ expected)} do not match "
            "BENCHMARK.json",
            file=sys.stderr,
        )
        return 3
    print(report.emit(), flush=True)
    return 1 if report.check_failures or report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
