"""Benchmark for frakspace: one workload per run, one JSON result line.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory, never from an installed copy. A run sets up its inputs
SETUP_REPEATS times, re-importing the package each time, and reports the
median as ``setup_s``. It then issues whole passes of the workload while the
next one should end within ``--seconds`` (at least one pass), and checks the
outputs of the last pass against independent oracles. ``pass_s`` is the
median wall time of a pass; ``query_p50_ms`` and ``query_p99_ms`` are
percentiles of the latencies of all calls of all passes.

With ``--trace 1`` it sets up once, with the tracer installed, and reports
the per-layer metrics of one pass instead; spans and totals go to
``.bench_out/trace-<workload>-<seed>.json``.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit code 2 means no result: bad arguments, or no package to benchmark.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5

sys.path.insert(0, str(BENCH_DIR))

from layers import LayerProbe, per_layer  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_package():
    """A fresh import of frakspace from the checkout's src directory."""
    for name in [m for m in sys.modules if m == "frakspace" or m.startswith("frakspace.")]:
        del sys.modules[name]
    fs = importlib.import_module("frakspace")
    importlib.import_module("frakspace.cli")
    if Path(fs.__file__).resolve().parent != ROOT / "src" / "frakspace":
        raise ImportError(f"frakspace imported from {fs.__file__}, not this checkout")
    return fs


def run_passes(ops, seconds: float):
    """Whole passes for as long as the next one should end within ``seconds``.

    The first pass always runs; a pass longer than ``seconds`` runs once.

    Returns the last pass's results, the latency of every call in seconds
    (one row per pass), the wall time of each pass and the number of calls
    that raised.
    """
    latencies, pass_times, failed = [], [], 0
    start = time.perf_counter()
    while not pass_times or time.perf_counter() - start + pass_times[-1] <= seconds:
        results, row = [], []
        pass_start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                results.append(op())
            except Exception:
                failed += 1
                results.append(None)
                traceback.print_exc(file=sys.stderr)
            row.append(time.perf_counter() - t0)
        pass_times.append(time.perf_counter() - pass_start)
        latencies.append(row)
    return results, np.asarray(latencies), pass_times, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "frakspace" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'frakspace'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{args.workload}-{args.seed}"
    workload = WORKLOADS[args.workload]

    tracer = probe = None
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        fs = import_package()
        if args.trace:
            tracer = Tracer()
            probe = LayerProbe(tracer, fs)
        state = workload.setup(fs, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    ops = workload.operations(state)
    if probe is not None:
        before = probe.snapshot()
        probe.matrix_times.clear()
    results, latencies, pass_times, failed = run_passes(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        after = probe.snapshot()
        tracer.restore()
        tracer.write(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
        state["matrices"] = probe.verify_matrices

    problems = workload.check(state, results)
    shutil.rmtree(workdir, ignore_errors=True)
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)

    pass_s = statistics.median(pass_times)
    if args.trace:
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in per_layer(
                before, after, len(pass_times), probe.ladder(), pass_s
            ).items()
        }
    else:
        lat_ms = latencies * 1e3
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "query_p50_ms": {"value": float(np.percentile(lat_ms, 50)), "unit": "ms"},
            "query_p99_ms": {"value": float(np.percentile(lat_ms, 99)), "unit": "ms"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": latencies.size,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("converged_ratio", "builds_per_cloud")) or ".n_exponent." in name:
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
