"""Benchmark of the quasigalois exact census and its numeric oracle.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports ``quasigalois`` from the checkout's ``src`` directory, builds the
workload's inputs from the seed, and runs timed passes over them.  With
``--trace 0`` it reports the end-to-end metrics: set-up time (median of
several fresh imports plus input builds), and the median wall time and
process CPU time of one pass, and the process's peak RSS.  With ``--trace 1``
it times field operations directly, runs one pass untraced and one traced,
writes the spans to ``perfbench/out/``, and reports the per-layer metrics.
Every pass is checked; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path[:0] = [str(HERE), str(SRC)]

import probe  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ROUNDS = 5
PACKAGE = "quasigalois"


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def fresh_import():
    """Import the package from the checkout, discarding any earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    qg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(qg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError("%s was imported from %s, not %s" % (PACKAGE, qg.__file__, SRC))
    return qg


def set_up(workload_cls, seed):
    """Median set-up time over fresh rounds, and the last round's workload."""
    times = []
    workload = None
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        qg = fresh_import()
        workload = workload_cls(qg, seed)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), workload


def timed_pass(workload):
    gc.collect()
    w0, c0 = time.perf_counter(), time.process_time()
    attempted, failed = workload.run_pass()
    return time.perf_counter() - w0, time.process_time() - c0, attempted, failed


def measure(workload, seconds):
    """Passes until the next one would end after ``seconds`` (at least one)."""
    walls, cpus = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        wall, cpu, a, f = timed_pass(workload)
        walls.append(wall)
        cpus.append(cpu)
        attempted += a
        failed += f
        if time.perf_counter() - start + wall > seconds:
            break
    return walls, cpus, attempted, failed


def provenance():
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def end_to_end(workload, seconds, setup_s):
    walls, cpus, attempted, failed = measure(workload, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss_mb,
    }
    return metrics, attempted, failed, {"passes": len(walls), "walls": walls, "cpus": cpus}


def per_layer(workload, seed, qg):
    """Field probe, then one untraced and one traced pass.

    Two passes, not more, keep the run of the longest workload well inside
    its time limit; the tracing overhead therefore carries the host's
    pass-to-pass noise.
    """
    metrics = probe.field_probe(qg, seed)
    plain, _, attempted, failed = timed_pass(workload)
    tracer = tracing.Tracer()
    tracer.install(qg)
    try:
        traced, _, a, f = timed_pass(workload)
    finally:
        tracer.restore()
    attempted += a
    failed += f
    metrics.update(tracing.layer_metrics(tracer))
    checked = getattr(workload, "checked", 0)
    metrics["oracle.agree_frac"] = getattr(workload, "agreed", 0) / checked if checked else 0.0
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["fail_frac"] = failed / attempted
    extra = {"untraced_wall_s": plain, "traced_wall_s": traced}
    return metrics, attempted, failed, extra, tracer


def write_trace(workload_name, seed, tracer, metrics, info):
    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s-seed%d.json" % (workload_name, seed))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "info": info,
                "metrics": metrics,
                "counts": dict(tracer.counts),
                "spans": [s.as_dict() for s in tracer.spans],
            },
            handle,
        )
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    setup_s, workload = set_up(WORKLOADS[args.workload], args.seed)
    info = {"workload": args.workload, "seed": args.seed, "provenance": provenance()}
    if args.trace:
        metrics, attempted, failed, extra, tracer = per_layer(workload, args.seed, workload.qg)
        info.update(extra)
        info["trace_file"] = str(write_trace(args.workload, args.seed, tracer, metrics, info))
        units = spec["per_layer"]
    else:
        metrics, attempted, failed, extra = end_to_end(workload, args.seconds, setup_s)
        info.update(extra)
        units = spec["end_to_end"]
    if set(metrics) != set(units):
        raise SystemExit(
            "metric names differ from BENCHMARK.json: %s"
            % sorted(set(metrics) ^ set(units))
        )
    info["fail_frac"] = failed / attempted
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
