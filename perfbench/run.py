"""Benchmark for the gas-lift digital twin.

    python3 perfbench/run.py --workload identify|monitor|drift --seed N \
        --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object: with ``--trace 0`` its metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import os

# One caller, one process: pin BLAS to a single thread before numpy loads,
# so timings do not depend on how many cores other tenants leave idle.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
from stats import median, tail  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("identify", "monitor", "drift"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"blas={blas.get('name')}-{blas.get('version')} "
            f"blas_threads={BLAS_THREADS} nproc={len(os.sched_getaffinity(0))}")


def end_to_end(out, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The gated metrics of BENCHMARK.json, over the untraced operations:
    the median operation time and the median over operation calls of the
    operations per second, brought to the reference host speed (see
    hostspeed.py); set-up time and memory as measured."""
    ops = out.plain_s
    k = hostspeed.scale(out.calibration_s)
    return {
        "setup_s": (median(out.setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "norm_op_p50_ms": (median(ops) * k * 1e3, "ms"),
        "norm_ops_per_s": (median(out.plain_rates) / k, "1/s"),
    }


# per workload: its names for the measured median operation time, the rate
# (None where it has none) and the tail pattern, their unit and scale from
# seconds
OPERATION = {
    "identify": ("identify_s", None, "identify_s_{}", "s", 1.0),
    "monitor": ("step_p50_ms", "steps_per_s", "step_{}_ms", "ms", 1e3),
    "drift": ("replay_s", None, "replay_s_{}", "s", 1.0),
}


def named_metrics(workload: str, out) -> list[tuple[str, float, str]]:
    """The ungated metrics: the operation times as measured, under the
    workload's own names, with the tail and its sample count; the failed
    share; the hostspeed kernel's median time; and what the workload
    reported."""
    p50_name, rate_name, tail_name, unit, scale = OPERATION[workload]
    ops = out.plain_s
    label, tail_value = tail(ops)
    rows = [
        (p50_name, median(ops) * scale, unit),
        (tail_name.format(label), tail_value * scale, unit),
        ("samples", len(ops), "count"),
    ]
    if rate_name:
        rows.append((rate_name, len(ops) / sum(ops), "1/s"))
    return rows + [
        ("failed_frac", out.failed / out.attempted, "frac"),
        ("hostspeed_kernel_ms", median(out.calibration_s) * 1e3, "ms"),
        *out.report,
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gaslift_twin" / "__init__.py").is_file():
        print(f"error: no gaslift_twin package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # both import gaslift_twin, which is on the path only from here on
    import layers
    from workloads import WORKLOADS

    print(f"env {environment()}", flush=True)
    tracer = Tracer(f"{args.workload}-seed{args.seed}-{time.time_ns()}") \
        if args.trace else None
    out = WORKLOADS[args.workload](args.seed, args.seconds,
                                   WORK / args.workload, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for name, ok, detail in out.checks:
        if not ok:
            print(f"check FAILED: {name}: {detail}")
    passed = sum(ok for _, ok, _ in out.checks)
    print(f"checks passed {passed}/{len(out.checks)}")
    correct = out.failed == 0 and bool(out.plain_s) and \
        all(ok for _, ok, _ in out.checks)

    metrics: dict[str, dict] = {}
    if out.plain_s:
        e2e = end_to_end(out, peak_rss_mb)
        for name, (value, unit) in e2e.items():
            print(f"metric {name} = {value:.6g} {unit}")
        for name, value, unit in named_metrics(args.workload, out):
            print(f"metric {args.workload}.{name} = {value:.6g} {unit}")
        if not args.trace:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    if args.trace:
        if tracer.missing:
            print(f"trace: not wrapped (renamed?): {', '.join(tracer.missing)}")
        raised = Counter((name, error) for _, _, name, _, _, error in tracer.spans
                         if error is not None)
        for (name, error), n in sorted(raised.items()):
            print(f"trace: {error} raised through {name} {n} times "
                  "(its operation counts as failed)")
        overhead = 0.0
        if out.plain_s and out.traced_s:
            overhead = (median(out.traced_s) / median(out.plain_s) - 1.0) * 100.0
        n_traced = max(1, len(out.traced_s))
        per_layer = layers.per_layer_metrics(tracer, n_traced, overhead)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        print(f"per-layer values are per traced operation ({len(out.traced_s)} traced)")
        for name, value in per_layer.items():
            print(f"layer {name} = {value:.6g} {units[name]}")
        trace_file = WORK / f"trace-{args.workload}.jsonl"
        tracer.write(trace_file)
        print(f"trace: {len(tracer.spans)} spans written to "
              f"{trace_file.relative_to(ROOT)}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer.items()}

    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
