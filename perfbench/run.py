"""Benchmark of the rellich package: four library workloads in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each run starts fresh worker processes with
the BLAS thread count pinned to 1: SETUP_PROBES processes that only import
the package and build the workload's inputs (set-up time), then one that
runs the workload's ops one after another for S seconds.  With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1 it carries the per-layer metrics of a traced run.
The lines before it restate every metric with its unit, sample count and
the figures behind the metrics.  ``attempted`` and ``failed`` count the
seed's distinct ops, each checked at least once, so they are the same on
every run of a seed however many passes the clock allows.  Workloads and metrics are listed in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
PINNED_THREADS = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
WORKER_SLACK_S = 120  # beyond --seconds: set-up, warm-up and untimed figures


def worker(args: list[str], env: dict, seconds: float) -> dict:
    """Run one worker process to completion and parse its last output line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=seconds + WORKER_SLACK_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(env: dict) -> dict:
    probe = "import numpy, scipy; print(numpy.__version__, scipy.__version__)"
    versions = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    ).stdout.split()
    return {
        "python": platform.python_version(),
        "numpy": versions[0] if versions else "?",
        "scipy": versions[1] if len(versions) > 1 else "?",
        "nproc": os.cpu_count(),
        "blas_threads": 1,
    }


def end_to_end(run: dict, setup: list[float]) -> dict:
    """Metric name -> (value, unit, samples) for an untraced run."""
    n = run["timed_ops"]
    return {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (run["ops_per_s"], "1/s", n),
        "op_p50_ms": (run["op_p50_ms"], "ms", n),
        "op_tail_ms": (run["op_tail_ms"], "ms", n),
        "ok_share": (1.0 - run["failed"] / run["attempted"], "1", run["attempted"]),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", 1),
    }


def per_layer(run: dict) -> dict:
    """Metric name -> (value, unit, samples) for a traced run."""
    n = run["timed_ops"]
    metrics = {name: (value, unit, n) for name, (value, unit) in run["layers"].items()}
    metrics["trace.overhead_ratio"] = (run["overhead_ratio"], "1", run["overhead_ops"])
    metrics["trace.ops"] = (float(n), "count", n)
    return metrics


def report(wl, run: dict, setup: list[float], trace: bool) -> tuple[list[str], dict]:
    """The human-readable lines and the final JSON object of one run."""
    n, attempted = run["timed_ops"], run["attempted"]
    lines = [
        f"distinct ops attempted {attempted}, failed {run['failed']} "
        f"(failed_share {run['failed'] / attempted:.6g}), exceptions {run['errors']}; "
        f"{n} timed op runs",
        f"op_tail_ms is the p{run['op_tail_pct']:g} of {n} op times ({run['op_tail_beyond']} beyond it)",
        f"times are calibrated (median factor {run['calibration']:.4f}); uncalibrated "
        f"ops_per_s {run['raw_ops_per_s']:.6g}, op_p50_ms {run['raw_op_p50_ms']:.6g}",
    ]
    if trace:
        metrics = per_layer(run)
        lines.append(
            f"{run['spans']} spans written to {run['span_file']}; "
            "trace.overhead_ratio is traced/untraced ops_per_s"
        )
        correct = True
    else:
        metrics = end_to_end(run, setup)
        lines.append("setup_s samples " + " ".join(f"{t:.6g}" for t in setup) + " s (the last is the run worker's)")
        lines.append(f"{wl.accuracy_name} {run['accuracy']:.6g} 1 (accuracy figure, not a bounded metric)")
        correct = math.isfinite(run["accuracy"])
    for name, (value, unit, samples) in metrics.items():
        lines.append(f"{name:36s} {value:.6g} {unit} (samples {samples})")
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    return lines, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "rellich" / "__init__.py").is_file():
        print(f"rellich sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    env = {**os.environ, **PINNED_THREADS, "PYTHONHASHSEED": "0"}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_PROBES
    setup = [worker([*common, "--seconds", "0", "--setup-only"], env, 0)["setup_s"] for _ in range(probes)]
    run = worker([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, args.seconds)
    setup.append(run["setup_s"])

    info = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    info.update(provenance(env))
    lines, out = report(wl, run, setup, bool(args.trace))
    for line in [json.dumps(info), *lines]:
        print("# " + line)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
