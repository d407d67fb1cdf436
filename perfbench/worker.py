"""One benchmark run in a fresh process: set up, run ops in a closed loop, report.

Run by ``run.py``, which pins the BLAS thread count in this process's
environment.  Prints one JSON object as the last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Times are calibrated.  A small machine of shared cores slows every process
on it by up to 2x for seconds at a time, far more than the changes the
benchmark has to resolve.  So a fixed calibration kernel, which shares no
code with rellich, runs before every op, and each op's time is scaled by
K_REF_S / (the median kernel time around it).  A slowdown stretches the op
and the kernel alike and cancels; a change to rellich moves only the op.
Raw times are reported alongside.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SPAN_DIR = ROOT / "perfbench" / "traces"  # written by traced runs, ignored by git

TRACED_SHARE = 0.6  # of a traced run's seconds; the rest runs untraced for the overhead ratio
K_REF_S = 5e-4  # calibrated time of one calibration kernel, about its time on an idle core
K_WINDOW = 15  # kernel samples in the running median that calibrates an op


def calibration_kernel():
    """Fixed work in the two kinds rellich spends its time in: exact
    rational arithmetic and small-array numpy expressions."""
    import numpy as np  # not at module level: set-up time includes importing numpy

    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i, i + 7) * Fraction(3, 11)
    a = np.linspace(0.0, 1.0, 240)
    for _ in range(12):
        a = a * 1.0000001 + np.exp(-a)
    return s, a


def kernel_seconds() -> float:
    t0 = perf_counter()
    calibration_kernel()
    return perf_counter() - t0


def calibration_factors(kernel: list[float]) -> list[float]:
    """K_REF_S over the running median of the kernel times around each op."""
    half = K_WINDOW // 2
    n = len(kernel)
    return [K_REF_S / statistics.median(kernel[max(0, i - half): i + half + 1]) for i in range(n)]


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """The ``pct`` percentile (nearest rank) and the number of samples beyond it."""
    ranked = sorted(times)
    idx = min(len(ranked) - 1, math.ceil(pct / 100.0 * len(ranked)) - 1)
    return ranked[idx], len(ranked) - 1 - idx


def stratified_order(ops, seed: int) -> list[int]:
    """A seeded shuffle that spreads every stratum evenly over the order.

    Any prefix of it holds each kind of op in about its share of the whole,
    so a run that the clock stops partway through a pass still measures the
    workload's mix.
    """
    rng = random.Random(seed)
    groups = defaultdict(list)
    for i, op in enumerate(ops):
        groups[op.stratum].append(i)
    keyed = []
    for members in groups.values():
        rng.shuffle(members)
        offset = rng.random()
        keyed.extend(((k + offset) / len(members), rng.random(), i) for k, i in enumerate(members))
    keyed.sort()
    return [i for _, _, i in keyed]


def timed_loop(build, order, seconds: float, tracer=None):
    """Closed loop: one caller, each op finished before the next starts.

    ``build()`` returns the op list.  It is called, untimed, at the start of
    every pass over ``order``, so each pass runs on fresh inputs, as one
    ``verify`` or scan run does; a cache keyed by case or profile object
    can serve ops within a pass, never a later pass.  The calibration
    kernel runs before every op.  Returns the outcomes in order, each with
    its calibrated seconds, and the calibration factors.
    """
    import workloads

    outcomes = []
    kernel = []
    start = perf_counter()
    i = 0
    while True:
        if i % len(order) == 0:
            ops = build()
        op = ops[order[i % len(order)]]
        kernel.append(kernel_seconds())
        if tracer is None:
            out = workloads.execute(op, perf_counter)
        else:
            tracer.op_id = i
            traced = workloads.Op(op.key, tracer.wrap("op", op.run), op.gate)
            out = workloads.execute(traced, perf_counter)
        outcomes.append((op.key, out))
        i += 1
        if perf_counter() - start >= seconds:
            break
    factors = calibration_factors(kernel)
    return [(key, out, out.seconds * f) for (key, out), f in zip(outcomes, factors)], factors


def warm_up(ops):
    """Run the first op of every kind once, untimed, so lazy imports are done."""
    import workloads

    kernel_seconds()
    seen = set()
    for op in ops:
        if op.key[0] not in seen:
            seen.add(op.key[0])
            workloads.execute(op, perf_counter)


def check_all(ops, outcomes) -> list:
    """Every timed outcome, plus an untimed run of each op the loop did not
    reach before the clock stopped, so that each of the seed's ops is
    checked at least once."""
    import workloads

    checked = [(key, out) for key, out, _ in outcomes]
    done = {key for key, _ in checked}
    checked += [(op.key, workloads.execute(op, perf_counter)) for op in ops if op.key not in done]
    return checked


def tally(checked) -> dict:
    """Counts over the seed's distinct ops: ``attempted`` is all of them and
    ``failed`` those that failed on any of their runs.  Neither depends on
    how many passes the clock allowed, so the same seed gives the same
    counts on every run."""
    errors = {key: out.error for key, out in checked if out.error}
    return {
        "attempted": len({key for key, _ in checked}),
        "failed": len({key for key, out in checked if not out.ok}),
        "errors": dict(Counter(errors.values())),
    }


def summarize(outcomes, factors, tail_pct: float) -> dict:
    """Throughput and op-time statistics over calibrated op times, with the
    raw (uncalibrated) throughput and median for reference."""
    times = [t for _, _, t in outcomes]
    raw = [o.seconds for _, o, _ in outcomes]
    tail_s, beyond = tail(times, tail_pct)
    return {
        "timed_ops": len(outcomes),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * tail_s,
        "op_tail_pct": tail_pct,
        "op_tail_beyond": beyond,
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": 1e3 * statistics.median(raw),
        "calibration": statistics.median(factors),
    }


def measure(rellich, wl, state, ops, seed: int, seconds: float, trace: bool) -> dict:
    """Run a built workload for ``seconds`` and summarize it.

    Untraced, the result carries the end-to-end figures.  Traced, the first
    part of the time runs untraced and the rest traced, over the same op
    order, and the result carries the per-layer metrics and the overhead.
    The per-pass rebuilds of the inputs are not traced.  Either way, every
    op is checked at least once (``check_all``) and counted once (``tally``).
    """
    order = stratified_order(ops, seed)
    warm_up(ops)

    def rebuild():
        return wl.build(rellich, seed)[1]

    if not trace:
        outcomes, factors = timed_loop(rebuild, order, seconds)
        result = summarize(outcomes, factors, wl.tail_pct)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checked = check_all(ops, outcomes)
        result.update(tally(checked))
        result["accuracy"] = wl.accuracy(rellich, state, {key: out.figure for key, out in checked})
        return result

    import tracing

    plain, _ = timed_loop(rebuild, order, seconds * (1.0 - TRACED_SHARE))
    tracer = tracing.install(rellich)
    try:
        wl.build(rellich, seed)  # traced only for its set-up spans
        setup = {name: tracer.stats[name].outer_s for name in ("verify.suite", "minseq.schedule")}
        tracer.reset()
        traced, factors = timed_loop(tracer.untraced(rebuild), order, seconds * TRACED_SHARE, tracer)
    finally:
        tracer.uninstall()
    n = min(len(plain), len(traced))
    result = summarize(traced, factors, wl.tail_pct)
    result["layers"] = tracing.layer_metrics(tracer, len(traced), setup, result["calibration"])
    result["overhead_ratio"] = sum(t for _, _, t in plain[:n]) / sum(t for _, _, t in traced[:n])
    result["overhead_ops"] = n
    result.update(tally(check_all(ops, plain + traced)))
    result["spans"] = len(tracer.spans)
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"{wl.name}-seed{seed}.jsonl"
    tracer.write_spans(span_file)
    result["span_file"] = os.path.relpath(span_file, ROOT)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = perf_counter()  # set-up: importing the package (numpy included) and building inputs
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    import rellich

    state, ops = wl.build(rellich, args.seed)
    setup_s = perf_counter() - t0
    setup_factor = K_REF_S / statistics.median(kernel_seconds() for _ in range(K_WINDOW))
    result = {} if args.setup_only else measure(rellich, wl, state, ops, args.seed, args.seconds, bool(args.trace))
    result["setup_s"] = setup_s * setup_factor
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
