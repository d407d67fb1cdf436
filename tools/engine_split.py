"""Where a benchmark pass's quadrature time goes: the lockstep engine's own
Python work against its integrand calls and its Gauss-Kronrod sums.

    python3 tools/engine_split.py --workload W --seed N [--src DIR] [--passes K]

Builds the ops of ``perfbench/workloads.py`` for the seed and runs every op
once in list order: one warm pass, then K timed passes (default 4), in one
process, each pass on ops built afresh, untimed.  Timing is in-process only: ``quadrature._lockstep``,
``quadrature._round`` and ``quadrature._gk_sums`` are wrapped, and so is the
integrand each lockstep run is given.  For the pass with the least wall time
it prints, one figure per line:

- ``pass_ms``: the pass;
- ``lockstep_ms``: inside ``_lockstep`` runs (an integrand call that runs a
  lockstep of its own counts in its caller's integrand time only);
- ``integrand_ms``: inside their integrand calls;
- ``gk_sums_ms``: inside their ``_gk_sums`` calls;
- ``engine_ms``: ``lockstep_ms`` less the two before it, the engine's own
  time (generators, heap, node building, batching);
- ``runs`` and ``rounds``: ``_lockstep`` runs and their rounds
  (``_round`` calls, an exception's per-integral retries included).

The wrappers cost time of their own, which lands in ``pass_ms`` and,
for the integrand and sums wrappers, in ``engine_ms``; compare two trees
with the same tool, not this tool with ``perfbench/run.py``.  ``--src``
points at the ``src/`` directory of the package to run (default: this
checkout's).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIGURES = ("pass_ms", "lockstep_ms", "integrand_ms", "gk_sums_ms", "engine_ms", "runs", "rounds")


class _Split:
    """The wrapped engine's accumulators for one pass."""

    def __init__(self, quadrature):
        self.quadrature = quadrature
        self.real = {name: getattr(quadrature, name) for name in ("_lockstep", "_round", "_gk_sums")}
        self.depth = 0
        self.reset()

    def reset(self):
        self.lockstep = self.integrand = self.gk_sums = 0.0
        self.runs = self.rounds = 0

    def __enter__(self):
        clock, real = time.perf_counter, self.real

        def integrand(f):
            def timed(xs):
                if self.depth > 1:
                    return f(xs)
                t0 = clock()
                try:
                    return f(xs)
                finally:
                    self.integrand += clock() - t0

            return timed

        def lockstep(f, gens, *rest):  # rest: an older tree's block span
            self.depth += 1
            try:
                if self.depth > 1:
                    return real["_lockstep"](f, gens, *rest)
                self.runs += 1
                t0 = clock()
                try:
                    return real["_lockstep"](integrand(f), gens, *rest)
                finally:
                    self.lockstep += clock() - t0
            finally:
                self.depth -= 1

        def round_(f, n, spans):
            self.rounds += self.depth == 1
            return real["_round"](f, n, spans)

        def gk_sums(vals, lefts, rights):
            if self.depth != 1:
                return real["_gk_sums"](vals, lefts, rights)
            t0 = clock()
            try:
                return real["_gk_sums"](vals, lefts, rights)
            finally:
                self.gk_sums += clock() - t0

        for name, wrapper in (("_lockstep", lockstep), ("_round", round_), ("_gk_sums", gk_sums)):
            setattr(self.quadrature, name, wrapper)
        return self

    def __exit__(self, *exc):
        for name, real in self.real.items():
            setattr(self.quadrature, name, real)

    def figures(self, seconds: float) -> dict:
        ms = {
            "pass_ms": 1e3 * seconds,
            "lockstep_ms": 1e3 * self.lockstep,
            "integrand_ms": 1e3 * self.integrand,
            "gk_sums_ms": 1e3 * self.gk_sums,
        }
        ms["engine_ms"] = ms["lockstep_ms"] - ms["integrand_ms"] - ms["gk_sums_ms"]
        return {**ms, "runs": self.runs, "rounds": self.rounds}


def run_ops(ops) -> None:
    for op in ops:
        try:
            op.run()
        except Exception:  # a raising op is part of the workload
            pass


def split(quadrature, build, passes: int) -> dict:
    """The figures of the fastest of ``passes`` timed passes, after one warm
    pass, each over the fresh ops of an untimed ``build()``, as the
    benchmark's passes are: a store keyed by case or profile object serves
    no later pass."""
    best = None
    with _Split(quadrature) as probe:
        run_ops(build())
        for _ in range(passes):
            ops = build()
            probe.reset()
            t0 = time.perf_counter()
            run_ops(ops)
            figures = probe.figures(time.perf_counter() - t0)
            if best is None or figures["pass_ms"] < best["pass_ms"]:
                best = figures
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the rellich package")
    ap.add_argument("--passes", type=int, default=4, help="timed passes after the warm one")
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    src = Path(args.src)
    if (src / "src" / "rellich").is_dir():
        src = src / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import workloads

    import rellich
    from rellich import quadrature

    build = lambda: workloads.WORKLOADS[args.workload].build(rellich, args.seed)[1]
    figures = split(quadrature, build, args.passes)
    print(f"{args.workload} seed {args.seed}: best of {args.passes} passes")
    for name in FIGURES:
        value = figures[name]
        print(f"{name} {value:.2f}" if isinstance(value, float) else f"{name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
