"""Alternating parent/change pairs of benchmark runs, summarized per metric.

    python3 tools/bench_pairs.py --parent REV --workload W --seeds A-B --seconds S

The change is this checkout as it stands; the parent is ``git archive REV``
extracted to a temporary directory.  Both must carry the same benchmark, so
the tool first requires ``git diff --quiet REV -- perfbench BENCHMARK.json``.
Each seed in A..B is one pair: ``perfbench/run.py --trace 0`` once in each
tree, with the side that runs first alternating from pair to pair.  Every run
is printed with its number of timed op runs, its median calibration factor
and its uncalibrated ``ops_per_s``, then for each end-to-end metric
of BENCHMARK.json: each side's median and quartiles, the change's wins (ties
count for neither side), the median ratio, and a verdict:

- ``gain``: over at least ten pairs, the change won at least nine tenths of
  them and its median is better than the parent's by more than the parent's
  interquartile range;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
- ``unresolved``: neither, and the parent's own interquartile range is wider
  than the bound, unless every change run is better than every parent run;
- ``within bound`` otherwise.

``peak_rss_mb`` also shows each side's median number of timed op runs: the
worker keeps every timed sample (about 0.47 KB each), so a faster change
reads as a larger peak RSS through that count alone.  A least-squares fit
over every run of both sides, ``peak_rss_mb = base + slope * timed_ops +
delta * [change]``, separates the two: ``slope`` is the memory per timed
sample (KB, of 1024 bytes) and ``delta`` the change's own peak RSS (MB),
at an equal sample count.  ``ops_per_s`` also
shows each side's median calibration factor and uncalibrated ``ops_per_s``:
the worker divides by calibrated op times, so a shift in the calibration
factors between the sides moves the calibrated figure without the raw one.
The last line is the same summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILES = ("perfbench", "BENCHMARK.json")
MIN_PAIRS = 10  # fewer pairs support no claim of a gain
# per-run figures that are not metrics -> the metric whose summary line shows their medians
RUN_EXTRAS = {"timed_ops": "peak_rss_mb", "calibration": "ops_per_s", "raw_ops_per_s": "ops_per_s"}


def parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi) + 1)) if sep else [int(lo)]
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's comparison over pairs ``(parent[i], change[i])``."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (cm - pm)
    iqr = p3 - p1
    all_better = min(change) > max(parent) if sign > 0 else max(change) < min(parent)
    if len(parent) >= MIN_PAIRS and wins >= 0.9 * len(parent) and gain > iqr:
        verdict = "gain"
    elif -gain > bound * abs(pm):
        verdict = "worse"
    elif iqr > bound * abs(pm) and not all_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": {"q1": p1, "median": pm, "q3": p3},
        "change": {"q1": c1, "median": cm, "q3": c3},
        "wins": wins,
        "losses": losses,
        "pairs": len(parent),
        "ratio": cm / pm if pm else None,
        "verdict": verdict,
    }


def rss_fit(runs: dict[str, list[dict]]) -> dict | None:
    """The least-squares fit of ``peak_rss_mb = base + slope * timed_ops +
    delta * [change]`` over the runs of both sides, as ``base`` (MB),
    ``slope`` (KB per timed op) and ``delta`` (MB); None when no side's
    timed op count varies, so that the slope is not determined.  With one
    intercept per side and a common slope, the slope is the pooled
    within-side regression and each intercept its side's mean residual."""
    sxx = sxy = 0.0
    means = {}
    for side, rs in runs.items():
        xs = [r["timed_ops"] for r in rs]
        ys = [r["metrics"]["peak_rss_mb"]["value"] for r in rs]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxx += sum((x - mx) ** 2 for x in xs)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        means[side] = mx, my
    if not sxx:
        return None
    slope = sxy / sxx
    base, top = (my - slope * mx for mx, my in (means["parent"], means["change"]))
    return {"base": base, "slope": slope * 1024.0, "delta": top - base}


def timed_ops(stdout: str) -> int:
    """The number of timed op runs, from run.py's "... N timed op runs" comment line."""
    found = re.search(r"^# .*?(\d+) timed op runs$", stdout, re.MULTILINE)
    if found is None:
        raise ValueError("no timed op count in the run output")
    return int(found.group(1))


def calibration(stdout: str) -> tuple[float, float]:
    """(median calibration factor, uncalibrated ops_per_s), from run.py's
    "times are calibrated (median factor F); uncalibrated ops_per_s R, ..."
    comment line."""
    found = re.search(
        r"^# times are calibrated \(median factor (\S+)\); uncalibrated ops_per_s (\S+?),", stdout, re.MULTILINE
    )
    if found is None:
        raise ValueError("no calibration line in the run output")
    return float(found.group(1)), float(found.group(2))


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The run's final JSON object, with its timed op count added as
    ``timed_ops``, its median calibration factor as ``calibration`` and its
    uncalibrated ``ops_per_s`` as ``raw_ops_per_s``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    factor, raw = calibration(out)
    return {**json.loads(out.strip().splitlines()[-1]), "timed_ops": timed_ops(out), "calibration": factor,
            "raw_ops_per_s": raw}


def extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="A-B: one pair per seed")
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    same = subprocess.run(["git", "diff", "--quiet", args.parent, "--", *BENCHMARK_FILES], cwd=ROOT)
    if same.returncode != 0:
        print(f"perfbench/ or BENCHMARK.json differ from {args.parent}", file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        extract(args.parent, trees["parent"])
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(trees[side], args.workload, seed, args.seconds)
                runs[side].append(result)
                got = result["metrics"]
                values = " ".join(f"{m['name']}={got[m['name']]['value']:.6g}" for m in metrics)
                failed = f"failed {result['failed']}/{result['attempted']}"
                extra = " ".join(f"{key}={result[key]:.6g}" for key in RUN_EXTRAS)
                print(f"# pair {i + 1} seed {seed} {side}: {failed} {values} {extra}", flush=True)

    medians = {key: {side: statistics.median(r[key] for r in runs[side]) for side in runs} for key in RUN_EXTRAS}
    summary = {}
    for m in metrics:
        name = m["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        s = summarize(parent, change, m["better"], m["bound"])
        summary[name] = s
        ratio = f"{s['ratio']:.4f}" if s["ratio"] is not None else "-"
        sides = "  ".join(
            f"{side} {q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"
            for side, q in (("parent", s["parent"]), ("change", s["change"]))
        )
        counts = "".join(
            f"  {key} parent {medians[key]['parent']:.6g} change {medians[key]['change']:.6g}"
            for key, shown_with in RUN_EXTRAS.items()
            if shown_with == name
        )
        print(
            f"{name:12s} {sides}  wins {s['wins']}/{s['pairs']} (losses {s['losses']})"
            f"  ratio {ratio}  {s['verdict']}{counts}"
        )
    fit = rss_fit(runs)
    if fit is None:
        print("peak_rss_mb fit: timed_ops do not vary within a side, slope undetermined")
    else:
        print(f"peak_rss_mb fit over {sum(map(len, runs.values()))} runs: slope {fit['slope']:.4g} KB per timed op"
              f"  delta {fit['delta']:+.4g} MB  base {fit['base']:.6g} MB")
    print(json.dumps({"workload": args.workload, "parent": args.parent, "seeds": seeds,
                      "seconds": args.seconds, "metrics": summary, **medians, "rss_fit": fit}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
