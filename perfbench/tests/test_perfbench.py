"""Self-tests of the benchmark: metric names and units, per-op gates, reference.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import rellich  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from reference import SeriesReference  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SUITE = 4  # one case per suite dimension, N = 5, 6, 9, 30


def _declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload: a 4-case suite, and two scans of the plan."""
    monkeypatch.setattr(worker, "SPAN_DIR", tmp_path)
    monkeypatch.setattr(
        rellich.verify, "standard_suite", functools.partial(rellich.verify.standard_suite, size=TINY_SUITE)
    )
    plan = workloads.scan_plan
    monkeypatch.setattr(workloads, "scan_plan", lambda r, seed: plan(r, seed)[-2:])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric_with_its_unit(tiny, name, trace):
    wl = workloads.WORKLOADS[name]
    state, ops = wl.build(rellich, 3)
    result = worker.measure(rellich, wl, state, ops, seed=3, seconds=0.3, trace=trace)
    lines, out = run.report(wl, result, [0.5], trace)
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    for metric, unit in declared.items():
        assert any(line.startswith(f"{metric} ") and f" {unit} (samples " in line for line in lines)
    assert out["correct"] is True
    assert out["attempted"] == len(ops) and 0 <= out["failed"] <= out["attempted"]
    if not trace:
        assert all(v["value"] != 0 for v in out["metrics"].values())


def _failed_count(op):
    outcomes, _ = worker.timed_loop(lambda: [op], [0], seconds=0.0)
    return sum(1 for _, o, _ in outcomes if not o.ok)


def test_wrong_registry_verdict_is_a_failed_op():
    suite = rellich.verify.standard_suite(3, size=1)
    good = rellich.verify.check_identity("weighted-green", suite)
    assert _failed_count(workloads.Op(("x", 0), lambda: good, workloads.registry_gate)) == 0
    bad = rellich.verify.check_identity("weighted-green", suite, tolerance=0.0)
    bad.results[0].value = 1.0
    bad.passed = False
    assert _failed_count(workloads.Op(("x", 0), lambda: bad, workloads.registry_gate)) == 1


def test_route_disagreement_is_a_failed_op():
    case = rellich.verify.standard_suite(3, size=1)[0]
    fv = rellich.radial.functional(rellich.radial.Functional.I, case.test_function())
    gate = workloads.functional_gate(rellich.verify.IDENTITY_TOLERANCE)
    assert _failed_count(workloads.Op(("I", 0), lambda: fv, gate)) == 0
    fv.cross_value = fv.value * (1.0 + 1e-5)
    assert _failed_count(workloads.Op(("I", 0), lambda: fv, gate)) == 1


def test_scan_step_below_the_constant_is_a_failed_op():
    F = rellich.minseq.ScanFamily
    params = rellich.minseq.default_schedule(F.RELLICH_IMPROVED, 6)[0]
    res = rellich.minseq.scan_to_limit(F.RELLICH_IMPROVED, [params])
    assert _failed_count(workloads.Op(("s", 0), lambda: res, workloads.scan_gate)) == 0
    res.quotients[0] = res.theoretical - 1e-6
    assert _failed_count(workloads.Op(("s", 0), lambda: res, workloads.scan_gate)) == 1
    res.quotients[0] = float("nan")
    assert _failed_count(workloads.Op(("s", 0), lambda: res, workloads.scan_gate)) == 1


def test_exception_is_a_failed_op():
    def boom():
        raise rellich.DomainError("fed-in failure")

    outcomes, _ = worker.timed_loop(lambda: [workloads.Op(("e", 0), boom, workloads.registry_gate)], [0], 0.0)
    assert not outcomes[0][1].ok and outcomes[0][1].error == "DomainError"


def test_counts_do_not_depend_on_run_length():
    """A run cut short after one op and one that makes many passes report
    the same distinct ops attempted and failed."""

    def build():
        return [workloads.Op(("c", i), lambda i=i: i, lambda out: (out != 2, None)) for i in range(4)]

    counts = []
    for seconds in (0.0, 0.02):
        ops = build()
        outcomes, _ = worker.timed_loop(build, [0, 1, 2, 3], seconds)
        counts.append((len(outcomes), worker.tally(worker.check_all(ops, outcomes))))
    (short, a), (long, b) = counts
    assert short == 1 and long > 8
    assert a == b == {"attempted": 4, "failed": 1, "errors": {}}


def test_case_keyed_cache_never_serves_a_later_pass():
    """Each pass runs on freshly built inputs, so a cache keyed by the input
    objects can hit within a pass but not across passes or after warm-up."""
    cache, hits, passes = {}, [], []

    def cached(case):
        if case in cache:
            hits.append(case)
        cache[case] = True  # keeps the object alive, so it is never a new one by id
        return case

    def build():
        passes.append(None)
        cases = [object() for _ in range(4)]
        return [workloads.Op(("c", i), lambda c=c: cached(c), lambda out: (True, None)) for i, c in enumerate(cases)]

    ops = build()
    worker.warm_up(ops)
    outcomes, _ = worker.timed_loop(build, [0, 1, 2, 3], seconds=0.05)
    assert len(outcomes) > 8 and len(passes) >= 3
    assert hits == []
    # the same loop over inputs built once would hit from the second pass on
    worker.timed_loop(lambda: ops, [0, 1, 2, 3], seconds=0.01)
    assert hits


def test_tail_is_the_nearest_rank_percentile():
    times = [float(i) for i in range(1000)]
    assert worker.tail(times, 99.0) == (989.0, 10)
    assert worker.tail(times[:100], 98.0) == (97.0, 2)


def test_reference_moments_match_mpmath_quad():
    ref = SeriesReference(3)
    with mpmath.workdps(40):

        def weight(s):
            total, prod, x = 0, 1, 1 / (1 + s)
            for _ in range(3):
                prod *= x * x
                total += prod
                x = 1 / (1 - mpmath.log(x))
            return total

        for p in (Fraction(0), Fraction(-2, 5), Fraction(77, 3)):
            exact = ref.integral([p], [1])
            quad = mpmath.quad(lambda s: mpmath.exp(-(p.numerator / mpmath.mpf(p.denominator) + 1) * s) * weight(s),
                               [0, 0.1, 1, 10, mpmath.inf])
            assert abs(mpmath.mpf(exact.numerator) / exact.denominator - quad) < mpmath.mpf(10) ** -35 * quad


def test_series_split_mirrors_the_registry_slack():
    """exact - slack is the float series term, close to the reference."""
    suite = rellich.verify.standard_suite(3, size=TINY_SUITE)
    case = suite[3]
    ref = SeriesReference(workloads.SERIES_K)
    slacks = {
        (name, case.index): rellich.verify.check_inequality(name, [case], K=workloads.SERIES_K).results[0].value
        for name in workloads.SERIES_TARGETS
    }
    errors = workloads.series_errors(rellich, suite, slacks, workloads.SERIES_K, ref)
    assert set(errors) == {key for key, slack in slacks.items() if slack is not None}
    assert max(errors.values()) < 1e-2


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "functionals", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
