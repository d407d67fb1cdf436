"""The verdict rules of tools/bench_pairs.py, on made-up run values."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_ranges():
    tool = _tool()
    assert tool.parse_seeds("2-11") == list(range(2, 12))
    assert tool.parse_seeds("7") == [7]
    with pytest.raises(ValueError):
        tool.parse_seeds("5-4")


def test_gain_needs_nine_tenths_of_ten_pairs_and_a_margin_over_the_parent_iqr():
    tool = _tool()
    parent = [300.0 + i for i in range(10)]
    s = tool.summarize(parent, [p * 1.4 for p in parent], "higher", 0.25)
    assert (s["wins"], s["losses"], s["verdict"]) == (10, 0, "gain")
    assert s["ratio"] == pytest.approx(1.4)
    # one loss and one tie of ten: 8 wins fall short of nine tenths
    change = [p * 1.4 for p in parent]
    change[0], change[1] = parent[0] - 1.0, parent[1]
    s = tool.summarize(parent, change, "higher", 0.25)
    assert (s["wins"], s["losses"], s["verdict"]) == (8, 1, "within bound")
    # nine pairs support no claim, whatever they show
    assert tool.summarize(parent[:9], [p * 1.4 for p in parent[:9]], "higher", 0.25)["verdict"] != "gain"
    # lower is better: a smaller time wins
    s = tool.summarize(parent, [p * 0.7 for p in parent], "lower", 0.25)
    assert (s["wins"], s["verdict"]) == (10, "gain")


def test_worse_and_unresolved():
    tool = _tool()
    parent = [40.0 + 0.1 * i for i in range(10)]
    assert tool.summarize(parent, [p * 1.2 for p in parent], "lower", 0.1)["verdict"] == "worse"
    assert tool.summarize(parent, [p * 1.01 for p in parent], "lower", 0.1)["verdict"] == "within bound"
    wide = [1.0, 2.0] * 5
    assert tool.summarize(wide, wide, "higher", 0.25)["verdict"] == "unresolved"
    # a wide parent spread is resolved when every change run reads better
    assert tool.summarize(wide, [2.5] * 10, "higher", 0.25)["verdict"] == "within bound"


def test_timed_op_count_is_read_from_the_run_comment():
    tool = _tool()
    stdout = (
        '# {"workload": "scan-limits", "seed": 2}\n'
        "# distinct ops attempted 336, failed 0 (failed_share 0), exceptions {}; 11058 timed op runs\n"
        "# op_tail_ms is the p99 of 11058 op times (111 beyond it)\n"
        '{"correct": true, "attempted": 336, "failed": 0, "metrics": {}}\n'
    )
    assert tool.timed_ops(stdout) == 11058
    with pytest.raises(ValueError):
        tool.timed_ops('{"correct": true}\n')


_RUN_COMMENTS = (
    '# {"workload": "functionals", "seed": 2}\n'
    "# distinct ops attempted 400, failed 0 (failed_share 0), exceptions {}; 9449 timed op runs\n"
    "# op_tail_ms is the p99 of 9449 op times (95 beyond it)\n"
    "# times are calibrated (median factor 1.0312); uncalibrated ops_per_s 745.25, op_p50_ms 1.0606\n"
    '{"correct": true, "attempted": 400, "failed": 0, "metrics": {}}\n'
)


def test_calibration_is_read_from_the_run_comment():
    tool = _tool()
    assert tool.calibration(_RUN_COMMENTS) == (1.0312, 745.25)
    with pytest.raises(ValueError):
        tool.calibration('{"correct": true}\n')


def test_calibration_and_raw_throughput_are_shown_next_to_ops_per_s(monkeypatch, capsys):
    """Every pair line carries each run's calibration factor and uncalibrated
    ops_per_s; the ops_per_s summary line and the JSON carry each side's
    medians, as peak_rss_mb's carries the timed op counts."""
    import json
    from types import SimpleNamespace

    tool = _tool()
    names = [m["name"] for m in json.loads((tool.ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    factors = {"parent": [1.0, 1.2, 1.1], "change": [0.9, 0.8, 1.0]}
    runs = {side: iter(range(3)) for side in factors}

    def fake_run(tree, workload, seed, seconds):
        side = "change" if tree == tool.ROOT else "parent"
        i = next(runs[side])
        return {"failed": 0, "attempted": 10, "metrics": {n: {"value": 1.0 + i} for n in names},
                "timed_ops": 100 + i, "calibration": factors[side][i], "raw_ops_per_s": 500.0 + 10 * i}

    monkeypatch.setattr(tool, "subprocess", SimpleNamespace(run=lambda *a, **k: SimpleNamespace(returncode=0)))
    monkeypatch.setattr(tool, "extract", lambda rev, dest: None)
    monkeypatch.setattr(tool, "run_once", fake_run)
    assert tool.main(["--parent", "P", "--workload", "functionals", "--seeds", "2-4", "--seconds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    pairs = [line for line in lines if line.startswith("# pair")]
    assert len(pairs) == 6
    assert all("calibration=" in line and "raw_ops_per_s=" in line and "timed_ops=" in line for line in pairs)
    ops = next(line for line in lines if line.startswith("ops_per_s"))
    assert "calibration parent 1.1 change 0.9" in ops and "raw_ops_per_s parent 510 change 510" in ops
    rss = next(line for line in lines if line.startswith("peak_rss_mb"))
    assert "timed_ops parent 101 change 101" in rss and "calibration" not in rss
    summary = json.loads(lines[-1])
    assert summary["calibration"] == {"parent": 1.1, "change": 0.9}
    assert summary["raw_ops_per_s"] == {"parent": 510.0, "change": 510.0}
    assert summary["timed_ops"] == {"parent": 101, "change": 101}
    # peak RSS rises 1 MB per timed op on both sides here, with no offset
    assert any(line.startswith("peak_rss_mb fit over 6 runs") for line in lines)
    assert summary["rss_fit"]["slope"] == pytest.approx(1024.0)
    assert summary["rss_fit"]["delta"] == pytest.approx(0.0, abs=1e-9)


def _rss_runs(side_ops, slope_kb, delta_mb, base_mb=40.0):
    """Runs whose peak RSS is exactly base + slope * timed_ops + delta * [change]."""
    return {
        side: [{"timed_ops": n, "metrics": {"peak_rss_mb": {"value": base_mb + slope_kb / 1024.0 * n
                                                            + (delta_mb if side == "change" else 0.0)}}}
               for n in ops]
        for side, ops in side_ops.items()
    }


def test_rss_fit_separates_the_sample_count_from_the_change_own_memory():
    tool = _tool()
    # the change runs about twice the timed ops of the parent, as a faster change does
    ops = {"parent": [9000 + 37 * i for i in range(10)], "change": [19000 + 53 * i for i in range(10)]}
    fit = tool.rss_fit(_rss_runs(ops, 0.47, 1.25))
    assert fit["slope"] == pytest.approx(0.47, rel=1e-9)
    assert fit["delta"] == pytest.approx(1.25, abs=1e-9)
    assert fit["base"] == pytest.approx(40.0, abs=1e-9)
    # a change that uses less memory of its own reads a negative delta
    assert tool.rss_fit(_rss_runs(ops, 0.5, -0.75))["delta"] == pytest.approx(-0.75, abs=1e-9)
    # with no spread in timed_ops within either side the slope is not determined
    assert tool.rss_fit(_rss_runs({"parent": [100] * 3, "change": [200] * 3}, 0.5, 1.0)) is None
