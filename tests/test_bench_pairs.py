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
