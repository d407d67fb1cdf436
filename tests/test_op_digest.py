"""Smoke tests of tools/op_digest.py, the bitwise op-output digest."""

import importlib.util
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from rellich.minseq import MinSeqParams, ScanFamily, scan_to_limit
from rellich.radial import FunctionalValue

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "op_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("op_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tokens_tell_apart_outputs_one_ulp_apart():
    tool = _tool()
    fv = FunctionalValue(1.5, {"laplacian": 2.0, "hardy": -0.5}, 1e-12, 1.5)
    nudged = FunctionalValue(1.5, {"laplacian": 2.0, "hardy": np.nextafter(-0.5, 0.0)}, 1e-12, 1.5)
    assert tool.output_tokens(fv) == tool.output_tokens(FunctionalValue(**vars(fv)))
    assert tool.output_tokens(fv) != tool.output_tokens(nudged)
    unconverged = FunctionalValue(**{**vars(fv), "unconverged": 1})
    assert tool.output_tokens(fv) != tool.output_tokens(unconverged)
    scan = scan_to_limit(ScanFamily.RELLICH_IMPROVED, [MinSeqParams(6, epsilon=1e-2)])
    tokens = tool.output_tokens(scan)
    assert tokens == [scan.quotients[0].hex(), "0", scan.theoretical.hex()]


def test_tokens_tell_apart_scans_that_differ_only_in_their_constant():
    tool = _tool()
    scan = scan_to_limit(ScanFamily.RELLICH_IMPROVED, [MinSeqParams(6, epsilon=1e-2)])
    moved = replace(scan, theoretical=np.nextafter(scan.theoretical, 0.0))
    assert tool.output_tokens(scan) == tool.output_tokens(replace(scan))
    assert tool.output_tokens(scan) != tool.output_tokens(moved)


def test_cli_prints_one_digest_per_workload():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "1", "--workload", "functionals"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    ).stdout
    assert re.fullmatch(r"functionals [0-9a-f]{64} 400\n", out)


# the scan-limits digest at seed 1: every scan op's quotient, unconverged
# count and constant, bitwise; re-record it only for a change that is meant
# to move a scan's output bits
SCAN_LIMITS_SEED_1 = "53ea69756e29e46c084ccbb26187670402d6430c9937dbdae8a686971394fc09"


def test_scan_limits_digest_golden():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "1", "--workload", "scan-limits"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    ).stdout
    assert out == f"scan-limits {SCAN_LIMITS_SEED_1} 336\n"


def test_compare_summarizes_each_workload_and_lists_ops_that_differ_in_kind():
    tool = _tool()
    x = 9.0001250395959023
    mine = {"scan-limits": [f"fam/N6/K1 0:{x.hex()} {(2 * x).hex()} 0", f"fam/N6/K1 1:{x.hex()} 0"]}
    nudged = np.nextafter(2 * x, 0.0)
    theirs = {
        "scan-limits": [f"fam/N6/K1 0:{x.hex()} {nudged.hex()} 0", f"fam/N6/K1 1:raised DomainError"]
    }
    report = tool.compare(["scan-limits"], mine, theirs)
    assert report[0] == f"scan-limits {tool._hash(mine['scan-limits'])} 2"
    assert report[1] == (
        "scan-limits: 2 of 2 ops differ, 1 in a count, flag or exception; largest value move "
        f"{(2 * x - nudged) / (2 * x):.3g} at fam/N6/K1 0 ({2 * x!r} against {float(nudged)!r}); "
        "largest error-estimate move 0"
    )
    assert report[2] == "scan-limits fam/N6/K1 1: a count, flag or exception differs"
    assert len(report) == 3
    assert tool.compare(["scan-limits"], mine, mine) == report[:1]
    assert tool.field_moves("k:0x1.0p+0 1", "k:0x1.0p+0 2") == (True, tool._NO_MOVE, tool._NO_MOVE)


def test_compare_matches_ops_by_key_and_lists_those_of_one_tree():
    tool = _tool()
    x = (1.5).hex()
    mine = {"scan-limits": [f"fam/N6/K1 0:{x}", f"fam/N6/K1 1:{x}", f"fam/N6/K1 2:{x}"]}
    theirs = {"scan-limits": [f"fam/N6/K1 0:{x}", f"fam/N6/K1 2:{x}", f"fam/N6/K1 3:{x}"]}
    assert tool.compare(["scan-limits"], mine, theirs)[1:] == [
        "scan-limits fam/N6/K1 1: only in this tree",
        "scan-limits fam/N6/K1 3: only in the other tree",
    ]


def test_against_the_same_tree_prints_the_digest_lines_only():
    argv = [sys.executable, str(TOOL), "--seed", "1", "--workload", "functionals"]
    run = lambda *extra: subprocess.run(
        argv + list(extra), capture_output=True, text=True, check=True, cwd=ROOT
    ).stdout
    assert run("--against", str(ROOT)) == run()


def test_summary_counts_differing_ops_and_reports_value_and_error_moves_apart():
    tool = _tool()
    fv = FunctionalValue(1.5, {"hardy": -0.5}, 1e-12, 1.5)
    line = lambda key, out: f"{key}:" + " ".join(tool.output_tokens(out))
    assert tool.output_tokens(fv)[2] == "err=" + (1e-12).hex()
    value_moved = replace(fv, value=1.5 * (1 + 2**-50), components={"hardy": -0.5 * (1 + 2**-50)})
    ops = {
        "same": (fv, fv),
        "value": (fv, value_moved),
        "error": (fv, replace(fv, quadrature_error=1.1e-12)),
        "count": (fv, replace(fv, unconverged=1)),
    }
    mine = [line(key, a) for key, (a, _) in ops.items()] + ["raises:raised DomainError"]
    theirs = [line(key, b) for key, (_, b) in ops.items()] + ["raises:raised ValueError"]
    report = tool.compare(["functionals"], {"functionals": mine}, {"functionals": theirs})
    value_move, error_move = 2**-50 / (1 + 2**-50), 0.1e-12 / 1.1e-12
    assert report[1:] == [
        f"functionals: 4 of 5 ops differ, 2 in a count, flag or exception; "
        f"largest value move {value_move:.3g} at value (1.5 against {value_moved.value!r}); "
        f"largest error-estimate move {error_move:.3g} at error (1e-12 against 1.1e-12)",
        "functionals count: a count, flag or exception differs",
        "functionals raises: a count, flag or exception differs",
    ]
    assert tool.field_moves(line("k", fv), line("k", value_moved)) == (
        False,
        (value_move, 1.5, value_moved.value),
        tool._NO_MOVE,
    )
    assert tool.compare(["functionals"], {"functionals": mine}, {"functionals": mine}) == report[:1]
    # an error estimate never counts as a value, nor a value as an error estimate
    swapped = "k:" + " ".join(tool.output_tokens(fv)[:1] + ["err=" + (1.5).hex()] + tool.output_tokens(fv)[2:])
    assert tool.field_moves(line("k", fv), swapped)[0]


def test_summary_shows_the_two_values_of_the_largest_move():
    # a round-off residual that doubles moves by 1/2 relative: the two values
    # say it is a residual of 2.2e-16, not a value that moved
    tool = _tool()
    small, doubled = 2.0**-52, 2.0**-51
    mine = {"residual": f"residual:{doubled.hex()} 0", "steady": f"steady:{(1.5).hex()} 0"}
    theirs = {"residual": f"residual:{small.hex()} 0", "steady": f"steady:{(1.5).hex()} 0"}
    assert tool.summary("registry-identities", mine, theirs) == (
        "registry-identities: 1 of 2 ops differ, 0 in a count, flag or exception; "
        "largest value move 0.5 at residual (4.440892098500626e-16 against 2.220446049250313e-16); "
        "largest error-estimate move 0"
    )


def test_quadrature_counts_ride_next_to_the_tokens_outside_the_digest():
    tool = _tool()
    from rellich.quadrature import integrate

    class Op:
        key = ("fam", "N6", 0)

        @staticmethod
        def run():
            integrate(np.exp, 0.0, 1.0)
            return FunctionalValue(1.5, {}, 1e-12, 1.5)

    line, counts = tool.op_record(Op)
    assert line == "fam N6 0:" + " ".join(tool.output_tokens(Op.run()))
    assert counts == (1, 225, 0)
    assert tool.digest([Op]) == tool._hash([line])
    mine = {"functionals": [line]}
    same = ({"functionals": (1, 225, 0)}, {"functionals": (1, 225, 0)})
    assert tool.compare(["functionals"], mine, mine, same) == tool.compare(["functionals"], mine, mine)
    moved = ({"functionals": (1, 225, 0)}, {"functionals": (1, 240, 1)})
    assert tool.compare(["functionals"], mine, mine, moved)[1:] == [
        "functionals: quadrature calls, evaluations, unconverged 1 225 0 against 1 240 1"
    ]


def test_against_exits_1_where_an_op_or_a_quadrature_total_differs(monkeypatch, tmp_path, capsys):
    tool = _tool()
    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts perfbench/ on it
    x, y = (1.5).hex(), (2.5).hex()
    same = ({"functionals": [f"k:{x}"]}, {"functionals": (1, 225, 0)})
    cases = [
        (same, 0),
        (({"functionals": [f"k:{y}"]}, same[1]), 1),  # an op's output
        (({"functionals": [f"j:{x}"]}, same[1]), 1),  # an op of one tree only
        ((same[0], {"functionals": (1, 240, 0)}), 1),  # the quadrature totals
    ]
    argv = ["--seed", "1", "--workload", "functionals", "--against", str(tmp_path)]
    for theirs, status in cases:
        monkeypatch.setattr(tool, "_tree_lines", lambda src, seed, names: theirs if src == tmp_path else same)
        assert tool.main(argv) == status
        assert (len(capsys.readouterr().out.splitlines()) > 1) == bool(status)
