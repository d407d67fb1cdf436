"""Smoke tests of tools/op_digest.py, the bitwise op-output digest."""

import importlib.util
import re
import subprocess
import sys
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
    assert tokens == [scan.quotients[0].hex(), "0"]


def test_cli_prints_one_digest_per_workload():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--seed", "1", "--workload", "functionals"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    ).stdout
    assert re.fullmatch(r"functionals [0-9a-f]{64} 400\n", out)


def test_compare_lists_each_differing_op_with_its_largest_relative_difference():
    tool = _tool()
    x = 9.0001250395959023
    mine = {"scan-limits": [f"fam/N6/K1 0:{x.hex()} {(2 * x).hex()} 0", f"fam/N6/K1 1:{x.hex()} 0"]}
    nudged = np.nextafter(2 * x, 0.0)
    theirs = {
        "scan-limits": [f"fam/N6/K1 0:{x.hex()} {nudged.hex()} 0", f"fam/N6/K1 1:raised DomainError"]
    }
    report = tool.compare(["scan-limits"], mine, theirs)
    assert report[0] == f"scan-limits {tool._hash(mine['scan-limits'])} 2"
    assert report[1] == f"scan-limits fam/N6/K1 0: {(2 * x - nudged) / (2 * x):.3g}"
    assert report[2] == "scan-limits fam/N6/K1 1: inf"
    assert len(report) == 3
    assert tool.compare(["scan-limits"], mine, mine) == report[:1]
    assert tool.max_rel_diff("k:0x1.0p+0 1", "k:0x1.0p+0 2") == float("inf")


def test_against_the_same_tree_prints_the_digest_lines_only():
    argv = [sys.executable, str(TOOL), "--seed", "1", "--workload", "functionals"]
    run = lambda *extra: subprocess.run(
        argv + list(extra), capture_output=True, text=True, check=True, cwd=ROOT
    ).stdout
    assert run("--against", str(ROOT)) == run()
