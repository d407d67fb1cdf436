"""Smoke test of tools/engine_split.py, the in-process split of a benchmark
pass's quadrature time and of its single-log reduction time."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "engine_split.py"


def _figures(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", workload, "--seed", "1", "--passes", "1"],
        capture_output=True,
        text=True,
        check=True,
        cwd=ROOT,
    ).stdout.splitlines()
    assert out[0] == f"{workload} seed 1: best of 1 passes"
    return {name: float(value) for name, value in (line.split() for line in out[1:])}


def test_the_parts_of_a_pass_do_not_exceed_it():
    figures = _figures("functionals")
    assert list(figures) == [
        "pass_ms",
        "lockstep_ms",
        "integrand_ms",
        "gk_sums_ms",
        "engine_ms",
        "reduction_ms",
        "runs",
        "rounds",
    ]
    assert 0 < figures["lockstep_ms"] <= figures["pass_ms"]
    parts = figures["integrand_ms"], figures["gk_sums_ms"], figures["engine_ms"]
    assert all(part > 0 for part in parts)
    assert sum(parts) <= figures["lockstep_ms"] + 0.01  # the printed figures are rounded to 0.01 ms
    assert 0 < figures["runs"] <= figures["rounds"]
    assert figures["reduction_ms"] == 0  # no scan quotient in a functionals pass


def test_the_reduction_of_a_scan_pass_lies_outside_its_lockstep_runs():
    figures = _figures("scan-limits")
    assert 0 < figures["reduction_ms"]
    assert figures["lockstep_ms"] + figures["reduction_ms"] <= figures["pass_ms"] + 0.01
