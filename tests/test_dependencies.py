"""The package runs on numpy alone: scipy is not a runtime dependency."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import rellich

SRC = Path(rellich.__file__).resolve().parent.parent

# With sys.modules["scipy"] = None, every import of scipy raises ImportError.
PROBE = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None

    import rellich
    from rellich.minseq import ScanFamily, default_schedule, scan_to_limit
    from rellich.radial import Functional, functional
    from rellich.verify import AdmissibilityCondition, admissibility, check_identity, standard_suite

    suite = standard_suite(3, size=1)
    assert check_identity("weighted-green", suite).passed
    step = default_schedule(ScanFamily.RELLICH_IMPROVED, 6)[:1]
    assert scan_to_limit(ScanFamily.RELLICH_IMPROVED, step).direction_ok()
    assert functional(Functional.I, suite[0].test_function()).value > 0
    assert admissibility(6, AdmissibilityCondition.GRADIENT_PERTURBATION, 0.0) == ("finite", None)
    print("ok")
    """
)


def test_package_runs_without_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
