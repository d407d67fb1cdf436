"""Acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS line (pytest -s shows them; a failure raises).  These
criteria are the package's exit bar: the worked per-mode example, the
threshold table, the full identity and inequality registries on the
50-profile standard suite, the five best-constant scans, the leading-term
coefficients as exact identities of the single-log reduction, the
quadrature goldens, and the structural invariants.
"""

from fractions import Fraction

import numpy as np
import pytest

from rellich import constants as C
from rellich import minseq as M
from rellich.minseq import ScanFamily, default_schedule, scan_to_limit
from rellich.quadrature import QuadratureSpec, integrate_logweighted
from rellich.radial import RadialProfile, SphericalMode, mode_operator
from rellich.verify import (
    IDENTITY_TOLERANCE,
    INEQUALITY_TOLERANCE,
    _deficit_I,
    _deficit_II,
    _grad,
    _lap,
    _v_grad,
    _v_lap,
    check_identity,
    check_inequality,
    registry_targets,
    standard_suite,
)

QUAD = QuadratureSpec()
SUITE_SEED = 7


def _report(n, name):
    print(f"ACCEPTANCE {n} ({name}): PASS")


def test_criterion_1_worked_per_mode_example():
    """N=30, m=8: the four candidate quotients and the minimized constant."""
    assert C.per_mode_quotient(0, 30, 8) == 529.0
    assert C.per_mode_quotient(1, 30, 8) == 384.0
    assert C.per_mode_quotient(2, 30, 8) == pytest.approx(30625 / 85, rel=1e-9)
    assert C.per_mode_quotient(3, 30, 8) == pytest.approx(43264 / 118, rel=1e-9)
    rep = C.a_mn(30, 8)
    assert rep.argmin_k == 2
    assert rep.exact == Fraction(30625, 85)
    assert rep.value == pytest.approx(30625 / 85, rel=1e-9)
    _report(1, "worked per-mode example")


def test_criterion_2_threshold_table():
    assert C.m_star(30) == pytest.approx(4.1709, abs=1e-3)
    assert C.m1k(30, 1) == pytest.approx(4.853, abs=5e-3)
    assert C.m1k(30, 2) == 7.0
    assert C.m2k(30, 2) == pytest.approx(29 / 3, abs=1e-9)
    assert C.m2k(30, 1) == pytest.approx(11.813, abs=5e-3)
    assert C.x0(30, 8) == 65.0
    assert C.k_bar(30) == 2
    _report(2, "threshold table")


def test_criterion_3_identity_suite():
    suite = standard_suite(seed=SUITE_SEED, size=50)
    failures = []
    for name in registry_targets("identity"):
        report = check_identity(name, suite, QUAD, tolerance=IDENTITY_TOLERANCE)
        if not report.passed:
            failures.append((name, report.worst_case))
    assert not failures, failures
    _report(3, "identity suite, residual < 1e-7")


def test_criterion_4_inequality_suite():
    suite = standard_suite(seed=SUITE_SEED, size=50)
    failures = []
    for name in registry_targets("inequality"):
        report = check_inequality(name, suite, K=5, quad=QUAD, tolerance=INEQUALITY_TOLERANCE)
        if not report.passed:
            failures.append((name, report.worst_case))
        if name.startswith("higher-order"):
            checked_dims = {c.N for c, r in zip(suite, report.results) if not r.rejected}
            assert checked_dims == {9, 30}
    assert not failures, failures
    _report(4, "inequality suite, slack >= -1e-9 at K=5")


SCAN_CASES = [
    (ScanFamily.RELLICH_IMPROVED, 6, 0.0, 0, 0.25),
    (ScanFamily.RELLICH_GRAD_IMPROVED, 15, 0.0, 0, 0.25),
    (ScanFamily.WEIGHTED_RELLICH_IMPROVED, 12, 1.0, 0, 0.25),
    (ScanFamily.WEIGHTED_GRAD_IMPROVED, 15, 1.5, 0, 0.25),
    (ScanFamily.AMN, 30, 8.0, 2, 0.10),
]


def test_criterion_5_best_constant_scans():
    for family, N, m, mode_k, tolerance in SCAN_CASES:
        schedule = default_schedule(family, N, m, mode_k=mode_k)
        result = scan_to_limit(family, schedule, QUAD)
        strictly_decreasing = all(
            result.quotients[i + 1] < result.quotients[i]
            for i in range(len(result.quotients) - 1)
        )
        assert strictly_decreasing, (family, result.quotients)
        assert result.direction_ok(1e-9), (family, min(result.quotients))
        rel = abs(result.extrapolated - result.theoretical) / result.theoretical
        assert rel <= tolerance, (family, result.extrapolated, result.theoretical)
    _report(5, "best-constant scans within tolerance, strictly decreasing")


# The displayed leading-order terms of six functionals of the single-log
# sequence at m = 0: (registry terms, leading coefficient as a function of
# (N, a), the level j of the Q(-1 + a + j) it multiplies).  Where a sharp
# constant cancels the divergent levels the coefficient multiplies Q(1 + a);
# the plain u-side functionals keep their divergent Q(-1 + a).
LEADING_TERMS = {
    "v-gradient": (lambda N: [(1, _v_grad(N))], lambda N, a: (1 - a) / 4, 2),
    "v-laplacian": (lambda N: [(1, _v_lap(N))], lambda N, a: (N - 2) ** 2 * (1 - a) / 4, 2),
    "rellich-deficit": (_deficit_I, lambda N, a: (1 - a) * (N * N - 4 * N + 8) / 8, 2),
    "gradrellich-deficit": (_deficit_II, lambda N, a: (1 - a) * (N - 4) ** 2 / 16, 2),
    "u-gradient": (lambda N: [(1, _grad(N))], lambda N, a: Fraction(N - 4, 2) ** 2, 0),
    "u-laplacian": (lambda N: [(1, _lap(N))], lambda N, a: Fraction(N * (N - 4), 4) ** 2, 0),
}


def test_criterion_6_leading_term_asymptotics():
    """Each functional's first kept column of the reduction at eps = 0 is its
    displayed leading coefficient, exactly, as a polynomial in a."""
    for N in (5, 6, 9, 30):
        for a in (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(3, 4)):
            for name, (side, coefficient, level) in LEADING_TERMS.items():
                poly = M._at_a1(M._carried_density(M._terms(side(N), N, 0), N, Fraction(0), 0), a)
                start, cols, _ = M._reduce_columns(poly, a)
                assert (start, cols[0][0]) == (level, coefficient(N, a)), (name, N, a)
    _report(6, "leading-term coefficients are the reduction's first kept columns, exactly")


def test_criterion_7_quadrature_goldens():
    for eps in (0.5, 0.05, 0.005):
        res = integrate_logweighted(-1.0 + 2 * eps, [], None, QUAD)
        assert res.value == pytest.approx(1.0 / (2 * eps), rel=1e-10)
    res = integrate_logweighted(-1.0, [1.0], None, QUAD)
    assert res.value == pytest.approx(1.0, rel=1e-10)
    for a in (1.0, 0.1):
        res = integrate_logweighted(-1.0, [a], None, QUAD)
        assert res.value == pytest.approx(1.0 / a, rel=1e-10)
    _report(7, "quadrature goldens within 1e-10")


def test_criterion_8_structural_invariants():
    radii = np.linspace(0.01, 1.0, 100)
    for N in range(5, 31):
        for k in range(6):
            prof = RadialProfile.from_polynomial([0.0] * k + [1.0])
            vals = mode_operator(SphericalMode(N, k), prof)(radii)
            assert np.all(np.abs(vals) < 1e-10 * radii ** (k - 2)), (N, k)
    # continuity of the minimized constant across every threshold
    for N in (12, 20, 30):
        thresholds = [C.m_star(N)] + [
            t for k in range(1, C.k_bar(N) + 1) for t in (C.m1k(N, k), C.m2k(N, k))
        ]
        for t in thresholds:
            if t is None or not 0.0 < t < (N - 4) / 2:
                continue
            below = C.a_mn(N, max(t - 1e-12, 0.0)).value
            above = C.a_mn(N, min(t + 1e-12, (N - 4) / 2 * (1 - 1e-12))).value
            assert abs(below - above) < 1e-9, (N, t)
    for N in range(5, 31):
        assert C.sigma_bar(0, N) == 1 + N * (N - 4) / 8
    _report(8, "structural invariants")
