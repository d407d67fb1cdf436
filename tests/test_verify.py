import functools
from fractions import Fraction

import mpmath
import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from rellich import constants as C
from rellich.errors import DomainError
from rellich.powerseries import PowerSum
from rellich.quadrature import QuadratureSpec
from rellich.radial import RadialProfile, SphericalMode, TestFunction
from rellich.verify import (
    AdmissibilityCondition,
    CheckSpec,
    SobolevForm,
    SuiteCase,
    admissibility,
    check_identity,
    check_inequality,
    registry_targets,
    sobolev_quotient,
    standard_suite,
)

SPEC = QuadratureSpec()


def make_case(N, k, f_coeffs, m=0.0, lead=None):
    """A hand-built suite case around an explicit polynomial profile."""
    f = PowerSum.from_poly(f_coeffs)
    lead = lead if lead is not None else next(i for i, c in enumerate(f_coeffs) if c)
    trailing = f_coeffs[lead:] if lead else f_coeffs
    return SuiteCase(
        index=0,
        N=N,
        k=k,
        m=m,
        f=f,
        k2=max(k, 1),
        f2=PowerSum.from_poly(P.polymul([0, 1.0], P.polypow([1, -1], 3))),
        weight_poly=PowerSum.from_poly([1.0]),
        weight_exponent=0.0,
        shift_exponent=0.5,
        potential_poly=PowerSum.from_poly([1.0, 0.0, 1.0]),
        factors=(lead, 0, tuple(trailing)),
    )


def test_suite_is_deterministic():
    s1 = standard_suite(seed=7, size=10)
    s2 = standard_suite(seed=7, size=10)
    for a, b in zip(s1, s2):
        assert a.N == b.N and a.k == b.k and a.m == b.m
        assert a.f.coeffs == b.f.coeffs
    s3 = standard_suite(seed=8, size=10)
    assert any(a.f.coeffs != c.f.coeffs for a, c in zip(s1, s3))


def test_suite_random_stream_is_frozen():
    # every case draws from one stream, so a dropped or added draw moves
    # the weight and the profile of every later case
    suite = standard_suite(seed=7)
    assert suite[0].m == 0.2799806532485232
    assert suite[0].f.coeffs[0] == Fraction(3577783852065997, 4503599627370496)
    assert suite[49].m == 0.5852387051426723
    assert suite[49].f.coeffs[0] == Fraction(-299657923172403, 4503599627370496)


def test_suite_profiles_are_mode_compatible():
    for case in standard_suite(seed=1, size=16):
        assert case.f.min_power >= case.k
        prof = case.jet_profile()
        assert prof.verify_origin_order()
        assert abs(case.f(np.array([1.0]))[0]) < 1e-12


def test_identity_green_special_case():
    # B = 1, a = 0 reduces to int |grad u|^2 = -int u Delta u
    coeffs = P.polypow([1, 0, -1], 2)  # (1 - r^2)^2
    case = make_case(5, 0, coeffs, lead=0)
    from rellich.verify import _id_weighted_green

    lhs, rhs = _id_weighted_green(case, SPEC)
    assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-10


def test_identity_deficit_j_example():
    coeffs = P.polypow([1, 0, -1], 3)  # (1 - r^2)^3 on N = 5, k = 0
    case = make_case(5, 0, coeffs, lead=0)
    from rellich.verify import _id_deficit_j

    lhs, rhs = _id_deficit_j(case, SPEC)
    assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-8


def test_identity_vradial_example():
    # reduced profile g = r^2 (1-r)^3 at N = 6, k = 1, i.e. f = g
    # (there the v-substitution exponent (N-4)/2 - k vanishes)
    g = P.polymul([0, 0, 1.0], P.polypow([1, -1], 3))
    case = make_case(6, 1, list(g))
    from rellich.verify import _id_vradial_gside

    lhs, rhs = _id_vradial_gside(case, SPEC)
    assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-8


def test_full_identity_registry_on_small_suite():
    suite = standard_suite(seed=3, size=12)
    for name in registry_targets("identity"):
        report = check_identity(name, suite, SPEC)
        assert report.passed, (name, report.worst_case)


def test_full_inequality_registry_on_small_suite():
    suite = standard_suite(seed=3, size=12)
    for name in registry_targets("inequality"):
        report = check_inequality(name, suite, K=4, quad=SPEC)
        assert report.passed, (name, report.worst_case)


def test_inequality_rellich_improved_example():
    coeffs = P.polypow([1, 0, -1], 2)  # (1 - r^2)^2, N = 6, k = 0, K = 3
    case = make_case(6, 0, coeffs, lead=0)
    from rellich.verify import _slack_rellich_improved

    assert _slack_rellich_improved(case, 3, SPEC) >= 0.0


def test_inequality_rellich_gradient_example():
    coeffs = P.polymul([0, 0, 1.0], P.polypow([1, -1], 3))  # r^2 (1-r)^3, k = 1, N = 5
    case = make_case(5, 1, coeffs)
    from rellich.verify import _slack_rellich_gradient

    assert _slack_rellich_gradient(case, 1, SPEC) >= 0.0


def test_inequality_zero_function():
    case = make_case(6, 0, [0.0], lead=0)
    from rellich.verify import _slack_rellich_improved

    assert _slack_rellich_improved(case, 5, SPEC) == 0.0


def test_truncation_direction_is_safe():
    # deeper truncation only weakens the subtracted series
    case = make_case(6, 0, list(P.polypow([1, 0, -1], 2)), lead=0)
    from rellich.verify import _slack_rellich_improved

    slacks = [_slack_rellich_improved(case, K, SPEC) for K in (1, 2, 4, 8)]
    assert all(s >= 0 for s in slacks)
    assert all(slacks[i + 1] <= slacks[i] + 1e-12 for i in range(len(slacks) - 1))


def test_rejections_report_reasons():
    suite = standard_suite(seed=3, size=20)
    report = check_inequality("rellich-gradient-weighted-improved", suite, K=3, quad=SPEC)
    rejected = [r for r in report.results if r.rejected]
    assert rejected and all("m*" in r.reason for r in rejected)
    report = check_identity("potential-gside", suite, SPEC)
    rejected = [r for r in report.results if r.rejected]
    assert all("k >= 1" in r.reason for r in rejected)
    report = check_inequality("higher-order-rellich-chain", suite, K=3, quad=SPEC)
    assert any(r.rejected for r in report.results)


def test_checkspec_validation():
    suite = standard_suite(seed=0, size=4)
    with pytest.raises(DomainError):
        CheckSpec("no-such-target", suite)
    with pytest.raises(DomainError):
        CheckSpec("rellich", suite, series_terms=0)
    with pytest.raises(DomainError):
        check_identity("rellich", suite)  # registered as an inequality
    with pytest.raises(DomainError):
        check_inequality("rellich", suite, K=0)


def test_report_serialization_rows():
    suite = standard_suite(seed=3, size=8)
    report = check_inequality("rellich", suite, K=1, quad=SPEC)
    rows = report.to_rows()
    assert len(rows) == len(suite)
    assert {"target", "case", "value", "rejected", "reason"} <= set(rows[0])


def test_sobolev_quotients_positive():
    coeffs = P.polypow([1, 0, -1], 3)  # (1 - r^2)^3
    tf = TestFunction(RadialProfile.from_polynomial(coeffs), SphericalMode(6, 0))
    for form in SobolevForm:
        assert sobolev_quotient(form, tf, SPEC) > 0.0


def test_sobolev_quotient_suite_minimum_positive():
    rng = np.random.default_rng(5)
    values = []
    for _ in range(12):
        q = rng.uniform(-1, 1, 4)
        coeffs = P.polymul(P.polypow([1, -1], int(rng.integers(3, 6))), q)
        tf = TestFunction(RadialProfile.from_polynomial(coeffs), SphericalMode(6, 0))
        try:
            values.append(sobolev_quotient(SobolevForm.U_FORM, tf, SPEC))
        except DomainError:
            continue
    assert values and min(values) > 0.0


def test_sobolev_quotient_guards():
    zero = TestFunction(RadialProfile.from_polynomial([0.0]), SphericalMode(6, 0))
    with pytest.raises(DomainError):
        sobolev_quotient(SobolevForm.U_FORM, zero, SPEC)
    mode1 = TestFunction(RadialProfile.from_polynomial([0, 1.0, -1.0]), SphericalMode(6, 1))
    with pytest.raises(DomainError):
        sobolev_quotient(SobolevForm.U_FORM, mode1, SPEC)


def test_admissibility_classifications():
    kind, value = admissibility(lambda r: np.ones_like(r), 6, AdmissibilityCondition.GRADIENT_PERTURBATION, SPEC)
    assert kind == "finite" and value > 0
    kind, _ = admissibility(lambda r: r**-4.0, 6, AdmissibilityCondition.POTENTIAL_PERTURBATION, SPEC)
    assert kind == "divergent"
    kind, value = admissibility(lambda r: np.zeros_like(r), 6, AdmissibilityCondition.GRADIENT_PERTURBATION, SPEC)
    assert kind == "finite" and value == 0.0


def test_admissibility_rejects_negative_potential():
    with pytest.raises(DomainError):
        admissibility(lambda r: -np.ones_like(r), 6, AdmissibilityCondition.GRADIENT_PERTURBATION, SPEC)


def test_potential_identity_with_iterated_log_potential():
    # the gradient identity with V = (N^2 + X_1^2)/4, whose derivative is
    # integrable against the reduced-profile density for k >= 1
    from rellich.iterlog import x1
    from rellich.quadrature import OriginSubstitution, integrate
    from rellich.verify import _g_profile, _grad_sq, _lap

    case = [c for c in standard_suite(seed=3, size=16) if c.k >= 1][0]
    N, k, ck = case.N, case.k, case.eigenvalue
    f, g = case.f, _g_profile(case)

    def V(r):
        return (N * N + x1(np.minimum(r, 1.0)) ** 2) / 4.0

    def Vp(r):
        # (X_1^2)'/4 = X_1^3 / (2 r)
        x = x1(np.minimum(r, 1.0))
        return x**3 / (2.0 * r)

    lhs_density = lambda r: V(r) * _grad_sq(f, ck)(r) * r ** (N - 3)
    lhs = integrate(lhs_density, 0.0, 1.0, SPEC).value
    gp = g.deriv()
    rhs_density = lambda r: V(r) * (gp(r) ** 2 * r ** (2 * k + 1))
    rhs = integrate(rhs_density, 0.0, 1.0, SPEC).value
    coeff = ((N - 4) / 2.0) ** 2 + k * (N - 2)
    rhs += integrate(lambda r: coeff * V(r) * g(r) ** 2 * r ** (2 * k - 1), 0.0, 1.0, SPEC).value
    rhs += integrate(
        lambda r: ((N - 4) / 2.0 - k) * Vp(r) * g(r) ** 2 * r ** (2 * k), 0.0, 1.0, SPEC
    ).value
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_weighted_inequalities_near_upper_weight_boundary():
    # the weighted Rellich improvements hold on the whole range m < (N-4)/2;
    # probe just below the boundary where the Hardy-side density is nearly
    # non-integrable
    from rellich.verify import _slack_rellich_weighted_improved, _slack_hardy_improved_weighted

    for N in (6, 9, 30):
        m = 0.98 * (N - 4) / 2.0
        case = make_case(N, 0, list(P.polypow([1, 0, -1], 3)), m=m, lead=0)
        assert _slack_rellich_weighted_improved(case, 5, SPEC) >= -1e-9
        assert _slack_hardy_improved_weighted(case, 5, SPEC) >= -1e-9


def test_inequality_registry_integrals_converge():
    suite = standard_suite(seed=7)
    for name in registry_targets("inequality"):
        report = check_inequality(name, suite, K=5, quad=SPEC)
        assert all(r.unconverged == 0 for r in report.results), name


# --------------------------------------------------------------------------
# extended-precision reference for the series terms: in s = ln(1/r),
# int_0^1 r^p S_K(r) dr = int_0^inf e^{-(p+1)s} w_K(s) ds =: M(p) has a
# smooth positive integrand, so the exact power-sum coefficients are summed
# against 40-digit moments, with no pointwise cancellation


def _series_weight(K, s):
    total, prod = mpmath.mpf(0), mpmath.mpf(1)
    x = 1 / (1 + s)  # X_1(e^{-s})
    for _ in range(K):
        prod *= x * x
        total += prod
        x = 1 / (1 - mpmath.log(x))
    return total


@functools.lru_cache(maxsize=None)
def _series_moment(K, p: Fraction):
    with mpmath.workdps(40):
        p1 = mpmath.mpf(p.numerator) / p.denominator + 1
        return mpmath.quad(lambda s: mpmath.exp(-p1 * s) * _series_weight(K, s), [0, 0.25, 1, 4, 16, 64, mpmath.inf])


def _series_reference(K, series) -> float:
    """sum over (coeff, density) of coeff * int_0^1 density S_K dr."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        for coeff, density in series:
            for p, c in zip(density.powers, density.coeffs):
                total += mpmath.mpf(float(coeff)) * (mpmath.mpf(c.numerator) / c.denominator) * _series_moment(K, p)
        return float(total)


def _series_split(name, case):
    """The exact part of a series slack and its (coefficient, density)
    pairs: slack = exact - sum coeff * int_0^1 density S_K dr."""
    from rellich.verify import _deficit_I, _deficit_II, _grad_sq, _lap_pow

    N, ck, f = case.N, case.eigenvalue, case.f
    if name == "hardy-improved":
        exact = _grad_sq(f, ck).shift(N - 1).integrate01()
        exact -= ((N - 2) / 2.0) ** 2 * f.square().shift(N - 3).integrate01()
        return exact, [(0.25, f.square().shift(N - 3))]
    if name == "rellich-improved":
        return _deficit_I(case), [(1 + N * (N - 4) / 8.0, f.square().shift(N - 5))]
    if name == "rellich-gradient-improved":
        return _deficit_II(case), [(0.25, _grad_sq(f, ck).shift(N - 3))]
    assert name == "higher-order-gradient-chain"
    exact = _grad_sq(_lap_pow(f, N, ck, 2), ck).shift(N - 1).integrate01()
    series = []
    for term, coeff in C.higher_order_coefficients(N, 2, 1, C.HigherOrderVariant.GRADIENT_CHAIN):
        base = _lap_pow(f, N, ck, term.delta_order)
        if term.kind == "gradient":
            density = _grad_sq(base, ck).shift(N - 1 - term.weight_power)
        else:
            density = base.square().shift(N - 1 - term.weight_power)
        if term.with_series:
            series.append((coeff, density))
        else:
            exact -= float(coeff) * density.integrate01()
    return exact, series


def test_series_terms_match_extended_precision_reference():
    K = 5
    cases = [case for case in standard_suite(seed=7) if case.N == 30][:3]
    for name in ("hardy-improved", "rellich-gradient-improved", "higher-order-gradient-chain"):
        for case in cases:
            slack = check_inequality(name, [case], K=K, quad=SPEC).results[0].value
            exact, series = _series_split(name, case)
            ref = _series_reference(K, series)
            assert abs((exact - slack) - ref) <= 1e-9 * abs(ref), (name, case.index)


def test_tiny_series_term_meets_the_relative_tolerance():
    # seed 8, case 47 (N = 30, k = 3): int f^2 r^25 S_5 dr is about 4.7e-11,
    # below the default abs_tol, which used to end the quadrature at 2e-8
    # relative error
    K = 5
    case = standard_suite(seed=8)[47]
    assert (case.N, case.k) == (30, 3)
    slack = check_inequality("rellich-improved", [case], K=K, quad=SPEC).results[0]
    assert slack.unconverged == 0
    exact, series = _series_split("rellich-improved", case)
    ref = _series_reference(K, series)
    assert abs((exact - slack.value) - ref) <= 1e-9 * abs(ref)
