import dataclasses
import functools
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import numpy.polynomial.polynomial as P
import pytest

from rellich.errors import DomainError
from rellich.powerseries import PowerSum
from rellich.quadrature import QuadratureSpec, count_quadrature
from rellich.radial import RadialProfile, SphericalMode, TestFunction
from rellich import verify
from rellich.verify import (
    REGISTRY,
    AdmissibilityCondition,
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
        assert abs(case.f(np.array([1.0]))[0]) < 1e-12


def test_identity_green_special_case():
    # B = 1, a = 0 reduces to int |grad u|^2 = -int u Delta u
    coeffs = P.polypow([1, 0, -1], 2)  # (1 - r^2)^2
    case = make_case(5, 0, coeffs, lead=0)
    lhs, rhs = REGISTRY["weighted-green"].fn(case, SPEC)
    assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-10


def test_identity_deficit_j_example():
    coeffs = P.polypow([1, 0, -1], 3)  # (1 - r^2)^3 on N = 5, k = 0
    case = make_case(5, 0, coeffs, lead=0)
    lhs, rhs = REGISTRY["rellich-deficit-j"].fn(case, SPEC)
    assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-8


def test_identity_vradial_example():
    # reduced profile g = r^2 (1-r)^3 at N = 6, k = 1, i.e. f = g
    # (there the v-substitution exponent (N-4)/2 - k vanishes)
    g = P.polymul([0, 0, 1.0], P.polypow([1, -1], 3))
    case = make_case(6, 1, list(g))
    lhs, rhs = REGISTRY["v-radial-gside"].fn(case, SPEC)
    assert abs(lhs - rhs) / (abs(lhs) + abs(rhs)) < 1e-8


def test_full_identity_registry_on_small_suite():
    suite = standard_suite(seed=3, size=12)
    for name in registry_targets("identity"):
        report = check_identity(name, suite, SPEC)
        assert report.passed, (name, report.worst_case)


# the identities whose lhs is a quadrature of the jet profile
_JET_PATH = {"mode-laplacian-reduction", "mode-gradient-reduction", "weighted-gradient-fside"}


@pytest.mark.parametrize("seed", [1, 7, 9])
def test_exact_identities_have_zero_residual(seed):
    names = [name for name in registry_targets("identity") if name not in _JET_PATH]
    assert len(names) == 17
    suite = standard_suite(seed=seed)
    for name in names:
        report = check_identity(name, suite, SPEC)
        assert all(r.rejected or r.value == 0.0 for r in report.results), (name, report.worst_case)


def test_exact_residual_shows_a_one_ulp_coefficient_error(monkeypatch):
    form = verify._REDUCED_FORMS["rellich-deficit"]

    def perturbed(N, k, ck):
        c1, c2, c3 = form(N, k, ck)
        return c1, c2, c3 * (1 + 1e-15)

    monkeypatch.setitem(verify._REDUCED_FORMS, "rellich-deficit", perturbed)
    suite = [case for case in standard_suite(seed=7) if case.k >= 1]
    report = check_identity("rellich-deficit-gside", suite, SPEC)
    assert any(r.value > 0.0 for r in report.results)


def test_jet_route_integrates_the_terms_own_profile():
    """The jet-route quadrature applies a term's shift, matching the exact
    value to 1e-12 relative on every case, and refuses a term of the
    companion profile, which has no factored jet profile."""
    from rellich.radial import _Int, _hardy, _v, _v_lap

    spec = QuadratureSpec(rel_tol=1e-12)
    suite = standard_suite(seed=7)
    for case in suite:
        g = _v(case.N) - case.k
        terms = [_Int("square", 3, 1, Fraction(1, 2)), _v_lap(case.N), _Int("moment-2", 2 * case.k + 3, 0, g)]
        for term, value in zip(terms, verify._quadratures(case, terms, spec)):
            exact = float(verify._exact_density(case, term).exact_integral01())
            assert value == pytest.approx(exact, rel=1e-12, abs=0.0), (case.index, term)
    with pytest.raises(DomainError, match="companion"):
        verify._quadratures(suite[1], [_hardy(suite[1].N, f2=True)], spec)


def _cross_routes() -> list:
    """The functionals with a cross route."""
    from rellich.radial import _FUNCTIONALS

    return [name for name, (_, _, declare) in _FUNCTIONALS.items() if declare and declare(6, 1, 0)[1]]


@pytest.mark.parametrize("name", _cross_routes())
def test_functional_declarations_are_exact_identities(name):
    """Each functional's direct terms sum to its cross terms in exact
    arithmetic on all 50 cases of seed 7, J and JJ at the v shift (they are
    declared on v = r^{(N-4)/2} u); a change of 2^-40 in any one coefficient
    of a declaration breaks the identity on some case."""
    from rellich.radial import _FUNCTIONALS, Functional, _v

    declare = _FUNCTIONALS[name][2]
    on_v = name in (Functional.J, Functional.JJ)
    suite = standard_suite(seed=7)
    sides = {}
    for case in suite:
        direct, cross = declare(case.N, case.k, case.m_exact)
        signed = direct + [(-c, t) for c, t in cross]
        if on_v:
            signed = [(c, dataclasses.replace(t, shift=(t.shift or 0) + _v(case.N))) for c, t in signed]
        assert verify._sum(case, signed, 1, SPEC) == 0, (name, case.index)
        sides[case.index] = signed
    for i in range(len(sides[0])):
        def changed(pairs):
            c, t = pairs[i]
            return pairs[:i] + [(Fraction(c) + (abs(Fraction(c)) or 1) * Fraction(1, 2**40), t)] + pairs[i + 1:]

        assert any(verify._sum(case, changed(sides[case.index]), 1, SPEC) != 0 for case in suite), (name, i)
    assert len(_cross_routes()) == 6


@pytest.mark.parametrize("target", ["radialization-rellich", "radialization-gradrellich"])
def test_equal_terms_are_evaluated_once(monkeypatch, target):
    """The radialization targets name the companion's Laplacian integral
    twice; _sum adds its coefficients and evaluates it once per case, so 2
    of the 3 terms run on each of the 50 cases, and the slack is the one the
    three terms give summed one by one."""
    calls = []
    value = verify._exact

    def counted(case, term):
        calls.append(term)
        return value(case, term)

    monkeypatch.setattr(verify, "_exact", counted)
    suite = standard_suite(seed=1)
    report = check_inequality(target, suite, K=5, quad=SPEC)
    assert len(calls) == 100
    for case, res in zip(suite[:5], report.results):
        lhs, rhs = REGISTRY[target].terms(case)
        assert len(lhs) == 3 and not rhs
        assert res.value == float(sum(Fraction(c) * value(case, t) for c, t in lhs))


def _bits(results) -> list:
    """Case results with each float as its exact bits."""
    token = lambda x: float.hex(x) if isinstance(x, float) else x
    return [(r.index, token(r.value), r.rejected, r.reason, r.unconverged) for r in results]


def _run(name, suite):
    if REGISTRY[name].kind == "identity":
        return check_identity(name, suite, quad=SPEC).results
    return check_inequality(name, suite, K=5, quad=SPEC).results


def test_exact_terms_are_evaluated_once_per_case(monkeypatch):
    """Every registry target, run in order on one suite and in reverse order
    on a fresh one, builds the exact density of each distinct (case,
    non-series term) once, integrates each series term on every call, and
    gives case results bitwise those of the target run alone on a fresh
    suite."""
    densities, series = Counter(), Counter()
    density, quadratures, summed = verify._exact_density, verify._quadratures, verify._sum

    def counted_density(case, term):
        densities[case.index, term] += 1
        return density(case, term)

    def counted_quadratures(case, terms, spec, K=0):
        series["quadrature"] += sum(t.series for t in terms)
        return quadratures(case, terms, spec, K)

    def counted_sum(case, terms, K, spec):
        series["sum"] += len({t for _, t in terms if t.series})
        return summed(case, terms, K, spec)

    monkeypatch.setattr(verify, "_exact_density", counted_density)
    monkeypatch.setattr(verify, "_quadratures", counted_quadratures)
    monkeypatch.setattr(verify, "_sum", counted_sum)
    names = registry_targets()
    alone = {name: _bits(_run(name, standard_suite(seed=1, size=12))) for name in names}
    distinct = set(densities)
    assert sum(densities.values()) > len(distinct)  # targets share terms
    for order in (names, names[::-1]):
        densities.clear()
        series.clear()
        suite = standard_suite(seed=1, size=12)
        for name in order:
            assert _bits(_run(name, suite)) == alone[name], name
        assert set(densities) == distinct and set(densities.values()) == {1}
        assert series["quadrature"] == series["sum"] > 0


def test_suite_case_is_frozen_and_replace_starts_an_empty_store():
    case = standard_suite(seed=1, size=1)[0]
    check_identity("rellich-deficit-gside", [case], quad=SPEC)
    assert case._exact and all(type(v) is Fraction for v in case._exact.values())
    with pytest.raises(dataclasses.FrozenInstanceError):
        case.f = case.f2
    assert dataclasses.replace(case, m=case.m / 2)._exact == {}


def test_suite_size_must_be_positive():
    for size in (0, -3):
        with pytest.raises(DomainError):
            standard_suite(seed=0, size=size)


def test_full_inequality_registry_on_small_suite():
    suite = standard_suite(seed=3, size=12)
    for name in registry_targets("inequality"):
        report = check_inequality(name, suite, K=4, quad=SPEC)
        assert report.passed, (name, report.worst_case)


def test_inequality_rellich_improved_example():
    coeffs = P.polypow([1, 0, -1], 2)  # (1 - r^2)^2, N = 6, k = 0, K = 3
    case = make_case(6, 0, coeffs, lead=0)
    assert REGISTRY["rellich-improved"].fn(case, 3, SPEC) >= 0.0


def test_inequality_rellich_gradient_example():
    coeffs = P.polymul([0, 0, 1.0], P.polypow([1, -1], 3))  # r^2 (1-r)^3, k = 1, N = 5
    case = make_case(5, 1, coeffs)
    assert REGISTRY["rellich-gradient"].fn(case, 1, SPEC) >= 0.0


def test_inequality_zero_function():
    case = make_case(6, 0, [0.0], lead=0)
    assert REGISTRY["rellich-improved"].fn(case, 5, SPEC) == 0.0


def test_truncation_direction_is_safe():
    # deeper truncation only weakens the subtracted series
    case = make_case(6, 0, list(P.polypow([1, 0, -1], 2)), lead=0)
    slacks = [REGISTRY["rellich-improved"].fn(case, K, SPEC) for K in (1, 2, 4, 8)]
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


def test_check_validation():
    suite = standard_suite(seed=0, size=4)
    with pytest.raises(DomainError):
        check_inequality("no-such-target", suite)
    with pytest.raises(DomainError):
        check_identity("rellich", suite)  # registered as an inequality
    with pytest.raises(DomainError):
        check_inequality("rellich", suite, K=0)


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


GRADIENT = AdmissibilityCondition.GRADIENT_PERTURBATION
POTENTIAL = AdmissibilityCondition.POTENTIAL_PERTURBATION


def test_admissibility_classifications():
    assert admissibility(6, GRADIENT, 0.0) == ("finite", None)  # V = 1
    kind, reason = admissibility(6, POTENTIAL, -4.0)  # W = r^-4
    assert kind == "divergent" and "beta_1 = -3.0" in reason
    with pytest.raises(DomainError):
        admissibility(4, GRADIENT, 0.0)


@pytest.mark.parametrize("N", [5, 6, 9])
@pytest.mark.parametrize("which, r_power", [(GRADIENT, -2.0), (POTENTIAL, -4.0)])
def test_admissibility_single_log_borderline(N, which, r_power):
    # V = r^-2 X_1^c and W = r^-4 X_1^c put the integral at eps = 0 with
    # offset beta_1 = p (c - 2): finite exactly when c > 2
    with count_quadrature() as counts:
        answers = [admissibility(N, which, r_power, [c])[0] for c in (1.98, 2.0, 2.02)]
    assert answers == ["divergent", "divergent", "finite"]
    assert counts.calls == 0


def test_admissibility_double_log_borderline():
    # N = 8, V = r^-2 X_1^2 X_2^c2: beta_1 = 0 exactly, so beta_2 = 4 c2 - 1 decides
    answers = [admissibility(8, GRADIENT, -2.0, [2.0, c2])[0] for c2 in (1 / 4 - 1 / 64, 1 / 4, 1 / 4 + 1 / 64)]
    assert answers == ["divergent", "divergent", "finite"]
    assert "beta_2 = -0.0625" in admissibility(8, GRADIENT, -2.0, [2.0, 1 / 4 - 1 / 64])[1]


def test_admissibility_decides_offsets_exactly():
    # N = 10, V = r^-2 X_1^2 X_2^0.2: beta_2 = 5 * 0.2 - 1 rounds to 0 in
    # floats, but the double 0.2 lies above 1/5, so the integral is finite
    assert 5 * 0.2 - 1 == 0.0 and 5 * Fraction(0.2) - 1 > 0
    assert admissibility(10, GRADIENT, -2.0, [2.0, 0.2]) == ("finite", None)


def test_admissibility_rejects_non_finite_inputs():
    for args in [(math.nan,), (-2.0, [math.inf]), (-2.0, [2.0, math.nan])]:
        with pytest.raises(DomainError):
            admissibility(6, GRADIENT, *args)


def test_potential_identity_with_iterated_log_potential():
    # the gradient identity with V = (N^2 + X_1^2)/4, whose derivative is
    # integrable against the reduced-profile density for k >= 1
    from rellich.iterlog import x1
    from rellich.quadrature import integrate

    case = [c for c in standard_suite(seed=3, size=16) if c.k >= 1][0]
    N, k, ck = case.N, case.k, case.eigenvalue
    f, g = case.f, case.f.shift(Fraction(N - 4, 2) - k)
    grad_sq = f.deriv().square() + ck * f.square().shift(-2)

    def V(r):
        return (N * N + x1(np.minimum(r, 1.0)) ** 2) / 4.0

    def Vp(r):
        # (X_1^2)'/4 = X_1^3 / (2 r)
        x = x1(np.minimum(r, 1.0))
        return x**3 / (2.0 * r)

    lhs_density = lambda r: V(r) * grad_sq(r) * r ** (N - 3)
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
    for N in (6, 9, 30):
        m = 0.98 * (N - 4) / 2.0
        case = make_case(N, 0, list(P.polypow([1, 0, -1], 3)), m=m, lead=0)
        assert REGISTRY["rellich-weighted-improved"].fn(case, 5, SPEC) >= -1e-9
        assert REGISTRY["hardy-improved-weighted"].fn(case, 5, SPEC) >= -1e-9


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
    pairs, from the target's declared terms: slack = exact - sum coeff *
    int_0^1 density S_K dr."""
    lhs, rhs = REGISTRY[name].terms(case)
    signed = lhs + [(-c, t) for c, t in rhs]
    exact = verify._sum(case, [(c, t) for c, t in signed if not t.series], 1, SPEC)
    return exact, [(-c, verify._exact_density(case, t)) for c, t in signed if t.series]


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


def test_every_series_target_matches_extended_precision_reference():
    K = 5
    case = next(case for case in standard_suite(seed=7) if case.N == 30)
    names = [name for name in registry_targets("inequality") if REGISTRY[name].terms and _series_split(name, case)[1]]
    assert len(names) == 9
    for name in names:
        slack = REGISTRY[name].fn(case, K, SPEC)
        exact, series = _series_split(name, case)
        ref = _series_reference(K, series)
        assert abs((exact - slack) - ref) <= 1e-9 * abs(ref), name


def _mp_product(*factors) -> list:
    """The ascending coefficients of the product of polynomials given by
    their ascending coefficients."""
    out = [mpmath.mpf(1)]
    for f in factors:
        prod = [mpmath.mpf(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _taylor_rows(coeffs, r, order: int) -> list:
    """Rows 0..order of the Taylor expansion at r of sum_i coeffs[i] x^i."""
    rows = []
    for k in range(order + 1):
        acc = mpmath.mpf(0)
        for i in range(len(coeffs) - 1, k - 1, -1):
            acc = acc * r + coeffs[i] * math.comb(i, k)
        rows.append(acc)
    return rows


def _suite_jet_error(cases, nodes, order: int = 4) -> float:
    """The largest error of a row of the cases' profile jets at the nodes,
    against a 50-digit Taylor expansion of the exact polynomial
    q(r) (1 - r)^p r^lead built from the drawn floats, in units of the same
    row of |q|(r) (1 + r)^p r^lead (q's coefficients by their absolute
    values), the scale of the rounding errors of Horner's rule."""
    worst = 0.0
    with mpmath.workdps(50):
        for case in cases:
            lead, p, q = case.factors
            q = [mpmath.mpf(float(c)) for c in q]
            r_lead = [0] * lead + [1]
            exact = _mp_product(q, *[[1, -1]] * p, r_lead)
            scale = _mp_product([abs(c) for c in q], *[[1, 1]] * p, r_lead)
            J = case.jet_profile().taylor(nodes, order)
            for i, x in enumerate(nodes):
                r = mpmath.mpf(float(x))
                for k, (ref, size) in enumerate(zip(_taylor_rows(exact, r, order), _taylor_rows(scale, r, order))):
                    worst = max(worst, float(abs(mpmath.mpf(float(J.coeffs[k][i])) - ref) / size))
    return worst


def test_suite_profile_jets_match_extended_precision_reference():
    nodes = np.concatenate([[1e-6, 0.999999], np.linspace(0.025, 0.975, 39)])
    assert _suite_jet_error(standard_suite(7), nodes) <= 32 * np.finfo(float).eps
