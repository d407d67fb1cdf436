"""Property-check harness for the radial-reduction identities and the
improved-inequality family.

Every identity and inequality in scope is registered under a descriptive
identifier and checked on a seeded suite of mode-compatible test functions
f(r) = r^{k+j} (1-r)^p q(r) with random polynomial q.  Profile-derived
densities are finite power sums, so the polynomial parts of both sides are
integrated exactly and identity residuals are pure round-off; only the
iterated-log series weights and a few cross-path checks go through
quadrature.  The series-weighted densities are evaluated in factored form,
from the jet profile, because the expanded power sum cancels
catastrophically when evaluated pointwise in floats.  Each case result
carries the number of its integrals that ended unconverged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from . import constants as C
from .errors import DomainError
from .iterlog import series_partial
from .powerseries import PowerSum
from .quadrature import (
    QuadratureSpec,
    classify_origin_integral,
    count_quadrature,
    integrate,
)
from .radial import (
    _REDUCED_FORMS,
    Functional,
    RadialProfile,
    SphericalMode,
    TestFunction,
    functional,
    gradient_density,
    mode_operator,
    origin_integral,
    reduced_form,
    sphere_area,
)

__all__ = [
    "SuiteCase",
    "standard_suite",
    "CheckSpec",
    "CaseResult",
    "CheckReport",
    "registry_targets",
    "registry_describe",
    "check_identity",
    "check_inequality",
    "SobolevForm",
    "sobolev_quotient",
    "AdmissibilityCondition",
    "admissibility",
    "IDENTITY_TOLERANCE",
    "INEQUALITY_TOLERANCE",
]

IDENTITY_TOLERANCE = 1e-7
INEQUALITY_TOLERANCE = 1e-9

SUITE_DIMENSIONS = (5, 6, 9, 30)
SUITE_MODES = (0, 1, 2, 3)


@dataclass
class SuiteCase:
    """One member of the randomized verification suite.

    Carries the mode profile f (guaranteed f = O(r^k) at the origin and
    vanishing to third order or better at r = 1), a second-mode companion
    (for the radialization inequalities), plus the per-case weight m, a C^2
    multiplier B with its exponent, the power-shift exponents, and a C^1
    potential V.
    """

    index: int
    N: int
    k: int
    m: float
    f: PowerSum
    k2: int
    f2: PowerSum
    weight_poly: PowerSum
    weight_exponent: float
    shift_exponent: float
    potential_poly: PowerSum
    factors: tuple = ()  # (leading power, boundary order, q coefficients)

    @property
    def mode(self) -> SphericalMode:
        return SphericalMode(self.N, self.k)

    @property
    def eigenvalue(self) -> int:
        return self.mode.eigenvalue

    @property
    def m_exact(self) -> Fraction:
        return Fraction(self.m)

    def jet_profile(self) -> RadialProfile:
        """The profile in factored form r^(k+j) (1-r)^p q(r), which evaluates
        pointwise without the cancellation of the expanded power sum."""
        lead, p, q_coeffs = self.factors
        top, *rest = [float(c) for c in reversed(list(q_coeffs))]
        power, boundary = int(lead), int(p)

        def fn(J):
            acc = J * 0.0 + top
            for c in rest:
                acc = acc * J + c
            return (J**power) * ((1.0 - J) ** boundary) * acc

        return RadialProfile.from_jet_fn(fn, origin_order=lead)

    def test_function(self) -> TestFunction:
        return TestFunction(self.jet_profile(), self.mode)


def _random_polynomial(rng, degree: int = 4) -> np.ndarray:
    while True:
        coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
        if np.max(np.abs(coeffs)) >= 0.1:
            return coeffs


def _profile_power_sum(k: int, j: int, p: int, q_coeffs) -> PowerSum:
    poly = np.polynomial.polynomial.polymul(
        np.polynomial.polynomial.polypow([1.0, -1.0], p), np.asarray(q_coeffs)
    )
    ps = PowerSum.from_poly(poly)
    return ps.shift(k + j)


def standard_suite(seed: int = 0, size: int = 50) -> list[SuiteCase]:
    """The reproducible verification suite; identical bytes for a fixed seed."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(size):
        N = SUITE_DIMENSIONS[i % len(SUITE_DIMENSIONS)]
        k = SUITE_MODES[(i // len(SUITE_DIMENSIONS)) % len(SUITE_MODES)]
        j = int(rng.integers(0, 3))
        p = int(rng.integers(3, 6))
        q_coeffs = _random_polynomial(rng)
        f = _profile_power_sum(k, j, p, q_coeffs)
        # draws of a former radial companion profile, kept so that the
        # random stream, and with it every later case, stays the same
        rng.integers(0, 3), rng.integers(3, 6), _random_polynomial(rng)
        k2 = max(k, 1)
        f2 = _profile_power_sum(k2, int(rng.integers(0, 3)), int(rng.integers(3, 6)), _random_polynomial(rng))
        m = float(rng.uniform(0.0, 0.9 * (N - 4) / 2.0))
        weight_poly = PowerSum.from_poly(rng.uniform(-1.0, 1.0, size=3) + np.array([2.0, 0.0, 0.0]))
        weight_exponent = float(rng.uniform(0.0, N - 2.5))
        shift_exponent = float(rng.uniform(0.1, 1.0))
        potential_poly = PowerSum.from_poly([float(rng.uniform(0.5, 2.0)), 0.0, float(rng.uniform(-0.5, 0.5))])
        cases.append(
            SuiteCase(
                index=i,
                N=N,
                k=k,
                m=m,
                f=f,
                k2=k2,
                f2=f2,
                weight_poly=weight_poly,
                weight_exponent=weight_exponent,
                shift_exponent=shift_exponent,
                potential_poly=potential_poly,
                factors=(k + j, p, tuple(q_coeffs)),
            )
        )
    return cases


# --------------------------------------------------------------------------
# exact density helpers (all per unit sphere area; the c_N factor cancels in
# residuals and slacks because every term carries it)


def _grad_sq(f: PowerSum, ck: float) -> PowerSum:
    out = f.deriv().square()
    if ck:
        out = out + ck * f.square().shift(-2.0)
    return out


def _lap(f: PowerSum, N: int, ck: float) -> PowerSum:
    return f.mode_apply(N, ck)


def _lap_pow(f: PowerSum, N: int, ck: float, n: int) -> PowerSum:
    out = f
    for _ in range(n):
        out = out.mode_apply(N, ck)
    return out


def _series_term(case: SuiteCase, n: int, kind: str, power: float, K: int, spec: QuadratureSpec) -> float:
    """int_0^1 D(r) * sum_{i<=K} X_1^2...X_i^2 dr for h = L_k^n f, with the
    density D = h^2 r^power (kind "square") or (h'^2 + c_k h^2/r^2) r^power
    (kind "gradient") evaluated in factored form from the jet profile."""
    h = case.jet_profile()
    for _ in range(n):
        h = mode_operator(case.mode, h)

    def density(r):
        if kind == "gradient":
            d = gradient_density(*h.derivative_values(r, 1), case.eigenvalue, r, power)
        else:
            d = h(r) ** 2 * r**power
        return d * series_partial(K, np.minimum(r, 1.0))

    lead = h.origin_order - 1 if kind == "gradient" else h.origin_order
    # a series term can be far below the default abs_tol (about 5e-11 at N = 30),
    # so only rel_tol may end the quadrature
    return origin_integral(density, 2 * lead + power, 1.0, replace(spec, abs_tol=1e-280)).value


def _cross_path_spec(spec: QuadratureSpec) -> QuadratureSpec:
    # the exact side carries no error, so the quadrature side must be pushed
    # to its round-off floor even when the integral itself is tiny
    return replace(spec, rel_tol=min(spec.rel_tol, 1e-12), abs_tol=1e-280)


# --------------------------------------------------------------------------
# identity registry


def _id_weighted_green(case: SuiteCase, spec):
    N, ck = case.N, case.eigenvalue
    f = case.f
    B, a = case.weight_poly, Fraction(case.weight_exponent)
    lhs = (B * _grad_sq(f, ck)).shift(N - 1 - a).integrate01()
    rhs = -(B * (f * _lap(f, N, ck))).shift(N - 1 - a).integrate01()
    rhs += Fraction(1, 2) * ((B.shift(-a).mode_apply(N, 0) * f.square()).shift(N - 1)).integrate01()
    return lhs, rhs


def _power_shift_identity(case: SuiteCase, m: Fraction, a: Fraction):
    """Both sides of the v = r^a u Laplacian identity with weight |x|^{-2m}."""
    N, ck = case.N, case.eigenvalue
    f = case.f
    v = f.shift(a)
    lhs = _lap(f, N, ck).square().shift(N - 1 - 2 * m).integrate01()
    rhs = _lap(v, N, ck).square().shift(N - 1 - 2 * m - 2 * a).integrate01()
    rhs += (-4 * a * (2 * m + 2 + a)) * v.deriv().square().shift(N - 3 - 2 * a - 2 * m).integrate01()
    rhs += (2 * a * (a + 2 + 2 * m)) * _grad_sq(v, ck).shift(N - 3 - 2 * a - 2 * m).integrate01()
    coeff = a * a * (a + 2 - N) ** 2 - 2 * a * (a + 2 - N) * (m + 1) * (N - 4 - 2 * m - 2 * a)
    rhs += coeff * v.square().shift(N - 5 - 2 * a - 2 * m).integrate01()
    return float(lhs), float(rhs)


def _id_power_shift(case: SuiteCase, spec):
    a = Fraction(case.shift_exponent) * (case.N - 4) / 2
    return _power_shift_identity(case, Fraction(0), a)


def _id_weighted_power_shift(case: SuiteCase, spec):
    a = Fraction(case.shift_exponent) * (Fraction(case.N - 4) - 2 * case.m_exact) / 2
    return _power_shift_identity(case, case.m_exact, a)


def _v_profile(case: SuiteCase, m=None) -> PowerSum:
    mq = Fraction(0) if m is None else Fraction(m)
    return case.f.shift(Fraction(case.N - 4, 2) - mq)


def _g_profile(case: SuiteCase, m=None) -> PowerSum:
    mq = Fraction(0) if m is None else Fraction(m)
    return case.f.shift(Fraction(case.N - 4, 2) - mq - case.k)


def _id_grad_split(case: SuiteCase, spec):
    N, ck = case.N, case.eigenvalue
    f, v = case.f, _v_profile(case)
    lhs = _grad_sq(f, ck).shift(N - 3).integrate01()
    rhs = _grad_sq(v, ck).shift(1.0).integrate01()
    rhs += ((N - 4) / 2.0) ** 2 * v.square().shift(-1.0).integrate01()
    return lhs, rhs


def _deficit_I(case: SuiteCase) -> float:
    N, ck = case.N, case.eigenvalue
    f = case.f
    return (
        _lap(f, N, ck).square().shift(N - 1).integrate01()
        - C.rellich_constant(N) * f.square().shift(N - 5).integrate01()
    )


def _deficit_II(case: SuiteCase) -> float:
    N, ck = case.N, case.eigenvalue
    f = case.f
    return (
        _lap(f, N, ck).square().shift(N - 1).integrate01()
        - C.rellich_grad_constant(N) * _grad_sq(f, ck).shift(N - 3).integrate01()
    )


def _j_functional(case: SuiteCase, v: PowerSum, weight: float) -> float:
    N, ck = case.N, case.eigenvalue
    out = _lap(v, N, ck).square().shift(3.0).integrate01()
    out -= N * (N - 4.0) * v.deriv().square().shift(1.0).integrate01()
    out += weight * _grad_sq(v, ck).shift(1.0).integrate01()
    return out


def _id_deficit_j(case: SuiteCase, spec):
    v = _v_profile(case)
    return _deficit_I(case), _j_functional(case, v, case.N * (case.N - 4) / 2.0)


def _id_deficit_jj(case: SuiteCase, spec):
    v = _v_profile(case)
    return _deficit_II(case), _j_functional(case, v, case.N * (case.N - 8) / 4.0)


def _id_mode_laplacian(case: SuiteCase, spec):
    N, ck = case.N, case.eigenvalue
    prof = case.jet_profile()
    lk = mode_operator(case.mode, prof)
    lhs = origin_integral(
        lambda r: lk(r) ** 2 * r ** (N - 1), 2 * (case.k - 2) + N - 1, 1.0, _cross_path_spec(spec)
    ).value
    rhs = _lap(case.f, N, ck).square().shift(N - 1).integrate01()
    return lhs, rhs


def _id_mode_gradient(case: SuiteCase, spec):
    N, ck = case.N, case.eigenvalue
    prof = case.jet_profile()

    def density(r):
        return gradient_density(*prof.derivative_values(r, 1), ck, r, N - 1)

    lhs = origin_integral(density, 2 * (case.k - 1) + N - 1, 1.0, _cross_path_spec(spec)).value
    rhs = _grad_sq(case.f, ck).shift(N - 1).integrate01()
    return lhs, rhs


def _g_moments(case: SuiteCase):
    g = _g_profile(case)
    k = case.k
    t1 = g.deriv().deriv().square().shift(2 * k + 3).integrate01()
    t2 = g.deriv().square().shift(2 * k + 1).integrate01()
    t3 = g.square().shift(2 * k - 1).integrate01()
    return t1, t2, t3


def _gside(form: str, case: SuiteCase, lhs):
    """lhs against the reduced-profile form of its functional."""
    return lhs, reduced_form(form, case.N, case.k, case.eigenvalue, _g_moments(case))


def _id_laplacian_gside(case: SuiteCase, spec):
    N, ck = case.N, case.eigenvalue
    return _gside("laplacian", case, _lap(case.f, N, ck).square().shift(N - 1).integrate01())


def _id_gradient_gside(case: SuiteCase, spec):
    N, ck = case.N, case.eigenvalue
    return _gside("gradient", case, _grad_sq(case.f, ck).shift(N - 3).integrate01())


def _id_deficit_gside(case: SuiteCase, spec):
    return _gside("rellich-deficit", case, _deficit_I(case))


def _id_grad_deficit_gside(case: SuiteCase, spec):
    return _gside("gradrellich-deficit", case, _deficit_II(case))


def _id_vlap_gside(case: SuiteCase, spec):
    N, ck = case.N, case.eigenvalue
    return _gside("v-laplacian", case, _lap(_v_profile(case), N, ck).square().shift(3.0).integrate01())


def _id_vgrad_gside(case: SuiteCase, spec):
    return _gside("v-gradient", case, _grad_sq(_v_profile(case), case.eigenvalue).shift(1.0).integrate01())


def _id_vradial_gside(case: SuiteCase, spec):
    return _gside("v-radial", case, _v_profile(case).deriv().square().shift(1.0).integrate01())


def _id_potential_gside(case: SuiteCase, spec):
    N, k, ck = case.N, case.k, case.eigenvalue
    V = case.potential_poly
    f, g = case.f, _g_profile(case)
    lhs = (V * _grad_sq(f, ck)).shift(N - 3).integrate01()
    rhs = (V * g.deriv().square()).shift(2 * k + 1).integrate01()
    rhs += _REDUCED_FORMS["gradient"](N, k, ck)[2] * (V * g.square()).shift(2 * k - 1).integrate01()
    rhs += ((N - 4) / 2.0 - k) * (V.deriv() * g.square()).shift(2 * k).integrate01()
    return lhs, rhs


def _id_weighted_laplacian_fside(case: SuiteCase, spec):
    N, ck, m = case.N, case.eigenvalue, case.m_exact
    f = case.f
    lhs = Fraction(_lap(f, N, ck).square().shift(N - 1 - 2 * m).integrate01())
    rhs = Fraction(f.deriv().deriv().square().shift(N - 1 - 2 * m).integrate01())
    rhs += ((N - 1) * (2 * m + 1) + 2 * ck) * Fraction(
        f.deriv().square().shift(N - 3 - 2 * m).integrate01()
    )
    rhs += ck * (ck + (N - 4 - 2 * m) * (2 * m + 2)) * Fraction(
        f.square().shift(N - 5 - 2 * m).integrate01()
    )
    return float(lhs), float(rhs)


def _id_weighted_gradient_fside(case: SuiteCase, spec):
    N, ck, m = case.N, case.eigenvalue, case.m
    prof = case.jet_profile()

    def density(r):
        return gradient_density(*prof.derivative_values(r, 1), ck, r, N - 3 - 2 * m)

    lhs = origin_integral(density, 2 * (case.k - 1) + N - 3 - 2 * m, 1.0, _cross_path_spec(spec)).value
    rhs = case.f.deriv().square().shift(N - 3 - 2 * m).integrate01()
    rhs += ck * case.f.square().shift(N - 5 - 2 * m).integrate01()
    return lhs, rhs


def _id_weighted_grad_split(case: SuiteCase, spec):
    N, ck, m = case.N, case.eigenvalue, case.m_exact
    f = case.f
    v = _v_profile(case, m)
    lhs = _grad_sq(f, ck).shift(N - 3 - 2 * m).integrate01()
    rhs = Fraction(_grad_sq(v, ck).shift(1).integrate01())
    rhs += ((Fraction(N - 4) - 2 * m) / 2) ** 2 * Fraction(v.square().shift(-1).integrate01())
    return float(lhs), float(rhs)


def _id_weighted_deficit(case: SuiteCase, spec):
    N, ck, m = case.N, case.eigenvalue, case.m_exact
    f = case.f
    v = _v_profile(case, m)
    beta = (N + 2 * m) * (N - 4 - 2 * m) / 4
    lhs = Fraction(_lap(f, N, ck).square().shift(N - 1 - 2 * m).integrate01())
    lhs -= beta * beta * Fraction(f.square().shift(N - 5 - 2 * m).integrate01())
    rhs = Fraction(_lap(v, N, ck).square().shift(3).integrate01())
    rhs -= 4 * beta * Fraction(v.deriv().square().shift(1).integrate01())
    rhs += 2 * beta * Fraction(_grad_sq(v, ck).shift(1).integrate01())
    return float(lhs), float(rhs)


# --------------------------------------------------------------------------
# inequality registry


def _slack_hardy_improved(case: SuiteCase, K: int, spec):
    N, ck = case.N, case.eigenvalue
    f = case.f
    slack = _grad_sq(f, ck).shift(N - 1).integrate01()
    slack -= C.hardy_constant(N) * f.square().shift(N - 3).integrate01()
    slack -= 0.25 * _series_term(case, 0, "square", N - 3, K, spec)
    return slack

def _slack_hardy_improved_weighted(case: SuiteCase, K: int, spec):
    N, ck, m = case.N, case.eigenvalue, case.m
    f = case.f
    slack = _grad_sq(f, ck).shift(N - 1 - 2 * m).integrate01()
    slack -= ((N - 2 * m - 2) / 2.0) ** 2 * f.square().shift(N - 3 - 2 * m).integrate01()
    slack -= 0.25 * _series_term(case, 0, "square", N - 3 - 2 * m, K, spec)
    return slack


def _slack_rellich(case: SuiteCase, K: int, spec):
    return _deficit_I(case)


def _slack_rellich_gradient(case: SuiteCase, K: int, spec):
    return _deficit_II(case)


def _slack_deficit_vgrad(case: SuiteCase, K: int, spec):
    v = _v_profile(case)
    vg = _grad_sq(v, case.eigenvalue).shift(1.0).integrate01()
    return _deficit_I(case) - C.section2_constants(case.N)["rellich-deficit-vgrad"] * vg


def _slack_grad_deficit_vgrad(case: SuiteCase, K: int, spec):
    v = _v_profile(case)
    vg = _grad_sq(v, case.eigenvalue).shift(1.0).integrate01()
    return _deficit_II(case) - C.section2_constants(case.N)["gradrellich-deficit-vgrad"] * vg


def _slack_vlap_lower(case: SuiteCase, K: int, spec):
    N, ck = case.N, case.eigenvalue
    v = _v_profile(case)
    lhs = _lap(v, N, ck).square().shift(3.0).integrate01()
    rhs = N * (N - 4.0) * v.deriv().square().shift(1.0).integrate01()
    rhs += 4.0 * _grad_sq(v, ck).shift(1.0).integrate01()
    return lhs - rhs


def _slack_vlap_radial_excess(case: SuiteCase, K: int, spec):
    N, ck = case.N, case.eigenvalue
    v = _v_profile(case)
    lhs = _lap(v, N, ck).square().shift(3.0).integrate01()
    rhs = C.section2_constants(N)["v-laplacian-radial-excess"] * (
        v.deriv().square().shift(1.0).integrate01()
        - 0.5 * _grad_sq(v, ck).shift(1.0).integrate01()
    )
    return lhs - rhs


def _slack_radial_angular_balance(case: SuiteCase, K: int, spec):
    N, ck = case.N, case.eigenvalue
    v = _v_profile(case)
    radial = v.deriv().square().shift(1.0).integrate01()
    full = _grad_sq(v, ck).shift(1.0).integrate01()
    lhs = radial - 0.5 * full
    rhs = (N * (N - 4.0) * radial + 4.0 * full) / C.section2_constants(N)["v-laplacian-radial-excess"]
    return rhs - lhs


def _slack_deficit_vlap(case: SuiteCase, K: int, spec):
    N, ck = case.N, case.eigenvalue
    v = _v_profile(case)
    vl = _lap(v, N, ck).square().shift(3.0).integrate01()
    return _deficit_I(case) - C.section2_constants(N)["rellich-deficit-vlap"] * vl


def _slack_grad_deficit_vlap(case: SuiteCase, K: int, spec):
    N, ck = case.N, case.eigenvalue
    v = _v_profile(case)
    vl = _lap(v, N, ck).square().shift(3.0).integrate01()
    return _deficit_II(case) - C.section2_constants(N)["gradrellich-deficit-vlap"] * vl


def _two_mode_deficits(case: SuiteCase):
    """The Rellich and gradient-Rellich deficits of the mode-k2 component,
    and its Laplacian integral."""
    N = case.N
    ck2 = case.k2 * (N + case.k2 - 2)
    lap2 = _lap(case.f2, N, ck2).square().shift(N - 1).integrate01()
    d2_I = lap2 - C.rellich_constant(N) * case.f2.square().shift(N - 5).integrate01()
    d2_II = lap2 - C.rellich_grad_constant(N) * _grad_sq(case.f2, ck2).shift(N - 3).integrate01()
    return d2_I, d2_II, lap2


def _slack_radialization_rellich(case: SuiteCase, K: int, spec):
    N = case.N
    d2, _, lap2 = _two_mode_deficits(case)
    coeff = 8.0 * (N - 1) * (N * N - 2 * N - 2) / (N * N - 4) ** 2
    return d2 - coeff * lap2


def _slack_radialization_gradrellich(case: SuiteCase, K: int, spec):
    N = case.N
    _, d2, lap2 = _two_mode_deficits(case)
    coeff = 4.0 * (N - 1) * (N * N - 4 * N - 4) / (N * N - 4) ** 2
    return d2 - coeff * lap2


def _slack_rellich_improved(case: SuiteCase, K: int, spec):
    N = case.N
    slack = _deficit_I(case)
    slack -= C.sigma_bar(0, N) * _series_term(case, 0, "square", N - 5, K, spec)
    return slack


def _slack_rellich_gradient_improved(case: SuiteCase, K: int, spec):
    slack = _deficit_II(case)
    slack -= 0.25 * _series_term(case, 0, "gradient", case.N - 3, K, spec)
    return slack


def _slack_rellich_weighted(case: SuiteCase, K: int, spec):
    N, ck, m = case.N, case.eigenvalue, case.m
    f = case.f
    slack = _lap(f, N, ck).square().shift(N - 1 - 2 * m).integrate01()
    slack -= C.sigma(m, N) * f.square().shift(N - 5 - 2 * m).integrate01()
    return slack


def _slack_rellich_weighted_improved(case: SuiteCase, K: int, spec):
    slack = _slack_rellich_weighted(case, K, spec)
    slack -= C.sigma_bar(case.m, case.N) * _series_term(case, 0, "square", case.N - 5 - 2 * case.m, K, spec)
    return slack


def _slack_gradient_weighted(case: SuiteCase, K: int, spec):
    N, ck, m = case.N, case.eigenvalue, case.m
    f = case.f
    slack = _lap(f, N, ck).square().shift(N - 1 - 2 * m).integrate01()
    slack -= C.a_mn(N, m).value * _grad_sq(f, ck).shift(N - 3 - 2 * m).integrate01()
    return slack


def _slack_gradient_weighted_improved(case: SuiteCase, K: int, spec):
    N, ck, m = case.N, case.eigenvalue, case.m
    f = case.f
    slack = _lap(f, N, ck).square().shift(N - 1 - 2 * m).integrate01()
    slack -= C.weighted_rellich_grad_constant(N, m) * _grad_sq(f, ck).shift(N - 3 - 2 * m).integrate01()
    slack -= 0.25 * _series_term(case, 0, "gradient", N - 3 - 2 * m, K, spec)
    return slack


HIGHER_ORDER_POLY_ORDER = 2
HIGHER_ORDER_L = 1


def _slack_higher_order(case: SuiteCase, K: int, spec, variant: C.HigherOrderVariant):
    N, ck = case.N, case.eigenvalue
    order, l = HIGHER_ORDER_POLY_ORDER, HIGHER_ORDER_L
    f = case.f
    terms = C.higher_order_coefficients(N, order, l, variant)
    if variant is C.HigherOrderVariant.GRADIENT_CHAIN:
        lhs = _grad_sq(_lap_pow(f, N, ck, order), ck).shift(N - 1).integrate01()
    else:
        lhs = _lap_pow(f, N, ck, order).square().shift(N - 1).integrate01()
    slack = lhs
    for term, coeff in terms:
        power = N - 1 - term.weight_power
        if term.with_series:
            slack -= float(coeff) * _series_term(case, term.delta_order, term.kind, power, K, spec)
            continue
        base = _lap_pow(f, N, ck, term.delta_order)
        if term.kind == "gradient":
            density = _grad_sq(base, ck).shift(power)
        else:
            density = base.square().shift(power)
        slack -= float(coeff) * density.integrate01()
    return slack


@dataclass(frozen=True)
class Target:
    name: str
    kind: str  # "identity" | "inequality"
    description: str
    fn: object
    applies: object = None


def _needs_mode(case: SuiteCase) -> str | None:
    return None if case.k >= 1 else "stated for modes k >= 1"


def _needs_wgrad_range(case: SuiteCase) -> str | None:
    if case.m <= C.m_star(case.N):
        return None
    return f"requires m <= m*(N) = {C.m_star(case.N):.6g}, case has m = {case.m:.6g}"


def _needs_higher_order(case: SuiteCase) -> str | None:
    if 4 * HIGHER_ORDER_POLY_ORDER < case.N:
        return None
    return f"requires 4m < N for polyharmonic order m = {HIGHER_ORDER_POLY_ORDER}"


_IDENTITY_TARGETS = [
    Target("weighted-green", "identity", "Green identity with radial weight B(r)/r^a", _id_weighted_green),
    Target("power-shift-laplacian", "identity", "Laplacian expansion under v = r^a u", _id_power_shift),
    Target("grad-weight-split", "identity", "gradient/|x|^2 split under v = r^{(N-4)/2} u", _id_grad_split),
    Target("rellich-deficit-j", "identity", "Rellich deficit equals the v-side J functional", _id_deficit_j),
    Target("gradrellich-deficit-jj", "identity", "gradient-Rellich deficit equals the v-side JJ functional", _id_deficit_jj),
    Target("mode-laplacian-reduction", "identity", "mode operator equals the radial Laplacian minus c_k/r^2 (jet path vs exact path)", _id_mode_laplacian),
    Target("mode-gradient-reduction", "identity", "mode gradient density (jet path vs exact path)", _id_mode_gradient),
    Target("laplacian-gside", "identity", "|Delta u_k|^2 in reduced-profile moments", _id_laplacian_gside),
    Target("gradient-gside", "identity", "|grad u_k|^2/|x|^2 in reduced-profile moments", _id_gradient_gside),
    Target("rellich-deficit-gside", "identity", "Rellich deficit in reduced-profile moments", _id_deficit_gside),
    Target("gradrellich-deficit-gside", "identity", "gradient-Rellich deficit in reduced-profile moments", _id_grad_deficit_gside),
    Target("v-laplacian-gside", "identity", "weighted |Delta v_k|^2 in reduced-profile moments", _id_vlap_gside),
    Target("v-gradient-gside", "identity", "weighted |grad v_k|^2 in reduced-profile moments", _id_vgrad_gside),
    Target("v-radial-gside", "identity", "weighted radial-gradient of v_k in reduced-profile moments", _id_vradial_gside),
    Target("potential-gside", "identity", "C^1-potential-weighted gradient identity", _id_potential_gside, _needs_mode),
    Target("weighted-laplacian-fside", "identity", "|Delta u_k|^2/|x|^{2m} in plain-profile moments", _id_weighted_laplacian_fside),
    Target("weighted-gradient-fside", "identity", "|grad u_k|^2/|x|^{2m+2} in plain-profile moments (jet path vs exact path)", _id_weighted_gradient_fside),
    Target("weighted-power-shift-laplacian", "identity", "weighted Laplacian expansion under v = r^a u", _id_weighted_power_shift),
    Target("weighted-grad-split", "identity", "weighted gradient split under v = r^{(N-4-2m)/2} u", _id_weighted_grad_split),
    Target("weighted-rellich-deficit", "identity", "weighted Rellich deficit in v-side form", _id_weighted_deficit),
]

_INEQUALITY_TARGETS = [
    Target("hardy-improved", "inequality", "Hardy inequality with the iterated-log series", _slack_hardy_improved),
    Target("hardy-improved-weighted", "inequality", "weighted Hardy inequality with the series", _slack_hardy_improved_weighted),
    Target("rellich", "inequality", "Rellich inequality", _slack_rellich),
    Target("rellich-gradient", "inequality", "Laplacian vs gradient/|x|^2 inequality", _slack_rellich_gradient),
    Target("rellich-deficit-vgrad", "inequality", "Rellich deficit bounds the v-gradient term", _slack_deficit_vgrad),
    Target("gradrellich-deficit-vgrad", "inequality", "gradient-Rellich deficit bounds the v-gradient term", _slack_grad_deficit_vgrad),
    Target("v-laplacian-lower", "inequality", "v-Laplacian lower bound by radial and full gradients", _slack_vlap_lower),
    Target("v-laplacian-radial-excess", "inequality", "v-Laplacian bounds the radial-minus-half-full gradient excess", _slack_vlap_radial_excess),
    Target("radial-angular-balance", "inequality", "radial-vs-angular gradient balance", _slack_radial_angular_balance),
    Target("rellich-deficit-vlap", "inequality", "Rellich deficit bounds the v-Laplacian term", _slack_deficit_vlap),
    Target("gradrellich-deficit-vlap", "inequality", "gradient-Rellich deficit bounds the v-Laplacian term", _slack_grad_deficit_vlap),
    Target("radialization-rellich", "inequality", "Rellich deficit controls the non-radial remainder", _slack_radialization_rellich),
    Target("radialization-gradrellich", "inequality", "gradient-Rellich deficit controls the non-radial remainder", _slack_radialization_gradrellich),
    Target("rellich-improved", "inequality", "Rellich inequality with the iterated-log series", _slack_rellich_improved),
    Target("rellich-gradient-improved", "inequality", "gradient-Rellich inequality with the series", _slack_rellich_gradient_improved),
    Target("rellich-weighted", "inequality", "weighted Rellich inequality", _slack_rellich_weighted),
    Target("rellich-weighted-improved", "inequality", "weighted Rellich inequality with the series", _slack_rellich_weighted_improved),
    Target("rellich-gradient-weighted", "inequality", "weighted Laplacian vs gradient inequality with the minimized constant", _slack_gradient_weighted),
    Target(
        "rellich-gradient-weighted-improved",
        "inequality",
        "weighted Laplacian vs gradient inequality with the series",
        _slack_gradient_weighted_improved,
        _needs_wgrad_range,
    ),
    Target(
        "higher-order-rellich-chain",
        "inequality",
        "polyharmonic improvement through repeated Rellich steps",
        lambda case, K, spec: _slack_higher_order(case, K, spec, C.HigherOrderVariant.RELLICH_CHAIN),
        _needs_higher_order,
    ),
    Target(
        "higher-order-gradient-chain",
        "inequality",
        "polyharmonic improvement starting from the gradient of the polyharmonic",
        lambda case, K, spec: _slack_higher_order(case, K, spec, C.HigherOrderVariant.GRADIENT_CHAIN),
        _needs_higher_order,
    ),
    Target(
        "higher-order-alternating-chain",
        "inequality",
        "polyharmonic improvement alternating gradient and Laplacian steps",
        lambda case, K, spec: _slack_higher_order(case, K, spec, C.HigherOrderVariant.ALTERNATING_CHAIN),
        _needs_higher_order,
    ),
]

REGISTRY: dict[str, Target] = {t.name: t for t in _IDENTITY_TARGETS + _INEQUALITY_TARGETS}


def registry_targets(kind: str | None = None) -> list[str]:
    return [name for name, t in REGISTRY.items() if kind is None or t.kind == kind]


def registry_describe() -> list[tuple[str, str, str]]:
    return [(t.name, t.kind, t.description) for t in REGISTRY.values()]


@dataclass
class CheckSpec:
    target: str
    suite: list[SuiteCase]
    series_terms: int = 5
    tolerance: float | None = None

    def __post_init__(self):
        if self.target not in REGISTRY:
            raise DomainError(f"unknown registry target {self.target!r}")
        if self.series_terms < 1:
            raise DomainError("series_terms must be >= 1")


@dataclass
class CaseResult:
    index: int
    value: float | None
    rejected: bool = False
    reason: str | None = None
    unconverged: int = 0  # integrals behind the value that ended converged=False


@dataclass
class CheckReport:
    target: str
    kind: str
    results: list[CaseResult]
    worst_case: float
    tolerance: float
    passed: bool

    def to_rows(self) -> list[dict]:
        return [
            {
                "target": self.target,
                "case": r.index,
                "value": r.value,
                "rejected": r.rejected,
                "reason": r.reason or "",
            }
            for r in self.results
        ]


def _run_target(target: Target, suite, K: int, spec: QuadratureSpec, tolerance: float):
    results = []
    worst = -math.inf if target.kind == "inequality" else 0.0
    for case in suite:
        reason = target.applies(case) if target.applies else None
        if reason is not None:
            results.append(CaseResult(case.index, None, rejected=True, reason=reason))
            continue
        with count_quadrature() as counts:
            if target.kind == "identity":
                lhs, rhs = target.fn(case, spec)
                value = abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-30)
                worst = max(worst, value)
            else:
                value = target.fn(case, K, spec)
                worst = min(worst, value) if worst != -math.inf else value
        results.append(CaseResult(case.index, value, unconverged=counts.unconverged))
    if target.kind == "identity":
        passed = all(r.rejected or r.value <= tolerance for r in results)
        worst_case = worst
    else:
        passed = all(r.rejected or r.value >= -tolerance for r in results)
        worst_case = worst if worst != -math.inf else 0.0
    return CheckReport(target.name, target.kind, results, worst_case, tolerance, passed)


def check_identity(
    target: str,
    suite: list[SuiteCase],
    quad: QuadratureSpec | None = None,
    tolerance: float = IDENTITY_TOLERANCE,
) -> CheckReport:
    """Relative residual |LHS-RHS| / (|LHS|+|RHS|+floor) per suite case."""
    t = REGISTRY[target] if target in REGISTRY else None
    if t is None or t.kind != "identity":
        raise DomainError(f"{target!r} is not a registered identity")
    return _run_target(t, suite, 1, quad or QuadratureSpec(), tolerance)


def check_inequality(
    target: str,
    suite: list[SuiteCase],
    K: int = 5,
    quad: QuadratureSpec | None = None,
    tolerance: float = INEQUALITY_TOLERANCE,
) -> CheckReport:
    """Slack = LHS - RHS per case; series truncated at K terms (from below)."""
    t = REGISTRY[target] if target in REGISTRY else None
    if t is None or t.kind != "inequality":
        raise DomainError(f"{target!r} is not a registered inequality")
    if K < 1:
        raise DomainError("K must be >= 1")
    return _run_target(t, suite, K, quad or QuadratureSpec(), tolerance)


# --------------------------------------------------------------------------
# Sobolev-side quotients and admissibility classification


class SobolevForm(Enum):
    """Which Sobolev remainder the deficit is measured against."""

    U_FORM = "rellich-sobolev-u"
    GRAD_FORM = "rellich-sobolev-grad"


def sobolev_quotient(
    which: SobolevForm,
    tf: TestFunction,
    quad: QuadratureSpec | None = None,
) -> float:
    """Deficit divided by the iterated-log-weighted Sobolev term; positive.

    Restricted to radial (k = 0) test functions: the Sobolev integrand is not
    quadratic, so a single-mode reduction of |u|^{2N/(N-4)} only exists for
    the radial mode.
    """
    spec = quad or QuadratureSpec()
    if tf.mode.k != 0:
        raise DomainError("Sobolev quotients are defined for radial test functions")
    N = tf.mode.N
    if N < 5:
        raise DomainError("need N >= 5")
    cN = sphere_area(N)
    prof = tf.profile
    if which is SobolevForm.U_FORM:
        numerator = functional(Functional.I, tf, quad=spec).value
        q = 2.0 * N / (N - 4.0)
        alpha = 2.0 * (N - 2.0) / (N - 4.0)
        power = (N - 4.0) / N

        def density(r):
            x1 = 1.0 / (1.0 - np.log(np.minimum(r, 1.0)))
            return np.abs(prof(r)) ** q * x1**alpha * r ** (N - 1)

    else:
        numerator = functional(Functional.II, tf, quad=spec).value
        q = 2.0 * N / (N - 2.0)
        alpha = 2.0 * (N - 1.0) / (N - 2.0)
        power = (N - 2.0) / N

        def density(r):
            x1 = 1.0 / (1.0 - np.log(np.minimum(r, 1.0)))
            grad = prof.derivative_values(r, 1)[1]
            return np.abs(grad) ** q * x1**alpha * r ** (N - 1)

    hi = prof.support[1]
    res = integrate(density, 0.0, hi, spec)
    denom = (cN * res.value) ** power
    if not np.isfinite(denom) or denom <= spec.abs_tol:
        raise DomainError("degenerate Sobolev denominator")
    return numerator / denom


class AdmissibilityCondition(Enum):
    """Integral conditions admitting a potential into the improved inequality."""

    GRADIENT_PERTURBATION = "gradient-perturbation"  # V^{N/2} X_1^{1-N}
    POTENTIAL_PERTURBATION = "potential-perturbation"  # W^{N/4} X_1^{1-N/2}


def admissibility(
    potential,
    N: int,
    which: AdmissibilityCondition,
    quad: QuadratureSpec | None = None,
):
    """Classify the admissibility integral of a nonnegative radial potential.

    Returns ("finite", value) or ("divergent", None), via the nested-interval
    protocol of the quadrature module.
    """
    spec = quad or QuadratureSpec()
    if N < 5:
        raise DomainError("need N >= 5")
    if which is AdmissibilityCondition.GRADIENT_PERTURBATION:
        vpow, xpow = N / 2.0, 1.0 - N
    else:
        vpow, xpow = N / 4.0, 1.0 - N / 2.0

    def density(r):
        x1 = 1.0 / (1.0 - np.log(np.minimum(r, 1.0)))
        v = np.asarray(potential(r), dtype=float)
        if np.any(v < 0):
            raise DomainError("potential must be nonnegative")
        return v**vpow * x1**xpow * r ** (N - 1)

    return classify_origin_integral(density, spec)
