"""Property-check harness for the radial-reduction identities and the
improved-inequality family.

Every identity and inequality in scope is registered under a descriptive
identifier and checked on a seeded suite of mode-compatible test functions
f(r) = r^{k+j} (1-r)^p q(r) with random polynomial q, expanded exactly
from the drawn float coefficients of q.  Profile-derived densities are
finite power sums, so every term without a series weight is an exact
rational and an identity declared in such terms has residual exactly 0;
only the iterated-log series weights and the three jet-path cross-checks go
through quadrature, radial's jet-route integral of the factored jet profile,
because the expanded power sum cancels catastrophically when evaluated
pointwise in floats.  Each case result carries the number of its integrals
that ended unconverged.

Targets are declared in radial's integral vocabulary.  A term ``_Int(kind,
weight, n, shift, f2, series)`` stands for int_0^1 D(h) r^weight dr with
h = L_k^n (r^shift f) (or the companion f2 at mode k2), D one of radial's
density kinds "square", "gradient", "radial-gradient" and "moment-2", and
the truncated iterated-log series weight when ``series`` is set.  The term
builders and the reduction forms are radial's, and the identities
rellich-deficit-gside, gradrellich-deficit-gside, weighted-laplacian-fside
and weighted-grad-split are the declarations of radial's functionals, whose
cross routes evaluate them in floats.  ``_exact`` evaluates a term
without a series weight and keeps its exact value in the case's store, so
each distinct term is evaluated once per case, for the life of the case,
across every target and both registries.  ``_sum`` adds (coefficient,
term) pairs in exact arithmetic, the coefficients of equal terms first;
its series terms are integrated together on each call (``_quadratures``),
each quadrature value entering as its exact binary rational.  To add a
target, give ``_identity`` or ``_inequality`` a function of the case that
returns its (lhs, rhs) lists of such pairs: an identity compares the two
sums, each rounded once, an inequality's slack is sum lhs - sum rhs,
rounded once.  A sharp inequality
that a minimizing-sequence scan backs goes to ``_sharp`` as (rest, constant,
den), a function of (N, m), with slack rest - constant * den.  A coefficient
may be an int, a Fraction or a float, taken at its exact binary value.  Only
targets whose integrands carry a multiplier polynomial keep a function of
their own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from . import constants as C
from .errors import DomainError
from .iterlog import series_partial
from .powerseries import PowerSum
from .quadrature import (
    QuadratureSpec,
    count_quadrature,
    describe_cascade_failure,
    integrate,
)
from .radial import (
    _FUNCTIONALS,
    _REDUCED_FORMS,
    Functional,
    RadialProfile,
    SphericalMode,
    TestFunction,
    _deficit,
    _deficit_I,
    _deficit_II,
    _g_side,
    _grad,
    _grad_split,
    _hardy,
    _Int,
    _jet_integrals,
    _lap,
    _v,
    _v_grad,
    _v_lap,
    _v_rad,
    _v_side,
    functional,
    sphere_area,
)
from .taylor import polynomial

__all__ = [
    "SuiteCase",
    "standard_suite",
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


@dataclass(frozen=True)
class SuiteCase:
    """One member of the randomized verification suite.

    Carries the mode profile f (guaranteed f = O(r^k) at the origin and
    vanishing to third order or better at r = 1), a second-mode companion
    (for the radialization inequalities), plus the per-case weight m, a C^2
    multiplier B with its exponent, the power-shift exponents, and a C^1
    potential V.  ``_exact`` stores the exact value of each non-series term
    evaluated on the case (filled only by ``_exact``); the case is frozen,
    so no stored value outlives a field, and ``dataclasses.replace`` starts
    an empty store.
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
    _exact: dict[_Int, Fraction] = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """The profile in factored form q(r) (1-r)^p r^(k+j), which evaluates
        pointwise without the cancellation of the expanded power sum: Horner
        over its linear factors (:func:`rellich.taylor.polynomial`)."""
        lead, p, q_coeffs = self.factors
        coeffs, boundary, power = [float(c) for c in q_coeffs], int(p), int(lead)
        return RadialProfile(lambda J: polynomial(J, coeffs, boundary, power), origin_order=lead)

    def test_function(self) -> TestFunction:
        return TestFunction(self.jet_profile(), self.mode)


def _random_polynomial(rng, degree: int = 4) -> np.ndarray:
    while True:
        coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
        if np.max(np.abs(coeffs)) >= 0.1:
            return coeffs


def _profile_power_sum(k: int, j: int, p: int, q_coeffs) -> PowerSum:
    """r^(k+j) (1-r)^p q(r), expanded exactly from the float coefficients of q."""
    boundary = PowerSum.from_poly([(-1) ** i * math.comb(p, i) for i in range(p + 1)])
    return (boundary * PowerSum.from_poly(q_coeffs)).shift(k + j)


def standard_suite(seed: int = 0, size: int = 50) -> list[SuiteCase]:
    """The reproducible verification suite; identical bytes for a fixed seed."""
    if size < 1:
        raise DomainError(f"suite size must be >= 1, got {size}")
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
# the integral vocabulary (all per unit sphere area; the c_N factor cancels
# in residuals and slacks because every term carries it)


def _grad_sq(f: PowerSum, ck) -> PowerSum:
    out = f.deriv().square()
    if ck:
        out = out + ck * f.square().shift(-2.0)
    return out


_EXACT_DENSITIES = {
    "square": lambda h, ck: h.square(),
    "gradient": _grad_sq,
    "radial-gradient": lambda h, ck: h.deriv().square(),
    "moment-2": lambda h, ck: h.deriv().deriv().square(),
}


def _exact_density(case: SuiteCase, term: _Int) -> PowerSum:
    """D(h) r^weight of a term as an exact power sum, without the series
    weight."""
    f, k = (case.f2, case.k2) if term.f2 else (case.f, case.k)
    ck = k * (case.N + k - 2)
    h = f if term.shift is None else f.shift(term.shift)
    for _ in range(term.n):
        h = h.mode_apply(case.N, ck)
    return _EXACT_DENSITIES[term.kind](h, ck).shift(term.weight)


def _quadratures(case: SuiteCase, terms, spec: QuadratureSpec, K: int = 0) -> list[float]:
    """Terms of f by radial's jet-route quadrature on the factored profile,
    all through one :func:`rellich.radial._jet_integrals` run, each series
    term's weight truncated at K when K > 0.  A term can be far below the
    default abs_tol (about 5e-11 at N = 30), so only rel_tol may end it."""
    weight = functools.partial(series_partial, K) if K else None
    spec = replace(spec, abs_tol=1e-280)
    return [res.value for res in _jet_integrals(terms, case.jet_profile(), case.mode, spec, weight)]


def _exact(case: SuiteCase, term: _Int) -> Fraction:
    """A term's exact value, computed once per case, for the life of the
    case, and kept in the case's store."""
    value = case._exact.get(term)
    if value is None:
        value = case._exact[term] = _exact_density(case, term).exact_integral01()
    return value


def _sum(case: SuiteCase, terms, K: int, spec: QuadratureSpec) -> Fraction:
    """sum coeff * value over (coeff, term) pairs, exactly (0 for no terms),
    with the coefficients of equal terms added.  A term's value is exact
    (:func:`_exact`), or for a series term truncated at K the exact binary
    value of its quadrature; the series terms are integrated together
    (:func:`_quadratures`) on every call, so their quadrature status
    reaches the caller."""
    coeffs: dict[_Int, Fraction] = {}
    for c, t in terms:
        coeffs[t] = coeffs.get(t, Fraction()) + Fraction(c)
    series = [t for t in coeffs if t.series]
    values = dict(zip(series, map(Fraction, _quadratures(case, series, spec, K)))) if series else {}
    return sum((c * (values[t] if t.series else _exact(case, t)) for t, c in coeffs.items()), Fraction())


def _cross_path(term, rhs):
    """An identity between the jet-path quadrature of the term term(case) and
    the exact terms rhs(case)."""

    def fn(case: SuiteCase, spec: QuadratureSpec):
        # the exact side carries no error, so the quadrature side is pushed to
        # its round-off floor even when the integral itself is tiny
        (lhs,) = _quadratures(case, [term(case)], replace(spec, rel_tol=min(spec.rel_tol, 1e-12)))
        return lhs, float(_sum(case, rhs(case), 1, spec))

    return fn


def _excess(N: int) -> Fraction:
    """The section 2 constant 2(N-2)^2 of the radial-minus-half-full excess."""
    return C._section2_exact(N)["v-laplacian-radial-excess"]


def _section2(name: str, rest, *den):
    """The declaration at m = 0 of rest(N) >= the section 2 constant ``name``
    times the sum of c * term(N) over the (c, term) pairs of den."""
    return lambda N, m: (rest(N), C._section2_exact(N)[name], [(c, t(N)) for c, t in den])


def _radialization(deficit, coeff):
    """The deficit of the mode-k2 companion f2 less coeff(N) times its
    Laplacian integral."""
    return lambda c: (deficit(c.N, f2=True) + [(-coeff(c.N), _lap(c.N, f2=True))], [])


def _hardy_improved(N: int, m):
    """int |grad f|^2 r^{N-1-2m} less ((N-2-2m)/2)^2 int f^2 r^{N-3-2m}, less
    a quarter of the latter with the series weight."""
    return [
        (1, _Int("gradient", N - 1 - 2 * m)),
        (-Fraction(N - 2 - 2 * m, 2) ** 2, _Int("square", N - 3 - 2 * m)),
        (-Fraction(1, 4), _Int("square", N - 3 - 2 * m, series=True)),
    ], []


def _declared(name: Functional, case: SuiteCase):
    """The (direct, cross) terms radial's functional ``name`` declares for
    the case, the reduction identity its cross route evaluates in floats."""
    return _FUNCTIONALS[name][2](case.N, case.k, case.m_exact)


def _power_shift(N: int, m: Fraction, a: Fraction):
    """Both sides of the v = r^a u Laplacian identity with weight |x|^{-2m}."""
    w = N - 1 - 2 * m
    coeff = a * a * (a + 2 - N) ** 2 - 2 * a * (a + 2 - N) * (m + 1) * (N - 4 - 2 * m - 2 * a)
    return [(1, _Int("square", w, 1))], [
        (1, _Int("square", w - 2 * a, 1, a)),
        (-4 * a * (2 * m + 2 + a), _Int("radial-gradient", w - 2 - 2 * a, 0, a)),
        (2 * a * (a + 2 + 2 * m), _Int("gradient", w - 2 - 2 * a, 0, a)),
        (coeff, _Int("square", w - 4 - 2 * a, 0, a)),
    ]


def _weighted_deficit(N: int, m: Fraction):
    """The weighted Rellich deficit and its v-side form."""
    beta = (N + 2 * m) * (N - 4 - 2 * m) / 4
    return _deficit(N, _hardy, beta * beta, m), _v_side(N, -4 * beta, 2 * beta, m)


HIGHER_ORDER_POLY_ORDER = 2
HIGHER_ORDER_L = 1


def _higher_order(variant: C.HigherOrderVariant):
    """The slack terms of a polyharmonic chain: its left-hand side less each
    (coefficient, term) of ``constants.higher_order_coefficients``."""

    def terms(case: SuiteCase):
        N, order = case.N, HIGHER_ORDER_POLY_ORDER
        lead = "gradient" if variant is C.HigherOrderVariant.GRADIENT_CHAIN else "square"
        lhs = [(1, _Int(lead, N - 1, order))]
        for t, coeff in C.higher_order_coefficients(N, order, HIGHER_ORDER_L, variant):
            kind = "gradient" if t.kind == "gradient" else "square"
            lhs.append((-coeff, _Int(kind, N - 1 - t.weight_power, t.delta_order, series=t.with_series)))
        return lhs, []

    return terms


# --------------------------------------------------------------------------
# the registry


@dataclass(frozen=True)
class Target:
    """A registered check.  An identity's ``fn(case, spec)`` returns its two
    sides, an inequality's ``fn(case, K, spec)`` its slack.  ``terms(case)``
    gives the (lhs, rhs) lists of (coefficient, _Int) pairs of a target
    declared as terms: an identity compares their sums, an inequality's
    slack is sum lhs - sum rhs.  ``sharp``, ``per_mode``: see :func:`_sharp`."""

    name: str
    kind: str  # "identity" | "inequality"
    description: str
    fn: object
    applies: object = None
    terms: object = None
    sharp: object = None
    per_mode: object = None


def _identity(name: str, description: str, terms, applies=None) -> Target:
    def fn(case, spec):
        lhs, rhs = terms(case)
        return float(_sum(case, lhs, 1, spec)), float(_sum(case, rhs, 1, spec))

    return Target(name, "identity", description, fn, applies, terms)


def _inequality(name: str, description: str, terms, applies=None) -> Target:
    def fn(case, K, spec):
        lhs, rhs = terms(case)
        return float(_sum(case, lhs, K, spec) - _sum(case, rhs, K, spec))

    return Target(name, "inequality", description, fn, applies, terms)


def _sharp(name: str, description: str, declare, applies=None, per_mode=None) -> Target:
    """The inequality rest >= constant * den of declare(N, m) = (rest,
    constant, den), with slack rest - constant * den.  A minimizing-sequence
    scan reads its quotient rest / den and its constant from the same
    declaration; ``constant`` is exact.  per_mode(k, N, m), where given, is
    mode k's candidate of a constant that is the minimum over the modes."""

    def terms(case: SuiteCase):
        rest, constant, den = declare(case.N, case.m_exact)
        return rest + [(-constant * c, t) for c, t in den], []

    return replace(_inequality(name, description, terms, applies), sharp=declare, per_mode=per_mode)


def _id_weighted_green(case: SuiteCase, spec):
    N, ck = case.N, case.eigenvalue
    f = case.f
    B, a = case.weight_poly, Fraction(case.weight_exponent)
    lhs = (B * _grad_sq(f, ck)).shift(N - 1 - a)
    rhs = Fraction(1, 2) * (B.shift(-a).mode_apply(N, 0) * f.square()).shift(N - 1)
    rhs -= (B * (f * f.mode_apply(N, ck))).shift(N - 1 - a)
    return lhs.integrate01(), rhs.integrate01()


def _id_potential_gside(case: SuiteCase, spec):
    N, k, ck = case.N, case.k, case.eigenvalue
    V = case.potential_poly
    f, g = case.f, case.f.shift(_v(N) - k)
    lhs = (V * _grad_sq(f, ck)).shift(N - 3)
    rhs = (V * g.deriv().square()).shift(2 * k + 1)
    rhs += _REDUCED_FORMS["gradient"](N, k, ck)[2] * (V * g.square()).shift(2 * k - 1)
    rhs += (_v(N) - k) * (V.deriv() * g.square()).shift(2 * k)
    return lhs.integrate01(), rhs.integrate01()


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
    _identity("power-shift-laplacian", "Laplacian expansion under v = r^a u",
              lambda c: _power_shift(c.N, Fraction(0), Fraction(c.shift_exponent) * _v(c.N))),
    _identity("grad-weight-split", "gradient/|x|^2 split under v = r^{(N-4)/2} u",
              lambda c: _grad_split(c.N, 0)),
    _identity("rellich-deficit-j", "Rellich deficit equals the v-side J functional",
              lambda c: (_deficit_I(c.N), _v_side(c.N, -c.N * (c.N - 4), Fraction(c.N * (c.N - 4), 2)))),
    _identity("gradrellich-deficit-jj", "gradient-Rellich deficit equals the v-side JJ functional",
              lambda c: (_deficit_II(c.N), _v_side(c.N, -c.N * (c.N - 4), Fraction(c.N * (c.N - 8), 4)))),
    Target("mode-laplacian-reduction", "identity",
           "mode operator equals the radial Laplacian minus c_k/r^2 (jet path vs exact path)",
           _cross_path(lambda c: _Int("square", c.N - 1, 1), lambda c: [(1, _Int("square", c.N - 1, 1))])),
    Target("mode-gradient-reduction", "identity", "mode gradient density (jet path vs exact path)",
           _cross_path(lambda c: _Int("gradient", c.N - 1), lambda c: [(1, _Int("gradient", c.N - 1))])),
    _identity("laplacian-gside", "|Delta u_k|^2 in reduced-profile moments",
              lambda c: ([(1, _Int("square", c.N - 1, 1))], _g_side(c.N, c.k, (1, "laplacian")))),
    _identity("gradient-gside", "|grad u_k|^2/|x|^2 in reduced-profile moments",
              lambda c: ([(1, _Int("gradient", c.N - 3))], _g_side(c.N, c.k, (1, "gradient")))),
    _identity("rellich-deficit-gside", "Rellich deficit in reduced-profile moments",
              lambda c: _declared(Functional.I, c)),
    _identity("gradrellich-deficit-gside", "gradient-Rellich deficit in reduced-profile moments",
              lambda c: _declared(Functional.II, c)),
    _identity("v-laplacian-gside", "weighted |Delta v_k|^2 in reduced-profile moments",
              lambda c: ([(1, _v_lap(c.N))], _g_side(c.N, c.k, (1, "v-laplacian")))),
    _identity("v-gradient-gside", "weighted |grad v_k|^2 in reduced-profile moments",
              lambda c: ([(1, _v_grad(c.N))], _g_side(c.N, c.k, (1, "v-gradient")))),
    _identity("v-radial-gside", "weighted radial-gradient of v_k in reduced-profile moments",
              lambda c: ([(1, _v_rad(c.N))], _g_side(c.N, c.k, (1, "v-radial")))),
    Target("potential-gside", "identity", "C^1-potential-weighted gradient identity",
           _id_potential_gside, _needs_mode),
    _identity("weighted-laplacian-fside", "|Delta u_k|^2/|x|^{2m} in plain-profile moments",
              lambda c: _declared(Functional.WEIGHTED_LAPLACIAN, c)),
    Target("weighted-gradient-fside", "identity",
           "|grad u_k|^2/|x|^{2m+2} in plain-profile moments (jet path vs exact path)",
           _cross_path(lambda c: _Int("gradient", c.N - 3 - 2 * c.m), lambda c: [
               (1, _Int("radial-gradient", c.N - 3 - 2 * c.m_exact)),
               (c.eigenvalue, _Int("square", c.N - 5 - 2 * c.m_exact)),
           ])),
    _identity("weighted-power-shift-laplacian", "weighted Laplacian expansion under v = r^a u",
              lambda c: _power_shift(c.N, c.m_exact, Fraction(c.shift_exponent) * _v(c.N, c.m_exact))),
    _identity("weighted-grad-split", "weighted gradient split under v = r^{(N-4-2m)/2} u",
              lambda c: _declared(Functional.WEIGHTED_GRADIENT, c)),
    _identity("weighted-rellich-deficit", "weighted Rellich deficit in v-side form",
              lambda c: _weighted_deficit(c.N, c.m_exact)),
]

_INEQUALITY_TARGETS = [
    _inequality("hardy-improved", "Hardy inequality with the iterated-log series",
                lambda c: _hardy_improved(c.N, 0)),
    _inequality("hardy-improved-weighted", "weighted Hardy inequality with the series",
                lambda c: _hardy_improved(c.N, c.m_exact)),
    _inequality("rellich", "Rellich inequality", lambda c: (_deficit_I(c.N), [])),
    _sharp("rellich-gradient", "Laplacian vs gradient/|x|^2 inequality",
           _section2("rellich-gradient", lambda N: [(1, _lap(N))], (1, _grad))),
    _sharp("rellich-deficit-vgrad", "Rellich deficit bounds the v-gradient term",
           _section2("rellich-deficit-vgrad", _deficit_I, (1, _v_grad))),
    _sharp("gradrellich-deficit-vgrad", "gradient-Rellich deficit bounds the v-gradient term",
           _section2("gradrellich-deficit-vgrad", _deficit_II, (1, _v_grad))),
    _inequality("v-laplacian-lower", "v-Laplacian lower bound by radial and full gradients",
                lambda c: (_v_side(c.N, -c.N * (c.N - 4), -4), [])),
    _sharp("v-laplacian-radial-excess", "v-Laplacian bounds the radial-minus-half-full gradient excess",
           _section2("v-laplacian-radial-excess", lambda N: [(1, _v_lap(N))],
                     (1, _v_rad), (Fraction(-1, 2), _v_grad))),
    # (N(N-4) int v'^2 r + 4 int |grad v|^2 r) / 2(N-2)^2 less the radial
    # excess int v'^2 r - (1/2) int |grad v|^2 r, each integral taken once
    _inequality("radial-angular-balance", "radial-vs-angular gradient balance",
                lambda c: ([(c.N * (c.N - 4) / _excess(c.N) - 1, _v_rad(c.N)),
                            (4 / _excess(c.N) + Fraction(1, 2), _v_grad(c.N))], [])),
    _sharp("rellich-deficit-vlap", "Rellich deficit bounds the v-Laplacian term",
           _section2("rellich-deficit-vlap", _deficit_I, (1, _v_lap))),
    _sharp("gradrellich-deficit-vlap", "gradient-Rellich deficit bounds the v-Laplacian term",
           _section2("gradrellich-deficit-vlap", _deficit_II, (1, _v_lap))),
    _inequality("radialization-rellich", "Rellich deficit controls the non-radial remainder",
                _radialization(_deficit_I, lambda N: Fraction(8 * (N - 1) * (N * N - 2 * N - 2), (N * N - 4) ** 2))),
    _inequality("radialization-gradrellich", "gradient-Rellich deficit controls the non-radial remainder",
                _radialization(_deficit_II, lambda N: Fraction(4 * (N - 1) * (N * N - 4 * N - 4), (N * N - 4) ** 2))),
    _sharp("rellich-improved", "Rellich inequality with the iterated-log series",
           lambda N, m: (_deficit_I(N), C._sigma_bar_exact(0, N), [(1, _hardy(N, series=True))])),
    _sharp("rellich-gradient-improved", "gradient-Rellich inequality with the series",
           lambda N, m: (_deficit_II(N), Fraction(1, 4), [(1, _grad(N, series=True))])),
    _inequality("rellich-weighted", "weighted Rellich inequality",
                lambda c: (_deficit(c.N, _hardy, C._sigma_exact(c.m_exact, c.N), c.m_exact), [])),
    _sharp("rellich-weighted-improved", "weighted Rellich inequality with the series",
           lambda N, m: (_deficit(N, _hardy, C._sigma_exact(m, N), m), C._sigma_bar_exact(m, N),
                         [(1, _hardy(N, m, series=True))])),
    _sharp("rellich-gradient-weighted", "weighted Laplacian vs gradient inequality with the minimized constant",
           lambda N, m: ([(1, _lap(N, m))], C.a_mn(N, m).exact, [(1, _grad(N, m))]),
           per_mode=C._per_mode_exact),
    _sharp("rellich-gradient-weighted-improved", "weighted Laplacian vs gradient inequality with the series",
           lambda N, m: (_deficit(N, _grad, C._per_mode_exact(0, N, m), m), Fraction(1, 4),
                         [(1, _grad(N, m, series=True))]),
           _needs_wgrad_range),
    _inequality("higher-order-rellich-chain", "polyharmonic improvement through repeated Rellich steps",
                _higher_order(C.HigherOrderVariant.RELLICH_CHAIN), _needs_higher_order),
    _inequality("higher-order-gradient-chain",
                "polyharmonic improvement starting from the gradient of the polyharmonic",
                _higher_order(C.HigherOrderVariant.GRADIENT_CHAIN), _needs_higher_order),
    _inequality("higher-order-alternating-chain",
                "polyharmonic improvement alternating gradient and Laplacian steps",
                _higher_order(C.HigherOrderVariant.ALTERNATING_CHAIN), _needs_higher_order),
]

REGISTRY: dict[str, Target] = {t.name: t for t in _IDENTITY_TARGETS + _INEQUALITY_TARGETS}


def registry_targets(kind: str | None = None) -> list[str]:
    return [name for name, t in REGISTRY.items() if kind is None or t.kind == kind]


def registry_describe() -> list[tuple[str, str, str]]:
    return [(t.name, t.kind, t.description) for t in REGISTRY.values()]


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
# Sobolev-side quotients and the admissibility decision


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
    # the deficit over (int |u^(order)|^q X_1^alpha)^{d/N}, q = 2N/d
    if which is SobolevForm.U_FORM:
        order, deficit, d, alpha = 0, Functional.I, N - 4.0, 2.0 * (N - 2.0) / (N - 4.0)
    else:
        order, deficit, d, alpha = 1, Functional.II, N - 2.0, 2.0 * (N - 1.0) / (N - 2.0)
    numerator = functional(deficit, tf, quad=spec).value
    q = 2.0 * N / d
    power = d / N

    def density(r):
        x1 = 1.0 / (1.0 - np.log(np.minimum(r, 1.0)))
        return np.abs(prof.derivative_values(r, order)[order]) ** q * x1**alpha * r ** (N - 1)

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


def admissibility(N: int, which: AdmissibilityCondition, r_power, log_exponents=()):
    """Decide the admissibility integral of V = r^r_power prod_i X_i^{c_i} h,
    with ``log_exponents`` = (c_1, c_2, ...) and h bounded above and below
    near 0, which cannot change the answer.

    The condition integrates V^p X_1^x r^{N-1} near 0, with (p, x) =
    (N/2, 1-N) for the gradient perturbation and (N/4, 1-N/2) for the
    potential one.  That is the cascade's r^power prod_i X_i^{1+b_i} with
    power = r_power p + N - 1, b_1 = c_1 p + x - 1 (c_1 = 0 when no exponent
    is given) and b_i = c_i p - 1 for i >= 2, formed in exact arithmetic on
    the given numbers.  Returns ("finite", None) or ("divergent", the
    cascade's reason); a non-finite input raises DomainError.
    """
    if N < 5:
        raise DomainError("need N >= 5")
    if which is AdmissibilityCondition.GRADIENT_PERTURBATION:
        p, x = Fraction(N, 2), 1 - N
    else:
        p, x = Fraction(N, 4), 1 - Fraction(N, 2)
    # non-finite floats stay floats, for the cascade to reject
    a, *cs = (Fraction(v) if math.isfinite(v) else v for v in (r_power, *log_exponents))
    c1, *rest = cs or [0]
    offsets = [c1 * p + x - 1, *(c * p - 1 for c in rest)]
    failure = describe_cascade_failure(a * p + N - 1, offsets)
    return ("finite", None) if failure is None else ("divergent", failure)
