"""Spherical-harmonic radial reduction.

A test function u = f_k(r) phi_k(sigma) is represented by a
:class:`RadialProfile` (the scalar factor with derivatives) and a
:class:`SphericalMode` (N, k).  On such functions the Laplacian acts as the
radial mode operator L_k f = f'' + (N-1) f'/r - c_k f / r^2 with
c_k = k(N+k-2), and every quadratic functional reduces to a weighted 1-D
integral against the measure c_N r^{N-1} dr, where c_N is the surface area
of the unit (N-1)-sphere.  The same convention normalizes the angular factor
(int phi_k^2 dsigma = c_N, exact for phi_0 = 1), so the dual-route
cross-checks below pin it.

Each :func:`functional` call evaluates its profiles through
:meth:`RadialProfile.memoized`: the direct route and the reduced-profile
cross-check integrate on many of the same quadrature nodes, at the same or
lower derivative orders, and the memo evaluates the profile's jet once per
node set.  A stored jet serves a request only when the request's input rows
are a bytewise prefix of the stored input's, and then as the stored result
truncated to the requested order; by the truncation invariance of jet
arithmetic (see the module docstring of :mod:`rellich.taylor`) that is
bitwise the jet a fresh evaluation would give.  A jet memo lives as long as
the call that made it.

Every density the package integrates from a jet is written once, in
:func:`_jet_density`: a density kind of h_n = L_k^n h with weight r^w, so the
Laplacian density is a "square" with n = 1.  :func:`_density` adds the
density's origin power, from which :func:`rellich.quadrature.origin_integral`
picks the log substitution; the functionals, the registry's quadrature terms
and the scans' cutoff-zone pieces all go through them.

Each functional declares its integrals once, in ``_FUNCTIONALS``, and a
:class:`TestFunction` keeps the result of every integral run on it, keyed by
all that fixes the integral: density kind, number of L_k applications,
derived-profile shift, weight exponent, iterated-log index, origin power,
upper limit and :class:`~rellich.quadrature.QuadratureSpec`.  A later call
that needs the same integral on the same test function is served the stored
result instead of running it again: I and II share the Laplacian integral
and their three reduced-profile moments, J and JJ their three direct
integrals and three moments, and the weighted Laplacian's h^2 moment is the
weighted Hardy integral.  A served result counts toward ``quadrature_error`` and
``unconverged`` exactly as a run one does, and
:func:`~rellich.quadrature.count_quadrature` counts only the integrals that
run.  The store lives as long as the test function and is never copied:
``dataclasses.replace`` and :func:`substitute_v` start with an empty one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

import numpy as np

from . import constants as C
from .errors import DomainError
from .iterlog import log_product
from .quadrature import QuadratureResult, QuadratureSpec, origin_integral
from .taylor import Jet

__all__ = [
    "sphere_area",
    "SphericalMode",
    "RadialProfile",
    "Representation",
    "TestFunction",
    "FunctionalValue",
    "Functional",
    "mode_operator",
    "substitute_v",
    "gradient_density",
    "reduced_form",
    "functional",
]


def sphere_area(N: int) -> float:
    """Surface area of the unit sphere in R^N: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)


@dataclass(frozen=True)
class SphericalMode:
    N: int
    k: int

    def __post_init__(self):
        if self.N < 2 or self.N != int(self.N):
            raise DomainError(f"dimension must be an integer >= 2, got {self.N}")
        if self.k < 0 or self.k != int(self.k):
            raise DomainError(f"mode index must be a nonnegative integer, got {self.k}")

    @property
    def eigenvalue(self) -> int:
        return self.k * (self.N + self.k - 2)


class RadialProfile:
    """A scalar function of r with derivatives, on a support inside [0, D].

    A jet-propagating evaluator supplies the value and all derivatives
    together.
    """

    def __init__(
        self,
        jet_fn: Callable[[Jet], Jet],
        support: tuple[float, float] = (0.0, 1.0),
        origin_order: float = 0.0,
    ):
        if not (0.0 <= support[0] < support[1]):
            raise DomainError(f"invalid support {support}")
        self._jet_fn = jet_fn
        self.support = (float(support[0]), float(support[1]))
        self.origin_order = float(origin_order)

    # ------------------------------------------------------------- builders
    @classmethod
    def from_polynomial(cls, coeffs, support=(0.0, 1.0), origin_order=None):
        coeffs = [float(c) for c in coeffs]
        if origin_order is None:
            origin_order = next((i for i, c in enumerate(coeffs) if c != 0.0), 0)

        def fn(J: Jet) -> Jet:
            acc = Jet.constant(coeffs[-1], J.order, like=J.value)
            for c in reversed(coeffs[:-1]):
                acc = acc * J + c
            return acc

        return cls(fn, support, origin_order)

    # ------------------------------------------------------------ evaluation
    def taylor(self, r, order: int) -> Jet:
        return self._jet_fn(Jet.variable(r, order)).truncate(order)

    def __call__(self, r):
        return self.taylor(r, 0).value

    def derivative_values(self, r, order: int) -> list[np.ndarray]:
        J = self.taylor(r, order)
        return [J.deriv(j) for j in range(order + 1)]

    def memoized(self) -> "RadialProfile":
        """The same profile, with a jet function that remembers each input jet
        and its result, keyed by the bytes of the input's value row.

        A later input is served from the store, as the stored result truncated
        to its order, only when its rows are a bytewise prefix of the stored
        input's rows; any other input is evaluated afresh and replaces the
        entry for its value row.  Served jets are bitwise fresh evaluations
        because jet arithmetic is truncation invariant.  The store lives as
        long as the returned profile.
        """
        fn = self._jet_fn
        store: dict = {}

        def remembered(J: Jet) -> Jet:
            rows = J.coeffs
            key = (rows[0].shape, rows[0].tobytes())
            hit = store.get(key)
            if hit is not None:
                higher, out = hit
                if len(rows) - 1 <= len(higher) and all(
                    r.tobytes() == b for r, b in zip(rows[1:], higher)
                ):
                    return out.truncate(J.order)
            out = fn(J)
            store[key] = ([r.tobytes() for r in rows[1:]], out)
            return out

        return RadialProfile(remembered, self.support, self.origin_order)

    # -------------------------------------------------------------- algebra
    def power_shift(self, alpha: float) -> "RadialProfile":
        """The profile r^alpha * f(r)."""
        alpha = float(alpha)
        fn = self._jet_fn

        def shifted(J: Jet) -> Jet:
            return (J**alpha) * fn(J)

        return RadialProfile(shifted, self.support, self.origin_order + alpha)


class Representation(Enum):
    U_SIDE = "u"
    V_SIDE = "v"


@dataclass(frozen=True)
class TestFunction:
    """u = f_k(r) phi_k(sigma), or its v-side image under v = |x|^{(N-4-2m)/2} u."""

    __test__ = False  # not a pytest class, despite the name

    profile: RadialProfile
    mode: SphericalMode
    representation: Representation = Representation.U_SIDE
    # the results of the functionals' integrals on this function (see the
    # module docstring); never copied, so replace() and substitute_v start
    # empty
    _integrals: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def mode_operator(mode: SphericalMode, f: RadialProfile) -> RadialProfile:
    """L_k f = f'' + (N-1) f'/r - c_k f/r^2 acting on the radial factor."""
    N, ck = mode.N, mode.eigenvalue
    fn = f._jet_fn

    def lk(J: Jet) -> Jet:
        F = fn(Jet.variable(J.value, J.order + 2))
        R = Jet.variable(J.value, J.order)
        F1 = F.derivative()
        F2 = F1.derivative()
        out = F2 + (N - 1) * (F1.truncate(J.order) / R)
        if ck:
            out = out - ck * (F.truncate(J.order) / (R * R))
        return out

    return RadialProfile(lk, f.support, f.origin_order - 2)


def _mode_laplacian(F: Jet, r: np.ndarray, N: int, ck: int) -> np.ndarray:
    """L_k f at r from a jet F of f at r of order >= 2, by array arithmetic on
    its rows in :func:`mode_operator`'s order, so bitwise its profile's value."""
    out = F.deriv(2) + (F.deriv(1) / r) * (N - 1)
    if ck:
        out = out - (F.value / (r * r)) * ck
    return out


def _v_exponent(N: int, m):
    """The exponent (N-4-2m)/2 of v, in the number type of m."""
    return (N - 4 - 2 * m) / 2


def substitute_v(u: TestFunction, m: float = 0.0) -> TestFunction:
    """Map u to the v-side: the radial factor becomes r^{(N-4-2m)/2} f."""
    if u.representation is not Representation.U_SIDE:
        raise DomainError("substitute_v expects a u-side function")
    alpha = _v_exponent(u.mode.N, m)
    return TestFunction(u.profile.power_shift(alpha), u.mode, Representation.V_SIDE)


# --------------------------------------------------------------------------
# quadratic functionals


class Functional(Enum):
    I = "rellich-deficit"
    II = "gradrellich-deficit"
    J = "v-rellich-deficit"
    JJ = "v-gradrellich-deficit"
    WEIGHTED_LAPLACIAN = "weighted-laplacian"
    WEIGHTED_GRADIENT = "weighted-gradient"
    WEIGHTED_HARDY = "weighted-hardy"
    SERIES_TERM = "series-term"


@dataclass
class FunctionalValue:
    """A functional's direct ``value`` (the sum of ``components``), its
    ``cross_value`` through a reduction identity where one exists, the
    summed quadrature error estimate of the direct route, and ``unconverged``,
    the number of integrals behind either value that ended unconverged."""

    value: float
    components: dict[str, float]
    quadrature_error: float
    cross_value: float | None = None
    unconverged: int = 0


def gradient_density(f0, f1, ck, r, power):
    """(f'^2 + c_k f^2 / r^2) r^power from the arrays f0 = f and f1 = f'."""
    out = f1**2
    if ck:
        out = out + ck * (f0 / r) ** 2
    return out * r**power


# The reduced-profile forms.  With g = r^{(N-4)/2 - k} f (so that v = r^k g)
# and the moments t1 = int g''^2 r^{2k+3}, t2 = int g'^2 r^{2k+1},
# t3 = int g^2 r^{2k-1}, each functional of f below equals
# c1 t1 + c2 t2 + c3 t3 (per unit sphere area) for the coefficients
# (c1, c2, c3) of (N, k, c_k); None marks an absent moment.
_REDUCED_FORMS = {
    # int (L_k f)^2 r^{N-1}; N >= 5
    "laplacian": lambda N, k, ck: (
        1,
        N * (N - 4) / 2.0 + 2 * k * (N - 3) + 3,
        C.rellich_constant(N) + N * (N - 4) / 2.0 * (ck + k * k),
    ),
    # int (f'^2 + c_k f^2/r^2) r^{N-3}
    "gradient": lambda N, k, ck: (None, 1, ((N - 4) / 2.0) ** 2 + k * (N - 2)),
    # the Rellich deficit I
    "rellich-deficit": lambda N, k, ck: (
        1,
        N * (N - 4) / 2.0 + 2 * k * (N - 3) + 3,
        N * (N - 4) / 2.0 * (ck + k * k),
    ),
    # the gradient-Rellich deficit II
    "gradrellich-deficit": lambda N, k, ck: (
        1,
        (2 * k + N - 1) * (N - 3) - N * (3 * N - 8) / 4.0,
        N * (3 * N - 8) / 4.0 * k * k + N * (N - 8) / 4.0 * ck,
    ),
    # int (L_k v)^2 r^3, v = r^{(N-4)/2} f
    "v-laplacian": lambda N, k, ck: (1, (2 * k + N - 1) * (N - 3), None),
    # int (v'^2 + c_k v^2/r^2) r
    "v-gradient": lambda N, k, ck: (None, 1, k * (N - 2)),
    # int v'^2 r
    "v-radial": lambda N, k, ck: (None, 1, -(k * k)),
}


def _weighted_laplacian_form(N, ck, m):
    """The coefficients of int (L_k f)^2 r^{N-1-2m} in the plain-profile
    moments (int f''^2 r^{N-1-2m}, int f'^2 r^{N-3-2m}, int f^2 r^{N-5-2m})."""
    return 1, (N - 1) * (2 * m + 1) + 2 * ck, ck * (ck + (N - 4 - 2 * m) * (2 * m + 2))


def reduced_form(form: str, N: int, k: int, ck: int, moments) -> float:
    """The named functional from the reduced-profile moments (t1, t2, t3),
    summed in moment order: c1 t1 + c2 t2 + c3 t3 over the present terms."""
    return sum(c * t for c, t in zip(_REDUCED_FORMS[form](N, k, ck), moments) if c is not None)


@dataclass(frozen=True)
class _Integral:
    """One integral of a functional: int_0^hi of the density ``kind`` of
    L_k^n h, for the profile h = r^shift f (h is f itself when ``shift`` is
    None), with weight r^weight, times the squared iterated-log product
    X_1 ... X_series when ``series`` > 0."""

    kind: str
    shift: float | None
    weight: float
    n: int = 0
    series: int = 0


# the density kinds and the derivatives each one takes
_KIND_ORDERS = {"square": 0, "square-over-r": 0, "gradient": 1, "radial-gradient": 1, "moment-2": 2}


def _jet_density(kind: str, n: int, H: Jet, r, N: int, ck: int, w):
    """At r, h_n^2 ("square"), h_n^2/r ("square-over-r"), h_n'^2 + c_k h_n^2/r^2
    ("gradient"), h_n'^2 ("radial-gradient") or h_n''^2 ("moment-2"), times
    r^w, for h_n = L_k^n h.  H is the jet of h_n, or of h_{n-1} for a square
    with n >= 1, whose last L_k :func:`_mode_laplacian` takes on its rows, of
    order at least ``_KIND_ORDERS[kind]``, plus 2 for that last L_k."""
    if kind == "square-over-r":
        return H.value**2 / r
    if kind == "gradient":
        return gradient_density(H.value, H.deriv(1), ck, r, w)
    last = kind == "square" and n
    return (_mode_laplacian(H, r, N, ck) if last else H.deriv(_KIND_ORDERS[kind])) ** 2 * r**w


def _density(kind: str, n: int, h: RadialProfile, mode: SphericalMode, w):
    """(origin power, integrand) of the density ``kind`` of L_k^n h with
    weight r^w: for h ~ r^o at the origin the density behaves like
    r^{2 (o - 2n - order) + w}, order the derivatives the kind takes."""
    last = kind == "square" and n > 0
    for _ in range(n - last):
        h = mode_operator(mode, h)
    order = _KIND_ORDERS[kind] + 2 * last
    N, ck = mode.N, mode.eigenvalue
    origin_power = 2 * (h.origin_order - order) + w
    return origin_power, lambda r: _jet_density(kind, n, h.taylor(r, order), r, N, ck, w)


def _moments(shift, weights) -> tuple[_Integral, ...]:
    """The moments (int h''^2 r^w2, int h'^2 r^w1, int h^2 r^w0) of
    h = r^shift f, for weights = (w2, w1, w0)."""
    kinds = ("moment-2", "radial-gradient", "square")
    return tuple(_Integral(kind, shift, w) for kind, w in zip(kinds, weights))


def _g_moments(N, k, m):
    """t1, t2, t3 of the reduced profile g = r^{(N-4)/2 - k} f of a u-side f."""
    return _moments(_v_exponent(N, 0.0) - k, (2 * k + 3, 2 * k + 1, 2 * k - 1))


def _v_g_moments(N, k, m):
    """t1, t2, t3 of g = r^{-k} v for a v-side profile v."""
    return _moments(-float(k), (2 * k + 3, 2 * k + 1, 2 * k - 1))


@dataclass(frozen=True)
class _FunctionalSpec:
    """A functional: the side of its test function, its direct route as
    (label, integral, sign) terms, and, where a reduction identity exists,
    the integrals of the cross-check and the cross value per unit sphere area
    they give.  ``direct`` and ``reduced`` take (N, k, m); ``cross`` takes
    (N, k, c_k, m, the values of the ``reduced`` integrals)."""

    side: Representation
    direct: Callable
    reduced: Callable | None = None
    cross: Callable | None = None


_U, _V = Representation.U_SIDE, Representation.V_SIDE


def _j_spec(cw) -> _FunctionalSpec:
    """J (cw = N(N-4)/2) or JJ (cw = N(N-8)/4), cross-checked through the
    g-side assembly."""

    def cross(N, k, ck, m, t):
        lap, rad, grd = (
            reduced_form(form, N, k, ck, t) for form in ("v-laplacian", "v-radial", "v-gradient")
        )
        return lap - N * (N - 4.0) * rad + cw(N) * grd

    return _FunctionalSpec(
        _V,
        lambda N, k, m: (
            ("v-laplacian", _Integral("square", None, 3, 1), 1.0),
            ("v-radial-gradient", _Integral("radial-gradient", None, 1), -N * (N - 4.0)),
            ("v-gradient", _Integral("gradient", None, 1), cw(N)),
        ),
        _v_g_moments,
        cross,
    )


# The sharp constants stay literal here: functional accepts N < 5.
_FUNCTIONALS: dict[Functional, _FunctionalSpec] = {
    Functional.I: _FunctionalSpec(
        _U,
        lambda N, k, m: (
            ("laplacian", _Integral("square", None, N - 1, 1), 1.0),
            ("hardy", _Integral("square", None, N - 5), -((N * (N - 4) / 4.0) ** 2)),
        ),
        _g_moments,
        lambda N, k, ck, m, t: reduced_form("rellich-deficit", N, k, ck, t),
    ),
    Functional.II: _FunctionalSpec(
        _U,
        lambda N, k, m: (
            ("laplacian", _Integral("square", None, N - 1, 1), 1.0),
            ("gradient", _Integral("gradient", None, N - 3), -(N * N / 4.0)),
        ),
        _g_moments,
        lambda N, k, ck, m, t: reduced_form("gradrellich-deficit", N, k, ck, t),
    ),
    Functional.J: _j_spec(lambda N: N * (N - 4) / 2.0),
    Functional.JJ: _j_spec(lambda N: N * (N - 8) / 4.0),
    Functional.WEIGHTED_LAPLACIAN: _FunctionalSpec(
        _U,
        lambda N, k, m: (("laplacian", _Integral("square", None, N - 1 - 2 * m, 1), 1.0),),
        lambda N, k, m: _moments(None, (N - 1 - 2 * m, N - 3 - 2 * m, N - 5 - 2 * m)),
        lambda N, k, ck, m, t: sum(c * x for c, x in zip(_weighted_laplacian_form(N, ck, m), t)),
    ),
    Functional.WEIGHTED_GRADIENT: _FunctionalSpec(
        _U,
        lambda N, k, m: (("gradient", _Integral("gradient", None, N - 3 - 2 * m), 1.0),),
        # the v-substitution split, on v = r^{(N-4-2m)/2} f
        lambda N, k, m: (
            _Integral("gradient", _v_exponent(N, m), 1),
            _Integral("square-over-r", _v_exponent(N, m), -1),
        ),
        lambda N, k, ck, m, t: t[0] + _v_exponent(N, m) ** 2 * t[1],
    ),
    Functional.WEIGHTED_HARDY: _FunctionalSpec(
        _U, lambda N, k, m: (("hardy", _Integral("square", None, N - 5 - 2 * m), 1.0),)
    ),
    # the direct term of the series base, with its density weighted by the
    # squared iterated-log product (see _series_terms)
    Functional.SERIES_TERM: _FunctionalSpec(_U, None),
}


def _series_weighted(density, i: int):
    """density(r) times the squared iterated-log product X_1 ... X_i."""

    def weighted(r):
        return density(r) * log_product(i, np.minimum(r, 1.0)) ** 2

    return weighted


def _series_terms(N, k, m, series_index, series_base):
    """The series term: its base's direct term with the series weight."""
    base = series_base or Functional.WEIGHTED_HARDY
    i = int(series_index)
    if i < 1:
        raise DomainError("series index must be >= 1")
    if base is not Functional.WEIGHTED_HARDY and base is not Functional.WEIGHTED_GRADIENT:
        raise DomainError(
            f"series terms are defined against the weighted Hardy or gradient densities, not {base}"
        )
    ((_, integral, sign),) = _FUNCTIONALS[base].direct(N, k, m)
    return (("series", replace(integral, series=i), sign),)


def functional(
    name: Functional,
    tf: TestFunction,
    m: float = 0.0,
    quad: QuadratureSpec | None = None,
    series_index: int = 1,
    series_base: "Functional | None" = None,
) -> FunctionalValue:
    """Evaluate a named quadratic functional of a test function.

    Every functional is computed directly (differentiate, square, integrate
    with the c_N r^{N-1} measure) and, where a reduction identity exists,
    also through that identity's right-hand side; the second value lands in
    ``cross_value`` for cross-checking.  ``m`` is the radial weight exponent
    used by the WEIGHTED_* family and by the v-substitution convention.
    ``unconverged`` counts the integrals behind either value that ended
    ``converged=False``, whether they ran in this call or were served from
    the test function's store (see the module docstring).
    """
    spec = quad or QuadratureSpec()
    entry = _FUNCTIONALS.get(name)
    if entry is None:
        raise DomainError(f"unknown functional {name}")
    if tf.representation is not entry.side:
        raise DomainError(f"{name.name} expects a {entry.side.value}-side test function")
    N, k = tf.mode.N, tf.mode.k
    ck = tf.mode.eigenvalue
    cN = sphere_area(N)
    if name is Functional.SERIES_TERM:
        terms = _series_terms(N, k, m, series_index, series_base)
    else:
        terms = entry.direct(N, k, m)

    f = tf.profile.memoized()
    hi = f.support[1]
    profiles = {None: f}
    used: list[QuadratureResult] = []

    def run(integral: _Integral) -> QuadratureResult:
        h = profiles.get(integral.shift)
        if h is None:
            h = profiles[integral.shift] = f.power_shift(integral.shift).memoized()
        origin_power, density = _density(integral.kind, integral.n, h, tf.mode, integral.weight)
        key = (integral, origin_power, hi, spec)
        res = tf._integrals.get(key)
        if res is None:
            if integral.series:
                density = _series_weighted(density, integral.series)
            res = tf._integrals[key] = origin_integral(density, origin_power, hi, spec)
        used.append(res)
        return res

    results: dict[str, float] = {}
    err = 0.0
    for label, integral, sign in terms:
        res = run(integral)
        err += cN * abs(sign) * res.error_estimate
        results[label] = cN * sign * res.value
    cross = None
    if entry.cross is not None:
        values = tuple(run(integral).value for integral in entry.reduced(N, k, m))
        cross = cN * entry.cross(N, k, ck, m, values)
    unconverged = sum(not res.converged for res in used)
    return FunctionalValue(sum(results.values()), results, err, cross, unconverged)
