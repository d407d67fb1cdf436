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
bitwise the jet a fresh evaluation would give.  A memo lives as long as
the memoized profile, so no memo outlives the call that made it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable

import numpy as np

from . import constants as C
from .errors import DifferentiabilityError, DomainError
from .iterlog import log_product
from .quadrature import (
    OriginSubstitution,
    QuadratureResult,
    QuadratureSpec,
    count_quadrature,
    integrate,
)
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
    "polyharmonic_power",
    "substitute_v",
    "substitute_u",
    "g_profile",
    "gradient_density",
    "origin_integral",
    "reduced_form",
    "functional",
    "profile_from_csv",
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

    Two backends: closed-form (a jet-propagating evaluator supplies value and
    all derivatives together) and quintic-spline interpolation of samples.
    The spline backend carries only four derivatives, so it is rejected for
    polyharmonic order > 2.
    """

    def __init__(
        self,
        jet_fn: Callable[[Jet], Jet],
        support: tuple[float, float] = (0.0, 1.0),
        origin_order: float = 0.0,
        max_order: int = 64,
    ):
        if not (0.0 <= support[0] < support[1]):
            raise DomainError(f"invalid support {support}")
        self._jet_fn = jet_fn
        self.support = (float(support[0]), float(support[1]))
        self.origin_order = float(origin_order)
        self.max_order = int(max_order)

    # ------------------------------------------------------------- builders
    @classmethod
    def from_jet_fn(cls, fn, support=(0.0, 1.0), origin_order=0.0, max_order=64):
        return cls(fn, support, origin_order, max_order)

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

    @classmethod
    def from_samples(cls, r, values, support=None, origin_order=0.0):
        """Quintic-spline profile through (r, values)."""
        from scipy.interpolate import make_interp_spline

        r = np.asarray(r, dtype=float)
        values = np.asarray(values, dtype=float)
        if r.ndim != 1 or r.size < 8 or np.any(np.diff(r) <= 0):
            raise DomainError("need at least 8 strictly increasing sample radii")
        spline = make_interp_spline(r, values, k=5)
        derivs = [spline.derivative(nu) if nu else spline for nu in range(5)]
        if support is None:
            support = (float(r[0]), float(r[-1]))

        def fn(J: Jet) -> Jet:
            if J.order > 4:
                raise DifferentiabilityError(
                    "spline-backed profiles carry only four derivatives"
                )
            x = np.clip(J.value, r[0], r[-1])
            return Jet([derivs[j](x) / math.factorial(j) for j in range(J.order + 1)])

        return cls(fn, support, origin_order, max_order=4)

    # ------------------------------------------------------------ evaluation
    def taylor(self, r, order: int) -> Jet:
        if order > self.max_order:
            raise DifferentiabilityError(
                f"profile carries {self.max_order} derivatives, {order} requested"
            )
        return self._jet_fn(Jet.variable(r, order)).truncate(order)

    def __call__(self, r):
        return self.taylor(r, 0).value

    def derivative_values(self, r, order: int) -> list[np.ndarray]:
        J = self.taylor(r, order)
        return [J.deriv(j) for j in range(order + 1)]

    def verify_origin_order(self, n_samples: int = 16, radius: float = 1e-3) -> bool:
        """Sample f(r) / r^origin_order near zero: finite and not blowing up."""
        rr = np.geomspace(radius * 1e-9, radius, n_samples)
        vals = self(rr) / rr**self.origin_order
        if not np.all(np.isfinite(vals)):
            return False
        scale = np.abs(vals[-1]) + 1.0
        return bool(np.max(np.abs(vals)) <= 1e6 * scale)

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

        return RadialProfile(remembered, self.support, self.origin_order, self.max_order)

    # -------------------------------------------------------------- algebra
    def power_shift(self, alpha: float) -> "RadialProfile":
        """The profile r^alpha * f(r)."""
        alpha = float(alpha)
        fn = self._jet_fn

        def shifted(J: Jet) -> Jet:
            return (J**alpha) * fn(J)

        return RadialProfile(shifted, self.support, self.origin_order + alpha, self.max_order)

    def __mul__(self, other):
        if isinstance(other, RadialProfile):
            f, g = self._jet_fn, other._jet_fn
            return RadialProfile(
                lambda J: f(J) * g(J),
                (
                    max(self.support[0], other.support[0]),
                    min(self.support[1], other.support[1]),
                ),
                self.origin_order + other.origin_order,
                min(self.max_order, other.max_order),
            )
        c = float(other)
        fn = self._jet_fn
        return RadialProfile(lambda J: fn(J) * c, self.support, self.origin_order, self.max_order)

    __rmul__ = __mul__

    def __add__(self, other: "RadialProfile"):
        f, g = self._jet_fn, other._jet_fn
        return RadialProfile(
            lambda J: f(J) + g(J),
            (
                min(self.support[0], other.support[0]),
                max(self.support[1], other.support[1]),
            ),
            min(self.origin_order, other.origin_order),
            min(self.max_order, other.max_order),
        )


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


def mode_operator(mode: SphericalMode, f: RadialProfile) -> RadialProfile:
    """L_k f = f'' + (N-1) f'/r - c_k f/r^2 acting on the radial factor."""
    if f.max_order < 2:
        raise DifferentiabilityError("mode operator needs two derivatives")
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

    return RadialProfile(lk, f.support, f.origin_order - 2, f.max_order - 2)


def polyharmonic_power(mode: SphericalMode, f: RadialProfile, m: int) -> RadialProfile:
    """L_k^m f, realizing Delta^m on f phi_k; needs 2m derivatives."""
    if m < 1 or m != int(m):
        raise DomainError(f"polyharmonic order must be a positive integer, got {m}")
    if f.max_order < 2 * m:
        raise DifferentiabilityError(
            f"polyharmonic order {m} needs {2 * m} derivatives, profile has {f.max_order}"
        )
    out = f
    for _ in range(int(m)):
        out = mode_operator(mode, out)
    return out


def _v_exponent(N: int, m: float) -> float:
    return (N - 4.0 - 2.0 * m) / 2.0


def substitute_v(u: TestFunction, m: float = 0.0) -> TestFunction:
    """Map u to the v-side: the radial factor becomes r^{(N-4-2m)/2} f."""
    if u.representation is not Representation.U_SIDE:
        raise DomainError("substitute_v expects a u-side function")
    alpha = _v_exponent(u.mode.N, m)
    return TestFunction(u.profile.power_shift(alpha), u.mode, Representation.V_SIDE)


def substitute_u(v: TestFunction, m: float = 0.0) -> TestFunction:
    """Inverse of :func:`substitute_v`."""
    if v.representation is not Representation.V_SIDE:
        raise DomainError("substitute_u expects a v-side function")
    alpha = _v_exponent(v.mode.N, m)
    return TestFunction(v.profile.power_shift(-alpha), v.mode, Representation.U_SIDE)


def g_profile(u: TestFunction, m: float = 0.0) -> RadialProfile:
    """The reduced profile g with v = r^k g, i.e. g = r^{(N-4-2m)/2 - k} f."""
    tf = u if u.representation is Representation.U_SIDE else substitute_u(u, m)
    return tf.profile.power_shift(_v_exponent(tf.mode.N, m) - tf.mode.k)


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


def origin_integral(density, origin_power: float, hi: float, spec: QuadratureSpec) -> QuadratureResult:
    """int_0^hi density dr, through the log substitution at the origin when
    the density behaves like r^origin_power with origin_power < 0."""
    sub = OriginSubstitution.LOG if origin_power < 0.0 else OriginSubstitution.NONE
    return integrate(density, 0.0, hi, replace(spec, origin_substitution=sub))


def gradient_density(f0, f1, ck, r, power):
    """(f'^2 + c_k f^2 / r^2) r^power from the arrays f0 = f and f1 = f'."""
    out = f1**2
    if ck:
        out = out + ck * (f0 / r) ** 2
    return out * r**power


def _moments(h: RadialProfile, weights, hi: float, spec: QuadratureSpec):
    """(int h''^2 r^w2, int h'^2 r^w1, int h^2 r^w0) over (0, hi], for
    weights = (w2, w1, w0): the terms of the second-order cross-checks.  The
    three moments mostly share their nodes, so h is evaluated memoized."""
    o = h.origin_order
    h = h.memoized()

    def moment(j, w):
        def density(r):
            return h.taylor(r, j).deriv(j) ** 2 * r**w

        return origin_integral(density, 2 * (o - j) + w, hi, spec).value

    return tuple(moment(j, w) for j, w in zip((2, 1, 0), weights))


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


def reduced_form(form: str, N: int, k: int, ck: int, moments) -> float:
    """The named functional from the reduced-profile moments (t1, t2, t3),
    summed in moment order: c1 t1 + c2 t2 + c3 t3 over the present terms."""
    out = None
    for c, t in zip(_REDUCED_FORMS[form](N, k, ck), moments):
        if c is not None:
            out = c * t if out is None else out + c * t
    return out


# the representation each functional's test function must be in
_SIDE = {
    Functional.I: Representation.U_SIDE,
    Functional.II: Representation.U_SIDE,
    Functional.J: Representation.V_SIDE,
    Functional.JJ: Representation.V_SIDE,
    Functional.WEIGHTED_LAPLACIAN: Representation.U_SIDE,
    Functional.WEIGHTED_GRADIENT: Representation.U_SIDE,
    Functional.WEIGHTED_HARDY: Representation.U_SIDE,
    Functional.SERIES_TERM: Representation.U_SIDE,
}


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
    ``converged=False``.
    """
    with count_quadrature() as counts:
        out = _functional(name, tf, m, quad, series_index, series_base)
    out.unconverged = counts.unconverged
    return out


def _functional(name, tf, m, quad, series_index, series_base) -> FunctionalValue:
    spec = quad or QuadratureSpec()
    side = _SIDE.get(name)
    if side is None:
        raise DomainError(f"unknown functional {name}")
    if tf.representation is not side:
        raise DomainError(f"{name.name} expects a {side.value}-side test function")
    N, k = tf.mode.N, tf.mode.k
    ck = tf.mode.eigenvalue
    cN = sphere_area(N)
    f = tf.profile.memoized()
    hi = f.support[1]
    oo = f.origin_order

    results: dict[str, float] = {}
    err = 0.0

    def add(label, density, origin_power, sign=1.0):
        nonlocal err
        res = origin_integral(density, origin_power, hi, spec)
        err += cN * abs(sign) * res.error_estimate
        results[label] = cN * sign * res.value

    def grad(profile, power):
        return lambda r: gradient_density(*profile.derivative_values(r, 1), ck, r, power)

    if name is Functional.I or name is Functional.II:
        lk = mode_operator(tf.mode, f)
        add("laplacian", lambda r: lk(r) ** 2 * r ** (N - 1), 2 * (oo - 2) + N - 1)
        # the sharp constants stay literal here: functional accepts N < 5
        if name is Functional.I:
            const = (N * (N - 4) / 4.0) ** 2
            add("hardy", lambda r: f(r) ** 2 * r ** (N - 5), 2 * oo + N - 5, sign=-const)
        else:
            add("gradient", grad(f, N - 3), 2 * (oo - 1) + N - 3, sign=-(N * N / 4.0))
        # cross-check through the reduced-profile identity
        g = f.power_shift(_v_exponent(N, 0.0) - k)  # g_profile(tf, 0.0) on the memoized f
        moments = _moments(g, (2 * k + 3, 2 * k + 1, 2 * k - 1), hi, spec)
        cross = cN * reduced_form(name.value, N, k, ck, moments)
        return FunctionalValue(sum(results.values()), results, err, cross)

    if name is Functional.J or name is Functional.JJ:
        lkv = mode_operator(tf.mode, f)
        add("v-laplacian", lambda r: lkv(r) ** 2 * r**3, 2 * (oo - 2) + 3)
        add(
            "v-radial-gradient",
            lambda r: f.derivative_values(r, 1)[1] ** 2 * r,
            2 * (oo - 1) + 1,
            sign=-N * (N - 4.0),
        )
        cw = N * (N - 4) / 2.0 if name is Functional.J else N * (N - 8) / 4.0
        add("v-gradient", grad(f, 1), 2 * (oo - 1) + 1, sign=cw)
        # cross-check through the g-side assembly
        moments = _moments(f.power_shift(-float(k)), (2 * k + 3, 2 * k + 1, 2 * k - 1), hi, spec)
        lap, rad, grd = (
            reduced_form(form, N, k, ck, moments) for form in ("v-laplacian", "v-radial", "v-gradient")
        )
        cross = cN * (lap - N * (N - 4.0) * rad + cw * grd)
        return FunctionalValue(sum(results.values()), results, err, cross)

    if name is Functional.WEIGHTED_LAPLACIAN:
        lk = mode_operator(tf.mode, f)
        add("laplacian", lambda r: lk(r) ** 2 * r ** (N - 1 - 2 * m), 2 * (oo - 2) + N - 1 - 2 * m)
        t1, t2, t3 = _moments(f, (N - 1 - 2 * m, N - 3 - 2 * m, N - 5 - 2 * m), hi, spec)
        cross = cN * (
            t1
            + ((N - 1) * (2 * m + 1) + 2 * ck) * t2
            + ck * (ck + (N - 4 - 2 * m) * (2 * m + 2)) * t3
        )
        return FunctionalValue(results["laplacian"], results, err, cross)

    if name is Functional.WEIGHTED_GRADIENT:
        add("gradient", grad(f, N - 3 - 2 * m), 2 * (oo - 1) + N - 3 - 2 * m)
        # cross-check through the v-substitution split
        v = f.power_shift(_v_exponent(N, m)).memoized()  # substitute_v(tf, m).profile
        voo = v.origin_order
        t1 = origin_integral(grad(v, 1), 2 * (voo - 1) + 1, hi, spec)
        t2 = origin_integral(lambda r: v(r) ** 2 / r, 2 * voo - 1, hi, spec)
        cross = cN * (t1.value + _v_exponent(N, m) ** 2 * t2.value)
        return FunctionalValue(results["gradient"], results, err, cross)

    if name is Functional.WEIGHTED_HARDY:
        add("hardy", lambda r: f(r) ** 2 * r ** (N - 5 - 2 * m), 2 * oo + N - 5 - 2 * m)
        return FunctionalValue(results["hardy"], results, err, None)

    base = series_base or Functional.WEIGHTED_HARDY
    i = int(series_index)
    if i < 1:
        raise DomainError("series index must be >= 1")

    def weight(r):
        return log_product(i, np.minimum(r, 1.0)) ** 2

    if base is Functional.WEIGHTED_HARDY:
        add("series", lambda r: f(r) ** 2 * r ** (N - 5 - 2 * m) * weight(r), 2 * oo + N - 5 - 2 * m)
    elif base is Functional.WEIGHTED_GRADIENT:
        gradient = grad(f, N - 3 - 2 * m)
        add("series", lambda r: gradient(r) * weight(r), 2 * (oo - 1) + N - 3 - 2 * m)
    else:
        raise DomainError(
            f"series terms are defined against the weighted Hardy or gradient densities, not {base}"
        )
    return FunctionalValue(results["series"], results, err, None)


def profile_from_csv(path, origin_order: float = 0.0) -> RadialProfile:
    """Load a user-supplied profile from CSV columns r, f [, f1, f2, ...].

    Builds a quintic-spline profile from (r, f).  Derivative columns, when
    present, are checked for rough consistency with the spline rather than
    trusted directly.
    """
    radii, values, extra = [], [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header and _is_number(header[0]):
            rows = [header] + list(reader)
        else:
            rows = list(reader)
    for row in rows:
        if not row:
            continue
        radii.append(float(row[0]))
        values.append(float(row[1]))
        extra.append([float(x) for x in row[2:]])
    profile = RadialProfile.from_samples(radii, values, origin_order=origin_order)
    if extra and extra[0]:
        r = np.asarray(radii)
        inner = (r > r[0] + 0.05 * (r[-1] - r[0])) & (r < r[-1] - 0.05 * (r[-1] - r[0]))
        d1 = np.array([row[0] for row in extra])
        approx = profile.derivative_values(r[inner], 1)[1]
        scale = np.max(np.abs(d1[inner])) + 1e-12
        if np.max(np.abs(approx - d1[inner])) > 1e-2 * scale:
            raise DomainError("derivative column disagrees with the interpolated profile")
    return profile


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False
