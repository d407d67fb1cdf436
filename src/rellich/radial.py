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

Each :func:`functional` call integrates the terms it does not find stored
(see below) together, through :func:`_jet_integrals`.  The terms whose
density is finite at the origin bisect in lockstep
(:func:`rellich.quadrature._integrate_many`), and so do the terms that take
the log substitution, on their half-line in s = ln(1/r)
(:func:`rellich.quadrature._origin_many`, which maps each group's nodes to
radii once).  In either run each round hands the integrand its node
groups, each distinct node array once with the terms evaluated on it
(:func:`rellich.quadrature._round`); the round evaluates the profile's jet
once, on every group's nodes, at the highest order any term in a group
takes, and :func:`_jet_densities` builds each variant L_k^p (r^shift f)
from that jet and forms each term's density on its group's nodes.  Jet
arithmetic acts elementwise and is truncation invariant (see the module
docstring of :mod:`rellich.taylor`), so every density, and with it every
integral, is bitwise what the term alone would give.

The package has one integral vocabulary, :class:`_Int`: a term
int D(h) r^w dr of a density kind D of h = L_k^n (r^shift f), written once
in :func:`_jet_density` (the Laplacian density is a "square" with n = 1).
:func:`_origin_power` gives its origin power, from which the log
substitution is picked, and :func:`_jet_integrals` integrates terms
through both; the functionals, the registry's quadrature terms and the
scans' cutoff-zone densities all go through them.  :mod:`rellich.verify`
evaluates the same terms, from the same builders and reduction forms
below, exactly.

Each functional is declared once, in ``_FUNCTIONALS``: its side, its
component labels, and (N, k, m) -> (direct terms, cross terms) as exact
(coefficient, _Int) pairs.  :func:`functional` rounds each coefficient once
and builds each declaration once per (functional, N, k, m).  The registry
checks the declarations of I, II and the weighted Laplacian and
gradient as identities with residual exactly 0.

A :class:`TestFunction` keeps the result of every integral run on it, keyed
by the term, the iterated-log index of a series term and the
:class:`~rellich.quadrature.QuadratureSpec`; the profile, and with it the
origin power and the upper limit, is the test function's.  A later call
that needs the same integral on the same test function is served the stored
result instead of running it again: I and II share the Laplacian integral
and their three reduced-profile moments, J and JJ their three direct
integrals and three moments (at k = 0 the moment int g'^2 r is the direct
int v'^2 r), and the weighted Laplacian's h^2 moment is the weighted Hardy
integral.  A served result counts toward ``quadrature_error`` and
``unconverged`` exactly as a run one does, each integral once per call, and
:func:`~rellich.quadrature.count_quadrature` counts only the integrals that
run.  The store lives as long as the test function and is never copied:
``dataclasses.replace`` and :func:`substitute_v` start with an empty one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Callable

import numpy as np

from . import constants as C
from .errors import DomainError
from .iterlog import log_product
from .quadrature import QuadratureSpec, _integrate_many, _origin_many
from .taylor import Jet, polynomial

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

        return cls(lambda J: polynomial(J, coeffs), support, origin_order)

    # ------------------------------------------------------------ evaluation
    def taylor(self, r, order: int) -> Jet:
        return self._jet_fn(Jet.variable(r, order)).truncate(order)

    def __call__(self, r):
        return self.taylor(r, 0).value

    def derivative_values(self, r, order: int) -> list[np.ndarray]:
        J = self.taylor(r, order)
        return [J.deriv(j) for j in range(order + 1)]

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
        return _lk(fn(Jet.variable(J.value, J.order + 2)), J.value, N, ck)

    return RadialProfile(lk, f.support, f.origin_order - 2)


def _lk(F: Jet, r, N: int, ck: int) -> Jet:
    """The jet of L_k f at r, of order F.order - 2, from the jet F of f at r."""
    order = F.order - 2
    R = Jet.variable(r, order)
    F1 = F.derivative()
    F2 = F1.derivative()
    out = F2 + (N - 1) * (F1.truncate(order) / R)
    if ck:
        out = out - ck * (F.truncate(order) / (R * R))
    return out


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


# --------------------------------------------------------------------------
# the integral vocabulary (per unit sphere area)


@dataclass(frozen=True)
class _Int:
    """int_0^hi D(h) r^weight dr for h = L_k^n (r^shift f), over the support
    [0, hi] of the profile f, or for the same profile built from the
    verification suite's second-mode companion f2 at mode k2 when ``f2`` is
    set.  D is one of the density kinds of :func:`_jet_density`.  A
    ``series`` term carries an iterated-log weight as well, which its
    evaluator supplies.  The hash, the dataclass's own, is computed once:
    the terms key the stores of ``functional`` and of the suite's cases."""

    kind: str
    weight: float | Fraction
    n: int = 0
    shift: Fraction | None = None
    f2: bool = False
    series: bool = False

    def __post_init__(self):
        key = (self.kind, self.weight, self.n, self.shift, self.f2, self.series)
        object.__setattr__(self, "_hash", hash(key))

    def __hash__(self) -> int:
        return self._hash


@functools.cache
def _v(N: int, m=0) -> Fraction:
    """The exponent of v = r^{(N-4-2m)/2} f, exactly."""
    return _v_exponent(N, Fraction(m))


def _v_lap(N: int, m=0) -> _Int:
    return _Int("square", 3, 1, _v(N, m))


def _v_rad(N: int, m=0) -> _Int:
    return _Int("radial-gradient", 1, 0, _v(N, m))


def _v_grad(N: int, m=0) -> _Int:
    return _Int("gradient", 1, 0, _v(N, m))


def _v_side(N: int, c_rad, c_grad, m=0) -> list:
    """int (L_k v)^2 r^3 + c_rad int v'^2 r + c_grad int |grad v|^2 r."""
    return [(1, _v_lap(N, m)), (c_rad, _v_rad(N, m)), (c_grad, _v_grad(N, m))]


def _lap(N: int, m=0, f2: bool = False) -> _Int:
    """int (L_k f)^2 r^{N-1-2m}."""
    return _Int("square", N - 1 - 2 * m, 1, f2=f2)


def _hardy(N: int, m=0, series: bool = False, f2: bool = False) -> _Int:
    """int f^2 r^{N-5-2m}, with the series weight when ``series`` is set."""
    return _Int("square", N - 5 - 2 * m, f2=f2, series=series)


def _grad(N: int, m=0, series: bool = False, f2: bool = False) -> _Int:
    """int |grad f|^2 r^{N-3-2m}, with the series weight when ``series`` is set."""
    return _Int("gradient", N - 3 - 2 * m, f2=f2, series=series)


def _deficit(N: int, piece, constant, m=0, f2: bool = False) -> list:
    """int (L_k f)^2 r^{N-1-2m} less ``constant`` times the piece, _hardy or
    _grad."""
    return [(1, _lap(N, m, f2)), (-constant, piece(N, m, f2=f2))]


def _deficit_I(N: int, f2: bool = False) -> list:
    """The Rellich deficit I."""
    return _deficit(N, _hardy, C._sigma_exact(0, N), f2=f2)


def _deficit_II(N: int, f2: bool = False) -> list:
    """The gradient-Rellich deficit II."""
    return _deficit(N, _grad, Fraction(N * N, 4), f2=f2)


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


def _g_side(N: int, k: int, *forms) -> list:
    """sum c * F over the (c, F) pairs, F the name of a reduced-profile form,
    as (coefficient, moment) pairs in the moments (int g''^2 r^{2k+3},
    int g'^2 r^{2k+1}, int g^2 r^{2k-1}) of g = r^{(N-4)/2 - k} f, each
    moment once; a moment that no form has is left out."""
    g = _v(N) - k
    moments = (
        _Int("moment-2", 2 * k + 3, 0, g),
        _Int("radial-gradient", 2 * k + 1, 0, g),
        _Int("square", 2 * k - 1, 0, g),
    )
    coeffs = [None] * len(moments)
    for c, form in forms:
        for i, x in enumerate(_REDUCED_FORMS[form](N, k, k * (N + k - 2))):
            if x is not None:
                coeffs[i] = c * x if coeffs[i] is None else coeffs[i] + c * x
    return [(c, t) for c, t in zip(coeffs, moments) if c is not None]


def _weighted_laplacian_fside(N: int, k: int, m):
    """int (L_k f)^2 r^{N-1-2m} and its plain-profile moments
    (int f''^2 r^{N-1-2m}, int f'^2 r^{N-3-2m}, int f^2 r^{N-5-2m})."""
    w, ck = N - 1 - 2 * m, k * (N + k - 2)
    coeffs = (1, (N - 1) * (2 * m + 1) + 2 * ck, ck * (ck + (N - 4 - 2 * m) * (2 * m + 2)))
    moments = (_Int("moment-2", w), _Int("radial-gradient", w - 2), _Int("square", w - 4))
    return [(1, _Int("square", w, 1))], list(zip(coeffs, moments))


def _grad_split(N: int, m):
    """int |grad u|^2 r^{N-3-2m} and its split on v = r^{(N-4-2m)/2} f."""
    v = _v(N, m)
    return [(1, _grad(N, m))], [(1, _v_grad(N, m)), (v * v, _Int("square", -1, 0, v))]


# the density kinds and the derivatives each one takes
_KIND_ORDERS = {"square": 0, "gradient": 1, "radial-gradient": 1, "moment-2": 2}


def _jet_density(kind: str, n: int, H: Jet, r, N: int, ck: int, w):
    """At r, h_n^2 ("square"), h_n'^2 + c_k h_n^2/r^2 ("gradient"), h_n'^2
    ("radial-gradient") or h_n''^2 ("moment-2"), times r^w, for
    h_n = L_k^n h.  H is the jet of h_n, or of h_{n-1} for a square with
    n >= 1, whose last L_k :func:`_mode_laplacian` takes on its rows, of
    order at least ``_KIND_ORDERS[kind]``, plus 2 for that last L_k."""
    if kind == "gradient":
        return gradient_density(H.value, H.deriv(1), ck, r, w)
    last = kind == "square" and n
    return (_mode_laplacian(H, r, N, ck) if last else H.deriv(_KIND_ORDERS[kind])) ** 2 * r**w


def _jet_order(term: _Int) -> int:
    """The order of the jet of f a term's density takes: its kind's
    derivatives and 2 for each L_k."""
    return _KIND_ORDERS[term.kind] + 2 * term.n


def _steps(term: _Int) -> int:
    """The L_k a term's density takes before :func:`_jet_density`, which
    takes the last L_k of a square on its rows."""
    return term.n - (term.kind == "square" and term.n > 0)


def _variant(jets: dict, r, shift, p: int, N: int, ck: int) -> Jet:
    """The jet at r of L_k^p (r^shift f), shift None for f itself, built
    from the jet ``jets[None, 0]`` of f at r and kept in ``jets``, so that
    each variant is built once."""
    H = jets.get((shift, p))
    if H is None:
        if p:
            H = _lk(_variant(jets, r, shift, p - 1, N, ck), r, N, ck)
        else:
            U = jets[None, 0]
            H = Jet.variable(r, U.order) ** float(shift) * U
        jets[shift, p] = H
    return H


def _jet_densities(profile: RadialProfile, terms, groups, mode: SphericalMode, weight=None) -> list:
    """The density of each term j of ``profile`` at the nodes x of the
    group (x, which) with j in which (see
    :func:`rellich.quadrature._round`), times weight(min(r, 1)) for a
    series term when a ``weight`` is given; a term in no group has no
    density.

    One jet of the profile, at the highest order a term in a group takes
    (:func:`_jet_order`), covers every group's nodes at once; it is cut to
    each group, and each variant L_k^p (r^shift f) a density takes (p =
    :func:`_steps`) is built from the cut once (:func:`_variant`).  Jets
    act elementwise and are truncation invariant (see
    :mod:`rellich.taylor`), so every density is bitwise the one its term's
    own profile gives."""
    r = groups[0][0] if len(groups) == 1 else np.concatenate([x for x, _ in groups])
    U = profile.taylor(r, max(_jet_order(terms[j]) for _, which in groups for j in which))
    N, ck = mode.N, mode.eigenvalue
    out, start = [None] * len(terms), 0
    for x, which in groups:
        jets = {(None, 0): U if len(groups) == 1 else Jet([c[start : start + len(x)] for c in U.coeffs])}
        start += len(x)
        for j in which:
            t = terms[j]
            H = _variant(jets, x, t.shift or None, _steps(t), N, ck)
            density = _jet_density(t.kind, t.n, H, x, N, ck, float(t.weight))
            out[j] = density * weight(np.minimum(x, 1.0)) if weight is not None and t.series else density
    return out


def _origin_power(term: _Int, origin_order: float) -> float:
    """The power of r a term's density behaves like at the origin, for f ~
    r^origin_order: 2 (o - order) + w for h = L_k^p (r^shift f) ~ r^o and
    the derivatives ``order`` the density takes of it."""
    o = origin_order + float(term.shift) if term.shift else origin_order
    p = _steps(term)
    for _ in range(p):
        o -= 2
    return 2 * (o - (_jet_order(term) - 2 * p)) + float(term.weight)


def _jet_integrals(terms, profile: RadialProfile, mode: SphericalMode, spec: QuadratureSpec, weight=None) -> list:
    """The terms of ``profile`` at the mode by quadrature of their jet
    densities over its support [0, hi], each series term's times
    weight(min(r, 1)) when a ``weight`` is given, as a list of
    :class:`~rellich.quadrature.QuadratureResult`.

    Terms whose density is finite at the origin (origin power >= 0) go
    through one :func:`~rellich.quadrature._integrate_many` run, the others
    through one run of the log substitution
    (:func:`~rellich.quadrature._origin_many`); each round of either run
    takes one profile jet (:func:`_jet_densities`).  A term of the
    companion profile has no jet route (DomainError)."""
    for term in terms:
        if term.f2:
            raise DomainError(f"the jet route integrates the profile itself, not the companion of {term}")
    hi = profile.support[1]
    powers = [_origin_power(t, profile.origin_order) for t in terms]
    results = [None] * len(terms)

    def run(which, many, *args):
        ts = [terms[j] for j in which]
        density = lambda groups: _jet_densities(profile, ts, groups, mode, weight)
        for j, res in zip(which, many(density, len(ts), *args)):
            results[j] = res

    if finite := [j for j, p in enumerate(powers) if p >= 0.0]:
        run(finite, _integrate_many, 0.0, hi, spec)
    if logged := [j for j, p in enumerate(powers) if p < 0.0]:
        run(logged, _origin_many, hi, spec)
    return results


# --------------------------------------------------------------------------
# the functionals, each declared once in the vocabulary above


_U, _V = Representation.U_SIDE, Representation.V_SIDE
_V_LABELS = ("v-laplacian", "v-radial-gradient", "v-gradient")


def _v_deficit(cw):
    """J (cw = N(N-4)/2) or JJ (cw = N(N-8)/4): the v-side form of I or II
    and its assembly from the g-side forms, written on the v-side profile
    v = r^{(N-4)/2} u itself, so g = r^{-k} v."""

    def declare(N, k, m):
        coeffs = (1, -N * (N - 4), cw(N))
        direct = [(c, replace(t, shift=None)) for c, t in _v_side(N, *coeffs[1:])]
        cross = _g_side(N, k, *zip(coeffs, ("v-laplacian", "v-radial", "v-gradient")))
        v = _v(N)
        return direct, [(c, replace(t, shift=(t.shift - v) or None)) for c, t in cross]

    return declare


# the series term has no declaration of its own: see _series_terms
_FUNCTIONALS = {
    Functional.I: (
        _U, ("laplacian", "hardy"), lambda N, k, m: (_deficit_I(N), _g_side(N, k, (1, "rellich-deficit")))
    ),
    Functional.II: (
        _U, ("laplacian", "gradient"), lambda N, k, m: (_deficit_II(N), _g_side(N, k, (1, "gradrellich-deficit")))
    ),
    Functional.J: (_V, _V_LABELS, _v_deficit(lambda N: Fraction(N * (N - 4), 2))),
    Functional.JJ: (_V, _V_LABELS, _v_deficit(lambda N: Fraction(N * (N - 8), 4))),
    Functional.WEIGHTED_LAPLACIAN: (_U, ("laplacian",), _weighted_laplacian_fside),
    Functional.WEIGHTED_GRADIENT: (_U, ("gradient",), lambda N, k, m: _grad_split(N, m)),
    Functional.WEIGHTED_HARDY: (_U, ("hardy",), lambda N, k, m: ([(1, _hardy(N, m))], None)),
    Functional.SERIES_TERM: (_U, ("series",), None),
}


def _series_terms(N, k, m, i: int, series_base):
    """The series term: its base's direct term, marked as a series term."""
    base = series_base or Functional.WEIGHTED_HARDY
    if i < 1:
        raise DomainError("series index must be >= 1")
    if base is not Functional.WEIGHTED_HARDY and base is not Functional.WEIGHTED_GRADIENT:
        raise DomainError(
            f"series terms are defined against the weighted Hardy or gradient densities, not {base}"
        )
    ((c, term),), _ = _FUNCTIONALS[base][2](N, k, m)
    return [(c, replace(term, series=True))]


@functools.cache
def _declaration(name: Functional, N: int, k: int, m, i: int, series_base):
    """The (direct, cross) terms :func:`functional` evaluates, coefficients
    rounded, built once per argument tuple; the registry reads the exact
    declarations of ``_FUNCTIONALS`` instead."""
    declare, m = _FUNCTIONALS[name][2], Fraction(m)
    direct, cross = declare(N, k, m) if declare else (_series_terms(N, k, m, i, series_base), None)
    rounded = lambda pairs: tuple((float(c), t) for c, t in pairs)
    return rounded(direct), None if cross is None else rounded(cross)


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
    used by the WEIGHTED_* family and by the v-substitution convention.  The
    series term's weight is the squared iterated-log product
    X_1 ... X_series_index.  ``unconverged`` counts the integrals behind
    either value that ended ``converged=False``, each integral once, whether
    it ran in this call or was served from the test function's store (see
    the module docstring).
    """
    spec = quad or QuadratureSpec()
    entry = _FUNCTIONALS.get(name)
    if entry is None:
        raise DomainError(f"unknown functional {name}")
    side, labels = entry[:2]
    if tf.representation is not side:
        raise DomainError(f"{name.name} expects a {side.value}-side test function")
    if not math.isfinite(m):
        raise DomainError(f"the weight exponent m must be finite, got {m}")
    N, k = tf.mode.N, tf.mode.k
    cN = sphere_area(N)
    i = int(series_index)
    direct, cross = _declaration(name, N, k, m, i, series_base)

    keys = {term: (term, i if term.series else 0, spec) for _, term in (*direct, *(cross or ()))}
    fresh = [term for term, key in keys.items() if key not in tf._integrals]
    if fresh:
        weight = lambda x: log_product(i, x) ** 2
        for term, res in zip(fresh, _jet_integrals(fresh, tf.profile, tf.mode, spec, weight)):
            tf._integrals[keys[term]] = res
    results = {term: tf._integrals[key] for term, key in keys.items()}

    components: dict[str, float] = {}
    err = 0.0
    for label, (c, term) in zip(labels, direct):
        res = results[term]
        err += cN * abs(c) * res.error_estimate
        components[label] = cN * c * res.value
    cross_value = None
    if cross is not None:
        cross_value = cN * sum(c * results[term].value for c, term in cross)
    unconverged = sum(not res.converged for res in results.values())  # each integral once
    return FunctionalValue(sum(components.values()), components, err, cross_value, unconverged)
