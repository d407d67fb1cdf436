"""Minimizing sequences and Rayleigh-quotient scans.

The sequences have radial factor w(r) = r^{-(N-4-2m)/2 + eps} X_1^{(-1+a_1)/2}
... X_K^{(-1+a_K)/2} times a smooth cutoff phi, optionally carried on a
spherical mode phi_k.  Their quotients converge (logarithmically in the a_i,
polynomially in eps) to the sharp constants as the parameters shrink in the
order eps, then a_1, ..., then a_K.

Every integral splits at the cutoff's inner radius rho.  On (0, rho] the
cutoff is identically 1 and the densities have the exact closed form
e^{-2 eps s} * prod X_i^{-1+a_i} * (polynomial in eta, B, X-products); this
is what lets the scans see the logarithmically deep mass that no r-space
sample could represent.  With one log factor the closed forms, read as
polynomials in (eps, X_1, a_1), built once per quotient side and evaluated
at each quotient's a_1, give the integral over (0, rho] as a column sum
of Q(b) = int_0^rho r^{-1+2eps} X_1^b dr, incomplete gamma functions taken
in closed form; where a deficit's sharp constant cancels a level that
diverges as eps -> 0, the identity
eps Q(b) = -(b/2) Q(b+1) + (1/2) rho^{2eps} X_1(rho)^b trades it for a
closed-form boundary term.  With K >= 2 log factors the closed forms are
evaluated as float arrays in s = ln(1/r) and integrated by quadrature,
both sides' half-line integrals in lockstep, one integrand call per round,
each node group's part of them computed once per round for both sides.
On [rho, outer] every quotient integrates the full profile (with cutoff
derivatives), evaluated by jet arithmetic in r, through one zone rule that
starts both sides together: one integrand call on the zone's 60 nodes
gives every density of the quotient, and the sides bisect on in lockstep
where they must, one integrand call per round.  The quadrature hands each
integrand its round's node groups, each distinct node array once with the
sides evaluated on it (:func:`rellich.quadrature._round`), so the sides
that share nodes share their densities' work.  A single-log quotient runs
just these two zone quadratures, one per side.  The profile's factors that
the nodes alone fix (the cutoff, ln r, the X_i and their logs) are shared
by every quotient that reaches the same nodes.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import DomainError, QuadratureError
from .iterlog import xk_values_from_s
from .quadrature import (
    QuadratureResult,
    QuadratureSpec,
    _halfline_many,
    _integrate_many,
    _q_beta,
    count_quadrature,
)
from .radial import (
    RadialProfile,
    SphericalMode,
    TestFunction,
    _KIND_ORDERS,
    _Int,
    _jet_densities,
    _v,
    _v_exponent,
)
from .taylor import Jet, _memoized
from .verify import REGISTRY

__all__ = [
    "CutoffSpec",
    "MinSeqParams",
    "ScanFamily",
    "ScanResult",
    "build_minimizer",
    "rayleigh_quotient",
    "scan_to_limit",
    "default_schedule",
    "scan_result_csv",
]


@functools.cache
def _smoothstep_coeffs(n: int) -> tuple[int, ...]:
    """Ascending coefficients of the degree-(2n+1) smoothstep with n flat
    derivatives at both ends; S(0)=0, S(1)=1."""
    coeffs = [0] * (2 * n + 2)
    for j in range(n + 1):
        coeffs[n + j + 1] = (-1) ** j * math.comb(n + j, j) * math.comb(2 * n + 1, n - j)
    return tuple(coeffs)


@dataclass(frozen=True)
class CutoffSpec:
    """Radial cutoff: 1 on [0, inner], 0 on [outer, D], a polynomial
    smoothstep of degree 2*smoothness_order+1 in between."""

    inner_radius: float = 0.5
    outer_radius: float = 1.0
    smoothness_order: int = 4

    def __post_init__(self):
        if not 0.0 < self.inner_radius < self.outer_radius:
            raise DomainError("need 0 < inner_radius < outer_radius")
        if self.smoothness_order < 1:
            raise DomainError("smoothness_order must be >= 1")

    def _coeffs(self) -> tuple[int, ...]:
        return _smoothstep_coeffs(self.smoothness_order)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        t = np.clip((r - self.inner_radius) / (self.outer_radius - self.inner_radius), 0.0, 1.0)
        coeffs = self._coeffs()
        s = np.zeros_like(t)
        for c in reversed(coeffs):
            s = s * t + c
        return 1.0 - s

    def jet(self, J: Jet) -> Jet:
        width = self.outer_radius - self.inner_radius
        t = (J - self.inner_radius) * (1.0 / width)
        coeffs = self._coeffs()
        # Horner from a zero jet: its first step leaves the top coefficient
        # in the value row and +0.0 in the others, as t * 0.0 + top does
        s = t * 0.0 + float(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            s = s * t + float(c)
        phi = (1.0 - s).coeffs
        inner = J.value <= self.inner_radius
        outer = J.value >= self.outer_radius
        flat = inner | outer
        rows = [np.where(outer, 0.0, np.where(inner, 1.0, phi[0]))]
        rows += [np.where(flat, 0.0, c) for c in phi[1:]]
        return Jet(rows)


@dataclass(frozen=True)
class MinSeqParams:
    """Parameters (N, m, eps, a_1..a_K, cutoff, mode) of a minimizing sequence.

    a_i = 1 switches the i-th iterated-log factor off (exponent 0), which is
    how the pure-power sequences are expressed while keeping K >= 1.
    """

    N: int
    m: float = 0.0
    epsilon: float = 1e-3
    a: tuple[float, ...] = (0.1,)
    cutoff: CutoffSpec = field(default_factory=CutoffSpec)
    mode_k: int = 0

    def __post_init__(self):
        if self.N < 5 or self.N != int(self.N):
            raise DomainError(f"dimension must be an integer >= 5, got {self.N}")
        if not 0 <= self.m < (self.N - 4) / 2:
            raise DomainError(f"need 0 <= m < (N-4)/2, got m={self.m}")
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if len(self.a) < 1:
            raise DomainError("need at least one log-factor exponent (a_1 = 1 disables it)")
        if any(not 0.0 < ai <= 1.0 for ai in self.a):
            raise DomainError(f"every a_i must lie in (0, 1], got {self.a}")
        if self.mode_k < 0 or self.mode_k != int(self.mode_k):
            raise DomainError("mode_k must be a nonnegative integer")

    @property
    def power_exponent(self) -> float:
        """Exponent of the leading power: -(N-4-2m)/2 + eps."""
        return -_v_exponent(self.N, self.m) + self.epsilon


def _fresh_node_jets(J: Jet, cutoff: CutoffSpec, K: int) -> tuple:
    """(phi(J), ln J, ln X_1, ..., ln X_K, X_1, ..., X_K) at the jet J, with
    X_1 = 1/(1 - ln J) and X_{i+1} = 1/(1 - ln X_i)."""
    logs, xs = [J.log()], []
    for _ in range(K):
        xs.append(1.0 / (1.0 - logs[-1]))
        logs.append(xs[-1].log())
    return (cutoff.jet(J), *logs, *xs)


# The factors of a sequence member's profile that its nodes alone fix (see
# _fresh_node_jets) are shared by every member with the same cutoff and K:
# each cutoff-zone quotient starts on the zone's same 60 nodes (120 after one
# refinement), so a scan-limits pass reaches 4 or 5 keys (cutoff, K, node
# array), about 11 KiB of jets each.  The store keeps the latest
# _NODE_JETS_SIZE.
_NODE_JETS_SIZE = 16
_node_jets = _memoized(_fresh_node_jets, _NODE_JETS_SIZE)


def build_minimizer(params: MinSeqParams) -> TestFunction:
    """Assemble the sequence member as a TestFunction with analytic derivatives.

    The profile is r^{-(N-4-2m)/2+eps} * prod_i X_i^{(-1+a_i)/2} * phi(r),
    differentiated through the iterated-log chain rule by jet propagation.
    Its node-only factors come from the shared store (``_node_jets``); only
    the powers r^q and X_i^{e_i} are the member's own.
    """
    if params.cutoff.smoothness_order < 4:
        raise DomainError("cutoff smoothness_order must be >= 4 (four derivatives needed)")
    q = params.power_exponent
    exponents = [(-1.0 + ai) / 2.0 for ai in params.a]
    cutoff, K = params.cutoff, len(params.a)

    def fn(J: Jet) -> Jet:
        phi, log, *chain = _node_jets(J, cutoff, K)
        out = J.power(q, log)
        for e, x_log, x in zip(exponents, chain, chain[K:]):
            if e != 0.0:
                out = out * x.power(e, x_log)
        return out * phi

    profile = RadialProfile(fn, support=(0.0, cutoff.outer_radius), origin_order=q)
    return TestFunction(profile, SphericalMode(params.N, params.mode_k))


class ScanFamily(Enum):
    """Rayleigh-quotient families, each the scan of one sharp inequality of
    the verification registry, its ``target``, which has the family's name
    unless a second one is given.  A family is looked up by either name."""

    def __new__(cls, value: str, target: str | None = None):
        family = object.__new__(cls)
        family._value_, family.target = value, REGISTRY[target or value]
        return family

    @classmethod
    def _missing_(cls, name):
        return next((family for family in cls if family.target.name == name), None)

    RELLICH_IMPROVED = "rellich-improved"
    RELLICH_GRAD_IMPROVED = "rellich-gradient-improved"
    WEIGHTED_RELLICH_IMPROVED = "weighted-rellich-improved", "rellich-weighted-improved"
    WEIGHTED_GRAD_IMPROVED = "weighted-gradient-improved", "rellich-gradient-weighted-improved"
    AMN = "amn", "rellich-gradient-weighted"
    DEFICIT_VGRAD = "rellich-deficit-vgrad"
    DEFICIT_VLAP = "rellich-deficit-vlap"
    GRAD_DEFICIT_VGRAD = "gradrellich-deficit-vgrad"
    VLAP_RADIAL_EXCESS = "v-laplacian-radial-excess"
    GRAD_DEFICIT_VLAP = "gradrellich-deficit-vlap"
    GRADIENT_CONSTANT = "rellich-gradient"


# --------------------------------------------------------------------------
# The scan families, read from the registry.
#
# Each family scans one sharp inequality rest >= constant * den of the
# verification registry, declared there once as (rest, constant, den) of
# (coefficient, integral) pairs (``verify.Target.sharp``).  Its quotient is
# rest / den and its constant is the declared one.  The integrals are read as
# they are: _terms admits an _Int of the sequence member u (shift None) or of
# v = r^{(N-4-2m)/2} u (shift (N-4-2m)/2) whose density is h^2, (L_k h)^2
# (n = 1), the "gradient" h'^2 + c_k h^2/r^2 or the "radial-gradient" h'^2,
# neither of the companion f2 nor series-weighted, at the one weight w that
# makes it homogeneous: 2 p + w - 2 (order + 2 n) = -1, with p = -(N-4-2m)/2
# for u, 0 for v, and order the derivatives the kind takes.  Its density on
# (0, inner] is then r^{-1+2eps} prod X_i^{-1+a_i} times a closed form read
# from its kind and side (_closed_form), so a registry target whose
# integrals pass the rule needs only its ``sharp`` declaration to be scanned.
#
# A quotient side is a tuple of (coefficient, integral, weight) terms, with
# the weight "series" = sum_{i<K} (X_1...X_i)^2, "pk2" = (X_1...X_K)^2 or
# None.  A series integral c * t of den carries S_K = "series" + "pk2": it
# puts -constant * c * t * "series" in the numerator and c * t * "pk2" in the
# denominator.  On (0, inner], where the cutoff is 1, one closed-form algebra
# gives the densities and weights; the quadrature in s (K >= 2) reads it with
# float arrays, the single-log reduction with polynomials in (eps, X_1, a_1).
# On the cutoff zone _OuterTerms builds the same densities from jets of u.


_CLOSED_KINDS = (("square", 0), ("square", 1), ("gradient", 0), ("radial-gradient", 0))


def _terms(pairs, N: int, m, weight: str | None = None) -> tuple:
    """Registry (coefficient, integral) pairs as (coefficient, integral,
    weight) terms of sequence members at (N, m), the coefficients kept
    exact; ValueError for an integral with no closed form on (0, inner]
    (see the block comment above)."""
    v = _v(N, m)
    for _, t in pairs:
        p = -v if t.shift is None else 0
        closed = (t.kind, t.n) in _CLOSED_KINDS and not (t.f2 or t.series) and t.shift in (None, v)
        if not closed or 2 * p + t.weight - 2 * (_KIND_ORDERS[t.kind] + 2 * t.n) != -1:
            raise ValueError(f"the registry integral {t} has no closed form on (0, inner] at N = {N}, m = {m}")
    return tuple((c, t, weight) for c, t in pairs)


def _float_terms(terms) -> tuple:
    """The terms with float coefficients, as the float evaluators take them."""
    return tuple((float(c), t, w) for c, t, w in terms)


@functools.cache
def _exact_quotient(family: ScanFamily, N: int, m) -> tuple[tuple, tuple, Fraction]:
    """(numerator, denominator, constant) of the family at (N, m), exact, from
    its registry target's declaration (see the block comment above)."""
    rest, constant, den = family.target.sharp(N, Fraction(m))
    num, dens = _terms(rest, N, m), ()
    for c, t in den:
        weight = None
        if t.series:
            t, weight = replace(t, series=False), "pk2"
            num += _terms([(-constant * c, t)], N, m, "series")
        dens += _terms([(c, t)], N, m, weight)
    return num, dens, constant


@functools.cache
def _quotient(family: ScanFamily, N: int, m) -> tuple[tuple, tuple, float]:
    """:func:`_exact_quotient` in floats."""
    num, den, constant = _exact_quotient(family, N, m)
    return _float_terms(num), _float_terms(den), float(constant)


# A side's density on (0, inner] in the single-log reduction, with a_1 a
# variable (see _carried_forms), depends on the sequence member only through
# (N, m, k), so one build serves every quotient of a scan: float terms at a
# float m for the quotients, exact ones at a Fraction m for _exact_limit,
# which must not share an entry (Fraction(0) == 0.0 and the two hash alike,
# hence typed).  The key is constants only, never eps or a_1.  A scan-limits
# pass reaches 30-33 keys (terms, N, m, k), 109-121 KiB live; the store
# keeps the latest _CARRIED_SIZE.
_CARRIED_SIZE = 64


@functools.lru_cache(maxsize=_CARRIED_SIZE, typed=True)
def _carried_density(terms, N: int, m, k: int) -> _Poly2:
    """The combination's density over common = r^{-1+2eps} X_1^{-1+a_1} as
    a polynomial in (eps, X_1, a_1), in the number type of m; one log
    factor, so the correction series is empty.  Read it at a_1 with
    :func:`_at_a1`."""
    return _closed_density(terms, *_carried_forms(N, m, k))


def _validate(family: ScanFamily, params: MinSeqParams) -> None:
    """DomainError for parameters the family's registry target refuses: an m
    its declaration has no closed form at (m != 0 for a target declared
    without a weight), an m its ``applies`` refuses, and a mode k >= 1 unless
    its constant is a minimum over modes (``per_mode``)."""
    try:
        _exact_quotient(family, params.N, params.m)
    except ValueError:
        raise DomainError(f"{family.value} scans use m = 0") from None
    if params.mode_k and family.target.per_mode is None:
        raise DomainError(f"{family.value} scans use the radial mode")
    reason = family.target.applies and family.target.applies(params)
    if reason:
        raise DomainError(f"{family.value} scans: {reason}")


def scan_theoretical(family: ScanFamily, params: MinSeqParams) -> float:
    """The sharp constant the family's quotients approach: its registry
    target's, or, where that is a minimum over the modes (amn's a_{m,N}), the
    candidate of the parameters' mode (``per_mode``, amn's A(k, N, m))."""
    _validate(family, params)
    per_mode = family.target.per_mode
    if per_mode is not None:
        return float(per_mode(params.mode_k, params.N, params.m))
    return _quotient(family, params.N, params.m)[2]


def _split_deficit(terms):
    """A leading int (L_k u)^2 - c * p, p = int u^2 or int |grad u|^2, as
    (p, c), and the terms after it; (None, terms) when the terms do not start
    with one.  The registry declares these deficits at their sharp constants,
    which the factored form needs (see :func:`_deficit_form`).  The terms are
    admitted ones (see :func:`_terms`), so the kinds and shifts tell them."""
    if len(terms) > 1:
        (one, lap, w0), (c, p, w) = terms[:2]
        u_side = lap.shift is None and p.shift is None and (one, w0, w) == (1, None, None)
        if u_side and (lap.n, p.n) == (1, 0) and p.kind != "radial-gradient":
            return (p, -c), terms[2:]
    return None, terms


def _combine(terms, density, weight, deficit=None):
    """sum of coeff * density(t) * weight(w) over the terms, in term order.

    ``weight`` returns None for an empty series, whose terms drop out.  With
    ``deficit``, a leading (L_k u)^2 - c * p (see :func:`_split_deficit`) is
    taken as deficit(p, c) instead.
    """
    acc = None
    if deficit is not None:
        lead, rest = _split_deficit(terms)
        if lead is not None:
            acc, terms = deficit(*lead), rest
    for coeff, t, w in terms:
        wv = None if w is None else weight(w)
        if w is not None and wv is None:
            continue
        x = density(t)
        if coeff != 1.0:
            x = coeff * x
        if wv is not None:
            x = x * wv
        acc = x if acc is None else acc + x
    return acc


def _log_products(xs: list) -> list:
    """The products P_i = X_1...X_i of the iterated logs xs."""
    prods = [xs[0]]
    for x in xs[1:]:
        prods.append(prods[-1] * x)
    return prods


def _eta_b(a, prods):
    """(eta, B): eta = sum_i (-1 + a_i) P_i and B = r eta' = sum_i (-1 + a_i)
    P_i Q_i with Q_i = P_1 + ... + P_i."""
    eta = B = q = 0
    for ai, p in zip(a, prods):
        q = q + p
        eta = eta + (-1 + ai) * p
        B = B + (-1 + ai) * p * q
    return eta, B


def _sq(x):
    return x * x


def _weight(prods: list, w: str):
    """The weight w on the K products: "pk2" = P_K^2, "series" = P_1^2 + ...
    + P_{K-1}^2, or None for the empty series at K = 1."""
    if w == "pk2":
        return _sq(prods[-1])
    if len(prods) == 1:
        return None
    out = _sq(prods[0])
    for p in prods[1:-1]:
        out = out + _sq(p)
    return out


class _Forms(NamedTuple):
    """The closed forms of a sequence member on (0, inner]: with
    u = r^{q0+eps} prod X_i^{(-1+a_i)/2}, r u'/u = q0 + gamma and
    r^2 L_k u / u = A0 + delta, where A0 is free of eps and the a_i and every
    monomial of delta carries eps, eta or B; Lv is r^2 L_k v / v for
    v = r^{(N-4-2m)/2} u.  q0 and A0 are in the number type of m."""

    q0: object
    ck: int
    A0: object
    delta: object
    gamma: object
    Lv: object


def _closed_forms(N: int, m, k: int, eps, eta, B) -> _Forms:
    """The forms at mode k, with q0 = -(N-4-2m)/2, in any number type that
    eps, eta and B share: float arrays in s, or polynomials in (eps, X_1)
    with float or exact coefficients.  Every literal is an integer or a
    Fraction, so the forms stay exact where m, eps, eta and B are."""
    q0 = -_v_exponent(N, m)
    ck = k * (N + k - 2)
    delta = (
        eps * (2 * q0 + N - 2 + eps)
        + (q0 + eps + Fraction(N - 2, 2)) * eta
        + eta * eta / 4
        + B / 2
    )
    gamma = eps + eta / 2
    Lv = gamma * (gamma + N - 2) + B / 2 - ck
    return _Forms(q0, ck, q0 * (q0 + N - 2) - ck, delta, gamma, Lv)


def _closed_form(f: _Forms, t: _Int):
    """An admitted integral's density (see :func:`_terms`) over the common
    factor r^{-1+2eps} prod X_i^{-1+a_i}, read from its kind and side: 1 for
    h^2; for (L_k h)^2 the square of r^2 L_k h / h, A0 + delta for u and Lv
    for v; for h'^2 the square of r h'/h, q0 + gamma for u and gamma for v,
    and c_k more for the gradient."""
    u = t.shift is None
    if t.kind == "square":
        return (_sq(f.A0 + f.delta) if u else _sq(f.Lv)) if t.n else 1
    out = _sq(f.q0 + f.gamma) if u else _sq(f.gamma)
    return out + f.ck if t.kind == "gradient" else out


def _deficit_form(f: _Forms, p: _Int, c):
    """int (L_k u)^2 - c * p (see :func:`_split_deficit`) in factored form,
    delta (2 A0 + delta), less c * gamma (2 q0 + gamma) for the gradient.
    The constant parts cancel exactly where c is sharp: c = A0^2 for u^2,
    c * q0^2 = A0^2 for the gradient."""
    out = f.delta * (2 * f.A0 + f.delta)
    if p.kind == "gradient":
        out = out - c * (f.gamma * (2 * f.q0 + f.gamma))
    return out


def _closed_density(terms, forms: _Forms, prods: list):
    """A combination's closed form over the common factor, with one series
    term per log factor in prods."""
    return _combine(
        terms,
        functools.partial(_closed_form, forms),
        functools.partial(_weight, prods),
        functools.partial(_deficit_form, forms),
    )


def _inner_forms(params: MinSeqParams, s: np.ndarray) -> tuple:
    """The part of every density on (0, inner] that the node set s = ln(1/r)
    alone fixes: (the common factor e^{-2 eps s} prod X_i^{-1+a_i}, the
    closed forms, the products X_1...X_i)."""
    xs = xk_values_from_s(len(params.a), s)
    prods = _log_products(xs)
    common = np.exp(-2.0 * params.epsilon * s)
    for ai, x in zip(params.a, xs):
        if ai != 1.0:
            common = common * x ** (-1.0 + ai)
    forms = _closed_forms(params.N, params.m, params.mode_k, params.epsilon, *_eta_b(params.a, prods))
    return common, forms, prods


def _inner_integrals(params: MinSeqParams, sides, spec: QuadratureSpec) -> list[QuadratureResult]:
    """Each combination's integral over (0, inner], in s = ln(1/r), for the
    multi-log quadrature.

    No catastrophic subtraction occurs even at very deep s: the deficits are
    factored and the common factor is applied last.  Both sides' half-line
    integrals run in lockstep (:func:`rellich.quadrature._halfline_many`),
    one integrand call per round, and each node group of a round gets its
    :func:`_inner_forms` once: the sides share their look-ahead panels'
    nodes."""

    def density(groups):
        out = [None] * len(sides)
        for s, which in groups:
            common, closed, prods = _inner_forms(params, s)
            for i in which:
                out[i] = common * _closed_density(sides[i], closed, prods)
        return out

    return _halfline_many(density, len(sides), math.log(1.0 / params.cutoff.inner_radius), spec)


# The adaptive rule bisects every interval while there are at most 16, so a
# cutoff-zone integral refines uniformly until it stops, and the scans' zone
# integrals never stop before the zone's 4 equal panels (most stop on them,
# the rest on 8).  So they start there, and both sides of a quotient start
# together: one integrand call on the 60 nodes gives every density of the
# quotient and one sums call both sides' 4 panel rules, where a side alone
# would make three calls on 15, 30 and 60 nodes.  They bisect on from there
# in lockstep, one integrand call per round for both sides.
_ZONE_PANELS = 4


class _OuterTerms:
    """Jet-evaluated densities of the integrals on the cutoff transition zone.

    Each integral is of u, or of v = r^shift u, and
    :func:`rellich.radial._jet_densities` forms its density from one jet of u,
    for every integral of a quotient's sides at once.  The series weights
    read the iterated logs X_i from the node-only jets that u's profile jet
    used (``_node_jets``)."""

    def __init__(self, params: MinSeqParams):
        self.params = params
        tf = build_minimizer(params)
        self.mode = tf.mode
        self.u = tf.profile

    def densities(self, r: np.ndarray, ints) -> dict[_Int, np.ndarray]:
        """The densities of the integrals ints at r, and only those, from one
        jet of u (see :func:`rellich.radial._jet_densities`)."""
        ints = list(ints)
        return dict(zip(ints, _jet_densities(self.u, ints, [(r, range(len(ints)))], self.mode)))

    def log_values(self, r: np.ndarray) -> list[np.ndarray]:
        """[X_1(r), ..., X_K(r)], the value rows of the node-only jets."""
        K = len(self.params.a)
        return [x.value for x in _node_jets(Jet.variable(r, 0), self.params.cutoff, K)[K + 2 :]]

    def integrals(self, sides, spec: QuadratureSpec) -> list[float]:
        """Each combination's integral over the cutoff zone [inner, outer],
        all started on the zone's _ZONE_PANELS equal panels, cut where
        bisection would cut them, and bisected in lockstep
        (:func:`rellich.quadrature._integrate_many`).  The combinations
        of one node group of a round share one :meth:`densities` call,
        which computes their integrals' densities and only those."""
        ints = [{t for _, t, _ in terms} for terms in sides]

        def density(groups):
            out = [None] * len(sides)
            for r, which in groups:
                p = self.densities(r, set().union(*(ints[i] for i in which)))
                weighted = any(w is not None for i in which for _, _, w in sides[i])
                prods = _log_products(self.log_values(r)) if weighted else None
                for i in which:
                    out[i] = _combine(sides[i], p.__getitem__, lambda w: _weight(prods, w))
            return out

        cuts = [self.params.cutoff.inner_radius, self.params.cutoff.outer_radius]
        while len(cuts) <= _ZONE_PANELS:
            cuts = [c for lo, hi in zip(cuts, cuts[1:]) for c in (lo, 0.5 * (lo + hi))] + cuts[-1:]
        results = _integrate_many(density, len(sides), cuts[0], cuts[-1], spec, cuts[1:-1])
        return [res.value for res in results]


# --------------------------------------------------------------------------
# Exact reduction of the single-log quotients on (0, inner].
#
# With one log factor the densities on (0, rho], rho = inner, are
# r^{-1+2eps} X_1^{-1+a} P(eps, X_1) with P polynomial; the cutoff is 1 there.
# Writing Q(b) = int_0^rho r^{-1+2eps} X_1^b dr, every inner integral is a sum
# of c_j(eps) Q(-1+a+j).  Since d/dr [r^{2eps} X_1^b] = r^{-1+2eps}
# (2 eps X_1^b + b X_1^{b+1}) and r^{2eps} X_1^b -> 0 at the origin,
#
#     eps Q(b) = -(b/2) Q(b+1) + (1/2) rho^{2eps} X_1(rho)^b,
#
# which eliminates the divergent-as-eps->0 integrals Q(-1+a) and Q(a) for a
# closed-form boundary term.  In a deficit the sharp constants make their
# coefficients vanish to order eps exactly, so the reduced form has bounded
# coefficients and is evaluable at denormal eps, where a quadrature would
# have to cancel ~Q(a) of signed mass; this mirrors the limit computation that
# proves the best constants.  A plain quotient (amn, rellich-gradient) has
# nothing to cancel and sums its Q(-1+a) ~ (2 eps)^{a-2} column as it is,
# until that leaves the double range below eps ~ 1e-150 (DomainError).  Every
# Q(b) is taken in closed form (see _q_beta), so the reduction runs no
# quadrature; the cutoff zone is integrated from jets.
#
# P depends on the step only through a_1, so each side's P is built once, as
# a polynomial in (eps, X_1) whose coefficients are polynomials in a_1
# (_Poly2 over _PolyA, see _carried_forms), and kept in a store keyed by
# constants (_carried_density); a quotient reads it at its a_1, each (eps, X)
# cell by Horner's rule (_at_a1), in floats, and _exact_limit reads the same
# build in Fractions at a_1 = 0.


class _PolyA:
    """Polynomial in a_1: c[l] is the coefficient of a_1^l, a list of
    Python numbers of one type, which it coerces no more than :class:`_Poly2`
    does; the coefficients of a carried :class:`_Poly2`."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __bool__(self):
        return any(self.c)

    def __add__(self, other):
        if not isinstance(other, _PolyA):
            return _PolyA([self.c[0] + other, *self.c[1:]])
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        return _PolyA([x + y for x, y in zip(a, b)] + a[len(b) :])

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, _Poly2):
            return NotImplemented  # (a_1 - 1) * X in _eta_b: the _Poly2 multiplies
        if not isinstance(other, _PolyA):
            return _PolyA([x * other for x in self.c])
        a, b = self.c, other.c
        out = [a[0] - a[0]] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b, start=i):
                out[j] += x * y
        return _PolyA(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _PolyA([x / other for x in self.c])


class _Poly2:
    """Polynomial in (eps, X): c[i][j] is the coefficient of eps^i X^j, a
    dense rectangle of Python numbers, or of :class:`_PolyA` where a_1 is
    carried, with ``zero`` the zero of their type.  It coerces nothing:
    float coefficients give the float evaluation, Fraction ones stay
    exact."""

    __slots__ = ("c", "zero")

    def __init__(self, c, zero):
        self.c = c
        self.zero = zero

    @classmethod
    def eps(cls, zero) -> "_Poly2":
        return cls([[zero], [zero + 1]], zero)

    @classmethod
    def x(cls, zero) -> "_Poly2":
        return cls([[zero, zero + 1]], zero)

    def __add__(self, other):
        if not isinstance(other, _Poly2):
            other = _Poly2([[other]], self.zero)
        ni = max(len(self.c), len(other.c))
        nj = max(len(self.c[0]), len(other.c[0]))
        out = [row + [self.zero] * (nj - len(row)) for row in self.c]
        out += [[self.zero] * nj for _ in range(ni - len(out))]
        for row, add in zip(out, other.c):
            for j, v in enumerate(add):
                row[j] += v
        return _Poly2(out, self.zero)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if not isinstance(other, _Poly2):
            return _Poly2([[x * other for x in row] for row in self.c], self.zero)
        a, b = self.c, other.c
        nj = len(b[0])
        out = [[self.zero] * (len(a[0]) + nj - 1) for _ in range(len(a) + len(b) - 1)]
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                if v:
                    for p, brow in enumerate(b):
                        orow = out[i + p]
                        for q, w in enumerate(brow):
                            orow[j + q] += v * w
        return _Poly2(out, self.zero)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _Poly2([[x / other for x in row] for row in self.c], self.zero)

    def x_columns(self) -> list[list]:
        """Coefficient-in-eps lists, one per power of X."""
        return [list(col) for col in zip(*self.c)]


def _polyval(x: float, c: list[float]) -> float:
    """sum_i c[i] x^i by Horner's rule, in numpy's polyval order."""
    out = c[-1] + x * 0.0
    for ci in reversed(c[:-1]):
        out = ci + out * x
    return out


def _reduce_columns(poly: _Poly2, a1):
    """Rewrite sum_j col_j(eps) Q(-1+a+j) with the divergent levels removed
    where they cancel.

    Eliminates level 0, then level 1, while the level's column vanishes at
    eps = 0 (as the sharp constants make it in a deficit); the residual
    constant coefficient is pure round-off (zero in exact columns) and is
    zeroed before dividing by eps.  Returns (the first level kept, the
    columns from it on as eps-polynomials, [(eps-poly, beta), ...]) where
    each boundary pair contributes (1/2) * poly(eps) * inner^{2eps}
    X_1(inner)^beta.
    """
    cols = poly.x_columns()
    while len(cols) < 3:
        cols.append([poly.zero])
    boundary_terms: list[tuple[list, object]] = []
    for j in range(2):
        c = cols[j]
        scale = max(abs(v) for v in c)
        if scale == 0:
            continue
        if abs(c[0]) > 1e-9 * scale:
            return j, cols[j:], boundary_terms
        cprime = c[1:]
        if not cprime:
            continue
        beta = -1 + a1 + j
        nxt = cols[j + 1]
        merged = [poly.zero] * max(len(nxt), len(cprime))
        for i, v in enumerate(nxt):
            merged[i] += v
        for i, v in enumerate(cprime):
            merged[i] += (-beta / 2) * v
        cols[j + 1] = merged
        boundary_terms.append((cprime, beta))
    return 2, cols[2:], boundary_terms


def _carried_forms(N: int, m, k: int) -> tuple[_Forms, list]:
    """The closed forms of the single-log member as polynomials in (eps,
    X_1) with :class:`_PolyA` coefficients, a_1 carried as a variable, in
    the number type of m, and its products [P_1] = [X_1]."""
    z = m - m
    zero = _PolyA([z])
    prods = [_Poly2.x(zero)]
    a1 = _PolyA([z, z + 1])
    return _closed_forms(N, m, k, _Poly2.eps(zero), *_eta_b((a1,), prods)), prods


def _at_a1(poly: _Poly2, a1) -> _Poly2:
    """The carried polynomial at a_1 = a1, each (eps, X) cell by Horner's
    rule in a_1: floats from a float build, exact from an exact build at an
    exact a1."""
    rows = []
    for row in poly.c:
        out = []
        for cell in row:
            c = cell.c
            v = c[-1]
            for ci in c[-2::-1]:
                v = ci + v * a1
            out.append(v)
        rows.append(out)
    return _Poly2(rows, poly.zero.c[0])


class _Reduction:
    """Single-log integrals over (0, inner] through the exact reduction: a
    column sum of closed-form Q(beta) and boundary terms, with no quadrature;
    DomainError where the sum leaves the double range.

    An instance serves one parameter set, so each Q(beta) is evaluated once
    for every integral it takes; the densities it reads at the set's a_1
    are built once for every quotient, in floats (:func:`_carried_density`).
    """

    def __init__(self, params: MinSeqParams):
        if len(params.a) != 1:
            raise DomainError("the exact reduction takes the single-log sequence (K = 1)")
        self.params = params
        self._q: dict = {}

    def q_beta(self, beta: float) -> float:
        if beta not in self._q:
            self._q[beta] = _q_beta(beta, self.params.epsilon, self.params.cutoff.inner_radius)
        return self._q[beta]

    def poly(self, terms) -> _Poly2:
        """The combination's density over common = r^{-1+2eps} X_1^{-1+a}."""
        p = self.params
        return _at_a1(_carried_density(terms, p.N, float(p.m), p.mode_k), p.a[0])

    def integral(self, terms) -> float:
        """The combination's integral over (0, inner]."""
        a1, eps = self.params.a[0], self.params.epsilon
        start, cols, boundary_terms = _reduce_columns(self.poly(terms), a1)
        total = 0.0
        for j, c in enumerate(cols, start=start):
            coeff = _polyval(eps, c)
            if coeff != 0.0:
                total += coeff * self.q_beta(-1.0 + a1 + j)
        rho = self.params.cutoff.inner_radius
        x_rho = 1.0 / (1.0 - math.log(rho))
        for c, beta in boundary_terms:
            coeff = _polyval(eps, c)
            if coeff != 0.0:
                total += 0.5 * coeff * rho ** (2.0 * eps) * x_rho**beta
        if not math.isfinite(total):
            raise DomainError(f"single-log integral overflows at eps = {eps}")
        return total


def _exact_limit(family: ScanFamily, N: int, m=0, mode_k: int = 0) -> Fraction:
    """The limit of the family's single-log quotients as eps -> 0, then
    a -> 0, in exact arithmetic.

    Each side is dominated by the Q(-1+a+j) of its first kept level j: on a
    plain side Q(-1+a) ~ (2 eps)^{a-2} outgrows every other term as
    eps -> 0; on a reduced side Q(1+a) -> X_1(rho)^a / a outgrows the higher
    levels, the boundary terms and the cutoff zone, which stay bounded as
    a -> 0.  Both sides of every family keep the same first level, so the
    limit is the ratio of their first kept columns at eps = 0, a = 0, read
    from the same registry terms and carried closed forms as the float
    quotient, built exactly (:func:`_carried_density` at a Fraction m)."""
    _validate(family, MinSeqParams(N, float(m), mode_k=mode_k))
    m, a = Fraction(m), Fraction(0)
    num, den = (
        _reduce_columns(_at_a1(_carried_density(terms, N, m, mode_k), a), a)[1][0][0]
        for terms in _exact_quotient(family, N, m)[:2]
    )
    return Fraction(num) / den


# A multi-log side is refused (DomainError) when the error estimate of its
# inner quadrature exceeds this share of the side's total, so a returned
# quotient is good to about this relative error.  As eps falls, the log-deep
# mass outruns the half-line rule and the estimate grows with the error, by
# about 100x per factor 100 in eps.  On rellich-improved's numerator with
# a = (0.05, 0.05) the share is 6.6e-8, 1.7e-7 and 4.0e-7 at eps = 1e-8 for
# N = 6, 9 and 30, and 9.5e-6, 2.5e-5 and 5.8e-5 at 1e-10; by eps = 1e-16 it
# exceeds 1 and the quotients are off by orders of magnitude.  Every step of
# the default K = 2 schedules stays at or below 5.3e-11 (N = 6), 2.7e-10
# (N = 9) and 4.8e-9 (N = 30).  ``converged`` cannot serve as the guard: it
# is False on most default K = 2 steps already, whose rel_tol is far below
# what a quotient needs.
_MAX_INNER_ERR_SHARE = 1e-6


def rayleigh_quotient(
    family: ScanFamily,
    params: MinSeqParams,
    quad: QuadratureSpec | None = None,
) -> float:
    """Evaluate one Rayleigh quotient of the family at the given parameters.

    The numerator's correction series runs over the sequence's K =
    len(params.a) log factors.  Every integral is the one over (0, inner]
    plus the one over the cutoff zone, taken from jets.  On (0, inner] a
    single-log quotient goes through the exact reduction, a column sum of
    closed-form Q(beta): it stays accurate at the smallest eps for the
    deficit families and raises DomainError where a plain quotient's
    divergent levels leave the double range (eps below about 1e-150).
    Multi-log quotients use direct quadrature in s, and raise DomainError
    where its error estimate exceeds ``_MAX_INNER_ERR_SHARE`` of a side.
    Both sides' integrals on either region run in lockstep, one integrand
    call per round, and share the evaluations at the nodes they share (see
    :func:`_inner_integrals` and :class:`_OuterTerms`); each side's integrals
    still count on their own in :func:`count_quadrature`.
    """
    spec = quad or QuadratureSpec()
    _validate(family, params)
    sides = _quotient(family, params.N, params.m)[:2]
    if len(params.a) == 1:
        red = _Reduction(params)
        inner = [(red.integral(terms), None) for terms in sides]
    else:
        inner = [(res.value, res.error_estimate) for res in _inner_integrals(params, sides, spec)]
    totals = []
    for (value, error), zone in zip(inner, _OuterTerms(params).integrals(sides, spec)):
        total = value + zone
        if error is not None and not error <= _MAX_INNER_ERR_SHARE * abs(total):
            raise DomainError(
                f"the s-space quadrature cannot resolve eps = {params.epsilon:g} with"
                f" a = {params.a}: error estimate {error:.2g} on a side of {total:.6g}"
            )
        totals.append(total)
    num, den = totals
    if abs(den) <= spec.abs_tol:
        raise QuadratureError("degenerate denominator in Rayleigh quotient")
    return num / den


@dataclass
class ScanResult:
    family: ScanFamily
    schedule: list[MinSeqParams]
    quotients: list[float]
    theoretical: float
    extrapolated: float
    monotone: bool
    # per step: quadratures behind the quotient that ended converged=False
    unconverged: list[int] = field(default_factory=list)

    def direction_ok(self, slack: float = 1e-9) -> bool:
        return all(q >= self.theoretical - slack and np.isfinite(q) for q in self.quotients)


def scan_to_limit(
    family: ScanFamily,
    schedule: list[MinSeqParams],
    quad: QuadratureSpec | None = None,
) -> ScanResult:
    """Run the quotient along a parameter schedule (eps first, then the a_i).

    Quotients must stay above the theoretical constant; non-monotone scans
    are flagged through ``monotone`` rather than treated as fatal, and each
    step's count of unconverged quadratures is passed on in ``unconverged``.
    """
    if not schedule:
        raise DomainError("empty schedule")
    theoretical = scan_theoretical(family, schedule[0])
    quotients, unconverged = [], []
    for p in schedule:
        with count_quadrature() as counts:
            quotients.append(rayleigh_quotient(family, p, quad))
        unconverged.append(counts.unconverged)
    monotone = all(
        quotients[i + 1] <= quotients[i] + 1e-6 for i in range(len(quotients) - 1)
    )
    return ScanResult(
        family=family,
        schedule=list(schedule),
        quotients=quotients,
        theoretical=theoretical,
        extrapolated=quotients[-1],
        monotone=monotone,
        unconverged=unconverged,
    )


_DEFAULT_EPS_STEPS = (1e-2, 3e-3, 1e-3, 3e-4)
_MIN_EPS = 5e-324  # smallest positive double; the reduced quotient is exact there


def _eps_for_a(a: float) -> float:
    """An eps deep enough that the eps-limit is effectively exhausted at this a.

    The quotients converge like 1/Q with Q ~ (1/a)(1 - (2 eps)^a); keeping
    a * ln(1/eps) large makes the a-decay visible.  Floors at the smallest
    positive double, which the reduced evaluation handles exactly.
    """
    t = 6.0 / a
    return max(math.exp(-t), _MIN_EPS) if t < 700.0 else _MIN_EPS


def default_schedule(
    family: ScanFamily, N: int, m: float = 0.0, mode_k: int = 0, K: int = 1
) -> list[MinSeqParams]:
    """The default limit path on the default cutoff: eps down the fixed
    ladder, then halve each a_i 8 times (2 times when K > 1); only the
    ladder, on the pure power (a_1 = 1), for a per-mode constant (amn's).

    Where the single-log reduction eliminates the numerator's divergent
    levels (K = 1, and no unweighted u-side integral in the numerator outside
    its deficit), eps keeps shrinking with a during the halvings: the limit
    order is eps first, then a_1, ..., a_K, so each a-step should see an
    exhausted eps-limit, otherwise the quotient stalls at the ln(1/eps)
    scale.  Elsewhere eps holds at the ladder's last value: the direct
    quadrature of K >= 2 cannot follow eps that deep, and a plain numerator
    (rellich-gradient's int (L_k u)^2) keeps a divergent level, which leaves
    the double range below eps ~ 1e-150.
    """
    if family.target.per_mode is not None:
        return [MinSeqParams(N, m, eps, (1.0,), mode_k=mode_k) for eps in _DEFAULT_EPS_STEPS]
    halvings = 2 if K > 1 else 8
    a = [0.1] * K
    steps = [MinSeqParams(N, m, eps, tuple(a), mode_k=mode_k) for eps in _DEFAULT_EPS_STEPS]
    _validate(family, steps[0])
    _, rest = _split_deficit(_quotient(family, N, m)[0])
    follow = K == 1 and not any(t.shift is None and w is None for _, t, w in rest)
    for i in range(K):
        for _ in range(halvings):
            a[i] /= 2.0
            eps = _eps_for_a(a[0]) if follow else _DEFAULT_EPS_STEPS[-1]
            steps.append(MinSeqParams(N, m, eps, tuple(a), mode_k=mode_k))
    return steps


def scan_result_csv(result: ScanResult) -> str:
    """Serialize a scan as CSV: step, epsilon, a_1..a_K, quotient, theoretical."""
    K = max(len(p.a) for p in result.schedule)
    buf = io.StringIO()
    header = ["step", "epsilon"] + [f"a{i+1}" for i in range(K)] + ["quotient", "theoretical"]
    buf.write(",".join(header) + "\n")
    for i, (p, qv) in enumerate(zip(result.schedule, result.quotients)):
        row = [str(i), f"{p.epsilon:.17g}"]
        row += [f"{ai:.17g}" for ai in p.a] + [""] * (K - len(p.a))
        row += [f"{qv:.17g}", f"{result.theoretical:.17g}"]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()
