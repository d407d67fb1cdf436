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
polynomials in (eps, X_1), give the integral over (0, rho] as a column sum
of Q(b) = int_0^rho r^{-1+2eps} X_1^b dr, incomplete gamma functions taken
in closed form; where a deficit's sharp constant cancels a level that
diverges as eps -> 0, the identity
eps Q(b) = -(b/2) Q(b+1) + (1/2) rho^{2eps} X_1(rho)^b trades it for a
closed-form boundary term.  With K >= 2 log factors the closed forms are
evaluated as float arrays in s = ln(1/r) and integrated by quadrature.  On
[rho, outer] every quotient integrates the full profile (with cutoff
derivatives), evaluated by jet arithmetic in r, through one zone rule; a
single-log quotient runs just these two zone quadratures.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from . import constants as C
from .errors import DomainError, QuadratureError
from .iterlog import xk_values, xk_values_from_s
from .quadrature import QuadratureSpec, _q_beta, count_quadrature, integrate, integrate_halfline
from .radial import (
    RadialProfile,
    SphericalMode,
    TestFunction,
    _KIND_ORDERS,
    _Integral,
    _jet_density,
    _v_exponent,
)
from .taylor import Jet

__all__ = [
    "CutoffSpec",
    "MinSeqParams",
    "ScanFamily",
    "ScanResult",
    "AsymptoticCase",
    "build_minimizer",
    "rayleigh_quotient",
    "scan_to_limit",
    "default_schedule",
    "leading_order_asymptotics",
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

    def _eta_b_at(self, r, i: int):
        prods = _log_products(xk_values(len(self.a), np.asarray(r, dtype=float)))
        out = _eta_b(self.a, prods)[i]
        return out if isinstance(r, np.ndarray) else float(out)

    def eta(self, r):
        """eta(r) = sum_i (-1 + a_i) X_1...X_i."""
        return self._eta_b_at(r, 0)

    def eta_b(self, r):
        """B(r) = r eta'(r) = sum_i (-1 + a_i) P_i Q_i with Q_i = sum_{j<=i} P_j."""
        return self._eta_b_at(r, 1)


def build_minimizer(params: MinSeqParams) -> TestFunction:
    """Assemble the sequence member as a TestFunction with analytic derivatives.

    The profile is r^{-(N-4-2m)/2+eps} * prod_i X_i^{(-1+a_i)/2} * phi(r),
    differentiated through the iterated-log chain rule by jet propagation.
    """
    if params.cutoff.smoothness_order < 4:
        raise DomainError("cutoff smoothness_order must be >= 4 (four derivatives needed)")
    q = params.power_exponent
    exponents = [(-1.0 + ai) / 2.0 for ai in params.a]
    cutoff = params.cutoff

    def fn(J: Jet) -> Jet:
        out = J**q
        x = J
        for e in exponents:
            x = 1.0 / (1.0 - x.log())
            if e != 0.0:
                out = out * x**e
        return out * cutoff.jet(J)

    profile = RadialProfile(fn, support=(0.0, cutoff.outer_radius), origin_order=q)
    return TestFunction(profile, SphericalMode(params.N, params.mode_k))


class ScanFamily(Enum):
    """Rayleigh-quotient families and the constants their scans approach."""

    RELLICH_IMPROVED = "rellich-improved"              # -> 1 + N(N-4)/8
    RELLICH_GRAD_IMPROVED = "rellich-gradient-improved"  # -> 1/4
    WEIGHTED_RELLICH_IMPROVED = "weighted-rellich-improved"  # -> sigma_bar(m, N)
    WEIGHTED_GRAD_IMPROVED = "weighted-gradient-improved"  # -> 1/4
    AMN = "amn"                                        # -> A(k, N, m), its mode's candidate
    DEFICIT_VGRAD = "rellich-deficit-vgrad"            # -> 4 + N(N-4)/2
    DEFICIT_VLAP = "rellich-deficit-vlap"              # -> 1/2 + 2/(N-2)^2
    GRAD_DEFICIT_VGRAD = "gradrellich-deficit-vgrad"   # -> ((N-4)/2)^2
    VLAP_RADIAL_EXCESS = "v-laplacian-radial-excess"   # -> 2(N-2)^2
    GRAD_DEFICIT_VLAP = "gradrellich-deficit-vlap"     # -> ((N-4)/(2(N-2)))^2
    GRADIENT_CONSTANT = "rellich-gradient"             # -> N^2/4


# --------------------------------------------------------------------------
# The scan families, each declared once.
#
# A quotient is a numerator over a denominator, each a linear combination of
# named density pieces of the sequence member u and of its v-side image
# v = r^{(N-4-2m)/2} u (radial measure dr, sphere area divided out):
#
#     lap_u    (L_k u)^2 r^{N-1-2m}              lap_v    (L_k v)^2 r^3
#     grad_u   (u'^2 + c_k u^2/r^2) r^{N-3-2m}   grad_v   (v'^2 + c_k v^2/r^2) r
#     hardy_u  u^2 r^{N-5-2m}                    rad_v    v'^2 r
#
# A term may carry the weight "series" = sum_{i<K} (X_1...X_i)^2 or
# "pk2" = (X_1...X_K)^2.  On (0, inner], where the cutoff is 1, one
# closed-form algebra gives the pieces and weights; the quadrature in s
# (K >= 2) reads it with float arrays, the single-log reduction with
# polynomials in (eps, X_1).  On the cutoff zone the outer evaluator builds
# the same pieces from jets of u.


class _Term(NamedTuple):
    coeff: float
    piece: str
    weight: str | None = None


_DEFICIT_PIECES = ("hardy_u", "grad_u")


def _deficit(piece: str, constant: float) -> tuple[_Term, ...]:
    """lap_u - constant * piece, piece in _DEFICIT_PIECES at its sharp
    constant; the inner and reduced evaluators take it in factored form,
    where the constant parts cancel exactly."""
    return (_Term(1.0, "lap_u"), _Term(-constant, piece))


def _plain(piece: str) -> tuple[_Term, ...]:
    return (_Term(1.0, piece),)


def _improved(piece: str, constant: float, series_coeff: float):
    """(deficit - series_coeff * piece * series) over piece * pk2."""
    num = _deficit(piece, constant) + (_Term(-series_coeff, piece, "series"),)
    return num, (_Term(1.0, piece, "pk2"),)


def _section2(key: str) -> Callable[[int, float, int], float]:
    return lambda N, m, k: C.section2_constants(N)[key]


@dataclass(frozen=True)
class _FamilySpec:
    """A family's quotient terms, a function of (N, m), its sharp constant,
    a function of (N, m, mode k), and the restrictions on its sequences'
    parameters."""

    quotient: Callable[[int, float], tuple[tuple[_Term, ...], tuple[_Term, ...]]]
    constant: Callable[[int, float, int], float]
    m_zero: bool = False
    radial: bool = True
    below_m_star: bool = False

    def validate(self, family: ScanFamily, params: MinSeqParams) -> None:
        rules = (
            ("m = 0", self.m_zero, params.m != 0.0),
            ("the radial mode", self.radial, params.mode_k != 0),
        )
        if any(on and broken for _, on, broken in rules):
            needs = " and ".join(text for text, on, _ in rules if on)
            raise DomainError(f"{family.value} scans use {needs}")
        if self.below_m_star and params.m > C.m_star(params.N):
            raise DomainError(f"family requires m <= m*(N) = {C.m_star(params.N):.6g}")


_FAMILIES: dict[ScanFamily, _FamilySpec] = {
    ScanFamily.RELLICH_IMPROVED: _FamilySpec(
        lambda N, m: _improved("hardy_u", C.rellich_constant(N), C.sigma_bar(0, N)),
        lambda N, m, k: C.sigma_bar(0, N),
        m_zero=True,
    ),
    ScanFamily.RELLICH_GRAD_IMPROVED: _FamilySpec(
        lambda N, m: _improved("grad_u", C.rellich_grad_constant(N), 0.25),
        lambda N, m, k: 0.25,
        m_zero=True,
    ),
    ScanFamily.WEIGHTED_RELLICH_IMPROVED: _FamilySpec(
        lambda N, m: _improved(
            "hardy_u", float(C._sigma_exact(m, N)), float(C._sigma_bar_exact(m, N))
        ),
        lambda N, m, k: C.sigma_bar(m, N),
    ),
    ScanFamily.WEIGHTED_GRAD_IMPROVED: _FamilySpec(
        lambda N, m: _improved("grad_u", C.weighted_rellich_grad_constant(N, m), 0.25),
        lambda N, m, k: 0.25,
        below_m_star=True,
    ),
    ScanFamily.AMN: _FamilySpec(
        lambda N, m: (_plain("lap_u"), _plain("grad_u")),
        lambda N, m, k: C.per_mode_quotient(k, N, m),
        radial=False,
    ),
    ScanFamily.DEFICIT_VGRAD: _FamilySpec(
        lambda N, m: (_deficit("hardy_u", C.rellich_constant(N)), _plain("grad_v")),
        _section2("rellich-deficit-vgrad"),
        m_zero=True,
    ),
    ScanFamily.DEFICIT_VLAP: _FamilySpec(
        lambda N, m: (_deficit("hardy_u", C.rellich_constant(N)), _plain("lap_v")),
        _section2("rellich-deficit-vlap"),
        m_zero=True,
    ),
    ScanFamily.GRAD_DEFICIT_VGRAD: _FamilySpec(
        lambda N, m: (_deficit("grad_u", C.rellich_grad_constant(N)), _plain("grad_v")),
        _section2("gradrellich-deficit-vgrad"),
        m_zero=True,
    ),
    ScanFamily.VLAP_RADIAL_EXCESS: _FamilySpec(
        lambda N, m: (_plain("lap_v"), (_Term(1.0, "rad_v"), _Term(-0.5, "grad_v"))),
        _section2("v-laplacian-radial-excess"),
        m_zero=True,
    ),
    ScanFamily.GRAD_DEFICIT_VLAP: _FamilySpec(
        lambda N, m: (_deficit("grad_u", C.rellich_grad_constant(N)), _plain("lap_v")),
        _section2("gradrellich-deficit-vlap"),
        m_zero=True,
    ),
    ScanFamily.GRADIENT_CONSTANT: _FamilySpec(
        lambda N, m: (_plain("lap_u"), _plain("grad_u")),
        _section2("rellich-gradient"),
        m_zero=True,
    ),
}


def scan_theoretical(family: ScanFamily, params: MinSeqParams) -> float:
    """The sharp constant the family's quotients approach."""
    spec = _FAMILIES[family]
    spec.validate(family, params)
    return spec.constant(params.N, params.m, params.mode_k)


def _split_deficit(terms):
    """A leading lap_u - c * p (see :func:`_deficit`) as (p, c), and the
    terms after it; (None, terms) when the terms do not start with one."""
    if (
        len(terms) > 1
        and terms[1].piece in _DEFICIT_PIECES
        and terms[:2] == _deficit(terms[1].piece, -terms[1].coeff)
    ):
        return (terms[1].piece, -terms[1].coeff), terms[2:]
    return None, terms


def _combine(terms, piece, weight, deficit=None):
    """sum of coeff * piece(name) * weight(w) over the terms, in term order.

    ``weight`` returns None for an empty series, whose terms drop out.  With
    ``deficit``, a leading lap_u - c * p (see :func:`_split_deficit`) is
    taken as deficit(p, c) instead.
    """
    acc = None
    if deficit is not None:
        lead, rest = _split_deficit(terms)
        if lead is not None:
            acc, terms = deficit(*lead), rest
    for coeff, name, w in terms:
        wv = None if w is None else weight(w)
        if w is not None and wv is None:
            continue
        x = piece(name)
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
    eta = B = q = 0.0
    for ai, p in zip(a, prods):
        q = q + p
        eta = eta + (-1.0 + ai) * p
        B = B + (-1.0 + ai) * p * q
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
    monomial of delta carries eps, eta or B; lap_v is r^2 L_k v / v for
    v = r^{(N-4-2m)/2} u."""

    q0: float
    ck: int
    A0: float
    delta: object
    gamma: object
    lap_v: object


def _closed_forms(params: MinSeqParams, eps, eta, B) -> _Forms:
    """The forms, with q0 = -(N-4-2m)/2, in any number type that eps, eta
    and B share: float arrays in s, or polynomials in (eps, X_1)."""
    N, k = params.N, params.mode_k
    q0 = -_v_exponent(N, params.m)
    ck = k * (N + k - 2)
    delta = (
        eps * (2 * q0 + N - 2 + eps)
        + (q0 + eps + (N - 2) / 2.0) * eta
        + eta * eta / 4.0
        + B / 2.0
    )
    gamma = eps + eta / 2.0
    lap_v = gamma * (gamma + N - 2) + B / 2.0 - ck
    return _Forms(q0, ck, q0 * (q0 + N - 2) - ck, delta, gamma, lap_v)


# each piece's density over the common factor r^{-1+2eps} prod X_i^{-1+a_i},
# built only when a combination names it
_PIECES = {
    "lap_u": lambda f: _sq(f.A0 + f.delta),
    "grad_u": lambda f: _sq(f.q0 + f.gamma) + f.ck,
    "hardy_u": lambda f: 1.0,
    "lap_v": lambda f: _sq(f.lap_v),
    "grad_v": lambda f: _sq(f.gamma) + f.ck,
    "rad_v": lambda f: _sq(f.gamma),
}


def _deficit_form(f: _Forms, piece: str, c: float):
    """lap_u - c * piece (see :func:`_deficit`) in factored form,
    delta (2 A0 + delta), less c * gamma (2 q0 + gamma) for grad_u.  The
    constant parts cancel exactly where c is sharp: c = A0^2 for hardy_u,
    c * q0^2 = A0^2 for grad_u."""
    out = f.delta * (2.0 * f.A0 + f.delta)
    if piece == "grad_u":
        out = out - c * (f.gamma * (2.0 * f.q0 + f.gamma))
    return out


def _closed_density(terms, forms: _Forms, prods: list):
    """A combination's closed form over the common factor, with one series
    term per log factor in prods."""
    return _combine(
        terms,
        lambda p: _PIECES[p](forms),
        functools.partial(_weight, prods),
        functools.partial(_deficit_form, forms),
    )


def _inner_density(params: MinSeqParams, s: np.ndarray, terms) -> np.ndarray:
    """A combination's density on (0, inner] at s = ln(1/r).  No
    catastrophic subtraction occurs even at very deep s: the deficits are
    factored and the common factor e^{-2 eps s} prod X_i^{-1+a_i} is applied
    last."""
    s = np.asarray(s, dtype=float)
    xs = xk_values_from_s(len(params.a), s)
    prods = _log_products(xs)
    common = np.exp(-2.0 * params.epsilon * s)
    for ai, x in zip(params.a, xs):
        if ai != 1.0:
            common = common * x ** (-1.0 + ai)
    forms = _closed_forms(params, params.epsilon, *_eta_b(params.a, prods))
    return common * _closed_density(terms, forms, prods)


# The adaptive rule bisects every interval while there are at most 16, so a
# cutoff-zone integral refines uniformly until it stops, and the scans' zone
# integrals never stop before the zone's 4 equal panels (most stop on them,
# the rest on 8).  So they start there: 60 nodes in one integrand call
# instead of 15, 30 and 60 in three.
_ZONE_PANELS = 4


def _zone_integral(f, cutoff: CutoffSpec, spec: QuadratureSpec) -> float:
    """int_inner^outer f dr, started on the zone's _ZONE_PANELS equal panels,
    cut where bisection would cut them."""
    cuts = [cutoff.inner_radius, cutoff.outer_radius]
    while len(cuts) <= _ZONE_PANELS:
        cuts = [c for lo, hi in zip(cuts, cuts[1:]) for c in (lo, 0.5 * (lo + hi))] + cuts[-1:]
    return integrate(f, cuts[0], cuts[-1], spec, breakpoints=cuts[1:-1]).value


class _OuterTerms:
    """Jet-evaluated pieces of the densities on the cutoff transition zone.

    Each piece is declared as a radial integral of u, or of v = r^shift u,
    whose density :func:`rellich.radial._jet_density` forms from one jet of
    u.  u's profile is memoized: the numerator and the denominator of one
    quotient integrate over the same zone and share most of their nodes, and
    the memo lives only as long as this object."""

    def __init__(self, params: MinSeqParams):
        self.params = params
        tf = build_minimizer(params)
        self.mode = tf.mode
        self.u = tf.profile.memoized()
        N, m, shift = params.N, params.m, _v_exponent(params.N, params.m)
        self.integrals = {
            "lap_u": _Integral("square", None, N - 1 - 2 * m, 1),
            "grad_u": _Integral("gradient", None, N - 3 - 2 * m),
            "hardy_u": _Integral("square", None, N - 5 - 2 * m),
            "lap_v": _Integral("square", shift, 3, 1),
            "grad_v": _Integral("gradient", shift, 1),
            "rad_v": _Integral("radial-gradient", shift, 1),
        }

    def pieces(self, r: np.ndarray, names) -> dict[str, np.ndarray]:
        """The named pieces at r, and only those.

        u is evaluated once, as a jet of the highest order a named piece
        takes, and v = r^shift u is built from that jet.  A jet's rows do not
        depend on its order (the jet arithmetic is truncation invariant), so
        every piece is bitwise the one its own profile evaluation would
        give."""
        integrals = [(name, self.integrals[name]) for name in names]
        order = max(_KIND_ORDERS[i.kind] + 2 * i.n for _, i in integrals)
        U = self.u.taylor(r, order)
        jets = {None: U}
        out = {}
        for name, i in integrals:
            H = jets.get(i.shift)
            if H is None:
                H = jets[i.shift] = Jet.variable(r, order) ** i.shift * U
            out[name] = _jet_density(i.kind, i.n, H, r, self.params.N, self.mode.eigenvalue, i.weight)
        return out

    def integral(self, terms, spec: QuadratureSpec) -> float:
        """The combination's integral over the cutoff zone [inner, outer],
        computing only the pieces it names."""
        names = {t.piece for t in terms}
        weighted = any(t.weight is not None for t in terms)

        def density(r):
            p = self.pieces(r, names)
            prods = _log_products(xk_values(len(self.params.a), r)) if weighted else None
            return _combine(terms, p.__getitem__, lambda w: _weight(prods, w))

        return _zone_integral(density, self.params.cutoff, spec)


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


class _Poly2:
    """Polynomial in (eps, X) with a small dense coefficient matrix."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = np.atleast_2d(np.asarray(c, dtype=float))

    @classmethod
    def const(cls, v: float) -> "_Poly2":
        return cls([[float(v)]])

    @classmethod
    def eps(cls) -> "_Poly2":
        return cls([[0.0], [1.0]])

    @classmethod
    def x(cls) -> "_Poly2":
        return cls([[0.0, 1.0]])

    def __add__(self, other):
        if not isinstance(other, _Poly2):
            other = _Poly2.const(other)
        ni = max(self.c.shape[0], other.c.shape[0])
        nj = max(self.c.shape[1], other.c.shape[1])
        out = np.zeros((ni, nj))
        out[: self.c.shape[0], : self.c.shape[1]] += self.c
        out[: other.c.shape[0], : other.c.shape[1]] += other.c
        return _Poly2(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, other):
        if not isinstance(other, _Poly2):
            return _Poly2(self.c * float(other))
        a, b = self.c, other.c
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                if a[i, j] != 0.0:
                    out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return _Poly2(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _Poly2(self.c / float(other))

    def x_columns(self) -> list[np.ndarray]:
        """Coefficient-in-eps arrays, one per power of X."""
        return [self.c[:, j].copy() for j in range(self.c.shape[1])]


def _q_zone(beta: float, eps: float, cutoff: CutoffSpec, spec: QuadratureSpec) -> float:
    """int_inner^outer r^{-1+2eps} X_1^beta phi^2 dr: with Q(beta), the
    single-log integral over the whole support."""

    def transition(r):
        x1 = 1.0 / (1.0 - np.log(r))
        return r ** (-1.0 + 2.0 * eps) * x1**beta * cutoff(r) ** 2

    return _zone_integral(transition, cutoff, spec)


def _reduce_columns(poly: _Poly2, a1: float):
    """Rewrite sum_j col_j(eps) Q(-1+a+j) with the divergent levels removed
    where they cancel.

    Eliminates level 0, then level 1, while the level's column vanishes at
    eps = 0 (as the sharp constants make it in a deficit); the residual
    constant coefficient is pure round-off and is zeroed before dividing by
    eps.  Returns (the first level kept, the columns from it on as
    eps-polynomials, [(eps-poly, beta), ...]) where each boundary pair
    contributes (1/2) * poly(eps) * inner^{2eps} X_1(inner)^beta.
    """
    cols = poly.x_columns()
    while len(cols) < 3:
        cols.append(np.zeros(1))
    boundary_terms: list[tuple[np.ndarray, float]] = []
    for j in range(2):
        c = cols[j]
        scale = np.max(np.abs(c))
        if scale == 0.0:
            continue
        if abs(c[0]) > 1e-9 * scale:
            return j, cols[j:], boundary_terms
        cprime = c[1:].copy()
        if cprime.size == 0:
            continue
        beta = -1.0 + a1 + j
        nxt = cols[j + 1]
        size = max(nxt.size, cprime.size)
        merged = np.zeros(size)
        merged[: nxt.size] += nxt
        merged[: cprime.size] += (-beta / 2.0) * cprime
        cols[j + 1] = merged
        boundary_terms.append((cprime, beta))
    return 2, cols[2:], boundary_terms


class _Reduction:
    """Single-log integrals over (0, inner] through the exact reduction: a
    column sum of closed-form Q(beta) and boundary terms, with no quadrature;
    DomainError where the sum leaves the double range.

    One instance serves one parameter set, so each Q(beta) is evaluated once
    for every integral it takes.
    """

    def __init__(self, params: MinSeqParams):
        self.params = params
        self._prods = [_Poly2.x()]  # P_1 = X_1
        self.forms = _closed_forms(params, _Poly2.eps(), *_eta_b(params.a, self._prods))
        self._q: dict = {}

    def q_beta(self, beta: float) -> float:
        if beta not in self._q:
            self._q[beta] = _q_beta(beta, self.params.epsilon, self.params.cutoff.inner_radius)
        return self._q[beta]

    def poly(self, terms) -> _Poly2:
        """The combination's density over common = r^{-1+2eps} X_1^{-1+a};
        one log factor, so the correction series is empty."""
        return _closed_density(terms, self.forms, self._prods)

    def integral(self, terms) -> float:
        """The combination's integral over (0, inner]."""
        a1, eps = self.params.a[0], self.params.epsilon
        start, cols, boundary_terms = _reduce_columns(self.poly(terms), a1)
        total = 0.0
        for j, c in enumerate(cols, start=start):
            coeff = float(np.polynomial.polynomial.polyval(eps, c))
            if coeff != 0.0:
                total += coeff * self.q_beta(-1.0 + a1 + j)
        rho = self.params.cutoff.inner_radius
        x_rho = 1.0 / (1.0 - math.log(rho))
        for c, beta in boundary_terms:
            coeff = float(np.polynomial.polynomial.polyval(eps, c))
            if coeff != 0.0:
                total += 0.5 * coeff * rho ** (2.0 * eps) * x_rho**beta
        if not math.isfinite(total):
            raise DomainError(f"single-log integral overflows at eps = {eps}")
        return total


# Below this eps, with a log factor on (some a_i < 1), the direct quadrature
# in s loses the log-deep mass that carries the integrals and returns
# wrong quotients (0, nan, or a fraction of the constant).  Pure powers
# (every a_i = 1) stay exact.
_DIRECT_EPS_FLOOR = 1e-120


def _inner_integral(terms, params: MinSeqParams, spec: QuadratureSpec) -> float:
    """Quadrature of a combination's closed forms in s over (0, inner]."""
    if params.epsilon < _DIRECT_EPS_FLOOR and any(ai < 1.0 for ai in params.a):
        raise DomainError(
            f"direct quadrature needs eps >= {_DIRECT_EPS_FLOOR:g} while a log factor is"
            " on (some a_i < 1); use a moderate eps, or one log factor"
        )
    s0 = math.log(1.0 / params.cutoff.inner_radius)
    return integrate_halfline(lambda s: _inner_density(params, s, terms), s0, spec).value


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
    Multi-log quotients use direct quadrature in s, which rejects eps below
    1e-120 while a log factor is on.
    """
    spec = quad or QuadratureSpec()
    fam = _FAMILIES[family]
    fam.validate(family, params)
    quotient = fam.quotient(params.N, params.m)
    outer = _OuterTerms(params)
    if len(params.a) == 1:
        inner = _Reduction(params).integral
    else:
        inner = functools.partial(_inner_integral, params=params, spec=spec)
    num, den = (inner(t) + outer.integral(t, spec) for t in quotient)
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
    family: ScanFamily,
    N: int,
    m: float = 0.0,
    mode_k: int = 0,
    K: int = 1,
    cutoff: CutoffSpec | None = None,
    halvings: int = 8,
) -> list[MinSeqParams]:
    """The default limit path: eps down the fixed ladder, then halve each a_i.

    Where the single-log reduction eliminates the numerator's divergent
    levels (K = 1, and no unweighted u-side piece in the numerator outside
    its deficit), eps keeps shrinking with a during the halvings: the limit
    order is eps first, then a_1, ..., a_K, so each a-step should see an
    exhausted eps-limit, otherwise the quotient stalls at the ln(1/eps)
    scale.  Elsewhere eps holds at the ladder's last value: the direct
    quadrature of K >= 2 cannot follow eps that deep, and a plain numerator
    (rellich-gradient's lap_u) keeps a divergent level, which leaves the
    double range below eps ~ 1e-150.
    """
    cutoff = cutoff or CutoffSpec()
    if family is ScanFamily.AMN:
        return [
            MinSeqParams(N, m, eps, (1.0,), cutoff, mode_k) for eps in _DEFAULT_EPS_STEPS
        ]
    if K > 1:
        halvings = min(halvings, 2)
    a = [0.1] * K
    steps = [MinSeqParams(N, m, eps, tuple(a), cutoff, mode_k) for eps in _DEFAULT_EPS_STEPS]
    _, rest = _split_deficit(_FAMILIES[family].quotient(N, m)[0])
    follow = K == 1 and not any(t.piece.endswith("_u") and t.weight is None for t in rest)
    for i in range(K):
        for _ in range(halvings):
            a[i] /= 2.0
            eps = _eps_for_a(a[0]) if follow else _DEFAULT_EPS_STEPS[-1]
            steps.append(MinSeqParams(N, m, eps, tuple(a), cutoff, mode_k))
    return steps


class AsymptoticCase(Enum):
    """Leading-term checks for the single-log sequence as eps, a_1 -> 0."""

    V_GRADIENT = "v-gradient"
    V_LAPLACIAN = "v-laplacian"
    U_GRADIENT = "u-gradient-over-x2"
    U_LAPLACIAN = "u-laplacian"
    RELLICH_DEFICIT = "rellich-deficit"
    GRAD_RELLICH_DEFICIT = "gradrellich-deficit"


class _AsymptoticSpec(NamedTuple):
    """A case's functional as piece terms of N, and its displayed leading
    term as a function of (N, a_1, Q) with Q(beta) the single-log integral
    over the whole support."""

    lhs: Callable[[int], tuple[_Term, ...]]
    rhs: Callable[[int, float, Callable[[float], float]], float]


def _lead(N: int, a1: float, q) -> float:
    return (1.0 - a1) / 4.0 * q(1.0 + a1)


def _deficit_lead(N: int, a1: float, q) -> float:
    return (1.0 - a1) / 8.0 * (N * N - 4 * N + 8) * q(1.0 + a1)


# The u-side functionals with no deficit keep their divergent levels: the
# reduction sums their Q(-1+a) and Q(a) columns, which leave the double range
# (DomainError) below eps ~ 1e-150.
_ASYMPTOTICS: dict[AsymptoticCase, _AsymptoticSpec] = {
    AsymptoticCase.V_GRADIENT: _AsymptoticSpec(lambda N: _plain("grad_v"), _lead),
    AsymptoticCase.V_LAPLACIAN: _AsymptoticSpec(
        lambda N: _plain("lap_v"), lambda N, a1, q: (N - 2) ** 2 * _lead(N, a1, q)
    ),
    AsymptoticCase.U_GRADIENT: _AsymptoticSpec(
        lambda N: _plain("grad_u"),
        lambda N, a1, q: _lead(N, a1, q) + ((N - 4) / 2.0) ** 2 * q(-1.0 + a1),
    ),
    AsymptoticCase.U_LAPLACIAN: _AsymptoticSpec(
        lambda N: _plain("lap_u"),
        lambda N, a1, q: _deficit_lead(N, a1, q) + C.rellich_constant(N) * q(-1.0 + a1),
    ),
    AsymptoticCase.RELLICH_DEFICIT: _AsymptoticSpec(
        lambda N: _deficit("hardy_u", C.rellich_constant(N)), _deficit_lead
    ),
    AsymptoticCase.GRAD_RELLICH_DEFICIT: _AsymptoticSpec(
        lambda N: _deficit("grad_u", C.rellich_grad_constant(N)),
        lambda N, a1, q: (1.0 - a1) / 16.0 * (N - 4) ** 2 * q(1.0 + a1),
    ),
}


def leading_order_asymptotics(
    which: AsymptoticCase,
    params: MinSeqParams,
    quad: QuadratureSpec | None = None,
) -> tuple[float, float, float]:
    """(lhs, rhs_leading, ratio) for one displayed leading-order asymptotic.

    lhs is the stated functional of the sequence member divided by the sphere
    area; rhs_leading is the displayed coefficient times the singular
    integrals it multiplies.  The ratio tends to 1 as eps, a_1 -> 0 jointly,
    with the leading term dominating only once a_1 ln(1/eps) is large; every
    case goes through the single-log reduction, so that regime is reachable.
    """
    spec = quad or QuadratureSpec()
    if len(params.a) != 1:
        raise DomainError("asymptotic checks use the single-log sequence (K = 1)")
    if params.m != 0.0 or params.mode_k != 0:
        raise DomainError("asymptotic checks use m = 0 and the radial mode")
    case = _ASYMPTOTICS[which]
    red = _Reduction(params)
    terms = case.lhs(params.N)
    lhs = red.integral(terms) + _OuterTerms(params).integral(terms, spec)
    eps, cutoff = params.epsilon, params.cutoff
    rhs = case.rhs(params.N, params.a[0], lambda b: red.q_beta(b) + _q_zone(b, eps, cutoff, spec))
    return lhs, rhs, lhs / rhs


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
