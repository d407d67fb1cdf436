"""Adaptive 1-D quadrature for integrands with an origin singularity of
power-times-iterated-log type.

The base rule is an embedded 7/15 Gauss-Kronrod pair with bisection of the
largest-error subinterval (:func:`integrate`).  Integrands whose mass
concentrates at r = 0 are handled through the substitution r = e^{-s},
which maps (0, b] to a half-line in s; the half-line is covered by panels of
doubling width until a geometric tail extrapolation certifies the remainder
(:func:`integrate_halfline`).  :func:`origin_integral` is the one origin
rule: given the power r^p an r-space integrand behaves like at 0, it takes
the half-line for p < 0 and the finite rule otherwise.  In s-coordinates the
integrand stays in floating-point range even when the mass sits at radii far
below the smallest positive double, so callers with severe singularities
should supply the transformed integrand directly (:func:`integrate_halfline`)
or use :func:`integrate_logweighted`, which knows the analytic structure
r^p X_1^{1+b_1} ... X_K^{1+b_K} phi^2.

A :class:`QuadratureSpec` holds the two tolerances; the subdivision cap is
the module constant ``_MAX_SUBDIVISIONS``.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError
from .iterlog import xk_values_from_s

__all__ = [
    "QuadratureSpec",
    "QuadratureResult",
    "integrate",
    "integrate_halfline",
    "origin_integral",
    "integrate_logweighted",
    "QuadratureCounts",
    "count_quadrature",
]


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-14

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError(f"tolerances must be finite and positive, got {self.rel_tol}, {self.abs_tol}")

    def target(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


@dataclass
class QuadratureResult:
    """An integral's value, its error estimate, whether that met the
    tolerance, and ``evaluations``: every point the integrand was called on,
    including points the integral did not use (the half-line's look-ahead
    panels past the stopping one, the levels of a single interval's
    225-point block past the one it stops at)."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


@dataclass
class QuadratureCounts:
    """Integrals run inside a :func:`count_quadrature` block: calls, integrand
    evaluations, and calls that ended ``converged=False``."""

    calls: int = 0
    evaluations: int = 0
    unconverged: int = 0


_COUNTERS: ContextVar[tuple[QuadratureCounts, ...]] = ContextVar("quadrature_counters", default=())


@contextmanager
def count_quadrature():
    """Count the integrals of the enclosed code, including those of enclosing
    blocks: each entry-point call (:func:`integrate`, :func:`integrate_halfline`,
    :func:`integrate_logweighted`) counts once in every active block, with
    its ``evaluations`` (points evaluated but not used included)."""
    counts = QuadratureCounts()
    token = _COUNTERS.set(_COUNTERS.get() + (counts,))
    try:
        yield counts
    finally:
        _COUNTERS.reset(token)


def _counted(result: QuadratureResult) -> QuadratureResult:
    for counts in _COUNTERS.get():
        counts.calls += 1
        counts.evaluations += result.evaluations
        counts.unconverged += not result.converged
    return result


# 7/15 Gauss-Kronrod nodes and weights on [-1, 1] (positive half; QUADPACK values).
_XGK_HALF = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.000000000000000000000000000000000,
    ]
)
_WGK_HALF = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_WG_HALF = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
    ]
)

_NODES = np.concatenate([-_XGK_HALF[:-1], [0.0], _XGK_HALF[-2::-1]])
_WGK = np.concatenate([_WGK_HALF[:-1], [_WGK_HALF[-1]], _WGK_HALF[-2::-1]])
# Gauss weights sit on nodes 1, 3, ..., 13 of the 15-point layout.
_WG = np.zeros(15)
_WG[[1, 3, 5, 7, 9, 11, 13]] = np.array(
    [
        _WG_HALF[0],
        _WG_HALF[1],
        _WG_HALF[2],
        _WG_HALF[3],
        _WG_HALF[2],
        _WG_HALF[1],
        _WG_HALF[0],
    ]
)

# round-off floor: an interval's error estimate is at least this times its integral of |f|
_ERR_FLOOR = 50.0 * np.finfo(float).eps


def _gk_points(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
    """The 15 nodes of each interval, one row per interval."""
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    return mid[:, None] + half[:, None] * _NODES


# the Kronrod and Gauss weights, one row each, for one product per interval
_WEIGHTS = np.stack([_WGK, _WG])[:, None, :]


def _gk_sums(vals: np.ndarray, lefts: np.ndarray, rights: np.ndarray):
    """(values, error estimates) of the 15-point rule from the integrand
    values ``vals`` at :func:`_gk_points`, as QUADPACK's qk15 forms them.

    Every weighted sum is ``np.vecdot``, which takes each row's product on
    that row alone, and the rest is elementwise, so an interval's (value,
    error) depends on its own 15 values only: not on how many intervals
    share the call, their order or where the row sits in memory.  (The rows
    of ``vals @ w`` do depend on the batch: the BLAS matrix-vector kernel
    blocks its sums by rows.)"""
    half = 0.5 * (rights - lefts)
    sums = np.vecdot(vals, _WEIGHTS)  # the Kronrod and Gauss sums on [-1, 1]
    resk, resg = sums * half
    resabs = np.vecdot(np.abs(vals), _WGK) * half
    resasc = np.vecdot(np.abs(vals - 0.5 * sums[0][:, None]), _WGK) * half
    diff = np.abs(resk - resg)
    positive = resasc > 0.0
    err = np.where(
        positive,
        resasc * np.minimum(1.0, (200.0 * diff / np.where(positive, resasc, 1.0)) ** 1.5),
        diff,
    )
    return resk, np.maximum(err, _ERR_FLOOR * resabs)


def _gk_batch(f, ls, rs, known=None):
    """Apply the 15-point rule to the batch of intervals [ls[i], rs[i]] with
    one call to f, or with none when ``known`` (from :func:`_level_rows`)
    holds every interval of the batch; returns (values, error estimates,
    evaluations).  Callers run it under ``np.errstate(all="ignore")``."""
    if known:
        picked = [known.get(edge) for edge in zip(ls, rs)]
        if None not in picked:
            return *np.array(picked).T, 0
    lefts, rights = np.array(ls), np.array(rs)
    pts = _gk_points(lefts, rights)
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    resk, err = _gk_sums(vals, lefts, rights)
    return resk, err, vals.size


_BLOCK_LEVELS = 4  # uniform bisection levels (1, 2, 4 and 8 intervals) one integrand call covers


def _level_rows(f, a: float, b: float):
    """The rules of the first ``_BLOCK_LEVELS`` uniform bisection levels of
    [a, b], each interval cut at 0.5 * (lo + hi) as :func:`_refine` cuts
    it, from one call to f (15 intervals, 225 points) and one
    :func:`_gk_sums` call.  Returns ({(lo, hi): (value, error)}, evaluations);
    each rule is the one its interval gets alone."""
    level, edges = [(a, b)], []
    for _ in range(_BLOCK_LEVELS):
        edges += level
        level = [half for lo, hi in level for half in ((lo, 0.5 * (lo + hi)), (0.5 * (lo + hi), hi))]
    values, errors, n_eval = _gk_batch(f, *zip(*edges))
    return dict(zip(edges, zip(values.tolist(), errors.tolist()))), n_eval


# the most intervals an integral over a finite interval is bisected into; a
# half-line panel may take 1/16 of it, and at least 64.  Read at call time.
_MAX_SUBDIVISIONS = 4096


def _cuts(a: float, b: float, breakpoints) -> list[float]:
    """a, the breakpoints inside (a, b) and b, in order: the edges of an
    integral's first batch of intervals."""
    return sorted({a, b, *(p for p in breakpoints if a < p < b)})


def _adaptive_finite(
    f,
    a: float,
    b: float,
    rel_tol: float,
    abs_tol: float,
    max_subdivisions: int,
    breakpoints=(),
    block=False,
    known=None,
):
    """Adaptive bisection on [a, b] until the error estimate meets
    max(abs_tol, rel_tol * |value|); returns (value, error, evals, converged).

    With ``block`` and no breakpoint inside (a, b), one call to f and one
    :func:`_gk_sums` call give the rules of the first four bisection levels
    (:func:`_level_rows`), which the bisection would otherwise reach in four
    calls of each.  Since a rule depends on its interval's values alone, the
    result is bitwise that of one call per batch; all 225 points count in
    ``evals``, used or not.  If that call raises, the integral goes on one
    batch per call, so an exception surfaces only from a level the integral
    needs.  Rules already at hand, {(lo, hi): (value, error)}, come in as
    ``known`` (see :func:`_integrate_shared`), their points not counted."""
    with np.errstate(all="ignore"):
        cuts = _cuts(a, b, breakpoints)
        n_block = 0
        if block and len(cuts) == 2:
            try:
                known, n_block = _level_rows(f, a, b)
            except Exception:
                pass  # some level ahead raised: go on one batch per call
        vals, errs, n_eval = _gk_batch(f, cuts[:-1], cuts[1:], known)
        heap = [(-e, lo, hi, v, e) for lo, hi, v, e in zip(cuts[:-1], cuts[1:], vals.tolist(), errs.tolist())]
        total = float(np.add.reduce(vals))
        total_err = float(np.add.reduce(errs))
        return _refine(f, heap, total, total_err, n_block + n_eval, rel_tol, abs_tol, max_subdivisions, known)


def _refine(
    f,
    heap: list,
    total: float,
    total_err: float,
    n_eval: int,
    rel_tol: float,
    abs_tol: float,
    max_subdivisions: int,
    known=None,
):
    """Bisect the largest-error intervals of ``heap`` (entries (-error, lo,
    hi, value, error) whose values and errors sum to ``total`` and
    ``total_err``) in batches of up to 16 until the error meets
    max(abs_tol, rel_tol * |value|); returns (value, error, evals,
    converged), ``evals`` counting ``n_eval`` in.  Batches whose rules
    ``known`` (from :func:`_level_rows`) holds take them from it.  Callers
    run it under ``np.errstate(all="ignore")``.

    The heap and the running totals hold Python floats, which round exactly
    as numpy's float64 scalars do at a fraction of the per-operation cost."""
    heapq.heapify(heap)
    n_sub = len(heap)
    while total_err > max(abs_tol, rel_tol * abs(total)) and n_sub < max_subdivisions:
        batch = [heapq.heappop(heap) for _ in range(min(16, len(heap)))]
        if not batch:
            break
        ls, rs = [], []
        for _, lo, hi, _v, _e in batch:
            mid = 0.5 * (lo + hi)
            ls.extend([lo, mid])
            rs.extend([mid, hi])
        new_vals, new_errs, ne = _gk_batch(f, ls, rs, known)
        n_eval += ne
        n_sub += len(batch)
        for _neg, _lo, _hi, v, e in batch:
            total -= v
            total_err -= e
        for lo, hi, v, e in zip(ls, rs, new_vals.tolist(), new_errs.tolist()):
            heapq.heappush(heap, (-e, lo, hi, v, e))
            total += v
            total_err += e
        if not math.isfinite(total):
            return total, math.inf, n_eval, False
    converged = total_err <= max(abs_tol, rel_tol * abs(total))
    return total, total_err, n_eval, converged


_HALFLINE_MAX_PANELS = 900
_HALFLINE_S_MAX = 1e200
_LOOKAHEAD = 16  # panels whose first rule one integrand call evaluates


def integrate_halfline(
    h, s0: float, spec: QuadratureSpec | None = None, s_cap: float = _HALFLINE_S_MAX
) -> QuadratureResult:
    """Integrate h over [s0, infinity) with doubling panels and tail extrapolation.

    Intended for log-substituted integrands h(s) = f(e^{-s}) e^{-s}; the panel
    widths double so that power-law tails in s decay geometrically per panel.
    Stops once the extrapolated tail falls below the tolerance; an integrand
    that never settles (a divergent tail) ends with converged=False rather
    than a silently wrong value.  When the ``s_cap`` truncation is reached
    the still-unresolved tail is estimated and folded into the error; where
    the panels do not decay there is no estimate, and the error is infinite.

    h must act elementwise.  One call to h and one :func:`_gk_sums` call
    give the first 15-point rule of the next ``_LOOKAHEAD`` (16) panels,
    which settles most panels; the panels are then taken in order.  The
    panel that crosses ``s_cap`` is looked at only once the integral needs
    it, in a call of its own, so no call reaches past ``s_cap`` unless that
    panel is needed.  A rule depends on its panel's values alone, so the
    result is bitwise that of one panel per call.  Points of panels past
    the stopping one are evaluated and counted in ``evaluations`` but never
    used.  If that call raises, the integral goes on one panel per call, so
    an exception surfaces only from a panel the integral needs.
    """
    return _counted(_halfline(h, s0, spec or QuadratureSpec(), s_cap))


def _first_rules(h, left: float, width: float, count: int, s_cap: float):
    """The first rule of up to ``count`` panels from [left, left + width] on,
    doubling, taking a panel whose right end lies beyond s_cap only as the
    first: [(left, right, value, error), ...] and the evaluations, from one
    call to h."""
    edges = []
    for _ in range(count):
        right = left + width
        if edges and right > s_cap:
            break
        edges.append((left, right))
        left, width = right, width * 2.0
    values, errors, n_eval = _gk_batch(h, *zip(*edges))
    return [(*edge, v, e) for edge, v, e in zip(edges, values.tolist(), errors.tolist())], n_eval


def _halfline(h, s0: float, spec: QuadratureSpec, s_cap: float) -> QuadratureResult:
    acc = 0.0
    err = 0.0
    evals = 0
    panel_abs: list[float] = []
    left = s0
    width = 1.0
    converged = False

    def tail_estimate() -> float | None:
        if len(panel_abs) < 3:
            return None
        a_prev, a_last = panel_abs[-2], panel_abs[-1]
        if a_last == 0.0 and a_prev == 0.0:
            return 0.0
        if a_last >= a_prev:
            return None
        ratio = min(a_last / max(a_prev, 1e-300), 0.995)
        if len(panel_abs) >= 4 and panel_abs[-3] > 0:
            ratio = min(max(ratio, a_prev / panel_abs[-3]), 0.995)
        return a_last * ratio / (1.0 - ratio)

    rel_tol = spec.rel_tol
    panel_subdivisions = max(64, _MAX_SUBDIVISIONS // 16)
    ahead = _LOOKAHEAD
    rules: list = []
    with np.errstate(all="ignore"):
        for panel in range(_HALFLINE_MAX_PANELS):
            if not rules:
                count = min(ahead, _HALFLINE_MAX_PANELS - panel)
                try:
                    rules, n = _first_rules(h, left, width, count, s_cap)
                except Exception:
                    # some panel ahead raised: go on one panel per call, so an
                    # exception surfaces only where the integral needs a panel
                    if count == 1:
                        raise
                    ahead = 1
                    rules, n = _first_rules(h, left, width, 1, s_cap)
                evals += n
            _, right, v, e = rules.pop(0)
            sub_abs = max(spec.abs_tol, rel_tol * abs(acc)) / 8.0
            if e > max(sub_abs, rel_tol * abs(v)):
                heap = [(-e, left, right, v, e)]
                v, e, n, _ok = _refine(h, heap, v, e, 0, rel_tol, sub_abs, panel_subdivisions)
                evals += n
            if not math.isfinite(v):
                return QuadratureResult(acc, math.inf, evals, False)
            acc += v
            err += e
            panel_abs.append(abs(v))
            left = right
            width *= 2.0
            tail = tail_estimate()
            if tail is not None and tail <= spec.target(acc) / 2.0:
                err += tail
                converged = True
                break
            if left > s_cap:
                # the half-line past s_cap is left out: add its extrapolated
                # tail, or an unknown error where the panels do not decay
                err += math.inf if tail is None else tail
                break
    converged = converged and err <= spec.target(acc)
    return QuadratureResult(acc, err, evals, converged)


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None, breakpoints=()) -> QuadratureResult:
    """Integrate f over (a, b); f may be singular (but integrable) at a.

    f must accept numpy arrays and act elementwise.  With no breakpoint
    inside (a, b), one call to f evaluates the first four bisection levels
    (225 points), one :func:`_gk_sums` call gives all 15 of their rules,
    and the result is bitwise that of one call per bisection batch (see
    :func:`_adaptive_finite`).  Integrals from the origin whose mass sits at
    r -> 0 go through :func:`origin_integral`.
    """
    spec = spec or QuadratureSpec()
    _check_interval(a, b)
    value, err, evals, converged = _adaptive_finite(
        f, a, b, spec.rel_tol, spec.abs_tol, _MAX_SUBDIVISIONS, breakpoints, block=True
    )
    return _counted(QuadratureResult(value, err, evals, converged))


def _check_interval(a: float, b: float) -> None:
    if not (b > a):
        raise DomainError("need b > a")
    if a < 0:
        raise DomainError("need a >= 0")


def _integrate_shared(f, n: int, a: float, b: float, spec: QuadratureSpec | None = None, breakpoints=()):
    """The integrals over (a, b) of n integrands that share their nodes, as
    a list of :class:`QuadratureResult`.

    ``f(x, which)`` returns the values at x of the integrands numbered in
    ``which``, one array each.  One call ``f(x, range(n))`` evaluates every
    integrand on the first batch, the intervals between a, the breakpoints
    and b, and one :func:`_gk_sums` call gives all their rules; each
    integral then bisects on its own from those rules, calling
    ``f(x, (i,))``.  A rule depends on its interval's values alone, so
    integral i is bitwise ``integrate(lambda x: f(x, (i,))[0], a, b, spec,
    breakpoints)``.  Each counts as one entry-point call, the first batch's
    points in its ``evaluations``."""
    spec = spec or QuadratureSpec()
    _check_interval(a, b)
    cuts = _cuts(a, b, breakpoints)
    edges = list(zip(cuts[:-1], cuts[1:]))
    with np.errstate(all="ignore"):
        pts = _gk_points(np.array(cuts[:-1]), np.array(cuts[1:]))
        vals = np.asarray(f(pts.ravel(), range(n)), dtype=float).reshape(n * len(edges), -1)
        values, errors = _gk_sums(vals, np.array(cuts[:-1] * n), np.array(cuts[1:] * n))
    rules = list(zip(values.tolist(), errors.tolist()))
    results = []
    for i in range(n):
        known = dict(zip(edges, rules[i * len(edges) : (i + 1) * len(edges)]))
        alone = lambda x, i=i: f(x, (i,))[0]
        value, err, evals, converged = _adaptive_finite(
            alone, a, b, spec.rel_tol, spec.abs_tol, _MAX_SUBDIVISIONS, breakpoints, known=known
        )
        results.append(_counted(QuadratureResult(value, err, evals + pts.size, converged)))
    return results


# Cap for the r-space log substitution: below r = e^{-650} an r-space callable
# would be fed denormal radii, so the transform is truncated there; integrands
# with deeper mass must use the s-space entry points.
_RSPACE_S_CAP = 650.0


def origin_integral(f, origin_power: float, hi: float, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """int_0^hi f dr for an f that behaves like r^origin_power at the origin.

    With origin_power < 0 the integral is computed in s = ln(1/r)
    coordinates by :func:`integrate_halfline` (truncated at s = 650, where r
    reaches the denormal range); otherwise by :func:`integrate` on (0, hi].
    f must accept numpy arrays and act elementwise.  Either way the integral
    counts as one entry-point call.
    """
    if not hi > 0.0:
        raise DomainError("need hi > 0")
    if origin_power >= 0.0:
        return integrate(f, 0.0, hi, spec)
    s0 = math.log(1.0 / hi)

    def h(s):
        r = np.exp(-np.asarray(s, dtype=float))
        out = np.zeros_like(r)
        mask = r > 0.0
        if mask.any():
            out[mask] = np.asarray(f(r[mask]), dtype=float) * r[mask]
        return out

    return integrate_halfline(h, s0, spec, _RSPACE_S_CAP)


def describe_cascade_failure(power, log_exponents) -> str | None:
    """Apply the finiteness cascade; returns a failure description or None.

    The integrand is r^power * prod_i X_i^{1 + b_i} * phi^2 with b_i the given
    exponent offsets.  Finite iff eps := (power+1)/2 > 0, or eps = 0 and the
    first nonzero offset is positive.  Every comparison is made on the given
    numbers as they are, so Fraction inputs are decided exactly.  A
    non-finite power or offset raises DomainError.
    """
    log_exponents = list(log_exponents)
    if not all(math.isfinite(v) for v in (power, *log_exponents)):
        raise DomainError(f"non-finite cascade input: power {power}, offsets {log_exponents}")
    if power > -1:
        return None
    if power < -1:
        return f"power {float(power)} < -1 (eps = {float(power + 1) / 2.0} < 0)"
    for i, beta in enumerate(log_exponents, start=1):
        if beta > 0:
            return None
        if beta < 0:
            return f"eps = 0 and the first nonzero log exponent offset beta_{i} = {float(beta)} <= 0"
    return "eps = 0 and every log exponent offset is zero"


# Q(beta) in closed form.  In s = ln(1/r) and t = 2eps (1+s),
#
#     Q(beta) = int_{s0}^inf e^{-2eps s} (1+s)^{-beta} ds
#             = e^{2eps} (2eps)^{beta-1} Gamma(1-beta, x),  x = 2eps (1+s0),
#
# an upper incomplete gamma function, with s0 = ln(1/rho).  Small x takes
# the power series of the lower function with the pole of Gamma(1-beta) at
# beta = 1 taken out in closed form (the E_1 limit at beta = 1 exactly);
# large x takes the continued fraction.  Every factor is scaled by
# (2eps)^{beta-1} before it is formed, so denormal eps neither underflows nor
# overflows.

_EULER_GAMMA = 0.5772156649015329
# zeta(k) - 1 for k = 2, ..., 28, from ln Gamma(1+s) = -Euler_gamma s + s -
# ln(1+s) + sum_k (zeta(k) - 1) (-s)^k / k, which they sum to round-off for
# |s| <= 1/2
_ZETA_MINUS_1 = (
    0.6449340668482264, 0.2020569031595943, 0.08232323371113819, 0.03692775514336993,
    0.01734306198444914, 0.008349277381922827, 0.00407735619794434, 0.0020083928260822143,
    0.0009945751278180853, 0.0004941886041194645, 0.0002460865533080483, 0.00012271334757848915,
    6.124813505870483e-05, 3.058823630702049e-05, 1.528225940865187e-05, 7.637197637899763e-06,
    3.81729326499984e-06, 1.908212716553939e-06, 9.539620338727962e-07, 4.769329867878064e-07,
    2.38450502727733e-07, 1.1921992596531106e-07, 5.960818905125948e-08, 2.980350351465228e-08,
    1.4901554828365043e-08, 7.45071178983543e-09, 3.725334024788457e-09,
)
# The continued fraction above this x, the series at or below it; each keeps
# Q within about 1e-14 on its side.  At or below it the levels beta > 3/2
# climb through the reduction's identity, which is stable there; above it
# the identity cancels, so each level takes its own continued fraction.
_GAMMA_SERIES_MAX_X = 1.5
_GAMMA_MAX_TERMS = 500  # a series or continued fraction unsettled after this many terms raises
_ULP = 2.0**-52


def _lngamma1p_over_s(s: float) -> float:
    """ln Gamma(1+s) / s for |s| <= 1/2 (-Euler_gamma at s = 0), to round-off
    in absolute terms; math.lgamma is not that accurate near s = 0."""
    out = 1.0 - _EULER_GAMMA - (math.log1p(s) / s if s else 1.0)
    p = s
    for k, z in enumerate(_ZETA_MINUS_1, start=2):
        t = z * p / k
        out += t
        if abs(t) < 1e-17:
            break
        p *= -s
    return out


def _scaled_upper_gamma(beta: float, eps: float, s0: float) -> float:
    """(2eps)^{beta-1} Gamma(1-beta, x) at x = 2eps (1+s0); raises
    DomainError if its series or continued fraction does not settle."""
    s = 1.0 - beta
    two_eps = 2.0 * eps
    x = two_eps * (1.0 + s0)
    xs = (1.0 + s0) ** s  # (2eps)^{-s} x^s
    if x > _GAMMA_SERIES_MAX_X:
        # modified Lentz: Gamma(s, x) = e^{-x} x^s / (x+1-s - 1(1-s) / (x+3-s - ...))
        tiny = 1e-300
        b = x + 1.0 - s
        c, d = 1.0 / tiny, 1.0 / b
        h = d
        for i in range(1, _GAMMA_MAX_TERMS):
            an = -i * (i - s)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) >= tiny else tiny)
            c = b + an / c
            c = c if abs(c) >= tiny else tiny
            h *= d * c
            if abs(d * c - 1.0) <= _ULP:
                return math.exp(-x) * xs * h
        raise DomainError(f"incomplete gamma continued fraction did not settle (beta={beta}, x={x})")
    # the lower function past its x^s/s term: x^s sum_{k>=1} (-x)^k / (k! (s+k))
    acc, t = 0.0, 1.0
    for k in range(1, _GAMMA_MAX_TERMS):
        t *= -x / k
        term = t / (s + k)
        acc += term
        if abs(term) <= _ULP * abs(acc):
            break
    else:
        raise DomainError(f"incomplete gamma series did not settle (beta={beta}, x={x})")
    if abs(s) > 0.5:
        # no pole near: Gamma(s) - x^s (1/s + acc), with (2eps)^{-s} formed from beta exactly
        return math.pow(two_eps, beta) / two_eps * math.gamma(s) - xs * (1.0 / s + acc)
    # (Gamma(1+s) - x^s) / s = x^s expm1(s w) / s, w = ln Gamma(1+s) / s - ln x,
    # with ln x summed from its factors, since x itself may be denormal
    w = _lngamma1p_over_s(s) - (math.log(2.0) + math.log(eps) + math.log1p(s0))
    return xs * ((math.expm1(s * w) / s if s else w) - acc)


def _q_beta(beta: float, eps: float, rho: float) -> float:
    """Q(beta) = int_0^rho r^{-1+2eps} X_1^beta dr in closed form, for any
    eps > 0 and 0 < rho <= 1; DomainError where it overflows or a series
    does not settle."""
    s0 = -math.log(rho)
    steps = 0
    if 2.0 * eps * (1.0 + s0) <= _GAMMA_SERIES_MAX_X:
        steps = max(0, math.ceil(beta - 1.5))
    b = beta - steps  # exact, and so is every b below
    try:
        q = math.exp(2.0 * eps) * _scaled_upper_gamma(b, eps, s0)
    except OverflowError:
        q = math.inf
    x_rho = 1.0 / (1.0 + s0)
    for _ in range(steps):
        # 2eps Q(b) = -b Q(b+1) + rho^{2eps} X_1(rho)^b
        q = (rho ** (2.0 * eps) * x_rho**b - 2.0 * eps * q) / b
        b += 1.0
    if not math.isfinite(q):
        raise DomainError(f"Q({beta}) overflows at eps = {eps}")
    return q


# the relative error the closed form is tested to, reported as its error estimate
_Q_REL_ERR = 1e-13


def integrate_logweighted(
    power: float,
    log_exponents,
    cutoff=None,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integral over (0, 1] of r^power * prod_i X_i(r)^{1+b_i} * cutoff(r)^2.

    The finiteness cascade is applied before any quadrature; divergent
    parameter combinations raise DivergenceError naming the failed condition.
    One log factor without a cutoff is Q(1 + b_1) at rho = 1 and
    eps = (power + 1)/2, taken in closed form (:func:`_q_beta`; 1/b_1 at
    eps = 0) with no integrand evaluation; DomainError where that overflows.
    Everything else is evaluated in s = ln(1/r) coordinates, so the
    deep-origin mass of nearly-critical integrands is captured exactly.
    """
    spec = spec or QuadratureSpec()
    betas = [float(b) for b in log_exponents]
    failure = describe_cascade_failure(power, betas)
    if failure is not None:
        raise DivergenceError(f"divergent integrand: {failure}")
    eps2 = power + 1.0  # total e^{-eps2 * s} factor after the substitution
    if len(betas) == 1 and cutoff is None:
        value = 1.0 / betas[0] if eps2 == 0.0 else _q_beta(1.0 + betas[0], eps2 / 2.0, 1.0)
        err = _Q_REL_ERR * abs(value)
        return _counted(QuadratureResult(value, err, 0, err <= spec.target(value)))

    def h(s):
        s = np.asarray(s, dtype=float)
        out = np.exp(-eps2 * s)
        xs = xk_values_from_s(len(betas), s)
        for x, beta in zip(xs, betas):
            out = out * x ** (1.0 + beta)
        if cutoff is not None:
            phi = np.asarray(cutoff(np.exp(-s)), dtype=float)
            out = out * phi * phi
        return out

    return integrate_halfline(h, 0.0, spec)
