"""Adaptive 1-D quadrature for integrands with an origin singularity of
power-times-iterated-log type.

The base rule is an embedded 7/15 Gauss-Kronrod pair with bisection of the
largest-error subintervals (:func:`_bisection`), which one engine drives
for any number of integrals in lockstep, one integrand call and one sums
call per round (:func:`_lockstep`): on one interval (:func:`_integrate_many`;
:func:`integrate` is its one-integral case) or on one half-line
(:func:`_halfline_many`).  The engine alone decides which integrals share
nodes: each round hands the integrand its node groups, each distinct node
array once with the integrals evaluated on it (:func:`_round`).  An
integral over one interval starts on the 225 nodes of its first four
bisection levels and walks those levels in one pass, with no heap
(:func:`_block_bisection`).  Integrands whose mass
concentrates at r = 0 are handled through the substitution r = e^{-s},
which maps (0, b] to a half-line in s; the half-line is covered by panels of
doubling width until a geometric tail extrapolation certifies the remainder
(:func:`integrate_halfline`), and the panels that need bisecting bisect
concurrently (:func:`_halfline`).  :func:`origin_integral` is the one origin
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
    """The two tolerances.  The hash, the dataclass's own, is computed once:
    a spec keys the store of every test function."""

    rel_tol: float = 1e-11
    abs_tol: float = 1e-14

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError(f"tolerances must be finite and positive, got {self.rel_tol}, {self.abs_tol}")
        object.__setattr__(self, "_hash", hash((self.rel_tol, self.abs_tol)))

    def __hash__(self) -> int:
        return self._hash

    def target(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


@dataclass
class QuadratureResult:
    """An integral's value, its error estimate, whether that met the
    tolerance, and ``evaluations``: every point the integrand was called on,
    including points the integral did not use (the half-line's look-ahead
    panels past the stopping one and its speculative bisection rounds, the
    levels of a single interval's 225-point block past the one it stops
    at)."""

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
    :func:`origin_integral`, :func:`integrate_logweighted`) and each integral
    of an :func:`_integrate_many`, :func:`_halfline_many` or
    :func:`_origin_many` run counts once in every active block, with its
    ``evaluations`` (points evaluated but not used included)."""
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


_BLOCK_LEVELS = 4  # uniform bisection levels (1, 2, 4 and 8 intervals) one integrand call covers

# the most intervals an integral over a finite interval is bisected into; a
# half-line panel may take 1/16 of it, and at least 64.  Read at call time.
_MAX_SUBDIVISIONS = 4096


def _level(total: float, total_err: float, batch, halves) -> tuple[float, float]:
    """The totals after one bisection round: the (value, error) of each
    interval of ``batch`` out, in its order, then those of ``halves``, the
    batch's halves in the same order, in.  Entries are heap entries (-error, left,
    right, value, error, ...)."""
    for entry in batch:
        total -= entry[3]
        total_err -= entry[4]
    for entry in halves:
        total += entry[3]
        total_err += entry[4]
    return total, total_err


def _bisection(lefts, rights, rel_tol: float, abs_tol: float, max_subdivisions: int, rules=None, trace=None):
    """Bisect one integral from the intervals [lefts[i], rights[i]] until its
    error meets max(abs_tol, rel_tol * |value|).  A generator: it yields
    each batch of intervals it needs rules for as (lefts, rights) lists,
    takes their (values, errors) lists and returns (value, error,
    converged).  The first batch is the starting intervals, unless their
    ``rules`` = (values, errors, total, total_err) are given; each later one
    bisects the up to 16 largest-error intervals, popped from a heap of
    entries (-error, left, right, value, error), and the totals move by
    :func:`_level`.  The intervals and totals never depend on abs_tol,
    which only picks the round the bisection stops at; a ``trace`` list
    gets the (value, error) after each round with a finite value.  Heap and
    totals hold Python floats, which round as numpy's float64 scalars do,
    at a fraction of the cost."""
    if rules is None:
        values, errors = yield lefts, rights
        total, total_err = float(np.add.reduce(values)), float(np.add.reduce(errors))
    else:
        values, errors, total, total_err = rules
    heap = [(-e, lo, hi, v, e) for lo, hi, v, e in zip(lefts, rights, values, errors)]
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
        values, errors = yield ls, rs
        n_sub += len(batch)
        halves = [(-e, lo, hi, v, e) for lo, hi, v, e in zip(ls, rs, values, errors)]
        total, total_err = _level(total, total_err, batch, halves)
        for entry in halves:
            heapq.heappush(heap, entry)
        if not math.isfinite(total):
            return total, math.inf, False
        if trace is not None:
            trace.append((total, total_err))
    return total, total_err, total_err <= max(abs_tol, rel_tol * abs(total))


def _block(a: float, b: float) -> tuple[list, list]:
    """(lefts, rights) of the first ``_BLOCK_LEVELS`` bisection levels of
    [a, b], level by level (15 intervals), each cut as :func:`_bisection`
    cuts it: interval j's halves are intervals 2j + 1 and 2j + 2."""
    edges = [(a, b)]
    for j in range(2 ** (_BLOCK_LEVELS - 1) - 1):
        lo, hi = edges[j]
        mid = 0.5 * (lo + hi)
        edges += (lo, mid), (mid, hi)
    return [lo for lo, _ in edges], [hi for _, hi in edges]


def _block_bisection(block, rel_tol: float, abs_tol: float, max_subdivisions: int):
    """:func:`_bisection` of one interval [a, b] whose first batch is its
    ``block`` = :func:`_block` (a, b), 225 nodes: bitwise, in value, error
    and converged, ``_bisection([a], [b], ...)``.

    While an integral holds at most 16 intervals, :func:`_bisection`
    bisects every one of them each round, so the block's levels follow from
    its 15 rules alone, in one pass with no heap: each level's intervals are
    sorted in heap order, the totals move by :func:`_level`, and the same
    stop test and non-finite return follow each level.  An integral that
    goes on past the block bisects on from its last level's 8 intervals and
    totals.  If the block's batch raises, the integral goes on from [a, b],
    one batch per round, and an exception surfaces only from a batch it
    needs."""
    lefts, rights = block
    try:
        values, errors = yield lefts, rights
    except Exception:
        values = None
    if values is None:
        return (yield from _bisection(lefts[:1], rights[:1], rel_tol, abs_tol, max_subdivisions))
    total, total_err = values[0], errors[0]
    level = [(-total_err, lefts[0], rights[0], total, total_err, 0)]  # heap entries and their index
    while total_err > max(abs_tol, rel_tol * abs(total)) and len(level) < max_subdivisions:
        if 2 * len(level) > len(values):  # the last level: its halves lie past the block
            last = len(values) // 2
            rules = values[last:], errors[last:], total, total_err
            return (yield from _bisection(lefts[last:], rights[last:], rel_tol, abs_tol, max_subdivisions, rules))
        level.sort()
        halves = []
        for entry in level:
            for j in (2 * entry[5] + 1, 2 * entry[5] + 2):
                halves.append((-errors[j], lefts[j], rights[j], values[j], errors[j], j))
        total, total_err = _level(total, total_err, level, halves)
        if not math.isfinite(total):
            return total, math.inf, False
        level = halves
    return total, total_err, total_err <= max(abs_tol, rel_tol * abs(total))


def _round(f, spans: dict) -> list:
    """[(i, rules, evaluations)]: the rules (values, errors), as lists, of
    the intervals spans[i] = (lefts, rights), two lists, of each integral
    i, from one call ``f(groups)`` and one :func:`_gk_sums` call.
    ``groups`` lists each distinct node array once, as (x, which): the
    integrals ``which``, whose spans are equal, take their nodes x.  f
    returns a sequence whose entry i is integral i's values at its nodes.
    This is the one place that decides which integrals share nodes.  If
    the call raises, f is called per integral, and an integral whose own
    call raises gets the exception in place of its rules, with no
    evaluations.  Run under np.errstate."""
    ls, rs = [], []
    for lefts, rights in spans.values():
        ls += lefts
        rs += rights
    lefts, rights = np.array(ls), np.array(rs)
    points = _gk_points(lefts, rights).ravel()  # elementwise: each span's rows as alone
    shared, start = {}, 0
    for i, (ls, rs) in spans.items():
        key = (*ls, *rs) if len(spans) > 1 else None  # one span: nothing to share
        shared.setdefault(key, (points[start : start + 15 * len(ls)], []))[1].append(i)
        start += 15 * len(ls)
    try:
        at_nodes = f(list(shared.values()))
        vals = [np.asarray(at_nodes[i], dtype=float).reshape(-1, 15) for i in spans]
    except Exception as exc:
        if len(spans) > 1:
            return [out for i in spans for out in _round(f, {i: spans[i]})]
        return [(i, exc, 0) for i in spans]
    values, errors = _gk_sums(np.concatenate(vals) if len(vals) > 1 else vals[0], lefts, rights)
    values, errors = values.tolist(), errors.tolist()
    out, start = [], 0
    for i, v in zip(spans, vals):
        out.append((i, (values[start : start + len(v)], errors[start : start + len(v)]), v.size))
        start += len(v)
    return out


def _lockstep(f, gens: list) -> list:
    """Drive the generators ``gens`` (:func:`_bisection`,
    :func:`_block_bisection` or :func:`_halfline`), one per integral, in
    rounds (:func:`_round`), each taking the next batch of every integral
    that has not stopped: each integral's (value, error, evaluations,
    converged), bitwise that of the integral alone.  A batch whose
    integrand call raises is thrown into its generator, which may yield a
    smaller batch or let it surface."""
    n = len(gens)
    evals, out = [0] * n, [None] * n
    rules = dict.fromkeys(range(n))  # what each live integral takes next
    while rules:
        pending = {}
        for i, got in rules.items():
            try:
                pending[i] = gens[i].throw(got) if isinstance(got, Exception) else gens[i].send(got)
            except StopIteration as stop:
                out[i] = stop.value
        rules = {}
        for i, got, size in _round(f, pending) if pending else ():
            evals[i] += size
            rules[i] = got
    return [(value, err, n_eval, converged) for (value, err, converged), n_eval in zip(out, evals)]


_HALFLINE_MAX_PANELS = 900
_HALFLINE_S_MAX = 1e200
_LOOKAHEAD = 16  # panels whose first rule one round evaluates
_SPECULATIVE = 8  # looked-ahead panels past the head that may bisect in a round


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

    h must act elementwise.  This is :func:`_halfline_many` for one
    integral: one call to h gives the first 15-point rule of the next
    ``_LOOKAHEAD`` (16) panels, which settles most panels, and the panels
    that need bisecting bisect in the same calls (see :func:`_halfline`);
    the result is bitwise that of one panel at a time.  The panel that
    crosses ``s_cap`` ends there, so no node lies past it, and is evaluated
    only once the integral needs it, in a call of its own.  Points of panels
    past the stopping one, and of speculative bisection rounds, count in
    ``evaluations``.  If a call raises, the integral goes on with the panels
    it needs, one per call, so an exception surfaces only from a panel the
    integral needs.  A non-finite s0 raises DomainError.
    """
    return _halfline_many(lambda groups: [h(groups[0][0])], 1, s0, spec, s_cap)[0]


def _halfline_many(f, n: int, s0: float, spec: QuadratureSpec | None = None, s_cap: float = _HALFLINE_S_MAX):
    """The integrals over [s0, infinity) of n integrands, their half-line
    rules (:func:`_halfline`) run in lockstep (:func:`_lockstep`), as a
    list of :class:`QuadratureResult`.  ``f(groups)`` is called as in
    :func:`_integrate_many`.  Integral i is bitwise, and counts as,
    ``integrate_halfline(f_i, s0, spec, s_cap)``."""
    spec = spec or QuadratureSpec()
    if not math.isfinite(s0):
        raise DomainError(f"need a finite s0, got {s0}")
    with np.errstate(all="ignore"):
        results = _lockstep(f, [_halfline(s0, spec, s_cap) for _ in range(n)])
    return [_counted(QuadratureResult(*res)) for res in results]


class _Panel:
    """A half-line panel [left, right] and its bisection, which runs with no
    absolute tolerance (:func:`_bisection`): ``trace`` holds its (value,
    error) from the first rule on, one entry per round, ``batch`` the
    intervals it waits for rules on, and ``final`` its (value, error) once
    the bisection has returned."""

    __slots__ = ("left", "right", "trace", "gen", "batch", "final")

    def __init__(self, left: float, right: float, value: float, error: float):
        self.left, self.right = left, right
        self.trace = [(value, error)]
        self.gen = self.batch = self.final = None

    def result(self, sub_abs: float, rel_tol: float):
        """The panel's (value, error) at absolute tolerance sub_abs: the first
        round that meets it, where the bisection run with that tolerance
        stops, else the final one; None while neither is known."""
        for total, total_err in self.trace:
            if not total_err > max(sub_abs, rel_tol * abs(total)):
                return total, total_err
        return self.final

    def misses(self, sub_abs: float, rel_tol: float) -> bool:
        """Whether the bisection goes on and its last round misses sub_abs."""
        total, total_err = self.trace[-1]
        return self.final is None and total_err > max(sub_abs, rel_tol * abs(total))

    def advance(self, rules, rel_tol: float, subdivisions: int) -> None:
        """Start the bisection (rules None), or give it the rules of
        ``batch``, and take its next batch."""
        if self.gen is None:
            value, error = self.trace[0]
            first = [value], [error], value, error
            self.gen = _bisection([self.left], [self.right], rel_tol, 0.0, subdivisions, first, self.trace)
        try:
            self.batch = self.gen.send(rules)
        except StopIteration as stop:
            self.final, self.batch = stop.value[:2], None


def _tail_estimate(panel_abs: list) -> float | None:
    """The geometric extrapolation of the panels' |values| past the last
    one, or None where they do not decay."""
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


def _halfline(s0: float, spec: QuadratureSpec, s_cap: float):
    """The half-line rule of :func:`integrate_halfline` in :func:`_bisection`'s
    form: a generator that yields batches and returns (value, error,
    converged).

    The panels are taken in order.  Panel p bisects, from its first rule,
    to the absolute tolerance sub_abs = max(abs_tol, rel_tol * |acc|) / 8,
    acc the sum of the panels before it.  Its bisection's intervals never
    depend on sub_abs, so it runs with none (:class:`_Panel`) and records
    each round; p's result is the first recorded round that meets its
    sub_abs once the panels before it are done.  A batch is either the
    first rules of the next ``_LOOKAHEAD`` panels, or one bisection round
    of the first panel not done (the head) together with up to
    ``_SPECULATIVE`` later looked-ahead panels whose last round misses a
    sub_abs estimated from the running sum of the first rules, none past
    the panel where the first rules' tail estimate stops the integral.  If
    a batch raises, it goes again without the speculative panels, and a
    look-ahead goes on one panel per batch, so only a needed panel's
    exception surfaces."""
    rel_tol, abs_tol = spec.rel_tol, spec.abs_tol
    subdivisions = max(64, _MAX_SUBDIVISIONS // 16)
    ahead, speculative = _LOOKAHEAD, _SPECULATIVE
    acc = err = 0.0
    panel_abs: list[float] = []
    panels: list[_Panel] = []  # the looked-ahead panels from the head on
    left, width = s0, 1.0  # the first panel not looked ahead
    for done in range(_HALFLINE_MAX_PANELS):
        while not panels:
            lefts, rights, lo, w = [], [], left, width
            for _ in range(min(ahead, _HALFLINE_MAX_PANELS - done)):
                if lefts and lo + w > s_cap:
                    break  # the panel that crosses s_cap only as the first
                lefts.append(lo)
                rights.append(min(lo + w, s_cap))  # it ends at s_cap
                lo, w = lo + w, 2.0 * w
            try:
                values, errors = yield lefts, rights
            except Exception:
                if len(lefts) == 1:
                    raise
                ahead = 1
                continue
            panels = [_Panel(*rule) for rule in zip(lefts, rights, values, errors)]
            left, width = lo, w
        head = panels[0]
        sub_abs = max(abs_tol, rel_tol * abs(acc)) / 8.0
        while (rule := head.result(sub_abs, rel_tol)) is None:
            moving, guess, guess_abs = [head], acc, panel_abs[-3:]
            for panel in panels:
                if len(moving) > speculative:
                    break
                if panel is not head and panel.misses(max(abs_tol, rel_tol * abs(guess)) / 8.0, rel_tol):
                    moving.append(panel)
                guess += panel.trace[0][0]
                guess_abs.append(abs(panel.trace[0][0]))
                tail = _tail_estimate(guess_abs)
                if tail is not None and tail <= spec.target(guess) / 2.0:
                    break  # the first rules say the integral stops here
            for panel in moving:
                if panel.gen is None:
                    panel.advance(None, rel_tol, subdivisions)
            ls = [x for panel in moving for x in panel.batch[0]]
            rs = [x for panel in moving for x in panel.batch[1]]
            try:
                values, errors = yield ls, rs
            except Exception:
                if len(moving) == 1:
                    raise
                speculative = 0
                continue
            start = 0
            for panel in moving:
                end = start + len(panel.batch[0])
                panel.advance((values[start:end], errors[start:end]), rel_tol, subdivisions)
                start = end
        panels.pop(0)
        value, error = rule
        if not math.isfinite(value):
            return acc, math.inf, False
        acc += value
        err += error
        panel_abs.append(abs(value))
        tail = _tail_estimate(panel_abs)
        if tail is not None and tail <= spec.target(acc) / 2.0:
            err += tail
            return acc, err, err <= spec.target(acc)
        if head.right >= s_cap:
            # the half-line past s_cap is left out: add its extrapolated
            # tail, or an unknown error where the panels do not decay
            return acc, err + (math.inf if tail is None else tail), False
    return acc, err, False


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None, breakpoints=()) -> QuadratureResult:
    """Integrate f over (a, b); f may be singular (but integrable) at a.

    f must accept numpy arrays and act elementwise.  This is
    :func:`_integrate_many` for one integral: with no breakpoint inside
    (a, b), its first call evaluates the first four bisection levels (225
    points).  a and b must be finite.  Integrals from the origin whose
    mass sits at r -> 0 go through :func:`origin_integral`.
    """
    return _integrate_many(lambda groups: [f(groups[0][0])], 1, a, b, spec, breakpoints)[0]


def _integrate_many(f, n: int, a: float, b: float, spec: QuadratureSpec | None = None, breakpoints=()):
    """The integrals over (a, b) of n integrands, bisected in lockstep
    (:func:`_lockstep`), as a list of :class:`QuadratureResult`.

    ``f(groups)`` takes each round's distinct node arrays once, as (x,
    which) with ``which`` the integrals evaluated on x, and returns a
    sequence whose entry i is integral i's values (see :func:`_round`); an
    integral that needs nothing in a round is in no group.  The first round
    is the 225 nodes of the first four bisection levels when no breakpoint
    lies inside (a, b) (:func:`_block_bisection`), else the intervals
    between a, the breakpoints and b (:func:`_bisection`).  Integral i is
    bitwise, and counts as, ``integrate(f_i, a, b, spec, breakpoints)``.
    Non-finite bounds raise DomainError before any integrand call."""
    spec = spec or QuadratureSpec()
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"need finite bounds, got ({a}, {b})")
    if not (b > a):
        raise DomainError("need b > a")
    if a < 0:
        raise DomainError("need a >= 0")
    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    tols = spec.rel_tol, spec.abs_tol, _MAX_SUBDIVISIONS
    if len(cuts) == 2:
        block = _block(a, b)
        gens = [_block_bisection(block, *tols) for _ in range(n)]
    else:
        gens = [_bisection(cuts[:-1], cuts[1:], *tols) for _ in range(n)]
    with np.errstate(all="ignore"):
        results = _lockstep(f, gens)
    return [_counted(QuadratureResult(*res)) for res in results]


# Cap for the r-space log substitution: below r = e^{-650} an r-space callable
# would be fed denormal radii, so the transform is truncated there; integrands
# with deeper mass must use the s-space entry points.
_RSPACE_S_CAP = 650.0


def origin_integral(f, origin_power: float, hi: float, spec: QuadratureSpec | None = None) -> QuadratureResult:
    """int_0^hi f dr for an f that behaves like r^origin_power at the origin.

    With origin_power < 0 the integral is computed in s = ln(1/r)
    coordinates by :func:`_origin_many` (the half-line rule truncated at
    s = 650, where r reaches the denormal range); otherwise by
    :func:`integrate` on (0, hi]; hi must be finite.  f must accept numpy
    arrays and act elementwise.  Either way the integral counts as one
    entry-point call.
    """
    if not hi > 0.0:
        raise DomainError("need hi > 0")
    if origin_power >= 0.0:
        return integrate(f, 0.0, hi, spec)
    return _origin_many(lambda groups: [f(groups[0][0])], 1, hi, spec)[0]


def _origin_many(f, n: int, hi: float, spec: QuadratureSpec | None = None) -> list:
    """The integrals over (0, hi] of n r-space integrands in s = ln(1/r)
    (:func:`_halfline_many` from ln(1/hi), truncated at s = 650), as a
    list of :class:`QuadratureResult`.  ``f(groups)`` takes groups of radii
    as :func:`_integrate_many` takes groups of nodes: each group's nodes in
    s are mapped to radii once, the radii that underflow to 0 are left out
    and their integrand values are 0, a group with no radius left is left
    out, and f is not called where no group is left.  Integral i is
    bitwise, and counts as, ``origin_integral(f_i, p, hi, spec)`` with
    p < 0."""
    if not 0.0 < hi < math.inf:
        raise DomainError(f"need 0 < hi < inf, got {hi}")

    def h(groups):
        radii = []  # each group's e^{-s}, where it is > 0, and its radii there
        for s, which in groups:
            r = np.exp(-s)
            mask = r > 0.0
            radii.append((r, mask, r[mask], which))
        live = [(kept, which) for _, _, kept, which in radii if kept.size]
        values = f(live) if live else ()
        out = [None] * n
        for r, mask, kept, which in radii:
            for i in which:
                out[i] = np.zeros_like(r)
                if kept.size:
                    out[i][mask] = np.asarray(values[i], dtype=float) * kept
        return out

    return _halfline_many(h, n, math.log(1.0 / hi), spec, _RSPACE_S_CAP)


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
    At eps = 0 without a cutoff a leading b_1 = 0 drops out: u = ln(1 + s)
    takes X_1 ds to du and X_{i+1}(s) to X_i(u), so the integral is the one
    over the offsets b_2, ....
    Everything else is evaluated in s = ln(1/r) coordinates, so the
    deep-origin mass of nearly-critical integrands is captured exactly.
    """
    spec = spec or QuadratureSpec()
    betas = [float(b) for b in log_exponents]
    failure = describe_cascade_failure(power, betas)
    if failure is not None:
        raise DivergenceError(f"divergent integrand: {failure}")
    eps2 = power + 1.0  # total e^{-eps2 * s} factor after the substitution
    while eps2 == 0.0 and cutoff is None and betas[0] == 0.0:
        betas = betas[1:]
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
