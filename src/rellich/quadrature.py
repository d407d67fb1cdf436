"""Adaptive 1-D quadrature for integrands with an origin singularity of
power-times-iterated-log type.

The base rule is an embedded 7/15 Gauss-Kronrod pair with bisection of the
largest-error subinterval.  Integrands whose mass concentrates
logarithmically at r = 0 are handled through the substitution r = e^{-s},
which maps (0, b] to a half-line in s; the half-line is covered by panels of
doubling width until a geometric tail extrapolation certifies the remainder.
In s-coordinates the integrand stays in floating-point range even when the
mass sits at radii far below the smallest positive double, so callers with
severe singularities should supply the transformed integrand directly
(:func:`integrate_halfline`) or use :func:`integrate_logweighted`, which
knows the analytic structure r^p X_1^{1+b_1} ... X_K^{1+b_K} phi^2.
"""

from __future__ import annotations

import heapq
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DivergenceError, DomainError

__all__ = [
    "OriginSubstitution",
    "QuadratureSpec",
    "QuadratureResult",
    "integrate",
    "integrate_halfline",
    "integrate_logweighted",
    "classify_origin_integral",
    "QuadratureCounts",
    "count_quadrature",
]


class OriginSubstitution(Enum):
    NONE = "none"
    LOG = "log"


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-11
    abs_tol: float = 1e-14
    max_subdivisions: int = 4096
    origin_substitution: OriginSubstitution = OriginSubstitution.NONE

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")

    def target(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


@dataclass
class QuadratureResult:
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
    :func:`integrate_logweighted`) counts once in every active block."""
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


def _gk_batch(f, lefts: np.ndarray, rights: np.ndarray):
    """Apply the 15-point rule to a batch of intervals with one call to f;
    returns (values, error estimates, evaluations).  Callers run it under
    ``np.errstate(all="ignore")``."""
    width = rights - lefts
    half = 0.5 * width
    mid = 0.5 * (rights + lefts)
    pts = mid[:, None] + half[:, None] * _NODES
    vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
    resk = vals @ _WGK * half
    resg = vals @ _WG * half
    resabs = np.abs(vals) @ _WGK * half
    mean = resk / np.where(width == 0.0, 1.0, width)
    resasc = np.abs(vals - mean[:, None]) @ _WGK * half
    diff = np.abs(resk - resg)
    positive = resasc > 0.0
    err = np.where(
        positive,
        resasc * np.minimum(1.0, (200.0 * diff / np.where(positive, resasc, 1.0)) ** 1.5),
        diff,
    )
    err = np.maximum(err, _ERR_FLOOR * resabs)
    return resk, err, vals.size


def _adaptive_finite(
    f, a: float, b: float, rel_tol: float, abs_tol: float, max_subdivisions: int, breakpoints=()
):
    """Adaptive bisection on [a, b] until the error estimate meets
    max(abs_tol, rel_tol * |value|); returns (value, error, evals, converged).

    The heap and the running totals hold Python floats, which round exactly
    as numpy's float64 scalars do at a fraction of the per-operation cost."""
    with np.errstate(all="ignore"):
        cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
        vals, errs, n_eval = _gk_batch(f, np.array(cuts[:-1]), np.array(cuts[1:]))
        total = float(np.sum(vals))
        total_err = float(np.sum(errs))
        heap = [
            (-e, lo, hi, v, e) for lo, hi, v, e in zip(cuts[:-1], cuts[1:], vals.tolist(), errs.tolist())
        ]
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
            new_vals, new_errs, ne = _gk_batch(f, np.array(ls), np.array(rs))
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


def integrate_halfline(
    h, s0: float, spec: QuadratureSpec | None = None, s_cap: float = _HALFLINE_S_MAX
) -> QuadratureResult:
    """Integrate h over [s0, infinity) with doubling panels and tail extrapolation.

    Intended for log-substituted integrands h(s) = f(e^{-s}) e^{-s}; the panel
    widths double so that power-law tails in s decay geometrically per panel.
    Stops once the extrapolated tail falls below the tolerance; an integrand
    that never settles (a divergent tail) ends with converged=False rather
    than a silently wrong value.  When the ``s_cap`` truncation is reached
    the still-unresolved tail is estimated and folded into the error.
    """
    return _counted(_halfline(h, s0, spec or QuadratureSpec(), s_cap))


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

    panel_subdivisions = max(64, spec.max_subdivisions // 16)
    for _ in range(_HALFLINE_MAX_PANELS):
        right = left + width
        sub_abs = max(spec.abs_tol, spec.rel_tol * abs(acc)) / 8.0
        v, e, n, _ok = _adaptive_finite(h, left, right, spec.rel_tol, sub_abs, panel_subdivisions)
        evals += n
        if not np.isfinite(v):
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
            if tail is not None:
                err += tail
            break
    converged = converged and err <= spec.target(acc)
    return QuadratureResult(acc, err, evals, converged)


# Cap for the generic r-space LOG path: below r = e^{-650} an r-space callable
# would be fed denormal radii, so the transform is truncated there; integrands
# with deeper mass must use the s-space entry points.
_RSPACE_S_CAP = 650.0


def integrate(f, a: float, b: float, spec: QuadratureSpec | None = None, breakpoints=()) -> QuadratureResult:
    """Integrate f over (a, b); f may be singular (but integrable) at a.

    With origin_substitution=LOG and a=0, the integral is computed in
    s = ln(1/r) coordinates.  f must accept numpy arrays.
    """
    spec = spec or QuadratureSpec()
    if not (b > a):
        raise DomainError("need b > a")
    if a < 0:
        raise DomainError("need a >= 0")
    if spec.origin_substitution is OriginSubstitution.LOG and a == 0.0:
        s0 = math.log(1.0 / b)

        def h(s):
            r = np.exp(-np.asarray(s, dtype=float))
            out = np.zeros_like(r)
            mask = r > 0.0
            if mask.any():
                out[mask] = np.asarray(f(r[mask]), dtype=float) * r[mask]
            return out

        return _counted(_halfline(h, s0, spec, _RSPACE_S_CAP))
    value, err, evals, converged = _adaptive_finite(
        f, a, b, spec.rel_tol, spec.abs_tol, spec.max_subdivisions, breakpoints
    )
    return _counted(QuadratureResult(value, err, evals, converged))


def _x_chain_from_s(s: np.ndarray, count: int) -> list[np.ndarray]:
    """[X_1, ..., X_count] at r = e^{-s}, computed without forming r."""
    xs = []
    v = 1.0 / (1.0 + s)
    for _ in range(count):
        xs.append(v)
        v = 1.0 / (1.0 - np.log(v))
    return xs


def describe_cascade_failure(power: float, log_exponents) -> str | None:
    """Apply the finiteness cascade; returns a failure description or None.

    The integrand is r^power * prod_i X_i^{1 + b_i} * phi^2 with b_i the given
    exponent offsets.  Finite iff eps := (power+1)/2 > 0, or eps = 0 and the
    first nonzero offset is positive.
    """
    eps = (power + 1.0) / 2.0
    if eps > 0:
        return None
    if eps < 0:
        return f"power {power} < -1 (eps = {eps} < 0)"
    for i, beta in enumerate(log_exponents, start=1):
        if beta > 0:
            return None
        if beta < 0:
            return f"eps = 0 and the first nonzero log exponent offset beta_{i} = {beta} <= 0"
    return "eps = 0 and every log exponent offset is zero"


def integrate_logweighted(
    power: float,
    log_exponents,
    cutoff=None,
    spec: QuadratureSpec | None = None,
) -> QuadratureResult:
    """Integral over (0, 1] of r^power * prod_i X_i(r)^{1+b_i} * cutoff(r)^2.

    The finiteness cascade is applied before any quadrature; divergent
    parameter combinations raise DivergenceError naming the failed condition.
    Evaluation happens in s = ln(1/r) coordinates, so the deep-origin mass of
    nearly-critical integrands is captured exactly.
    """
    spec = spec or QuadratureSpec()
    betas = [float(b) for b in log_exponents]
    failure = describe_cascade_failure(power, betas)
    if failure is not None:
        raise DivergenceError(f"divergent integrand: {failure}")
    eps2 = power + 1.0  # total e^{-eps2 * s} factor after the substitution

    def h(s):
        s = np.asarray(s, dtype=float)
        out = np.exp(-eps2 * s)
        xs = _x_chain_from_s(s, len(betas))
        for x, beta in zip(xs, betas):
            out = out * x ** (1.0 + beta)
        if cutoff is not None:
            phi = np.asarray(cutoff(np.exp(-s)), dtype=float)
            out = out * phi * phi
        return out

    return integrate_halfline(h, 0.0, spec)


def classify_origin_integral(
    f,
    spec: QuadratureSpec | None = None,
    growth_factor: float = 1e6,
    j_max: int = 60,
):
    """Finite/divergent classification of int_0^1 f(r) dr by nested intervals.

    Integrates over (2^{-j}, 1] for growing j and inspects the increments.
    Returns ("finite", value) or ("divergent", None).  Increments decaying
    slower than j^{-1.05} (log-type divergence), non-decaying increments, or
    growth of the partial integrals beyond growth_factor all classify as
    divergent.
    """
    spec = spec or QuadratureSpec()
    loose_rel = max(spec.rel_tol, 1e-9)
    increments = []
    partial = 0.0
    first_scale = None
    ln2 = math.log(2.0)
    for j in range(j_max):
        lo, hi = math.exp(-(j + 1) * ln2), math.exp(-j * ln2)
        v, _e, _n, _ok = _adaptive_finite(f, lo, hi, loose_rel, spec.abs_tol, 512)
        if not np.isfinite(v):
            return "divergent", None
        increments.append(v)
        partial += v
        if first_scale is None and abs(partial) > 0:
            first_scale = abs(partial)
        if first_scale is not None and abs(partial) > growth_factor * first_scale:
            return "divergent", None
    mags = [abs(d) for d in increments]
    tail_scale = max(mags[-8:])
    if tail_scale == 0.0:
        return "finite", partial
    if partial != 0 and tail_scale < 1e-13 * abs(partial):
        return "finite", partial
    # estimate the polynomial decay exponent of the increments in j
    alphas = []
    for j in range(j_max - 10, j_max):
        d_prev, d_cur = mags[j - 1], mags[j]
        if d_prev > 0 and d_cur > 0:
            alphas.append(math.log(d_prev / d_cur) / math.log(j / (j - 1.0)))
    if not alphas:
        return "divergent", None
    alpha = float(np.median(alphas))
    if alpha <= 1.05:
        return "divergent", None
    # power-law tail correction d_j ~ C j^{-alpha}
    tail = mags[-1] * (j_max - 1) / (alpha - 1.0)
    return "finite", partial + math.copysign(tail, increments[-1])
