"""The iterated-logarithm family X_k and its correction series.

X_1(t) = (1 - ln t)^{-1} on (0, 1], and X_k = X_1 composed with X_{k-1}.
All values lie in (0, 1], with equality exactly at t = 1.  The correction
series sum_i X_1^2 ... X_i^2 converges for t < 1 and diverges at t = 1
(every term equals 1 there).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError

__all__ = [
    "SeriesValue",
    "x1",
    "xk",
    "xk_values",
    "xk_values_from_s",
    "log_product",
    "xk_power_derivative",
    "series_sum",
    "series_partial",
]

SERIES_TERM_CAP = 64


def _validate_t(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0.0):
        raise DomainError("argument must be positive")
    if not np.all(arr <= 1.0):
        raise DomainError("argument must be <= 1")
    return arr


def x1(t):
    """X_1(t) = 1/(1 - ln t); accepts scalars or arrays in (0, 1]."""
    arr = _validate_t(t)
    out = 1.0 / (1.0 - np.log(arr))
    return out if isinstance(t, np.ndarray) else float(out)


def xk(k: int, t):
    """X_k(t) by recursive composition, k >= 1."""
    if k < 1 or k != int(k):
        raise DomainError(f"k must be a positive integer, got {k}")
    arr = _validate_t(t)
    v = arr
    for _ in range(int(k)):
        v = 1.0 / (1.0 - np.log(v))
    return v if isinstance(t, np.ndarray) else float(v)


def xk_values(kmax: int, t) -> list:
    """[X_1(t), ..., X_kmax(t)] sharing one recursion pass."""
    if kmax < 0:
        raise DomainError("kmax must be >= 0")
    arr = _validate_t(t)
    out = []
    v = arr
    for _ in range(kmax):
        v = 1.0 / (1.0 - np.log(v))
        out.append(v)
    return out


def xk_values_from_s(kmax: int, s) -> list:
    """[X_1, ..., X_kmax] at t = e^{-s} for an array s >= 0, computed without
    forming t (X_1 = 1/(1 + s) exactly)."""
    out = []
    v = 1.0 / (1.0 + s)
    for _ in range(kmax):
        out.append(v)
        v = 1.0 / (1.0 - np.log(v))
    return out


def log_product(i: int, t):
    """The product X_1(t) X_2(t) ... X_i(t); equals 1 for i = 0."""
    xs = xk_values(i, t)
    arr = _validate_t(t)
    prod = np.ones_like(arr)
    for x in xs:
        prod = prod * x
    return prod if isinstance(t, np.ndarray) else float(prod)


def xk_power_derivative(i: int, beta: float, t):
    """d/dt of X_i(t)^beta = (beta/t) X_1 ... X_{i-1} X_i^{1+beta}."""
    if i < 1 or i != int(i):
        raise DomainError(f"i must be a positive integer, got {i}")
    if beta == -1:
        raise DomainError("beta = -1 is excluded (X_i^{-1} differentiates to a different form)")
    arr = _validate_t(t)
    xs = xk_values(int(i), arr)
    prod = np.ones_like(arr)
    for x in xs[:-1]:
        prod = prod * x
    out = (beta / arr) * prod * xs[-1] ** (1.0 + beta)
    return out if isinstance(t, np.ndarray) else float(out)


def series_partial(K: int, t):
    """Truncated correction weight sum_{i=1}^{K} X_1^2 ... X_i^2."""
    arr = _validate_t(t)
    xs = xk_values(K, arr)
    acc = np.zeros_like(arr)
    prod = np.ones_like(arr)
    for x in xs:
        prod = prod * x * x
        acc = acc + prod
    return acc if isinstance(t, np.ndarray) else float(acc)


@dataclass(frozen=True)
class SeriesValue:
    """Partial sum of the correction series plus an estimated remainder bound.

    The bound is the geometric-tail estimate term_K * X_{K+1}^2 / (1 - X_{K+1}^2).
    Because the factors X_i(t) increase towards 1 with i, this estimate is of
    the right order but is not a rigorous majorant; callers should treat it as
    an accuracy indicator, not a certificate.  ``converged`` says whether the
    bound met ``tol * value`` within the term cap; when it is False, ``value``
    is a partial sum whose bound missed the requested accuracy.
    """

    value: float
    terms_used: int
    truncation_bound: float
    converged: bool


def series_sum(t: float, tol: float = 1e-10) -> SeriesValue:
    """Sum the correction series at a scalar t in (0, 1).

    Stops when the tail estimate drops below ``tol * partial_sum``; caps at
    64 terms and reports whatever bound was reached, with ``converged=False``.
    t = 1 is an explicit divergence error (every term equals 1 there).
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    tf = float(t)
    _validate_t(tf)
    if tf == 1.0:
        raise DivergenceError("series diverges at t = 1: every term equals 1")
    total = 0.0
    prod = 1.0
    v = tf
    bound = np.inf
    terms = 0
    while terms < SERIES_TERM_CAP:
        v = 1.0 / (1.0 - np.log(v))
        prod *= v * v
        total += prod
        terms += 1
        x_next = 1.0 / (1.0 - np.log(v))
        q = x_next * x_next
        bound = prod * q / (1.0 - q) if q < 1.0 else np.inf
        if bound <= tol * total:
            break
    return SeriesValue(
        value=total,
        terms_used=terms,
        truncation_bound=float(bound),
        converged=bool(bound <= tol * total),
    )
