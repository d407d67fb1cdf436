"""The iterated-logarithm family X_k and its correction series.

X_1(t) = (1 - ln t)^{-1} on (0, 1], and X_k = X_1 composed with X_{k-1}.
All values lie in (0, 1], with equality exactly at t = 1.  The correction
series sum_i X_1^2 ... X_i^2 converges for t < 1 and diverges at t = 1
(every term equals 1 there).
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "x1",
    "xk",
    "xk_values",
    "xk_values_from_s",
    "log_product",
    "series_partial",
]


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
    _validate_kmax(kmax)
    return _xk_chain(kmax, _validate_t(t))


def _validate_kmax(kmax: int) -> None:
    if kmax < 0:
        raise DomainError("kmax must be >= 0")


def _xk_chain(kmax: int, arr: np.ndarray) -> list:
    """[X_1, ..., X_kmax] at an array already through :func:`_validate_t`."""
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
    _validate_kmax(i)
    arr = _validate_t(t)
    prod = np.ones_like(arr)
    for x in _xk_chain(i, arr):
        prod = prod * x
    return prod if isinstance(t, np.ndarray) else float(prod)


def series_partial(K: int, t):
    """Truncated correction weight sum_{i=1}^{K} X_1^2 ... X_i^2."""
    arr = _validate_t(t)
    _validate_kmax(K)
    acc = np.zeros_like(arr)
    prod = np.ones_like(arr)
    for x in _xk_chain(K, arr):
        prod = prod * x * x
        acc = acc + prod
    return acc if isinstance(t, np.ndarray) else float(acc)
