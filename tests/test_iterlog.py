import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellich.errors import DivergenceError, DomainError
from rellich.iterlog import (
    log_product,
    series_partial,
    series_sum,
    x1,
    xk,
    xk_power_derivative,
)

E = math.e

# frozen with mpmath at 40 digits: X_1(X_1(e^-1)) and one more composition
XK2_AT_EINV = 0.5906161091496412
XK3_AT_EINV = 0.6550551442706867
# frozen brute-force sum of 40000 series terms at t = e^-1 (mpmath, 40 digits)
SERIES_AT_EINV = 0.4222711203650107


def test_x1_closed_form_points():
    assert x1(1.0) == 1.0
    assert x1(math.exp(-1)) == pytest.approx(0.5, rel=1e-15)
    assert x1(math.exp(-3)) == pytest.approx(0.25, rel=1e-15)


def test_x1_domain_errors():
    for bad in (0.0, -1.0, 1.0001):
        with pytest.raises(DomainError):
            x1(bad)


def test_xk_values():
    assert xk(2, 1.0) == 1.0
    assert xk(2, math.exp(-1)) == pytest.approx(XK2_AT_EINV, rel=1e-14)
    assert xk(3, math.exp(-1)) == pytest.approx(XK3_AT_EINV, rel=1e-14)
    with pytest.raises(DomainError):
        xk(0, 0.5)


def test_xk_accepts_arrays():
    t = np.array([0.1, 0.5, 1.0])
    out = xk(2, t)
    assert out.shape == t.shape
    assert np.all((out > 0) & (out <= 1))


@given(st.floats(min_value=1e-6, max_value=1.0), st.integers(min_value=1, max_value=6))
@settings(max_examples=200)
def test_xk_range_property(t, k):
    v = xk(k, t)
    assert 0.0 < v <= 1.0
    if t == 1.0:
        assert v == 1.0
    elif t <= 1.0 - 1e-12:  # away from the unit fixed point up to round-off
        assert v < 1.0


@given(
    st.floats(min_value=1e-6, max_value=0.999),
    st.floats(min_value=1e-6, max_value=0.999),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=200)
def test_xk_monotone_property(t1, t2, k):
    lo, hi = min(t1, t2), max(t1, t2)
    assert xk(k, lo) <= xk(k, hi)
    if hi >= lo * (1.0 + 1e-9):  # strictly increasing once resolvable in floats
        assert xk(k, lo) < xk(k, hi)


@given(st.floats(min_value=1e-6, max_value=1.0), st.integers(min_value=2, max_value=6))
@settings(max_examples=200)
def test_xk_recursion_property(t, k):
    assert xk(k, t) == pytest.approx(x1(xk(k - 1, t)), rel=1e-15, abs=1e-300)


def test_power_derivative_closed_forms():
    t = math.exp(-1)
    assert xk_power_derivative(1, 1.0, t) == pytest.approx(E * 0.25, rel=1e-14)
    assert xk_power_derivative(1, 2.0, t) == pytest.approx(2 * E * 0.125, rel=1e-14)
    # d/dt X_2 = (1/t) X_1 X_2^2; value cross-checked by high-precision differencing
    assert xk_power_derivative(2, 1.0, t) == pytest.approx(0.4741055755606868, rel=1e-13)
    assert xk_power_derivative(2, 1.0, t) == pytest.approx(E * 0.5 * XK2_AT_EINV**2, rel=1e-14)


def test_power_derivative_rejects_beta_minus_one():
    with pytest.raises(DomainError):
        xk_power_derivative(2, -1.0, 0.5)


@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=-3.0, max_value=3.0),
)
@settings(max_examples=150)
def test_power_derivative_matches_finite_differences(t, i, beta):
    if abs(beta + 1.0) < 1e-3 or abs(beta) < 1e-3:
        return
    h = 1e-6 * t
    fd = (xk(i, t + h) ** beta - xk(i, t - h) ** beta) / (2 * h)
    exact = xk_power_derivative(i, beta, t)
    assert exact == pytest.approx(fd, rel=2e-6)


def test_series_small_t_vanishes():
    assert series_sum(1e-12, tol=1e-8).value < 1e-2


def test_series_diverges_at_one():
    with pytest.raises(DivergenceError):
        series_sum(1.0)


def test_series_against_brute_force():
    res = series_sum(math.exp(-1), tol=1e-12)
    assert res.terms_used <= 64
    assert res.truncation_bound >= 0.0
    # the geometric tail estimate is an accuracy indicator, not a certificate;
    # the brute-force oracle sits within a small multiple of it
    assert abs(res.value - SERIES_AT_EINV) <= 2.0 * res.truncation_bound + 1e-13


def test_series_loose_tolerance_converges_quickly():
    res = series_sum(0.2, tol=1e-3)
    assert res.truncation_bound <= 1e-3 * res.value
    assert res.terms_used < 64
    assert res.converged


def test_series_reports_non_convergence_at_the_term_cap():
    # near t = 1 the terms decay like i^-4 and the tail estimate stays far
    # above the partial sum after 64 terms
    res = series_sum(0.999)
    assert res.terms_used == 64
    assert res.truncation_bound > res.value
    assert not res.converged


def test_series_partial_is_prefix_of_series():
    t = 0.4
    k5 = series_partial(5, t)
    k6 = series_partial(6, t)
    assert k6 > k5
    assert k6 - k5 == pytest.approx(log_product(6, t) ** 2, rel=1e-14)
