import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellich.errors import DomainError
from rellich.iterlog import (
    log_product,
    series_partial,
    x1,
    xk,
    xk_values,
    xk_values_from_s,
)

# frozen with mpmath at 40 digits: X_1(X_1(e^-1)) and one more composition
XK2_AT_EINV = 0.5906161091496412
XK3_AT_EINV = 0.6550551442706867


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


def test_series_partial_is_prefix_of_series():
    t = 0.4
    k5 = series_partial(5, t)
    k6 = series_partial(6, t)
    assert k6 > k5
    assert k6 - k5 == pytest.approx(log_product(6, t) ** 2, rel=1e-14)


def test_series_partial_and_log_product_validate_their_argument_once(monkeypatch):
    from rellich import iterlog

    t = np.array([0.1, 0.4, 1.0])
    ref = series_partial(3, t), log_product(3, t), series_partial(3, 0.4), log_product(3, 0.4)
    seen, real = [], iterlog._validate_t
    monkeypatch.setattr(iterlog, "_validate_t", lambda t: seen.append(t) or real(t))
    got = series_partial(3, t), log_product(3, t), series_partial(3, 0.4), log_product(3, 0.4)
    assert len(seen) == 4
    assert all(np.array_equal(a, b) for a, b in zip(got[:2], ref[:2]))
    assert got[2:] == ref[2:] and all(type(v) is float for v in got[2:])
    # the argument is checked first in series_partial, the count first in log_product
    with pytest.raises(DomainError, match="argument must be positive"):
        series_partial(-1, 0.0)
    with pytest.raises(DomainError, match="kmax must be >= 0"):
        log_product(-1, 0.0)
    with pytest.raises(DomainError, match="argument must be <= 1"):
        series_partial(2, np.array([0.5, 2.0]))


def test_xk_values_from_s_matches_the_r_space_chain():
    s = np.array([0.0, 0.5, 1.0, 3.0, 20.0])
    from_s = xk_values_from_s(3, s)
    assert np.array_equal(from_s[0], 1.0 / (1.0 + s))
    for a, b in zip(from_s, xk_values(3, np.exp(-s))):
        np.testing.assert_allclose(a, b, rtol=1e-14)
    # deep s, where e^{-s} underflows and the r-space chain cannot go
    deep = xk_values_from_s(2, np.array([1e300]))
    assert deep[0][0] == 1e-300 and deep[1][0] == pytest.approx(1.0 / (1.0 + 300 * math.log(10)), rel=1e-12)
