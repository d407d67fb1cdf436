import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rellich.quadrature import _gk_points
from rellich.radial import RadialProfile
from rellich.taylor import Jet, polynomial
from rellich.verify import standard_suite

mp.mp.dps = 30


def mp_derivs(fn, x, order):
    return [float(mp.diff(fn, mp.mpf(x), d)) for d in range(order + 1)]


def test_variable_and_constant():
    x = np.array([0.5, 2.0])
    j = Jet.variable(x, 3)
    assert np.allclose(j.value, x)
    assert np.allclose(j.deriv(1), 1.0)
    assert np.allclose(j.deriv(2), 0.0)
    c = Jet.constant(4.0, 2, like=x)
    assert np.allclose(c.value, 4.0)
    assert np.allclose(c.deriv(1), 0.0)


def test_arithmetic_against_mpmath():
    xs = [0.3, 0.8, 1.7]
    j = Jet.variable(np.array(xs), 4)
    f = (j * j + 1.0) / (2.0 - j)
    g = lambda t: (t * t + 1) / (2 - t)
    for i, xi in enumerate(xs):
        exact = mp_derivs(g, xi, 4)
        for d in range(5):
            assert f.deriv(d)[i] == pytest.approx(exact[d], rel=1e-11)


def test_log_exp_against_mpmath():
    xs = [0.2, 1.5]
    j = Jet.variable(np.array(xs), 5)
    f = (j.log() * 0.7).exp()  # x^0.7 through the chain
    for i, xi in enumerate(xs):
        exact = mp_derivs(lambda t: t ** mp.mpf("0.7"), xi, 5)
        for d in range(6):
            assert f.deriv(d)[i] == pytest.approx(exact[d], rel=1e-10)


def test_pow_integer_matches_repeated_product():
    x = np.array([0.7, 1.3])
    j = Jet.variable(x, 4)
    assert np.allclose((j**3).deriv(2), (j * j * j).deriv(2))
    assert np.allclose((j**0).value, 1.0)
    assert np.allclose((j**-2).value, x**-2.0)


def test_pow_real_derivatives():
    x = np.array([0.4, 0.9])
    p = -1.75
    j = Jet.variable(x, 3)
    f = j**p
    assert np.allclose(f.value, x**p)
    assert np.allclose(f.deriv(1), p * x ** (p - 1), rtol=1e-12)
    assert np.allclose(f.deriv(2), p * (p - 1) * x ** (p - 2), rtol=1e-12)
    assert np.allclose(f.deriv(3), p * (p - 1) * (p - 2) * x ** (p - 3), rtol=1e-12)


def test_iterated_log_jet_derivative():
    # X_1(r) = 1/(1 - log r): X_1' = X_1^2 / r
    x = np.array([0.2, 0.6, 0.95])
    j = Jet.variable(x, 2)
    X = 1.0 / (1.0 - j.log())
    x1v = 1.0 / (1.0 - np.log(x))
    assert np.allclose(X.value, x1v)
    assert np.allclose(X.deriv(1), x1v**2 / x, rtol=1e-13)


def test_derivative_shifts_coefficients():
    x = np.array([0.5])
    j = Jet.variable(x, 4)
    f = j * j * j
    fp = f.derivative()
    assert fp.order == 3
    assert np.allclose(fp.value, 3 * x**2)
    assert np.allclose(fp.deriv(1), 6 * x)


def test_select_is_elementwise():
    x = np.array([0.2, 0.8])
    j = Jet.variable(x, 2)
    a = j * 2.0
    b = j * 3.0
    picked = Jet.select(x < 0.5, a, b)
    assert np.allclose(picked.value, [0.4, 2.4])
    assert np.allclose(picked.deriv(1), [2.0, 3.0])


def test_truncate():
    j = Jet.variable(np.array([1.0]), 5)
    assert j.truncate(2).order == 2
    with pytest.raises(IndexError):
        j.truncate(2).deriv(3)


# --------------------------------------------------------------------------
# the fast paths against the generic route: a scalar lifted by Jet.constant,
# and the Cauchy-product recurrences written out of place, in the same order

_FLOATS = st.floats(allow_nan=False, width=64)
_SCALARS = st.one_of(_FLOATS, st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.integers(-3, 3))


@st.composite
def _jets(draw, points=None):
    order = draw(st.integers(0, 5))
    n = points if points is not None else draw(st.integers(1, 4))
    rows = [draw(arrays(np.float64, n, elements=_FLOATS)) for _ in range(order + 1)]
    return Jet(rows)


def _same_rows(x: Jet, y: Jet) -> bool:
    """Equal order, shapes and bits (signed zeros included); NaN matches NaN."""
    if x.order != y.order:
        return False
    for a, b in zip(x.coeffs, y.coeffs):
        if type(a) is not np.ndarray or a.shape != b.shape:
            return False
        same = (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))
        if not np.all(same):
            return False
    return True


def _lift(c, like: Jet) -> Jet:
    return Jet.constant(c, like.order, like=like.value)


def _ref_mul(x: Jet, y: Jet) -> Jet:
    a, b = x.coeffs, y.coeffs
    out = []
    for k in range(min(len(a), len(b))):
        acc = a[0] * b[k]
        for j in range(1, k + 1):
            acc = acc + a[j] * b[k - j]
        out.append(acc)
    return Jet(out)


def _ref_div(x: Jet, y: Jet) -> Jet:
    a, b = x.coeffs, y.coeffs
    q = []
    for k in range(min(len(a), len(b))):
        acc = a[k]
        for j in range(k):
            acc = acc - q[j] * b[k - j]
        q.append(acc / b[0])
    return Jet(q)


def _ref_pow(x: Jet, n: int) -> Jet:
    if n == 0:
        return _lift(1.0, x)
    acc, base, e = None, x, abs(n)
    while e:
        if e & 1:
            acc = base if acc is None else _ref_mul(acc, base)
        base = _ref_mul(base, base)
        e >>= 1
    return acc if n > 0 else _ref_div(_lift(1.0, x), acc)


def _ref_log(x: Jet) -> Jet:
    a = x.coeffs
    g = [np.log(a[0])]
    for k in range(1, len(a)):
        acc = a[k]
        for j in range(1, k):
            acc = acc - (j / k) * g[j] * a[k - j]
        g.append(acc / a[0])
    return Jet(g)


def _ref_exp(x: Jet) -> Jet:
    a = x.coeffs
    h = [np.exp(a[0])]
    for k in range(1, len(a)):
        acc = 1 * a[1] * h[k - 1]
        for j in range(2, k + 1):
            acc = acc + j * a[j] * h[k - j]
        h.append(acc / k)
    return Jet(h)


@settings(max_examples=300, deadline=None)
@given(_jets(), _SCALARS)
def test_scalar_fast_paths_match_the_lifted_constant(x, c):
    with np.errstate(all="ignore"):
        assert _same_rows(x + c, x + _lift(c, x))
        assert _same_rows(c + x, x + _lift(c, x))
        assert _same_rows(x - c, x - _lift(c, x))
        assert _same_rows(c - x, _lift(c, x) - x)
        assert _same_rows(c / x, _ref_div(_lift(c, x), x))
        assert _same_rows(x * c, Jet([row * c for row in x.coeffs]))
        assert _same_rows(c * x, Jet([row * c for row in x.coeffs]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(_jets(n), _jets(n))), st.integers(-7, 7))
def test_jet_recurrences_match_their_out_of_place_form(pair, n):
    x, y = pair
    with np.errstate(all="ignore"):
        assert _same_rows(x * y, _ref_mul(x, y))
        assert _same_rows(x / y, _ref_div(x, y))
        assert _same_rows(x.log(), _ref_log(x))
        assert _same_rows(x.exp(), _ref_exp(x))
        assert _same_rows(x**n, _ref_pow(x, n))


def test_signed_zero_rows_survive_the_scalar_paths():
    x = Jet([np.array([1.0, -2.0]), np.array([-0.0, 0.0]), np.array([0.0, -0.0])])
    assert _same_rows(x + 0.5, x + _lift(0.5, x))
    assert np.signbit((x + 0.5).coeffs[1]).tolist() == [False, False]
    assert np.signbit((x - 0.5).coeffs[1]).tolist() == [True, False]
    assert np.signbit((0.5 - x).coeffs[2]).tolist() == [False, False]


def _operations(x: Jet, y: Jet):
    mask = x.value < y.value
    return [
        lambda: x + y, lambda: x + 1.5, lambda: 1.5 + x, lambda: x + y.value,
        lambda: x - y, lambda: x - 1.5, lambda: 1.5 - x, lambda: -x,
        lambda: x * y, lambda: x * 1.5, lambda: 1.5 * x,
        lambda: x / y, lambda: x / 1.5, lambda: 1.5 / x,
        lambda: x.log(), lambda: x.exp(), lambda: x**0, lambda: x**1, lambda: x**5,
        lambda: x**-3, lambda: x**0.7, lambda: x.derivative(), lambda: x.truncate(1),
        lambda: x.deriv(2), lambda: Jet.select(mask, x, y),
    ]


def test_no_operation_mutates_its_operands():
    rng = np.random.default_rng(3)
    x = Jet([rng.uniform(0.5, 2.0, 6) for _ in range(5)])
    y = Jet([rng.uniform(0.5, 2.0, 6) for _ in range(5)])
    before = [[row.copy() for row in j.coeffs] for j in (x, y)]
    for op in _operations(x, y):
        out = op()
        # results sharing rows with an operand feed further operations
        if isinstance(out, Jet):
            with np.errstate(all="ignore"):
                _ = (out * out + 1.0) / (2.0 - out) - out.log().exp()
        for j, rows in zip((x, y), before):
            assert all(np.array_equal(a, b) for a, b in zip(j.coeffs, rows))


def _order_free_operations(x: Jet, y: Jet, c: float, n: int):
    mask = x.value < y.value
    return {
        "x + y": lambda x, y: x + y, "x + c": lambda x, y: x + c, "c - x": lambda x, y: c - x,
        "x - y": lambda x, y: x - y, "x - c": lambda x, y: x - c, "-x": lambda x, y: -x,
        "x * y": lambda x, y: x * y, "x * c": lambda x, y: x * c,
        "x / y": lambda x, y: x / y, "x / c": lambda x, y: x / c, "c / x": lambda x, y: c / x,
        "log": lambda x, y: x.log(), "exp": lambda x, y: x.exp(),
        "x ** n": lambda x, y: x**n, "x ** 0.7": lambda x, y: x**0.7, "x ** -2.5": lambda x, y: x**-2.5,
        "select": lambda x, y: Jet.select(mask, x, y),
        "chain": lambda x, y: (x * y + c) / (1.5 - x).exp() - (x**n).log() * y,
    }


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(lambda p: st.tuples(_jets(p), _jets(p))),
    st.integers(0, 5),
    _FLOATS,
    st.integers(-7, 7),
)
def test_jet_arithmetic_is_truncation_invariant(pair, m, c, n):
    """An operation at order n truncated to m gives the operation at order m."""
    x, y = pair
    order = min(x.order, y.order)
    m = min(m, order)
    with np.errstate(all="ignore"):
        for name, op in _order_free_operations(x, y, c, n).items():
            full = op(x, y).truncate(m)
            short = op(x.truncate(m), y.truncate(m))
            assert _same_rows(full, short), name


# --------------------------------------------------------------------------
# polynomial(): the stacked route on the variable's jet against the generic
# route, the same linear factors in Jet arithmetic


def _block_nodes() -> np.ndarray:
    """The 225 nodes of the first four bisection levels of [0, 1]."""
    cuts = [np.linspace(0.0, 1.0, n + 1) for n in (1, 2, 4, 8)]
    return _gk_points(np.concatenate([c[:-1] for c in cuts]), np.concatenate([c[1:] for c in cuts])).ravel()


# nodes in (0, 1): the block nodes, random nodes, and half-line radii e^-s
# down to denormals, with the extreme floats on either side
_INNER_NODES = np.concatenate(
    [
        _block_nodes(),
        np.random.default_rng(7).uniform(2.0**-20, 1.0, 200),
        np.exp(-np.concatenate([np.linspace(0.01, 40.0, 60), np.linspace(700.0, 744.0, 30)])),
        [5e-324, 2.0**-1022, 1.0 - 2.0**-53],
    ]
)

_POLYNOMIALS = ([0.0, 0.0, 1.0, -0.5, 0.25], [0.3, -1.2, 0.7, 0.0, -0.9], [-2.0, 0.5], [1.0], [0.0])


def _profiles():
    for case in standard_suite(7):
        yield f"seed-7 case {case.index}", case.jet_profile()
    for coeffs in _POLYNOMIALS:
        yield f"from_polynomial {coeffs}", RadialProfile.from_polynomial(coeffs)


def test_polynomial_stacked_route_is_the_generic_product_bitwise():
    assert all(0.0 < x < 1.0 for x in _INNER_NODES) and _block_nodes().size == 225
    at_one = np.array([1.0])
    for name, profile in _profiles():
        for order in range(7):
            J = Jet.variable(_INNER_NODES, order)
            assert type(J) is not Jet  # the variable's type, which takes the stacked route
            generic = profile._jet_fn(Jet(J.coeffs))  # the same rows as a plain jet
            assert _same_rows(profile.taylor(_INNER_NODES, order), generic), (name, order)
            # at r = 1 the two routes may differ in the sign of a zero only
            stacked, generic = profile.taylor(at_one, order), profile._jet_fn(Jet(Jet.variable(at_one, order).coeffs))
            assert all(np.array_equal(a, b) for a, b in zip(stacked.coeffs, generic.coeffs)), (name, order)


def test_polynomial_takes_the_generic_route_on_any_other_jet():
    x = np.linspace(0.05, 0.95, 7)
    J = Jet.variable(x, 4)
    square = J * J  # rows x^2, 2x, 1, 0, 0
    assert type(J) is not Jet and type(square) is Jet and type(J + 0.0) is Jet
    q, boundary, lead = [0.3, -1.2, 0.7, 0.0, -0.9], 3, 2
    got = polynomial(square, q, boundary, lead)
    # the jet of P(x^2) for P(t) = q(t) (1 - t)^3 t^2
    P = np.polynomial.Polynomial(q) * np.polynomial.Polynomial([1.0, -1.0]) ** boundary * np.polynomial.Polynomial([0.0, 1.0]) ** lead
    composed = RadialProfile.from_polynomial(P(np.polynomial.Polynomial([0.0, 0.0, 1.0])).coef).taylor(x, 4)
    for a, b in zip(got.coeffs, composed.coeffs):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
    # and it is that route's Jet arithmetic
    acc = Jet.constant(q[-1], 4, like=x)
    for c in reversed(q[:-1]):
        acc = acc * square + c
    for factor in [1.0 - square] * boundary + [square] * lead:
        acc = acc * factor
    assert _same_rows(got, acc)
