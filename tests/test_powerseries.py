import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellich.errors import DivergenceError, DomainError
from rellich.powerseries import PowerSum


def test_from_poly_and_eval():
    ps = PowerSum.from_poly([1.0, -2.0, 0.5])
    r = np.array([0.0, 0.5, 1.0])
    assert np.allclose(ps(r), 1 - 2 * r + 0.5 * r**2)


def test_merge_and_zero():
    ps = PowerSum([1, 1, 2], [1, -1, 3])
    assert len(ps.coeffs) == 1
    assert PowerSum.zero().is_zero()
    assert not ps.is_zero()


def test_algebra_exactness():
    ps = PowerSum.from_poly([0, 1, 1])  # r + r^2
    sq = ps.square()
    # (r + r^2)^2 = r^2 + 2 r^3 + r^4, integral 1/3 + 1/2 + 1/5
    assert sq.integrate01() == float(Fraction(1, 3) + Fraction(1, 2) + Fraction(1, 5))


def test_shift_and_deriv():
    ps = PowerSum.monomial(2.5, 3.0)
    d = ps.deriv()
    assert d.powers == [Fraction(3, 2)]
    assert float(d.coeffs[0]) == 7.5
    sh = ps.shift(-0.5)
    assert sh.powers == [Fraction(2)]


def test_mode_apply_annihilates_harmonics():
    for N in (5, 9, 30):
        for k in range(5):
            ck = k * (N + k - 2)
            out = PowerSum.monomial(k).mode_apply(N, ck)
            assert out.is_zero()


def test_mode_apply_constant_case():
    N = 7
    out = PowerSum.monomial(2).mode_apply(N, 0)
    assert len(out.coeffs) == 1
    assert float(out.coeffs[0]) == 2 * N


def test_mode_apply_takes_a_non_integer_eigenvalue_exactly():
    # r^2 + r^3 at N = 5, c_k = 5/2: c r^p -> c (p(p-1) + 4p - 5/2) r^(p-2)
    f = PowerSum.from_poly([0, 0, 1, 1])
    out = f.mode_apply(5, 2.5)
    assert out.powers == [0, 1]
    assert out.coeffs == [Fraction(15, 2), Fraction(31, 2)]
    assert out.coeffs != f.mode_apply(5, 2).coeffs
    assert f.mode_apply(5, Fraction(5, 2)).coeffs == out.coeffs


def test_integrate_divergence_guard():
    with pytest.raises(DivergenceError):
        PowerSum.monomial(-1.0).integrate01()


def test_exactness_under_cancellation():
    # (1-r)^6 expanded has coefficients up to 20; near r=1 the value is ~1e-12.
    # Exact rational integration keeps full relative precision.
    poly = np.polynomial.polynomial.polypow([1.0, -1.0], 6)
    ps = PowerSum.from_poly(poly).shift(20)
    exact = ps.integrate01()
    # int_0^1 r^20 (1-r)^6 dr = B(21, 7) = 20! 6! / 27!
    beta = math.factorial(20) * math.factorial(6) / math.factorial(27)
    assert exact == pytest.approx(beta, rel=1e-15)


# --------------------------------------------------------------------------
# the block representation against the term-by-term (dict-merge) algorithm


class _DictPowerSum:
    """Reference: the sparse dict-merge PowerSum the block form replaced."""

    def __init__(self, powers, coeffs):
        merged: dict[Fraction, Fraction] = {}
        for p, c in zip(map(_exact, powers), map(_exact, coeffs)):
            merged[p] = merged.get(p, Fraction(0)) + c
        items = sorted((p, c) for p, c in merged.items() if c != 0)
        if not items:
            items = [(Fraction(0), Fraction(0))]
        self.powers = [p for p, _ in items]
        self.coeffs = [c for _, c in items]
        self._float_powers = np.array([float(p) for p in self.powers])
        self._float_coeffs = np.array([float(c) for c in self.coeffs])

    def __add__(self, other):
        return _DictPowerSum(self.powers + other.powers, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, _DictPowerSum):
            pairs = [(p1 + p2, c1 * c2) for p1, c1 in zip(self.powers, self.coeffs)
                     for p2, c2 in zip(other.powers, other.coeffs)]
            return _DictPowerSum([p for p, _ in pairs], [c for _, c in pairs])
        c = _exact(other)
        return _DictPowerSum(self.powers, [ci * c for ci in self.coeffs])

    __rmul__ = __mul__

    def shift(self, alpha):
        a = _exact(alpha)
        return _DictPowerSum([p + a for p in self.powers], self.coeffs)

    def deriv(self):
        return _DictPowerSum([p - 1 for p in self.powers], [c * p for c, p in zip(self.coeffs, self.powers)])

    def square(self):
        return self * self

    def mode_apply(self, N, ck):
        out = self.deriv().deriv() + (N - 1) * self.deriv().shift(-1)
        if ck:
            out = out - ck * self.shift(-2)
        return out

    @property
    def min_power(self):
        return float(self._float_powers.min())

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        out = np.zeros_like(flat)
        for p, c in zip(self._float_powers, self._float_coeffs):
            if p == 0.0:
                out += c
            else:
                out += c * flat**p
        return out.reshape(r.shape)

    def exact_integral01(self):
        total = Fraction(0)
        for p, c in zip(self.powers, self.coeffs):
            if p <= -1:
                raise DivergenceError(f"non-integrable power {float(p)} at the origin")
            total += c / (p + 1)
        return total

    def integrate01(self):
        return float(self.exact_integral01())


def _exact(x):
    return x if isinstance(x, Fraction) else Fraction(x)


# exponent classes mod 1, the last two as float-derived rationals (2^-55, 0.3)
_CLASSES = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 2**55), Fraction(0.3))
_COEFFS = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_SCALARS = st.one_of(st.just(0), _COEFFS)
_SHIFTS = st.one_of(st.integers(-3, 3), st.sampled_from(_CLASSES), st.sampled_from((-2.0, -0.5, 0.37, 1.25)))
_R = np.array([0.0, 1e-3, 0.25, 0.5, 0.9, 1.0, 2.5])


@st.composite
def _sums(draw):
    """A PowerSum and its reference from random terms, some repeated with
    opposite sign so that terms, blocks or the whole sum cancel."""
    terms = draw(st.lists(st.tuples(st.sampled_from(_CLASSES), st.integers(-4, 5), _COEFFS), max_size=8))
    cancel = draw(st.integers(0, len(terms)))
    terms += [(cl, n, -c) for cl, n, c in terms[:cancel]]
    powers = [cl + n for cl, n, _ in terms]
    coeffs = [c for _, _, c in terms]
    return PowerSum(powers, coeffs), _DictPowerSum(powers, coeffs)


def _hex(values):
    return [float.hex(float(v)) for v in np.ravel(values)]


def _integral(ps):
    """The exact integral over [0, 1] and its float, or the divergence message."""
    try:
        return ps.exact_integral01(), float.hex(ps.integrate01())
    except DivergenceError as exc:
        return str(exc)


def _assert_same(ps, ref):
    # the representation's invariant, which makes it canonical: blocks
    # (base, den, nums) of integer numerators over a positive denominator in
    # lowest terms, trimmed, one per exponent class
    assert all(nums[0] and nums[-1] for _, _, nums in ps._blocks)
    assert all(den > 0 and math.gcd(den, *nums) == 1 for _, den, nums in ps._blocks)
    assert all(type(x) is int for _, den, nums in ps._blocks for x in (den, *nums))
    assert len({b - math.floor(b) for b, _, _ in ps._blocks}) == len(ps._blocks)
    assert ps.powers == ref.powers
    assert ps.coeffs == ref.coeffs
    assert all(isinstance(x, Fraction) for x in ps.powers + ps.coeffs)
    assert ps.is_zero() == (ref.coeffs == [0])
    assert float.hex(ps.min_power) == float.hex(ref.min_power)
    assert _integral(ps) == _integral(ref)
    with np.errstate(all="ignore"):
        assert _hex(ps(_R)) == _hex(ref(_R))
        assert _hex(ps(0.5)) == _hex(ref(0.5))


@settings(max_examples=300, deadline=None)
@given(a=_sums(), b=_sums(), s=_SCALARS, alpha=_SHIFTS)
def test_algebra_matches_dict_merge_reference(a, b, s, alpha):
    (pa, ra), (pb, rb) = a, b
    _assert_same(pa, ra)
    _assert_same(pa + pb, ra + rb)
    _assert_same(pa - pb, ra - rb)
    _assert_same(pa - pa, ra - ra)
    _assert_same(pa * pb, ra * rb)
    _assert_same(pa * s, ra * s)
    _assert_same(s * pa, s * ra)
    _assert_same(pa.shift(alpha), ra.shift(alpha))
    _assert_same(pa.deriv(), ra.deriv())
    _assert_same(pa.deriv().deriv(), ra.deriv().deriv())
    _assert_same(pa.square(), ra.square())


@settings(max_examples=200, deadline=None)
@given(a=_sums(), N=st.sampled_from((5, 6, 9, 30)), k=st.integers(0, 4))
def test_mode_apply_matches_dict_merge_reference(a, N, k):
    ps, ref = a
    ck = k * (N + k - 2)
    _assert_same(ps.mode_apply(N, ck), ref.mode_apply(N, ck))
    _assert_same(ps.mode_apply(N, float(ck)), ref.mode_apply(N, float(ck)))
    # a harmonic r^k times a random sum: cancellations inside the block
    harmonic = PowerSum.monomial(k) * ps
    _assert_same(harmonic.mode_apply(N, ck), (_DictPowerSum([k], [1]) * ref).mode_apply(N, ck))


_NON_INTEGER_CK = st.one_of(
    st.fractions(min_value=-5, max_value=40, max_denominator=12).filter(lambda c: c.denominator > 1),
    st.sampled_from((2.5, 0.3, Fraction(1, 2**55))),
)


@settings(max_examples=200, deadline=None)
@given(a=_sums(), N=st.sampled_from((5, 6, 9, 30)), ck=_NON_INTEGER_CK, p=st.sampled_from(_CLASSES[1:]))
def test_mode_apply_with_a_non_integer_eigenvalue_matches_dict_merge_reference(a, N, ck, p):
    ps, ref = a
    _assert_same(ps.mode_apply(N, ck), ref.mode_apply(N, ck))
    # r^p solves the mode equation at c = p (p + N - 2), a non-integer:
    # times a random sum, its terms cancel inside the block
    c = p * (p + N - 2)
    harmonic = PowerSum.monomial(p) * ps
    assert PowerSum.monomial(p).mode_apply(N, c).is_zero()
    _assert_same(harmonic.mode_apply(N, c), (_DictPowerSum([p], [1]) * ref).mode_apply(N, c))


def test_suite_products_match_dict_merge_reference():
    """The integer convolution on the suite's own blocks: 14 to 19 terms with
    float-derived coefficients, shifted by the float m's 2^55 denominators,
    and times the potential polynomial, whose middle coefficient is a zero
    row."""
    from rellich.verify import standard_suite

    for case in standard_suite(7):
        ck = case.k * (case.N + case.k - 2)
        f, ref = case.f, _DictPowerSum(case.f.powers, case.f.coeffs)
        potential = _DictPowerSum(case.potential_poly.powers, case.potential_poly.coeffs)
        _assert_same(f.square(), ref.square())
        product, ref_product = f * f.mode_apply(case.N, ck), ref * ref.mode_apply(case.N, ck)
        _assert_same(product, ref_product)
        _assert_same(product.shift(-2 * case.m), ref_product.shift(-2 * case.m))
        _assert_same(case.potential_poly * product, potential * ref_product)


def test_registry_exact_integrals_match_dict_merge_reference():
    """Every non-series integral of every registry target declared as terms,
    on every case it applies to: its exact density against the dict-merge
    algebra, and its exact integral against the term-by-term sum of
    c / (p + 1), which a float comparison alone cannot tell from a wrong
    rational that rounds alike.  The terms include the n = 2 mode_apply
    chains, the companion f2 and the shifts by the float m's 2^55
    denominators."""
    from dataclasses import replace

    from rellich.verify import REGISTRY, _exact_density, standard_suite

    seen = set()
    for case in standard_suite(7):
        ref_case = replace(case, f=_DictPowerSum(case.f.powers, case.f.coeffs),
                           f2=_DictPowerSum(case.f2.powers, case.f2.coeffs))
        terms = set()
        for target in REGISTRY.values():
            if target.terms is None or (target.applies and target.applies(case)):
                continue
            lhs, rhs = target.terms(case)
            terms.update(t for _, t in lhs + rhs if not t.series)
        for term in terms:
            _assert_same(_exact_density(case, term), _exact_density(ref_case, term))
        seen |= terms
    assert any(t.n == 2 for t in seen)
    assert any(t.f2 for t in seen)
    assert any(t.shift is not None and t.shift.denominator >= 2**50 for t in seen)


def test_zero_inside_a_block_is_skipped_at_the_origin():
    # r^-3 + r^-1 is one block [1, 0, 1]: its zero r^-2 term must not add 0 * inf
    cases = [
        (PowerSum([-3, -1], [1, 1]), _DictPowerSum([-3, -1], [1, 1])),
        (PowerSum.from_poly([1, 1, 1]) - PowerSum.monomial(1), _DictPowerSum([0, 2], [1, 1])),
        (PowerSum([-2.5, -0.5], [2, 1]).shift(-0.5), _DictPowerSum([-3, -1], [2, 1])),
    ]
    for ps, ref in cases:
        _assert_same(ps, ref)
        with np.errstate(all="ignore"):
            assert not np.isnan(ps(np.array([0.0, 1.0]))).any()


def test_every_result_is_built_through_the_constructor(monkeypatch):
    built = []
    init = PowerSum.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PowerSum, "__init__", counting)
    a = PowerSum([Fraction(1, 2), 1, 2], [1, -2, 3])
    b = PowerSum.from_poly([0.5, 0, 1])
    results = [a + b, a - b, a * b, a * 3, 2.5 * a, a.shift(-1), a.deriv(), a.square(), a.mode_apply(6, 5)]
    assert all(any(r is x for x in built) for r in results)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
def test_non_finite_input_is_a_domain_error(bad):
    with pytest.raises(DomainError):
        PowerSum([bad], [1])
    with pytest.raises(DomainError):
        PowerSum([1], [bad])
    with pytest.raises(DomainError):
        PowerSum.monomial(1) * bad
    with pytest.raises(DomainError):
        PowerSum.monomial(1).shift(bad)


def test_exponent_span_is_bounded():
    # one class spread over 2^21 integer steps would be a dense 2^21-entry list
    with pytest.raises(DomainError):
        PowerSum([0, 2**21], [1, 1])
    with pytest.raises(DomainError):
        PowerSum.monomial(0) + PowerSum.monomial(2**21)
    # distinct classes far apart are separate blocks and fine
    ps = PowerSum.monomial(0) + PowerSum.monomial(Fraction(2**21) + Fraction(1, 2))
    assert ps.powers == [0, Fraction(2**22 + 1, 2)]
