import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellich import constants as C
from rellich.errors import DomainError


def test_hardy_rellich_closed_forms():
    assert C.hardy_constant(3) == 0.25
    assert C.hardy_constant(4) == 1.0
    assert C.hardy_constant(6) == 4.0
    assert C.rellich_constant(5) == 1.5625
    assert C.rellich_constant(6) == 9.0
    assert C.rellich_constant(8) == 64.0
    assert C.rellich_grad_constant(5) == 6.25
    assert C.rellich_grad_constant(6) == 9.0
    assert C.rellich_grad_constant(30) == 225.0


def test_domain_guards():
    with pytest.raises(DomainError):
        C.hardy_constant(2)
    with pytest.raises(DomainError):
        C.rellich_constant(4)
    with pytest.raises(DomainError):
        C.sigma(1.0, 6)  # needs m < (N-4)/2 = 1
    with pytest.raises(DomainError):
        C.a_mn(30, 13.0)


def test_sigma_family():
    for N in (5, 6, 9, 30):
        assert C.sigma(0, N) == C.rellich_constant(N)
        assert C.sigma_bar(0, N) == 1 + N * (N - 4) / 8
    assert C.sigma_bar(0, 6) == 2.5


def test_per_mode_quotient_worked_example():
    vals = [C.per_mode_quotient(k, 30, 8) for k in range(4)]
    assert vals[0] == 529.0
    assert vals[1] == 384.0
    assert vals[2] == pytest.approx(30625 / 85, rel=1e-15)
    assert vals[3] == pytest.approx(43264 / 118, rel=1e-15)
    assert C.per_mode_quotient(0, 30, 0) == 225.0  # N^2/4 at m = 0
    assert C.per_mode_quotient(1, 5, 0) == pytest.approx(441 / 68, rel=1e-15)


def test_radial_mode_quotient_is_the_weighted_rellich_grad_constant():
    """A(0, N, m) = ((N+2m)/2)^2, correctly rounded from its exact value."""
    for N in (5, 6, 9, 30):
        assert C.per_mode_quotient(0, N, 0) == C.rellich_grad_constant(N)
        m = 0.4 * (N - 4) / 2
        assert C.per_mode_quotient(0, N, m) == float((N + 2 * Fraction(m)) ** 2 / 4)
        assert C.per_mode_quotient(0, N, m) == pytest.approx(((N + 2 * m) / 2.0) ** 2, rel=1e-15)
    assert C.per_mode_quotient(0, 30, 8) == 529.0
    with pytest.raises(DomainError):
        C.per_mode_quotient(0, 6, 1.0)  # needs m < (N-4)/2 = 1
    with pytest.raises(DomainError):
        C.per_mode_quotient(0, 4, 0.0)


def test_a_mn_worked_example():
    rep = C.a_mn(30, 8)
    assert rep.argmin_k == 2
    assert rep.exact == Fraction(30625, 85)
    assert rep.value == pytest.approx(360.29411764705884, rel=1e-12)
    assert "candidates {2, 3}" in rep.branch


def test_a_mn_small_m_branch():
    rep = C.a_mn(30, 4)
    assert rep.value == 361.0 and rep.argmin_k == 0
    assert rep.branch == "m <= m*"
    rep = C.a_mn(5, 0)
    assert rep.value == 6.25 and rep.argmin_k == 0


def test_thresholds_worked_example():
    assert C.m_star(30) == pytest.approx(4.1709, abs=1e-3)
    assert C.k_bar(30) == 2
    assert C.m1k(30, 1) == pytest.approx(4.853, abs=5e-3)
    assert C.m1k(30, 2) == 7.0
    assert C.m2k(30, 2) == pytest.approx(29 / 3, abs=1e-9)
    assert C.m2k(30, 1) == pytest.approx(11.813, abs=5e-3)
    assert C.x0(30, 8) == 65.0


def test_thresholds_no_threshold_signal():
    # for k beyond the eigenvalue bound the discriminant turns negative
    assert C.m1k(30, 3) is None
    assert C.m2k(30, 3) is None
    assert C.m1k(5, 1) is None


def test_reduction_constant():
    assert C.reduction_constant_A(6, 0) == 10.0
    assert C.reduction_constant_A(5, 0) == 6.5
    assert C.reduction_constant_A(30, 8) == 259.0
    # boundary belongs to the small-m branch
    switch = (-2 + math.sqrt(29)) / 2
    small = 4 * (1 + switch) ** 2 + (30 + 2 * switch) * (26 - 2 * switch) / 2
    assert C.reduction_constant_A(30, switch) == pytest.approx(small, rel=1e-12)


def test_reduction_matches_series_coefficient_on_small_branch():
    for N in (6, 9, 12, 30):
        switch = (-2 + math.sqrt(N - 1)) / 2
        for m in (0.0, 0.5 * switch, switch):
            if m >= (N - 4) / 2:
                continue
            assert C.sigma_bar(m, N) == pytest.approx(
                C.reduction_constant_A(N, m) / 4.0, rel=1e-12
            )


def test_section2_table():
    assert C.section2_constants(6) == {
        "rellich-deficit-vgrad": 10.0,
        "rellich-deficit-vlap": 0.625,
        "gradrellich-deficit-vgrad": 1.0,
        "v-laplacian-radial-excess": 32.0,
        "gradrellich-deficit-vlap": 0.0625,
        "rellich-gradient": 9.0,
    }
    assert C.section2_constants(5)["gradrellich-deficit-vgrad"] == 0.25
    assert C.section2_constants(8)["v-laplacian-radial-excess"] == 72.0


def _bessel_j0(z: float) -> float:
    total, term = 1.0, 1.0
    for m in range(1, 40):
        term *= -(z * z) / (4.0 * m * m)
        total += term
    return total


def test_bessel_zero():
    z0 = C.brezis_vazquez_z0()
    assert 2.40 < z0 < 2.41
    assert abs(_bessel_j0(z0)) < 1e-12


def test_higher_order_rellich_chain_l0():
    terms = C.higher_order_coefficients(12, 2, 0, C.HigherOrderVariant.RELLICH_CHAIN)
    assert terms[0][1] == Fraction(576)  # (N(N-4)/4)^2 at N=12
    assert terms[0][0].kind == "laplacian" and not terms[0][0].with_series
    assert terms[-1][1] == Fraction(13)  # 1 + N(N-4)/8
    assert terms[-1][0].with_series


def test_higher_order_rellich_chain_l1_leading_product():
    terms = C.higher_order_coefficients(12, 2, 1, C.HigherOrderVariant.RELLICH_CHAIN)
    assert terms[0][1] == Fraction(576) * Fraction(256)  # sigma(0,12) * sigma(2,12)


def test_higher_order_alternating_chain_l1():
    # composed from the sharp gradient step (series weight 1/4) and the
    # weighted Hardy step (series weight N^2/16); the leading product matches
    # the plain Rellich constant
    N = 12
    terms = C.higher_order_coefficients(N, 2, 1, C.HigherOrderVariant.ALTERNATING_CHAIN)
    lead = terms[0]
    assert lead[0].kind == "laplacian" and lead[0].weight_power == 4
    assert lead[1] == Fraction((N * (N - 4)) ** 2, 16)
    grads = [(t, c) for t, c in terms if t.kind == "gradient"]
    laps = [(t, c) for t, c in terms if t.kind == "laplacian" and t.with_series]
    assert grads[0][1] == Fraction(1, 4)
    assert grads[0][0].weight_power == 2
    assert laps[0][1] == Fraction(N * N, 16)
    assert laps[0][0].weight_power == 4


def test_higher_order_domain_guards():
    with pytest.raises(DomainError):
        C.higher_order_coefficients(8, 2, 1, C.HigherOrderVariant.RELLICH_CHAIN)  # 4m >= N
    with pytest.raises(DomainError):
        C.higher_order_coefficients(12, 2, 2, C.HigherOrderVariant.RELLICH_CHAIN)  # l > m-1
    with pytest.raises(DomainError):
        C.higher_order_coefficients(9, 2, 2, C.HigherOrderVariant.ALTERNATING_CHAIN)


@given(st.integers(min_value=5, max_value=40), st.floats(min_value=0.0, max_value=0.99))
@settings(max_examples=120)
def test_a_mn_is_minimum_over_modes(N, frac):
    m = frac * (N - 4) / 2.0
    rep = C.a_mn(N, m)
    for k in range(3 * C.k_bar(N) + 1):
        assert rep.value <= C.per_mode_quotient(k, N, m) + 1e-9
    assert rep.argmin_k <= C.k_bar(N) + 1


@given(st.integers(min_value=5, max_value=40))
@settings(max_examples=40)
def test_a_mn_branches_around_m_star(N):
    ms = C.m_star(N)
    m_low = min(0.9 * ms, 0.99 * (N - 4) / 2)
    assert C.a_mn(N, m_low).value == pytest.approx(((N + 2 * m_low) / 2) ** 2, rel=1e-12)
    m_high = ms + 0.05 * ((N - 4) / 2 - ms)
    if m_high < (N - 4) / 2:
        assert C.a_mn(N, m_high).value < ((N + 2 * m_high) / 2) ** 2


def test_a_mn_continuity_across_thresholds():
    for N in (12, 20, 30):
        thresholds = [C.m_star(N)]
        for k in range(1, C.k_bar(N) + 1):
            thresholds += [C.m1k(N, k), C.m2k(N, k)]
        for t in thresholds:
            if t is None or not 0 < t < (N - 4) / 2:
                continue
            below = C.a_mn(N, max(t - 1e-12, 0.0)).value
            above = C.a_mn(N, min(t + 1e-12, (N - 4) / 2 - 1e-12)).value
            assert abs(below - above) < 1e-9


def test_a_mn_zero_weight_equals_grad_constant():
    for N in range(5, 31):
        assert C.a_mn(N, 0).value == C.rellich_grad_constant(N)
