import math

import numpy as np
import pytest

from rellich import constants as C
from rellich.errors import DomainError
from rellich.minseq import (
    AsymptoticCase,
    CutoffSpec,
    MinSeqParams,
    ScanFamily,
    build_minimizer,
    default_schedule,
    leading_order_asymptotics,
    rayleigh_quotient,
    scan_result_csv,
    scan_theoretical,
    scan_to_limit,
)
from rellich.quadrature import QuadratureSpec

SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)


def test_cutoff_shape():
    cut = CutoffSpec()
    r = np.array([0.0, 0.25, 0.5, 0.75, 1.0, 1.2])
    phi = cut(r)
    assert phi[0] == phi[1] == phi[2] == 1.0
    assert 0 < phi[3] < 1
    assert phi[4] == phi[5] == 0.0
    # C^1 across the junctions
    h = 1e-7
    for edge in (0.5, 1.0):
        left = cut(np.array([edge - h]))[0]
        right = cut(np.array([edge + h]))[0]
        assert abs(left - right) < 1e-5


def test_cutoff_derivative_matches_differences():
    """The derivative row of the cutoff's jet, the one build_minimizer
    differentiates through."""
    from rellich.taylor import Jet

    cut = CutoffSpec()

    def dphi(r):
        return cut.jet(Jet.variable(r, 1)).deriv(1)

    r = np.linspace(0.55, 0.95, 11)
    h = 1e-6
    fd = (cut(r + h) - cut(r - h)) / (2 * h)
    assert np.allclose(dphi(r), fd, rtol=1e-7, atol=1e-9)
    assert np.all(dphi(np.array([0.2, 1.1])) == 0.0)


def test_cutoff_validation():
    with pytest.raises(DomainError):
        CutoffSpec(inner_radius=0.9, outer_radius=0.5)


def test_params_validation():
    with pytest.raises(DomainError):
        MinSeqParams(4, 0.0, 1e-3, (0.1,))
    with pytest.raises(DomainError):
        MinSeqParams(6, 0.0, 0.0, (0.1,))
    with pytest.raises(DomainError):
        MinSeqParams(6, 0.0, 1e-3, ())
    with pytest.raises(DomainError):
        MinSeqParams(6, 0.0, 1e-3, (1.5,))
    with pytest.raises(DomainError):
        MinSeqParams(6, 1.2, 1e-3, (0.1,))  # m >= (N-4)/2


def test_build_minimizer_pointwise_value():
    p = MinSeqParams(6, 0.0, 0.1, (0.2,))
    tf = build_minimizer(p)
    r0 = math.exp(-1.0)
    expected = r0 ** (-1.0 + 0.1) * 0.5 ** ((-1 + 0.2) / 2)
    assert tf.profile(np.array([r0]))[0] == pytest.approx(expected, rel=1e-14)


def test_build_minimizer_unit_a_disables_log_factor():
    p = MinSeqParams(6, 0.0, 0.1, (1.0,))
    tf = build_minimizer(p)
    rr = np.array([0.1, 0.3, 0.45])
    assert np.allclose(tf.profile(rr), rr ** (-0.9), rtol=1e-14)


def test_build_minimizer_rejects_rough_cutoff():
    with pytest.raises(DomainError):
        build_minimizer(MinSeqParams(6, 0.0, 0.1, (0.2,), CutoffSpec(smoothness_order=3)))


def test_minimizer_derivatives_match_high_precision_oracle():
    import mpmath as mp

    mp.mp.dps = 40
    p = MinSeqParams(7, 0.5, 0.05, (0.3, 0.2))
    prof = build_minimizer(p).profile
    q = mp.mpf(p.power_exponent)
    e1, e2 = [(ai - 1) / mp.mpf(2) for ai in p.a]

    def w(r):
        x1v = 1 / (1 - mp.log(r))
        x2v = 1 / (1 - mp.log(x1v))
        return r**q * x1v**e1 * x2v**e2  # cutoff is identically 1 here

    rr = np.linspace(0.06, 0.44, 5)
    J = prof.taylor(rr, 4)
    for i, r0 in enumerate(rr):
        for order in range(1, 5):
            exact = float(mp.diff(w, mp.mpf(float(r0)), order))
            assert J.deriv(order)[i] == pytest.approx(exact, rel=1e-5), (order, r0)


def test_eta_b_consistency():
    p = MinSeqParams(6, 0.0, 1e-2, (0.3, 0.2, 0.1))
    rr = np.linspace(0.1, 0.9, 9)
    h = 1e-7
    etap = (p.eta(rr + h) - p.eta(rr - h)) / (2 * h)
    assert np.max(np.abs(rr * etap - p.eta_b(rr))) < 1e-8


def test_gradient_display_consistency():
    # w' = w * (q + eta/2) / r in the cutoff-free region
    p = MinSeqParams(8, 1.0, 0.05, (0.3, 0.15))
    prof = build_minimizer(p).profile
    rr = np.linspace(0.08, 0.4, 7)
    J = prof.taylor(rr, 1)
    expected = J.deriv(0) * (p.power_exponent + p.eta(rr) / 2.0) / rr
    assert np.allclose(J.deriv(1), expected, rtol=1e-12)


def test_rayleigh_direction_and_theoretical():
    q = rayleigh_quotient(ScanFamily.RELLICH_GRAD_IMPROVED, MinSeqParams(6, 0.0, 1e-3, (0.05,)), quad=SPEC)
    assert q > 0.25
    q = rayleigh_quotient(ScanFamily.GRADIENT_CONSTANT, MinSeqParams(5, 0.0, 1e-2, (0.1,)), quad=SPEC)
    q2 = rayleigh_quotient(ScanFamily.GRADIENT_CONSTANT, MinSeqParams(5, 0.0, 3e-3, (0.05,)), quad=SPEC)
    assert q >= 6.25 and q2 < q
    amn = rayleigh_quotient(ScanFamily.AMN, MinSeqParams(30, 8.0, 1e-3, (1.0,), mode_k=2), quad=SPEC)
    th = C.a_mn(30, 8).value
    assert amn >= th - 1e-9
    assert abs(amn - th) / th < 0.1


def test_reduced_path_matches_direct_path():
    import rellich.minseq as M

    cases = [
        (ScanFamily.RELLICH_IMPROVED, 6, 0.0, 0.07),
        (ScanFamily.RELLICH_GRAD_IMPROVED, 9, 0.0, 0.07),
        (ScanFamily.WEIGHTED_RELLICH_IMPROVED, 12, 1.0, 0.07),
        (ScanFamily.WEIGHTED_GRAD_IMPROVED, 12, 1.0, 0.07),
        (ScanFamily.AMN, 30, 8.0, 1.0),
        (ScanFamily.AMN, 9, 2.0, 0.07),
        (ScanFamily.DEFICIT_VGRAD, 9, 0.0, 0.07),
        (ScanFamily.DEFICIT_VLAP, 6, 0.0, 0.07),
        (ScanFamily.GRAD_DEFICIT_VGRAD, 6, 0.0, 0.07),
        (ScanFamily.VLAP_RADIAL_EXCESS, 9, 0.0, 0.07),
        (ScanFamily.GRAD_DEFICIT_VLAP, 9, 0.0, 0.07),
        (ScanFamily.GRADIENT_CONSTANT, 6, 0.0, 0.07),
    ]
    assert {c[0] for c in cases} == set(M._FAMILIES)
    for fam, N, m, a1 in cases:
        p = MinSeqParams(N, m, 1e-4, (a1,))
        quotient = M._FAMILIES[fam].quotient(N, m)
        # the reduction against the quadrature in s on (0, inner]
        red = M._Reduction(p)
        inner = [M._inner_integral(terms, p, SPEC) for terms in quotient]
        for terms, direct in zip(quotient, inner):
            assert red.integral(terms) == pytest.approx(direct, rel=1e-9), (fam, terms)
        outer = M._OuterTerms(p)
        num, den = (i + outer.integral(terms, SPEC) for i, terms in zip(inner, quotient))
        assert rayleigh_quotient(fam, p, quad=SPEC) == pytest.approx(num / den, rel=1e-8), fam


def _inner_integrals_at_40_digits(params, sides):
    """The integrals over (0, inner] of each side's closed-form density,
    read with mpf scalars: 40-digit Gauss-Legendre panels in t = ln(1 + s),
    s = ln(1/r), out to where e^{-2 eps s} < e^{-400}."""
    import mpmath as mp
    from mpmath.calculus.quadrature import GaussLegendre

    import rellich.minseq as M

    with mp.workdps(40):
        nodes = GaussLegendre(mp.mp).calc_nodes(4, mp.mp.prec)  # 24 nodes
        a, eps = mp.mpf(params.a[0]), mp.mpf(params.epsilon)
        t0 = mp.log(1 - mp.log(mp.mpf(params.cutoff.inner_radius)))
        t1 = mp.log(1 / (2 * eps)) + 6
        n = int(mp.ceil((t1 - t0) / 2))
        h = (t1 - t0) / n
        totals = [mp.mpf(0)] * len(sides)
        for i in range(n):
            mid = t0 + (i + mp.mpf(0.5)) * h
            for x_node, w in nodes:
                x = mp.exp(-(mid + h / 2 * x_node))  # X_1 = 1/(1 + s) = e^{-t}
                forms = M._closed_forms(params, eps, (a - 1) * x, (a - 1) * x * x)
                # r^{-1+2eps} X_1^{-1+a} dr = e^{-2eps s} X_1^{-2+a} dt
                common = w * h / 2 * mp.exp(-2 * eps * (1 / x - 1)) * x ** (a - 2)
                for j, terms in enumerate(sides):
                    totals[j] += common * M._closed_density(terms, forms, [x])
        return totals


_REFERENCE_CASES = [
    (ScanFamily.GRADIENT_CONSTANT, MinSeqParams(6, 0.0, 3e-4, (0.1,))),
    (ScanFamily.GRADIENT_CONSTANT, MinSeqParams(6, 0.0, 3e-4, (3.90625e-4,))),
    (ScanFamily.GRADIENT_CONSTANT, MinSeqParams(30, 0.0, 1e-3, (0.05,))),
    (ScanFamily.AMN, MinSeqParams(30, 8.0, 3e-4, (1.0,), mode_k=2)),
    (ScanFamily.AMN, MinSeqParams(6, 0.0, 1e-2, (1.0,))),
    *[
        (fam, MinSeqParams(N, m, eps, (a1,), mode_k=k))
        for eps in (1e-20, 1e-100, 1e-150)
        for fam, N, m, k, a1 in (
            (ScanFamily.GRADIENT_CONSTANT, 6, 0.0, 0, 0.1),
            (ScanFamily.AMN, 30, 8.0, 2, 1.0),
        )
    ],
    (ScanFamily.RELLICH_IMPROVED, MinSeqParams(6, 0.0, 1e-3, (0.1,))),
    (ScanFamily.GRAD_DEFICIT_VLAP, MinSeqParams(9, 0.0, 1e-4, (0.05,))),
]


@pytest.mark.parametrize(
    "fam, params", _REFERENCE_CASES, ids=lambda x: x.value if isinstance(x, ScanFamily) else repr(x.epsilon)
)
def test_single_log_inner_integrals_match_an_extended_precision_reference(fam, params):
    """The column sum of closed-form Q(beta) gives every single-log integral
    over (0, inner] to 2e-14 against a 40-digit quadrature of the same
    density: the plain quotients, which keep their divergent levels, down to
    eps = 1e-150, and two deficit families, which eliminate them."""
    import rellich.minseq as M

    sides = M._FAMILIES[fam].quotient(params.N, params.m)
    red = M._Reduction(params)
    for terms, ref in zip(sides, _inner_integrals_at_40_digits(params, sides)):
        got = red.integral(terms)
        assert abs(got - ref) <= 2e-14 * abs(ref), (terms, got, float(ref))


@pytest.mark.parametrize("N, a1, eps", [(6, 0.0125, 1e-155), (30, 4e-4, 1e-153)])
def test_single_log_sum_that_leaves_the_double_range_raises(N, a1, eps):
    """Past the overflow edge every Q(beta) is still finite, but a plain
    quotient's column sum is not: DomainError, not inf."""
    import rellich.minseq as M

    p = MinSeqParams(N, 0.0, eps, (a1,))
    with pytest.raises(DomainError, match=f"overflows at eps = {eps}"):
        M._Reduction(p).integral(M._FAMILIES[ScanFamily.GRADIENT_CONSTANT].quotient(N, 0.0)[0])
    with pytest.raises(DomainError):
        rayleigh_quotient(ScanFamily.GRADIENT_CONSTANT, p)


@pytest.mark.parametrize("N", [5, 6, 9, 30])
def test_reduction_eliminates_exactly_the_deficit_levels(N):
    """The reduction eliminates both divergent levels of every side of the
    deficit families and of the v-side and deficit asymptotics, where the
    sharp constants cancel them, and keeps level 0 of amn, rellich-gradient
    and the plain u-side asymptotics.  The default schedule carries eps on
    with a exactly where the numerator eliminates its levels."""
    import rellich.minseq as M

    plain = {ScanFamily.AMN, ScanFamily.GRADIENT_CONSTANT, AsymptoticCase.U_GRADIENT, AsymptoticCase.U_LAPLACIAN}

    def starts(params, sides):
        red = M._Reduction(params)
        return [M._reduce_columns(red.poly(terms), params.a[0])[0] for terms in sides]

    checked = 0
    for fam, spec in M._FAMILIES.items():
        for m in np.linspace(0.0, (N - 4) / 2.0, 5)[:-1]:
            p = MinSeqParams(N, float(m), 1e-3, (0.1,))
            try:
                spec.validate(fam, p)
            except DomainError:
                continue
            level = 0 if fam in plain else 2
            assert starts(p, spec.quotient(N, p.m)) == [level, level], (fam, m)
            if fam is not ScanFamily.AMN:
                follows = default_schedule(fam, N, p.m)[-1].epsilon < 3e-4
                assert follows == (level == 2), (fam, m)
            checked += 1
    for case, spec in M._ASYMPTOTICS.items():
        level = 0 if case in plain else 2
        assert starts(MinSeqParams(N, 0.0, 1e-3, (0.1,)), [spec.lhs(N)]) == [level], case
    assert checked >= 11


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-8])
def test_inner_q_beta_and_its_boundary_identity(eps):
    """Q(beta) = int_0^inner r^{-1+2eps} X_1^beta dr against a 30-digit
    quadrature of its s-space form, and the identity the reduction rests on:
    eps Q(beta) + (beta/2) Q(beta+1) = (1/2) inner^{2eps} X_1(inner)^beta."""
    import mpmath as mp

    from rellich.quadrature import _q_beta

    rho = CutoffSpec().inner_radius
    for beta in (0.93, 1.07, 2.07, 3.5):
        with mp.workdps(30):
            e, b = mp.mpf(eps), mp.mpf(beta)
            breaks = [mp.log(1 / mp.mpf(rho))] + [mp.mpf(10) ** j for j in range(13)] + [mp.inf]
            ref = float(mp.quad(lambda s: mp.exp(-2 * e * s) * (1 + s) ** -b, breaks))
        q = _q_beta(beta, eps, rho)
        assert q == pytest.approx(ref, rel=1e-13, abs=0.0), beta
        lhs = eps * q + beta / 2.0 * _q_beta(beta + 1.0, eps, rho)
        boundary = 0.5 * rho ** (2.0 * eps) * (1.0 / (1.0 - math.log(rho))) ** beta
        assert lhs == pytest.approx(boundary, rel=1e-13, abs=0.0), beta


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
def test_q_beta_matches_the_incomplete_gamma_function(rho):
    """Q(beta) = e^{2eps} (2eps)^{beta-1} Gamma(1-beta, 2eps (1 + ln(1/rho)))
    at 40 digits, from moderate eps down to the smallest double, on the
    levels a reduced quotient reads (beta = 1+a, 2+a, 3+a) and on the
    divergent level beta = -1+a the asymptotics read.  a = 1 puts the levels
    on the poles of Gamma at the nonpositive integers."""
    import mpmath as mp

    from rellich.quadrature import _q_beta

    for eps in (0.3, 1e-2, 3e-4, 1e-8, 1e-20, 1e-100, 1e-300, 5e-324):
        for a in (1e-7, 3.90625e-4, 0.05, 0.1, 0.5, 0.93, 1.0):
            for j in (0, 2, 3, 4):
                if j == 0 and eps < 1e-100:  # Q(-1+a) ~ (2eps)^{a-2} leaves the double range
                    continue
                beta = -1.0 + a + j
                with mp.workdps(40):
                    e, b = mp.mpf(eps), mp.mpf(beta)
                    x = 2 * e * (1 - mp.log(mp.mpf(rho)))
                    ref = mp.exp(2 * e) * (2 * e) ** (b - 1) * mp.gammainc(1 - b, x)
                    err = float(abs(mp.mpf(_q_beta(beta, eps, rho)) - ref) / ref)
                bound = 1e-13 if j == 0 else 1e-14
                assert err <= bound, (eps, a, beta, err)


def test_q_beta_raises_where_it_cannot_answer(monkeypatch):
    from rellich import quadrature as Q

    rho = CutoffSpec().inner_radius
    with pytest.raises(DomainError, match="overflows"):
        Q._q_beta(-0.5, 5e-324, rho)  # ~ (2eps)^{-1.5}
    monkeypatch.setattr(Q, "_GAMMA_MAX_TERMS", 3)
    with pytest.raises(DomainError, match="series"):
        Q._q_beta(1.1, 0.3, rho)  # x = 1.02: the series
    with pytest.raises(DomainError, match="continued fraction"):
        Q._q_beta(1.1, 0.3, 0.01)  # x = 3.4: the continued fraction


def test_reduced_quotient_runs_two_zone_quadratures(monkeypatch):
    """A single-log quotient integrates only the cutoff zone, once for its
    numerator and once for its denominator, and each zone integral starts on
    4 panels: its first integrand call takes 4 x 15 nodes."""
    import rellich.minseq as M
    from rellich.quadrature import count_quadrature

    first_calls = []
    real = M.integrate

    def recording(f, a, b, spec=None, breakpoints=()):
        sizes = []

        def g(r):
            sizes.append(np.size(r))
            return f(r)

        res = real(g, a, b, spec, breakpoints)
        first_calls.append(sizes[0])
        return res

    monkeypatch.setattr(M, "integrate", recording)
    for fam in M._FAMILIES:
        first_calls.clear()
        with count_quadrature() as counts:
            rayleigh_quotient(fam, MinSeqParams(6, 0.0, 1e-3, (0.1,)))
        assert counts.calls == 2, fam
        assert first_calls == [60, 60], fam


def test_zone_integral_matches_the_plain_adaptive_rule(monkeypatch):
    """Started on its 4 panels, every zone integral of every family's
    default N = 6 scan agrees with the adaptive rule started on the whole
    zone, which refines to the same panels."""
    import rellich.minseq as M

    real = M.integrate
    seen = []

    def both(f, a, b, spec=None, breakpoints=()):
        res = real(f, a, b, spec, breakpoints)
        plain = real(f, a, b, spec).value
        seen.append(abs(res.value - plain) / abs(plain))
        return res

    monkeypatch.setattr(M, "integrate", both)
    for fam in ScanFamily:
        for params in default_schedule(fam, 6):
            rayleigh_quotient(fam, params)
    assert len(seen) == 2 * sum(len(default_schedule(fam, 6)) for fam in ScanFamily)
    assert max(seen) <= 2e-15


def test_family_parameter_guards():
    with pytest.raises(DomainError):
        rayleigh_quotient(ScanFamily.RELLICH_IMPROVED, MinSeqParams(6, 0.5, 1e-3, (0.1,)), quad=SPEC)
    with pytest.raises(DomainError):
        rayleigh_quotient(ScanFamily.DEFICIT_VGRAD, MinSeqParams(6, 0.0, 1e-3, (0.1,), mode_k=1), quad=SPEC)
    with pytest.raises(DomainError):
        # weighted gradient family requires m below the mode-zero threshold
        rayleigh_quotient(ScanFamily.WEIGHTED_GRAD_IMPROVED, MinSeqParams(12, 3.0, 1e-3, (0.1,)), quad=SPEC)


def test_scan_to_limit_and_csv():
    sched = default_schedule(ScanFamily.GRADIENT_CONSTANT, 6)[:6]
    res = scan_to_limit(ScanFamily.GRADIENT_CONSTANT, sched, SPEC)
    assert res.theoretical == 9.0
    assert res.direction_ok()
    assert res.monotone
    assert res.extrapolated == res.quotients[-1]
    text = scan_result_csv(res)
    lines = text.strip().splitlines()
    assert lines[0] == "step,epsilon,a1,quotient,theoretical"
    assert len(lines) == len(sched) + 1
    assert lines[1].split(",")[0] == "0"


def test_gradient_constant_default_scan_descends():
    # a plain quotient: eps holds at the ladder's end while a is halved
    for N in (6, 9):
        sched = default_schedule(ScanFamily.GRADIENT_CONSTANT, N)
        assert {p.epsilon for p in sched[4:]} == {3e-4}
        res = scan_to_limit(ScanFamily.GRADIENT_CONSTANT, sched, SPEC)
        assert res.direction_ok(), (N, res.quotients)
        assert all(q2 < q1 for q1, q2 in zip(res.quotients, res.quotients[1:])), res.quotients


def test_direct_path_rejects_deep_eps_with_log_factor():
    with pytest.raises(DomainError):
        rayleigh_quotient(ScanFamily.GRADIENT_CONSTANT, MinSeqParams(6, 0.0, 1e-200, (0.0125,)), quad=SPEC)
    with pytest.raises(DomainError):
        rayleigh_quotient(ScanFamily.RELLICH_IMPROVED, MinSeqParams(6, 0.0, 1e-200, (0.1, 0.1)), quad=SPEC)
    # pure powers carry no log-deep mass and stay exact
    amn = rayleigh_quotient(ScanFamily.AMN, MinSeqParams(30, 8.0, 1e-200, (1.0,), mode_k=2), quad=SPEC)
    assert amn == pytest.approx(C.a_mn(30, 8).value, rel=1e-9)


def test_scan_theoretical_values():
    assert scan_theoretical(ScanFamily.RELLICH_IMPROVED, MinSeqParams(6, 0.0, 1e-3, (0.1,))) == 2.5
    assert scan_theoretical(ScanFamily.RELLICH_GRAD_IMPROVED, MinSeqParams(6, 0.0, 1e-3, (0.1,))) == 0.25
    assert scan_theoretical(
        ScanFamily.WEIGHTED_RELLICH_IMPROVED, MinSeqParams(12, 1.0, 1e-3, (0.1,))
    ) == pytest.approx(C.sigma_bar(1.0, 12))


@pytest.mark.parametrize("N, m, k", [(30, 8.0, k) for k in range(5)] + [(9, 2.0, 0)])
def test_amn_scan_reports_its_own_modes_limit(N, m, k):
    res = scan_to_limit(ScanFamily.AMN, default_schedule(ScanFamily.AMN, N, m, mode_k=k), SPEC)
    assert res.theoretical == C.per_mode_quotient(k, N, m)
    assert res.direction_ok(), res.quotients
    report = C.a_mn(N, m)
    if k == report.argmin_k:
        assert res.theoretical == report.value
    else:
        assert res.theoretical > report.value


def test_default_schedule_structure():
    sched = default_schedule(ScanFamily.RELLICH_IMPROVED, 6)
    eps = [p.epsilon for p in sched]
    assert eps[:4] == [1e-2, 3e-3, 1e-3, 3e-4]
    a1 = [p.a[0] for p in sched]
    assert a1[:4] == [0.1] * 4
    assert all(a1[i + 1] <= a1[i] for i in range(len(a1) - 1))
    # eps keeps shrinking with a during the halvings
    assert all(eps[i + 1] <= eps[i] for i in range(len(eps) - 1))
    amn = default_schedule(ScanFamily.AMN, 30, 8.0, mode_k=2)
    assert all(p.a == (1.0,) for p in amn)


def test_asymptotics_stated_pair_movement():
    for case in (AsymptoticCase.V_GRADIENT, AsymptoticCase.U_GRADIENT):
        _, _, r1 = leading_order_asymptotics(case, MinSeqParams(6, 0.0, 1e-3, (0.05,)), SPEC)
        _, _, r2 = leading_order_asymptotics(case, MinSeqParams(6, 0.0, 1e-4, (0.02,)), SPEC)
        assert abs(r2 - 1.0) < abs(r1 - 1.0)


def test_asymptotics_deep_regime():
    deep = MinSeqParams(30, 0.0, math.exp(-500), (0.008,))
    lhs, rhs, ratio = leading_order_asymptotics(AsymptoticCase.V_GRADIENT, deep, SPEC)
    assert lhs > 0 and rhs > 0
    assert 0.8 <= ratio <= 1.2


def test_asymptotics_guards():
    with pytest.raises(DomainError):
        leading_order_asymptotics(AsymptoticCase.V_GRADIENT, MinSeqParams(6, 0.0, 1e-3, (0.1, 0.1)), SPEC)
    with pytest.raises(DomainError):
        leading_order_asymptotics(AsymptoticCase.U_GRADIENT, MinSeqParams(6, 0.0, 1e-200, (0.01,)), SPEC)


def test_multi_log_quotient_direct_path():
    # two log factors exercise the direct two-region path (no reduction)
    p = MinSeqParams(6, 0.0, 1e-3, (0.1, 0.1))
    q = rayleigh_quotient(ScanFamily.RELLICH_IMPROVED, p, quad=SPEC)
    assert q >= 2.5 - 1e-9
    p2 = MinSeqParams(6, 0.0, 1e-3, (0.1, 0.05))
    q2 = rayleigh_quotient(ScanFamily.RELLICH_IMPROVED, p2, quad=SPEC)
    assert q2 >= 2.5 - 1e-9


def test_scan_reports_unconverged_quadratures(monkeypatch):
    import rellich.minseq as minseq

    schedule = default_schedule(ScanFamily.RELLICH_IMPROVED, 6, K=2)
    result = scan_to_limit(ScanFamily.RELLICH_IMPROVED, schedule)

    # recount by wrapping the quadrature entry points the quotient calls
    misses = [0]

    def counting(fn):
        def wrapped(*args, **kwargs):
            res = fn(*args, **kwargs)
            misses[0] += not res.converged
            return res

        return wrapped

    monkeypatch.setattr(minseq, "integrate", counting(minseq.integrate))
    monkeypatch.setattr(minseq, "integrate_halfline", counting(minseq.integrate_halfline))
    expected = []
    for params in schedule:
        misses[0] = 0
        rayleigh_quotient(ScanFamily.RELLICH_IMPROVED, params)
        expected.append(misses[0])
    assert result.unconverged == expected
    assert sum(expected) > 0  # the direct K = 2 path does not always converge

    reduced = scan_to_limit(ScanFamily.RELLICH_IMPROVED, default_schedule(ScanFamily.RELLICH_IMPROVED, 6))
    assert reduced.unconverged == [0] * len(reduced.quotients)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool(np.all(a.view(np.int64) == b.view(np.int64)))


def test_cutoff_jet_matches_selecting_constant_jets():
    """The scalar fills give the rows Jet.select gives with constant jets."""
    from rellich.taylor import Jet

    cut = CutoffSpec(0.4, 0.9, 4)
    r = np.array([0.1, 0.4, 0.400001, 0.55, 0.7, 0.8999, 0.9, 1.3])
    for order in range(5):
        J = Jet.variable(r, order)
        t = (J - cut.inner_radius) * (1.0 / (cut.outer_radius - cut.inner_radius))
        s = Jet.constant(0.0, order, like=r)
        for c in reversed(cut._coeffs()):
            s = s * t + float(c)
        phi = Jet.select(r <= cut.inner_radius, Jet.constant(1.0, order, like=r), 1.0 - s)
        phi = Jet.select(r >= cut.outer_radius, Jet.constant(0.0, order, like=r), phi)
        got = cut.jet(J)
        assert got.order == order
        assert all(_same_bits(a, b) for a, b in zip(got.coeffs, phi.coeffs))


@pytest.mark.parametrize(
    "N, m, k, a",
    [(6, 0.0, 0, (0.1,)), (9, 0.0, 1, (0.05, 0.3)), (12, 1.3, 2, (1.0,)), (30, 8.0, 2, (0.2,))],
)
def test_outer_pieces_from_one_jet_match_the_profile_route(N, m, k, a):
    """Each piece built from one jet of u is bitwise the one its own profile
    evaluation gives: the mode operator's profile for the Laplacians,
    derivative values for the gradients, the power shift for v."""
    import rellich.minseq as M
    from rellich.radial import gradient_density, mode_operator

    p = MinSeqParams(N, m, 1e-3, a, mode_k=k)
    outer = M._OuterTerms(p)
    u = build_minimizer(p)
    ck = u.mode.eigenvalue
    v = u.profile.power_shift((N - 4.0 - 2.0 * m) / 2.0)
    r = np.linspace(0.5, 1.0, 37)
    u0, u1 = u.profile.derivative_values(r, 1)
    v0, v1 = v.derivative_values(r, 1)
    route = {
        "lap_u": mode_operator(u.mode, u.profile)(r) ** 2 * r ** (N - 1 - 2 * m),
        "grad_u": gradient_density(u0, u1, ck, r, N - 3 - 2 * m),
        "hardy_u": u0**2 * r ** (N - 5 - 2 * m),
        "lap_v": mode_operator(u.mode, v)(r) ** 2 * r**3,
        "grad_v": gradient_density(v0, v1, ck, r, 1),
        "rad_v": v1**2 * r,
    }
    for names in ({"grad_u", "hardy_u"}, {"grad_v", "rad_v"}, {"lap_u", "hardy_u", "grad_v"}, set(route)):
        got = outer.pieces(r, names)
        assert set(got) == names
        for name in names:
            assert _same_bits(got[name], route[name]), (names, name)


def _density_subjects():
    """A suite case's profile and a sequence member's, with their modes and
    nodes inside each support."""
    from rellich.verify import standard_suite

    case = standard_suite(7)[13]  # N = 6, k = 3
    member = build_minimizer(MinSeqParams(9, 0.5, 1e-3, (0.2,), mode_k=2))
    return [
        (case.jet_profile(), case.mode, np.linspace(0.02, 0.98, 37)),
        (member.profile, member.mode, np.geomspace(1e-6, 0.99, 37)),
    ]


@pytest.mark.parametrize(
    "kind, n",
    [(kind, 0) for kind in ("square", "square-over-r", "gradient", "radial-gradient", "moment-2")]
    + [(kind, n) for kind in ("square", "gradient") for n in (1, 2)],
)
def test_density_matches_the_profile_route(kind, n):
    """radial's _density is bitwise the density formed from the profile
    route: the mode operator applied n times, then derivative_values; its
    origin power is 2 (o - 2n - order) + w for a profile of origin order o."""
    from rellich.radial import _density, mode_operator

    w = 2.5 if kind != "square-over-r" else -1
    for h, mode, r in _density_subjects():
        ck = mode.eigenvalue
        hn = h
        for _ in range(n):
            hn = mode_operator(mode, hn)
        order = {"gradient": 1, "radial-gradient": 1, "moment-2": 2}.get(kind, 0)
        d = hn.derivative_values(r, order)
        if kind == "square":
            route = d[0] ** 2 * r**w
        elif kind == "square-over-r":
            route = d[0] ** 2 / r
        elif kind == "gradient":
            route = d[1] ** 2 + ck * (d[0] / r) ** 2 if ck else d[1] ** 2
            route = route * r**w
        else:
            route = d[order] ** 2 * r**w
        origin_power, density = _density(kind, n, h, mode, w)
        assert _same_bits(density(r), route), (mode, kind, n)
        assert origin_power == 2 * (h.origin_order - 2 * n - order) + w


@pytest.mark.parametrize("N", [5, 6, 9, 30])
def test_factored_deficits_use_their_sharp_constants(N):
    """Every deficit lap_u - c * piece that a family or an asymptotic case
    declares has the constant its factored form needs, on the whole
    admissible m range: c = A0^2 for hardy_u and c * q0^2 = A0^2 for grad_u,
    at mode 0.  Only then do the constant parts cancel exactly."""
    import rellich.minseq as M

    def check(params, term_lists) -> int:
        forms = M._closed_forms(params, 0.0, 0.0, 0.0)
        found = 0
        for terms in term_lists:
            if len(terms) < 2 or terms[1].piece not in M._DEFICIT_PIECES:
                continue
            piece, c = terms[1].piece, -terms[1].coeff
            if terms[:2] != M._deficit(piece, c):
                continue
            lhs = c if piece == "hardy_u" else c * forms.q0**2
            assert abs(lhs - forms.A0**2) <= 1e-12 * forms.A0**2, (piece, params)
            found += 1
        return found

    checked = 0
    for fam, spec in M._FAMILIES.items():
        for m in np.linspace(0.0, (N - 4) / 2.0, 9)[:-1]:
            p = MinSeqParams(N, float(m))
            try:
                spec.validate(fam, p)
            except DomainError:
                continue
            found = check(p, spec.quotient(N, p.m))
            assert spec.radial or not found, fam  # deficits are declared at mode 0 only
            checked += found
    for case in M._ASYMPTOTICS.values():
        checked += check(MinSeqParams(N), [case.lhs(N)])
    assert checked >= 8
