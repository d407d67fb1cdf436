import math
from fractions import Fraction

import numpy as np
import pytest

import rellich.minseq as M
from rellich import constants as C
from rellich import verify as V
from rellich.errors import DomainError
from rellich.iterlog import xk_values
from rellich.minseq import (
    CutoffSpec,
    MinSeqParams,
    ScanFamily,
    build_minimizer,
    default_schedule,
    rayleigh_quotient,
    scan_result_csv,
    scan_theoretical,
    scan_to_limit,
)
from rellich.quadrature import QuadratureSpec

SPEC = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)

# Six single-log functionals at m = 0, named by their registry terms: the
# v-gradient and v-Laplacian, the plain u-gradient and u-Laplacian, and the
# two Rellich deficits.  The plain ones keep their divergent levels.
NAMED_SIDES = {
    "v-gradient": lambda N: [(1, V._v_grad(N))],
    "v-laplacian": lambda N: [(1, V._v_lap(N))],
    "u-gradient": lambda N: [(1, V._grad(N))],
    "u-laplacian": lambda N: [(1, V._lap(N))],
    "rellich-deficit": V._deficit_I,
    "gradrellich-deficit": V._deficit_II,
}
PLAIN_SIDES = {"u-gradient", "u-laplacian"}


def _named_sides(N: int) -> dict:
    """The six functionals as float (coefficient, integral, weight) terms."""
    return {name: M._float_terms(M._terms(side(N), N, 0)) for name, side in NAMED_SIDES.items()}


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


def _eta_b_at(p, r):
    """(eta, B) of the sequence at r, from the closed forms' own _eta_b."""
    return M._eta_b(p.a, M._log_products(xk_values(len(p.a), r)))


def test_eta_b_consistency():
    p = MinSeqParams(6, 0.0, 1e-2, (0.3, 0.2, 0.1))
    rr = np.linspace(0.1, 0.9, 9)
    h = 1e-7
    etap = (_eta_b_at(p, rr + h)[0] - _eta_b_at(p, rr - h)[0]) / (2 * h)
    assert np.max(np.abs(rr * etap - _eta_b_at(p, rr)[1])) < 1e-8


def test_gradient_display_consistency():
    # w' = w * (q + eta/2) / r in the cutoff-free region
    p = MinSeqParams(8, 1.0, 0.05, (0.3, 0.15))
    prof = build_minimizer(p).profile
    rr = np.linspace(0.08, 0.4, 7)
    J = prof.taylor(rr, 1)
    expected = J.deriv(0) * (p.power_exponent + _eta_b_at(p, rr)[0] / 2.0) / rr
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
    assert {c[0] for c in cases} == set(ScanFamily)
    for fam, N, m, a1 in cases:
        p = MinSeqParams(N, m, 1e-4, (a1,))
        quotient = M._quotient(fam, N, m)[:2]
        # the reduction against the quadrature in s on (0, inner]
        red = M._Reduction(p)
        inner = [res.value for res in M._inner_integrals(p, quotient, SPEC)]
        for terms, direct in zip(quotient, inner):
            assert red.integral(terms) == pytest.approx(direct, rel=1e-9), (fam, terms)
        num, den = (i + z for i, z in zip(inner, M._OuterTerms(p).integrals(quotient, SPEC)))
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
                forms = M._closed_forms(params.N, params.m, params.mode_k, eps, (a - 1) * x, (a - 1) * x * x)
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

    sides = M._quotient(fam, params.N, params.m)[:2]
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
        M._Reduction(p).integral(M._quotient(ScanFamily.GRADIENT_CONSTANT, N, 0.0)[0])
    with pytest.raises(DomainError):
        rayleigh_quotient(ScanFamily.GRADIENT_CONSTANT, p)


@pytest.mark.parametrize("N", [5, 6, 9, 30])
def test_reduction_eliminates_exactly_the_deficit_levels(N):
    """The reduction eliminates both divergent levels of every side of the
    deficit families and of the named v-side and deficit functionals, where
    the sharp constants cancel them, and keeps level 0 of amn,
    rellich-gradient and the plain u-side functionals.  The default schedule
    carries eps on with a exactly where the numerator eliminates its
    levels."""
    import rellich.minseq as M

    plain = {ScanFamily.AMN, ScanFamily.GRADIENT_CONSTANT}

    def starts(params, sides):
        red = M._Reduction(params)
        return [M._reduce_columns(red.poly(terms), params.a[0])[0] for terms in sides]

    checked = 0
    for fam in ScanFamily:
        for m in np.linspace(0.0, (N - 4) / 2.0, 5)[:-1]:
            p = MinSeqParams(N, float(m), 1e-3, (0.1,))
            try:
                M._validate(fam, p)
            except DomainError:
                continue
            level = 0 if fam in plain else 2
            assert starts(p, M._quotient(fam, N, p.m)[:2]) == [level, level], (fam, m)
            if fam is not ScanFamily.AMN:
                follows = default_schedule(fam, N, p.m)[-1].epsilon < 3e-4
                assert follows == (level == 2), (fam, m)
            checked += 1
    for name, terms in _named_sides(N).items():
        level = 0 if name in PLAIN_SIDES else 2
        assert starts(MinSeqParams(N, 0.0, 1e-3, (0.1,)), [terms]) == [level], name
    assert checked >= 11


class _ArrayPoly2:
    """The reduction's polynomial in (eps, X) on a numpy coefficient matrix,
    the form it had before it moved to Python lists; the reference below."""

    def __init__(self, c):
        self.c = np.atleast_2d(np.asarray(c, dtype=float))

    def __add__(self, other):
        if not isinstance(other, _ArrayPoly2):
            other = _ArrayPoly2([[float(other)]])
        shape = np.maximum(self.c.shape, other.c.shape)
        out = np.zeros(shape)
        out[: self.c.shape[0], : self.c.shape[1]] += self.c
        out[: other.c.shape[0], : other.c.shape[1]] += other.c
        return _ArrayPoly2(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, other):
        if not isinstance(other, _ArrayPoly2):
            return _ArrayPoly2(self.c * float(other))
        a, b = self.c, other.c
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                if a[i, j] != 0.0:
                    out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return _ArrayPoly2(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _ArrayPoly2(self.c / float(other))


def _per_a_density(terms, N, m, k, a):
    """The combination's density over the common factor as a polynomial in
    (eps, X_1) at the given a_1, built at that a_1 in the number type of a:
    the rule the carried build must reproduce."""
    zero = a - a
    prods = [M._Poly2.x(zero)]
    forms = M._closed_forms(N, m, k, M._Poly2.eps(zero), *M._eta_b((a,), prods))
    return M._closed_density(terms, forms, prods)


@pytest.mark.parametrize("N", [6, 30])
def test_reduction_polynomials_match_the_array_form_bitwise(N):
    """The list-based polynomials of every family's sides and of every named
    functional, built at a_1 (the rule the carried build reproduces, see the
    test below), and their columns evaluated at eps, are bitwise those of
    the numpy matrices and numpy's polyval.  A coefficient no float reached
    is an int, compared as the float it equals."""
    sides = [t for fam in ScanFamily for t in M._quotient(fam, N, 0.0)[:2]]
    sides += list(_named_sides(N).values())
    for a in (0.1, 0.37, 1.0):
        prods = [_ArrayPoly2([[0.0, 1.0]])]
        forms = M._closed_forms(N, 0.0, 0, _ArrayPoly2([[0.0], [1.0]]), *M._eta_b((a,), prods))
        for terms in sides:
            got = np.array(_per_a_density(terms, N, 0.0, 0, a).c, dtype=float)
            ref = M._closed_density(terms, forms, prods).c
            assert (got.shape, got.tobytes()) == (ref.shape, ref.tobytes()), terms
            for col in ref.T:
                for eps in (1e-3, 3e-7, 5e-324):
                    want = float(np.polynomial.polynomial.polyval(eps, col))
                    assert M._polyval(eps, col.tolist()).hex() == want.hex()


def _carried_cases(N):
    """(exact terms, float terms, m, k) of every family's sides at each m it
    admits among 0, 5/4 and 8 (amn at its modes k = 0..3), and of the named
    functionals at m = 0."""
    named = zip(NAMED_SIDES.values(), _named_sides(N).values())
    cases = [(M._terms(side(N), N, 0), floats, Fraction(0), 0) for side, floats in named]
    for fam in ScanFamily:
        for m in (Fraction(0), Fraction(5, 4), Fraction(8)):
            for k in range(4) if fam is ScanFamily.AMN else (0,):
                if exact := _exact_sides(fam, N, m, k):
                    cases += [(t, f, m, k) for t, f in zip(exact, M._quotient(fam, N, float(m))[:2])]
    return cases


@pytest.mark.parametrize("N", [5, 6, 9, 30])
def test_carried_build_is_the_per_a_build(N):
    """The density built once with a_1 a variable and read at a_1 = a is the
    one built at a: exactly, cell by cell, in Fractions, and in floats to 8
    ulp of the largest exact coefficient of its column in X."""
    for exact, floats, m, k in _carried_cases(N):
        carried, carried_float = M._carried_density(exact, N, m, k), M._carried_density(floats, N, float(m), k)
        for a in (Fraction(0), Fraction(1, 10), Fraction(1, 3), Fraction(3, 4), Fraction(1)):
            want = _per_a_density(exact, N, m, k, a).c
            got = M._at_a1(carried, a).c
            assert got == want and _exact_numbers(v for row in got for v in row), (exact, m, k, a)
            got = M._at_a1(carried_float, float(a)).c
            assert [len(row) for row in got] == [len(row) for row in want]
            for j, col in enumerate(zip(*want)):
                tol = 8 * Fraction(math.ulp(float(max(abs(v) for v in col))))
                for i, v in enumerate(col):
                    assert type(got[i][j]) is float and abs(Fraction(got[i][j]) - v) <= tol, (exact, m, k, a, i, j)
    assert len(_carried_cases(N)) >= 17


@pytest.fixture
def empty_carried_store():
    M._carried_density.cache_clear()
    yield M._carried_density
    M._carried_density.cache_clear()


@pytest.mark.parametrize("fam", list(ScanFamily))
def test_a_default_scan_builds_each_side_once(empty_carried_store, monkeypatch, fam):
    """Every quotient of a default K = 1 scan reads its sides' densities from
    the store, built on the first step, one build per distinct side; each
    step's quotient is bitwise the one with the store emptied before it."""
    builds, build = [], M._carried_forms
    monkeypatch.setattr(M, "_carried_forms", lambda *key: builds.append(key) or build(*key))
    schedule = default_schedule(fam, 6)
    got = scan_to_limit(fam, schedule).quotients
    sides = set(M._quotient(fam, 6, 0.0)[:2])
    assert len(builds) == empty_carried_store.cache_info().misses == len(sides)
    assert empty_carried_store.cache_info().hits == 2 * len(schedule) - len(sides)
    for p, q in zip(schedule, got):
        empty_carried_store.cache_clear()
        assert rayleigh_quotient(fam, p).hex() == q.hex()


def test_exact_and_float_builds_keep_apart(empty_carried_store):
    """At m = 0 the float and the exact builds have equal keys but for m's
    type (0.0 == Fraction(0)); each reads its own: the exact limit after a
    float scan is still a Fraction, and the scan after it still floats."""
    fam = ScanFamily.DEFICIT_VLAP
    schedule = default_schedule(fam, 6)
    before = scan_to_limit(fam, schedule).quotients
    limit = M._exact_limit(fam, 6, 0)
    assert type(limit) is Fraction and limit == V.REGISTRY[fam.target.name].sharp(6, Fraction(0))[1]
    assert [q.hex() for q in scan_to_limit(fam, schedule).quotients] == [q.hex() for q in before]
    assert empty_carried_store.cache_info().currsize == 4


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_a_scan_limits_pass_stays_within_the_carried_store(empty_carried_store, monkeypatch, seed):
    """The store holds every key of a benchmark scan-limits pass: each is
    built once, none is dropped, and there are at most _CARRIED_SIZE."""
    import pathlib

    import rellich

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    plan = workloads.scan_plan(rellich, seed)
    steps = [(fam, p) for _, fam, schedule in plan for p in schedule if len(p.a) == 1]
    for fam, p in steps:
        try:
            rayleigh_quotient(fam, p)
        except DomainError:
            pass
    info = empty_carried_store.cache_info()
    assert info.misses == info.currsize <= M._CARRIED_SIZE
    keys = {(t, p.N, p.m, p.mode_k) for fam, p in steps for t in M._quotient(fam, p.N, p.m)[:2]}
    assert info.currsize == len(keys)


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
    divergent level beta = -1+a a plain quotient keeps.  a = 1 puts the levels
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
    numerator and once for its denominator, and both zone integrals start
    together on the zone's 4 panels: their first integrand call, one for
    both sides, takes 4 x 15 nodes and every integral either side reads;
    only bisections follow it."""
    from rellich.quadrature import count_quadrature

    calls = []
    real = M._OuterTerms.densities

    def recording(self, r, ints):
        calls.append((np.size(r), set(ints)))
        return real(self, r, ints)

    monkeypatch.setattr(M._OuterTerms, "densities", recording)
    for fam in ScanFamily:
        calls.clear()
        with count_quadrature() as counts:
            rayleigh_quotient(fam, MinSeqParams(6, 0.0, 1e-3, (0.1,)))
        assert counts.calls == 2, fam
        every = {t for terms in M._quotient(fam, 6, 0.0)[:2] for _, t, _ in terms}
        assert calls[0] == (60, every), fam
        assert all(size > 60 for size, _ in calls[1:]), fam


def test_zone_integral_matches_the_plain_adaptive_rule(monkeypatch):
    """Started together on their 4 panels, both zone integrals of every
    quotient of every family's default N = 6 scan agree with the adaptive
    rule started on the whole zone for that side alone, which refines to
    the same panels."""
    from rellich.quadrature import integrate

    real = M._integrate_many
    seen = []

    def both(f, n, a, b, spec=None, breakpoints=()):
        results = real(f, n, a, b, spec, breakpoints)
        for i, res in enumerate(results):
            plain = integrate(lambda r: f([(r, [i])])[i], a, b, spec).value
            seen.append(abs(res.value - plain) / abs(plain))
        return results

    monkeypatch.setattr(M, "_integrate_many", both)
    for fam in ScanFamily:
        for params in default_schedule(fam, 6):
            rayleigh_quotient(fam, params)
    assert len(seen) == 2 * sum(len(default_schedule(fam, 6)) for fam in ScanFamily)
    assert max(seen) <= 2e-15


def _quotient_one_side_per_call(fam, params, spec=None):
    """The Rayleigh quotient with each side integrated on its own: the
    side's zone integral with its own integrand calls, on a fresh profile
    memo, and for K >= 2 its inner half-line integral with no store.
    Returns (quotient, integrals that ended unconverged, each side's zone
    evaluations)."""
    from rellich.quadrature import QuadratureSpec, integrate, integrate_halfline

    spec = spec or QuadratureSpec()
    cutoff = params.cutoff
    cuts = [cutoff.inner_radius, cutoff.outer_radius]
    for _ in range(2):  # the zone's 4 panels, cut as bisection cuts them
        cuts = [c for lo, hi in zip(cuts, cuts[1:]) for c in (lo, 0.5 * (lo + hi))] + cuts[-1:]
    totals, missed, zone_evals = [], 0, []
    for terms in M._quotient(fam, params.N, params.m)[:2]:
        outer, ints = M._OuterTerms(params), {t for _, t, _ in terms}

        def zone_density(r):
            p = outer.densities(r, ints)
            prods = M._log_products(xk_values(len(params.a), r))
            return M._combine(terms, p.__getitem__, lambda w: M._weight(prods, w))

        def inner_density(s):
            common, forms, prods = M._inner_forms(params, np.asarray(s, dtype=float))
            return common * M._closed_density(terms, forms, prods)

        zone = integrate(zone_density, cuts[0], cuts[-1], spec, breakpoints=cuts[1:-1])
        results = [zone]
        if len(params.a) == 1:
            total = M._Reduction(params).integral(terms) + zone.value
        else:
            inner = integrate_halfline(inner_density, math.log(1.0 / cutoff.inner_radius), spec)
            results.append(inner)
            total = inner.value + zone.value
            if not inner.error_estimate <= M._MAX_INNER_ERR_SHARE * abs(total):
                raise DomainError("cannot resolve")
        totals.append(total)
        missed += sum(not res.converged for res in results)
        zone_evals.append(zone.evaluations)
    return totals[0] / totals[1], missed, zone_evals


def test_quotients_match_one_side_per_call():
    """Every step of every family's default scan at N = 6, 9 and 30, K = 1
    and 2, gives the quotient and the unconverged count of the sides
    integrated one at a time, bitwise, steps where one side's zone bisects
    to 8 panels and the other's stops on 4 included."""
    one_side_bisects = 0
    for fam in ScanFamily:
        for N in (6, 9, 30):
            for K in (1, 2):
                schedule = default_schedule(fam, N, K=K)
                result = scan_to_limit(fam, schedule)
                for params, q, missed in zip(schedule, result.quotients, result.unconverged):
                    ref, ref_missed, zone_evals = _quotient_one_side_per_call(fam, params)
                    assert (q.hex(), missed) == (ref.hex(), ref_missed), (fam, params)
                    one_side_bisects += sorted(zone_evals) == [60, 180]
    assert one_side_bisects > 0


def test_k2_sides_share_one_halfline_run(monkeypatch):
    """A K = 2 quotient integrates both sides over (0, inner] in one
    lockstep half-line run: each side's result is bitwise, evaluations
    included, what its density gives alone, the run makes fewer integrand
    calls than the two sides alone, and the quotient is bitwise that of the
    sides integrated one at a time."""
    from rellich.quadrature import integrate_halfline

    real, runs = M._halfline_many, []

    def spy(f, n, s0, spec=None):
        calls = []
        results = real(lambda groups: calls.append(groups) or f(groups), n, s0, spec)
        runs.append((f, n, s0, spec, results, len(calls)))
        return results

    monkeypatch.setattr(M, "_halfline_many", spy)
    for fam in (ScanFamily.RELLICH_IMPROVED, ScanFamily.DEFICIT_VLAP):
        params = default_schedule(fam, 9, K=2)[4]
        runs.clear()
        q = rayleigh_quotient(fam, params)
        assert q.hex() == _quotient_one_side_per_call(fam, params)[0].hex()
        ((f, n, s0, spec, results, calls),) = runs
        assert n == 2
        alone = []
        for i, res in enumerate(results):
            seen = []

            def side(s, i=i):
                seen.append(s)
                return f([(s, [i])])[i]

            ref = integrate_halfline(side, s0, spec)
            assert (res.value.hex(), res.error_estimate.hex(), res.evaluations, res.converged) == (
                ref.value.hex(), ref.error_estimate.hex(), ref.evaluations, ref.converged
            )
            alone.append(len(seen))
        assert calls == max(alone) < sum(alone)


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


def test_multi_log_quotient_refuses_an_unresolved_inner_integral(monkeypatch):
    """K >= 2: the inner quadrature's error estimate decides.  At N = 6,
    a = (0.05, 0.05) it is 6.6e-8 of rellich-improved's numerator at
    eps = 1e-8, which answers, and past 1e-6 of it from eps = 1e-10 on,
    which raises; without the guard eps = 1e-30 returns round-off garbage
    of size 3e13, whose sign depends on rounding."""
    fam = ScanFamily.RELLICH_IMPROVED
    assert rayleigh_quotient(fam, MinSeqParams(6, 0.0, 1e-8, (0.05, 0.05))) == pytest.approx(136.12, rel=1e-4)
    for eps in (1e-10, 1e-12, 1e-30):
        with pytest.raises(DomainError, match="cannot resolve"):
            rayleigh_quotient(fam, MinSeqParams(6, 0.0, eps, (0.05, 0.05)))
    monkeypatch.setattr(M, "_MAX_INNER_ERR_SHARE", math.inf)
    assert abs(rayleigh_quotient(fam, MinSeqParams(6, 0.0, 1e-30, (0.05, 0.05)))) > 1e13


def test_multi_log_plain_quotient_answers_as_deep_as_the_quadrature_resolves():
    """rellich-gradient's K = 2 quotient keeps its constant past the old fixed
    floor eps = 1e-120; where the half-line stops at its s cap with panels
    that still grow, the error is infinite and the quotient raises."""
    fam = ScanFamily.GRADIENT_CONSTANT
    assert rayleigh_quotient(fam, MinSeqParams(6, 0.0, 1e-150, (0.1, 0.1))) == pytest.approx(9.0, rel=1e-14)
    with pytest.raises(DomainError, match="cannot resolve"):
        rayleigh_quotient(fam, MinSeqParams(6, 0.0, 1e-250, (0.1, 0.1)))


def test_scan_theoretical_values():
    assert scan_theoretical(ScanFamily.RELLICH_IMPROVED, MinSeqParams(6, 0.0, 1e-3, (0.1,))) == 2.5
    assert scan_theoretical(ScanFamily.RELLICH_GRAD_IMPROVED, MinSeqParams(6, 0.0, 1e-3, (0.1,))) == 0.25
    assert scan_theoretical(
        ScanFamily.WEIGHTED_RELLICH_IMPROVED, MinSeqParams(12, 1.0, 1e-3, (0.1,))
    ) == pytest.approx(C.sigma_bar(1.0, 12))


@pytest.mark.parametrize("N", [5, 6, 9, 12, 30])
def test_scan_constants_come_from_their_registry_targets(N):
    """Each family's constant is float() of the constant its registry target
    declares, exactly, at m = 0 and at weighted m up to m*(N) and past it.
    amn's target declares a_{m,N}, the candidate of its minimizing mode, and
    the scan of that mode approaches it."""
    from fractions import Fraction

    import rellich.minseq as M
    from rellich.verify import REGISTRY

    weights = {0.0, *(t * C.m_star(N) for t in (0.3, 0.7, 1.0)), *(t * (N - 4) / 2 for t in (0.1, 0.45, 0.9))}
    checked = 0
    for fam in ScanFamily:
        for m in sorted(weights):
            m_exact = Fraction(m)
            k = C.a_mn(N, m_exact).argmin_k if fam is ScanFamily.AMN else 0
            p = MinSeqParams(N, m, mode_k=k)
            try:
                M._validate(fam, p)
            except DomainError:
                continue
            constant = REGISTRY[fam.target.name].sharp(N, m_exact)[1]
            if fam is ScanFamily.AMN:
                assert constant == C._per_mode_exact(k, N, m_exact), (N, m)
            assert scan_theoretical(fam, p) == float(constant), (fam, N, m)
            checked += 1
    assert checked >= len(ScanFamily) + 3 * 4


def test_default_schedule_refuses_the_parameters_its_family_refuses():
    with pytest.raises(DomainError, match="scans use m = 0"):
        default_schedule(ScanFamily.RELLICH_IMPROVED, 6, 0.5)
    with pytest.raises(DomainError, match="m <= m"):
        default_schedule(ScanFamily.WEIGHTED_GRAD_IMPROVED, 6, 0.9)


def test_a_registry_integral_that_is_no_piece_is_refused():
    """Only an integral with a closed form on (0, inner] translates: no
    moment, no series integral (one splits in a quotient's denominator
    before it translates), nothing of the companion f2, and only at its
    homogeneous weight and at the shift of u or of v."""
    from rellich.verify import _Int

    lap = _Int("square", 5, 1)
    assert M._terms([(2, lap)], 6, 0) == ((2, lap, None),)
    refused = (
        _Int("moment-2", 5),
        _Int("square", 1, series=True),
        _Int("square", 5, 1, f2=True),
        _Int("square", 4, 1),
        _Int("square", 3, 1, Fraction(1, 2)),
    )
    for t in refused:
        with pytest.raises(ValueError, match="no closed form"):
            M._terms([(1, t)], 6, 0)


@pytest.mark.parametrize("m", [Fraction(0), Fraction(1, 4)])
@pytest.mark.parametrize("N", [5, 6, 9, 30])
def test_improved_hardy_integrals_have_closed_forms_one_parameter_down(N, m):
    """The improved Hardy inequality's non-series integrals, int |grad f|^2
    r^{N-1-2m} and int f^2 r^{N-3-2m}, are homogeneous on the members
    r^{-(N-2-2m)/2+eps} ... of the sequence at parameter m - 1, so the rule
    admits them there, and refuses them at m."""
    lhs, _ = V._hardy_improved(N, m)
    pairs = [(c, t) for c, t in lhs if not t.series]
    assert len(pairs) == 2
    assert M._terms(pairs, N, m - 1) == tuple((c, t, None) for c, t in pairs)
    with pytest.raises(ValueError, match="no closed form"):
        M._terms(pairs, N, m)


def test_readme_family_table_matches_the_code():
    """The README's scan family <-> registry target table is the code's map."""
    import re
    from pathlib import Path

    import rellich.minseq as M

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\s*\| `([\w-]+)` \| `([\w-]+)` \|$", readme, re.M)
    assert dict(rows) == {fam.value: fam.target.name for fam in ScanFamily}
    assert len(rows) == len(ScanFamily)


# The restrictions the families were once declared with by hand, as
# (m = 0, the radial mode, m <= m*(N)): the reference the derived ones match.
_HAND_SET_FLAGS = {
    ScanFamily.RELLICH_IMPROVED: (True, True, False),
    ScanFamily.RELLICH_GRAD_IMPROVED: (True, True, False),
    ScanFamily.WEIGHTED_RELLICH_IMPROVED: (False, True, False),
    ScanFamily.WEIGHTED_GRAD_IMPROVED: (False, True, True),
    ScanFamily.AMN: (False, False, False),
    ScanFamily.DEFICIT_VGRAD: (True, True, False),
    ScanFamily.DEFICIT_VLAP: (True, True, False),
    ScanFamily.GRAD_DEFICIT_VGRAD: (True, True, False),
    ScanFamily.VLAP_RADIAL_EXCESS: (True, True, False),
    ScanFamily.GRAD_DEFICIT_VLAP: (True, True, False),
    ScanFamily.GRADIENT_CONSTANT: (True, True, False),
}


def test_derived_restrictions_match_the_hand_set_flags():
    """Each family refuses exactly the parameters its hand-set flags
    refused, naming the first rule broken, over N in {5, 6, 7, 9, 12, 30},
    m on the 1/8 grid of [0, (N-4)/2) and modes k <= 2."""
    checked = 0
    for N in (5, 6, 7, 9, 12, 30):
        for m in (Fraction(j, 8) for j in range(4 * (N - 4))):
            for k in range(3):
                for fam, (m_zero, radial, below_m_star) in _HAND_SET_FLAGS.items():
                    broken = [
                        text
                        for text, on, bad in (
                            ("m = 0", m_zero, m != 0),
                            ("the radial mode", radial, k != 0),
                            ("m <= m*", below_m_star, m > C.m_star(N)),
                        )
                        if on and bad
                    ]
                    try:
                        M._validate(fam, MinSeqParams(N, float(m), mode_k=k))
                    except DomainError as exc:
                        assert broken and broken[0] in str(exc), (fam, N, m, k, str(exc))
                    else:
                        assert not broken, (fam, N, m, k)
                    checked += 1
    assert checked == 3 * 11 * 180


def test_every_sharp_registry_target_has_exactly_one_scan_family():
    sharp = [name for name, t in V.REGISTRY.items() if t.sharp is not None]
    assert sorted(sharp) == sorted(fam.target.name for fam in ScanFamily)
    assert len(sharp) == len(ScanFamily) == 11
    for fam in ScanFamily:
        assert ScanFamily(fam.target.name) is fam
        assert V.REGISTRY[fam.target.name] is fam.target


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


def test_single_log_reduction_guards():
    """The reduction takes one log factor only, and a plain side whose
    divergent column leaves the double range raises rather than return inf."""
    with pytest.raises(DomainError, match="K = 1"):
        M._Reduction(MinSeqParams(6, 0.0, 1e-3, (0.1, 0.1)))
    u_gradient = _named_sides(6)["u-gradient"]
    with pytest.raises(DomainError, match="overflows"):
        M._Reduction(MinSeqParams(6, 0.0, 1e-200, (0.01,))).integral(u_gradient)


def _exact_numbers(values) -> bool:
    return all(type(v) in (int, Fraction) for v in values)


def _exact_sides(fam, N, m, k):
    """The family's exact sides at (N, m, k), none where it refuses them."""
    try:
        M._validate(fam, MinSeqParams(N, float(m), mode_k=k))
    except DomainError:
        return []
    return M._exact_quotient(fam, N, m)[:2]


@pytest.mark.parametrize("N, m, k", [(5, 0, 0), (9, Fraction(5, 4), 0), (30, 8, 2)])
def test_exact_input_keeps_the_reduction_exact(N, m, k):
    """Fraction m and a give only int and Fraction coefficients, in the
    polynomials and in the reduced columns and boundary terms, for every
    family's sides and every named functional; a float that creeps in (the
    int 0 / 4 is the float 0.0) fails here."""
    m = Fraction(m)
    sides = [t for fam in ScanFamily for t in _exact_sides(fam, N, m, k)]
    sides += [M._terms(side(N), N, 0) for side in NAMED_SIDES.values()] if m == 0 else []
    forms, _ = M._carried_forms(N, m, k)
    assert _exact_numbers([forms.q0, forms.A0])
    for a in (Fraction(0), Fraction(1, 3), Fraction(1)):
        for terms in sides:
            poly = M._at_a1(M._carried_density(terms, N, m, k), a)
            assert _exact_numbers(v for row in poly.c for v in row), terms
            _, cols, boundary = M._reduce_columns(poly, a)
            assert _exact_numbers(v for col in cols for v in col), terms
            assert _exact_numbers(v for c, beta in boundary for v in [*c, beta]), terms
    assert sides


_LIMIT_MS = [Fraction(x) for x in ("0", "1/4", "1/3", "1/2", "5/4", "3", "8", "25/2")]


@pytest.mark.parametrize("N", [5, 6, 9, 12, 30])
def test_exact_limit_is_the_registry_constant(N):
    """The ratio of the sides' first kept columns at eps = 0, a = 0 is the
    family's registry constant, exactly, at every m its family admits; for
    amn it is its mode's candidate A(k, N, m), k = 0..3."""
    checked = 0
    for fam in ScanFamily:
        for m in _LIMIT_MS:
            for k in range(4) if fam is ScanFamily.AMN else (0,):
                try:
                    M._validate(fam, MinSeqParams(N, float(m), mode_k=k))
                except DomainError:
                    continue
                if fam is ScanFamily.AMN:
                    want = C._per_mode_exact(k, N, m)
                else:
                    want = V.REGISTRY[fam.target.name].sharp(N, m)[1]
                got = M._exact_limit(fam, N, m, k)
                assert type(got) is Fraction and got == want, (fam, m, k, got, want)
                checked += 1
    assert checked >= 11


def test_exact_limit_refuses_what_its_family_refuses():
    with pytest.raises(DomainError, match="m = 0"):
        M._exact_limit(ScanFamily.RELLICH_IMPROVED, 9, Fraction(1, 2))
    with pytest.raises(DomainError, match="radial mode"):
        M._exact_limit(ScanFamily.DEFICIT_VGRAD, 9, 0, 1)


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

    def counting_each(fn):
        def wrapped(*args, **kwargs):
            results = fn(*args, **kwargs)
            misses[0] += sum(not res.converged for res in results)
            return results

        return wrapped

    for name in ("_integrate_many", "_halfline_many"):
        monkeypatch.setattr(minseq, name, counting_each(getattr(minseq, name)))
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


def _closes_at(fam, N, m) -> bool:
    """The derived m-rule alone: whether the family's declaration has closed
    forms at (N, m)."""
    try:
        M._exact_quotient(fam, N, m)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize(
    "N, m, k, a",
    [(6, 0.0, 0, (0.1,)), (9, 0.0, 1, (0.05, 0.3)), (12, 1.3, 2, (1.0,)), (30, 8.0, 2, (0.2,))],
)
def test_outer_pieces_from_one_jet_match_the_profile_route(N, m, k, a):
    """Each density built from one jet of u, alone or with all the others, is
    bitwise the one its own profile evaluation gives: the mode operator's
    profile for the Laplacians, derivative values for the gradients, the
    power shift for v; for each distinct integral of the families'
    quotients at (N, m), and for the v-side integrals, which only the m = 0
    families read."""
    from rellich.radial import _v_side, gradient_density, mode_operator

    p = MinSeqParams(N, m, 1e-3, a, mode_k=k)
    outer = M._OuterTerms(p)
    u = build_minimizer(p)
    ck = u.mode.eigenvalue
    r = np.linspace(0.5, 1.0, 37)
    ints = {
        t
        for fam in ScanFamily
        if _closes_at(fam, N, m)
        for side in M._exact_quotient(fam, N, m)[:2]
        for _, t, _ in side
    } | {t for _, t in _v_side(N, 1, 1, m)}
    assert len(ints) == 6
    route = {}
    for t in ints:
        h = u.profile if t.shift is None else u.profile.power_shift(float(t.shift))
        h0, h1 = h.derivative_values(r, 1)
        w = float(t.weight)
        if t.n:
            route[t] = mode_operator(u.mode, h)(r) ** 2 * r**w
        elif t.kind == "square":
            route[t] = h0**2 * r**w
        elif t.kind == "gradient":
            route[t] = gradient_density(h0, h1, ck, r, w)
        else:
            route[t] = h1**2 * r**w
    for subset in [{t} for t in ints] + [ints]:
        got = outer.densities(r, subset)
        assert set(got) == subset
        for t in subset:
            assert _same_bits(got[t], route[t]), (subset, t)


# --------------------------------------------------------------------------
# The node-only jets: one store shared by every sequence member


@pytest.fixture
def empty_node_jets():
    M._node_jets.store.clear()
    yield M._node_jets.store
    M._node_jets.store.clear()


def _reference_profile(p: MinSeqParams, J):
    """The member's profile jet with every factor computed in place."""
    out = J**p.power_exponent
    x = J
    for ai in p.a:
        e = (-1.0 + ai) / 2.0
        x = 1.0 / (1.0 - x.log())
        if e != 0.0:
            out = out * x**e
    return out * p.cutoff.jet(J)


def _jet_bits(jets) -> list:
    return [[(row.shape, row.tobytes()) for row in j.coeffs] for j in jets]


@pytest.mark.parametrize("cutoff", [CutoffSpec(), CutoffSpec(0.3, 0.8, 5)])
@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("m, eps", [(0.5, 1e-3), (0.0, 0.5)])  # r^q with q = -2 + 1e-3, -2
def test_node_jets_served_are_bitwise_fresh_evaluations(empty_node_jets, cutoff, K, m, eps):
    """Every node-only jet the store serves, and every profile jet built on
    it, is bitwise a fresh evaluation with the store emptied and the jet the
    member computes in place, at orders 0-4 on the zone's nodes."""
    from rellich.taylor import Jet

    r = np.linspace(cutoff.inner_radius, cutoff.outer_radius, 61)[1:-1]
    p = MinSeqParams(9, m, eps, (0.3, 0.05, 1.0)[:K], cutoff)
    u = build_minimizer(p).profile
    u.taylor(r, 4)
    for order in range(5):
        J = Jet.variable(r, order)
        served = M._node_jets(J, cutoff, K), u.taylor(r, order)
        assert len(empty_node_jets) == 1  # every order was served from one entry
        empty_node_jets.clear()
        fresh = M._node_jets(J, cutoff, K), u.taylor(r, order)
        assert _jet_bits(served[0]) == _jet_bits(fresh[0]) == _jet_bits(M._fresh_node_jets(J, cutoff, K))
        assert _jet_bits([served[1]]) == _jet_bits([fresh[1]]) == _jet_bits([_reference_profile(p, J)])
        assert all(j.order == order for j in served[0])
        u.taylor(r, 4)


def test_node_jets_evaluate_other_higher_rows_afresh(empty_node_jets, monkeypatch):
    from rellich.taylor import Jet

    calls = []
    real = CutoffSpec.jet
    monkeypatch.setattr(CutoffSpec, "jet", lambda self, J: calls.append(J.order) or real(self, J))
    cutoff, r = CutoffSpec(), np.linspace(0.5, 1.0, 13)
    M._node_jets(Jet.variable(r, 2), cutoff, 2)
    M._node_jets(Jet.variable(r, 1), cutoff, 2)
    assert calls == [2]
    other = Jet([r, 2.0 * np.ones_like(r), np.zeros_like(r)])
    got = M._node_jets(other, cutoff, 2)
    assert calls == [2, 2]
    assert _jet_bits(got) == _jet_bits(M._fresh_node_jets(other, cutoff, 2))


def test_node_jets_store_stays_within_its_bound(empty_node_jets):
    u = build_minimizer(MinSeqParams(6, 0.0, 1e-3, (0.1, 0.2))).profile
    for i in range(100):
        u.taylor(np.linspace(0.5, 1.0, 10 + i), 2)
        assert len(empty_node_jets) <= M._NODE_JETS_SIZE
    assert len(empty_node_jets) == M._NODE_JETS_SIZE


def test_scan_evaluates_the_cutoff_once_per_zone_node_array(empty_node_jets, monkeypatch):
    """Across the 12 steps of the default N = 6 rellich-improved scan, each
    distinct node array gets one cutoff jet."""
    from collections import Counter

    calls = Counter()
    real = CutoffSpec.jet

    def spy(self, J):
        calls[J.value.shape, J.value.tobytes()] += 1
        return real(self, J)

    monkeypatch.setattr(CutoffSpec, "jet", spy)
    schedule = default_schedule(ScanFamily.RELLICH_IMPROVED, 6)
    assert len(schedule) == 12
    scan_to_limit(ScanFamily.RELLICH_IMPROVED, schedule)
    assert calls and set(calls.values()) == {1}


def test_series_weights_read_the_logs_xk_values_gives(monkeypatch):
    """The X_i the zone's series weights read from the node-only jets are
    bitwise xk_values on every zone node array of K = 3 quotients."""
    seen = []
    real = M._OuterTerms.log_values

    def recording(self, r):
        got = real(self, r)
        seen.append(_same_bits(np.array(got), np.array(xk_values(len(self.params.a), r))))
        return got

    monkeypatch.setattr(M._OuterTerms, "log_values", recording)
    for fam in (ScanFamily.RELLICH_IMPROVED, ScanFamily.RELLICH_GRAD_IMPROVED):
        rayleigh_quotient(fam, MinSeqParams(6, 0.0, 1e-3, (0.1, 0.1, 0.1)))
    assert seen and all(seen)


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
    "kind, n, w",
    [pytest.param(kind, 0, 2.5, id=f"{kind}-0") for kind in ("square", "gradient", "radial-gradient", "moment-2")]
    + [pytest.param("square", 0, -1, id="square-0-weight-1")]
    + [pytest.param(kind, n, 2.5, id=f"{kind}-{n}") for kind in ("square", "gradient") for n in (1, 2)],
)
def test_density_matches_the_profile_route(kind, n, w):
    """radial's jet density of a term is bitwise the density formed from the
    profile route: the mode operator applied n times, then
    derivative_values; its origin power is 2 (o - 2n - order) + w for a
    profile of origin order o."""
    from rellich.radial import _Int, _jet_densities, _origin_power, mode_operator

    for h, mode, r in _density_subjects():
        ck = mode.eigenvalue
        hn = h
        for _ in range(n):
            hn = mode_operator(mode, hn)
        order = {"gradient": 1, "radial-gradient": 1, "moment-2": 2}.get(kind, 0)
        d = hn.derivative_values(r, order)
        if kind == "square":
            route = d[0] ** 2 * r**w
        elif kind == "gradient":
            route = d[1] ** 2 + ck * (d[0] / r) ** 2 if ck else d[1] ** 2
            route = route * r**w
        else:
            route = d[order] ** 2 * r**w
        term = _Int(kind, w, n)
        (density,) = _jet_densities(h, [term], [(r, [0])], mode)
        assert _same_bits(density, route), (mode, kind, n)
        assert _origin_power(term, h.origin_order) == 2 * (h.origin_order - 2 * n - order) + w


@pytest.mark.parametrize("N", [5, 6, 9, 30])
def test_factored_deficits_use_their_sharp_constants(N):
    """Every deficit int (L_k u)^2 - c * p that a family or a named
    functional declares has the constant its factored form needs, on the
    whole admissible m range: c = A0^2 for p = int u^2 and c * q0^2 = A0^2
    for p = int |grad u|^2, at mode 0.  Only then do the constant parts
    cancel exactly."""

    def check(params, term_lists) -> int:
        forms = M._closed_forms(params.N, params.m, params.mode_k, 0.0, 0.0, 0.0)
        found = 0
        for terms in term_lists:
            lead, _ = M._split_deficit(terms)
            if lead is None:
                continue
            p, c = lead
            lhs = c if p.kind == "square" else c * forms.q0**2
            assert abs(lhs - forms.A0**2) <= 1e-12 * forms.A0**2, (p, params)
            found += 1
        return found

    checked = 0
    for fam in ScanFamily:
        for m in np.linspace(0.0, (N - 4) / 2.0, 9)[:-1]:
            p = MinSeqParams(N, float(m))
            try:
                M._validate(fam, p)
            except DomainError:
                continue
            found = check(p, M._quotient(fam, N, p.m)[:2])
            assert fam is not ScanFamily.AMN or not found, fam  # deficits are declared at mode 0 only
            checked += found
    checked += check(MinSeqParams(N), list(_named_sides(N).values()))
    assert checked >= 8
