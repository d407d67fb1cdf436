import dataclasses
import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rellich import radial
from rellich.errors import DomainError
from rellich.quadrature import QuadratureSpec, count_quadrature
from rellich.radial import (
    Functional,
    RadialProfile,
    Representation,
    SphericalMode,
    TestFunction,
    functional,
    mode_operator,
    sphere_area,
    substitute_u,
    substitute_v,
)
from rellich.taylor import Jet
from rellich.verify import standard_suite

RR = np.linspace(0.05, 0.95, 9)


def test_sphere_area():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)


def test_mode_eigenvalues():
    assert SphericalMode(6, 0).eigenvalue == 0
    assert SphericalMode(5, 1).eigenvalue == 4
    assert SphericalMode(30, 2).eigenvalue == 60
    with pytest.raises(DomainError):
        SphericalMode(6, -1)


def test_mode_operator_on_r_squared():
    N = 7
    prof = RadialProfile.from_polynomial([0, 0, 1])
    out = mode_operator(SphericalMode(N, 0), prof)
    assert np.allclose(out(RR), 2 * N)


def test_mode_operator_mode_one_cubic():
    out = mode_operator(SphericalMode(5, 1), RadialProfile.from_polynomial([0, 0, 0, 1]))
    assert np.allclose(out(RR), 14 * RR)


def test_mode_operator_annihilates_harmonic_powers():
    for N in range(5, 31):
        for k in range(6):
            prof = RadialProfile.from_polynomial([0.0] * k + [1.0])
            vals = mode_operator(SphericalMode(N, k), prof)(RR)
            assert np.all(np.abs(vals) < 1e-10 * RR ** (k - 2))


def test_mode_operator_in_cartesian_coordinates():
    """Independent oracle: N-dimensional finite differences on u = f(r)/r^k H_k(x)
    with a solid harmonic H_k."""
    N = 5
    cases = [
        (1, lambda x: x[0]),  # H_1 = x_1
        (2, lambda x: x[0] * x[1]),  # H_2 = x_1 x_2
    ]
    coeffs = [0, 0, 0, 1.0, -0.5]  # f = r^3 - 0.5 r^4
    prof = RadialProfile.from_polynomial(coeffs)
    point = np.full(N, 0.31)
    h = 1e-3
    for k, harmonic in cases:
        mode = SphericalMode(N, k)
        lk = mode_operator(mode, prof)

        def u(x):
            r = math.sqrt(float(np.dot(x, x)))
            return prof(np.array([r]))[0] / r**k * harmonic(x)

        lap = 0.0
        for axis in range(N):
            e = np.zeros(N)
            e[axis] = h
            lap += (u(point + e) - 2 * u(point) + u(point - e)) / h**2
        r0 = math.sqrt(float(np.dot(point, point)))
        expected = lk(np.array([r0]))[0] / r0**k * harmonic(point)
        assert lap == pytest.approx(expected, rel=1e-4)


def test_polyharmonic_power():
    # Delta^2 r^4 = 8N(N+2), as the mode operator applied twice
    N = 6
    mode = SphericalMode(N, 0)
    prof = RadialProfile.from_polynomial([0, 0, 0, 0, 1])
    out = mode_operator(mode, mode_operator(mode, prof))
    assert np.allclose(out(RR), 8 * N * (N + 2))


def test_substitute_round_trip():
    prof = RadialProfile.from_polynomial([0, 0, 1.0, -0.3, 0.1])
    for m in (0.0, 0.7):
        tf = TestFunction(prof, SphericalMode(6, 1))
        v = substitute_v(tf, m)
        assert v.representation is Representation.V_SIDE
        u2 = substitute_u(v, m)
        assert np.allclose(u2.profile(RR), prof(RR), rtol=1e-14)
    with pytest.raises(DomainError):
        substitute_u(tf, 0.0)


def test_substitute_v_power_arithmetic():
    # N = 6, m = 0: the v-side profile gains one power of r
    s = RadialProfile.from_polynomial([1.0, 0.5])
    tf = TestFunction(s.power_shift(1.0), SphericalMode(6, 0))
    v = substitute_v(tf, 0.0)
    assert np.allclose(v.profile(RR), RR**2 * s(RR))


def test_origin_order_verification():
    prof = RadialProfile.from_polynomial([0, 0, 1.0], origin_order=2)
    assert prof.verify_origin_order()
    bad = RadialProfile(lambda J: J**0.5, origin_order=2.0)
    assert not bad.verify_origin_order()


@pytest.mark.parametrize("name", [Functional.I, Functional.II])
def test_functional_cross_checks_polynomial(name):
    spec = QuadratureSpec()
    for N, k in [(5, 0), (6, 1), (9, 2), (30, 3)]:
        coeffs = P.polymul([0.0] * k + [1.0], P.polypow([1, -1], 3))
        tf = TestFunction(RadialProfile.from_polynomial(coeffs), SphericalMode(N, k))
        fv = functional(name, tf, quad=spec)
        tol = 10 * fv.quadrature_error + 1e-12 * abs(fv.value)
        assert abs(fv.value - fv.cross_value) <= tol
        assert abs(fv.value - sum(fv.components.values())) <= fv.quadrature_error + 1e-12


def test_functional_cross_checks_weighted():
    spec = QuadratureSpec()
    coeffs = P.polymul([0, 0, 1.0], P.polypow([1, -1], 3))
    tf = TestFunction(RadialProfile.from_polynomial(coeffs), SphericalMode(9, 2))
    for name in (Functional.WEIGHTED_LAPLACIAN, Functional.WEIGHTED_GRADIENT):
        fv = functional(name, tf, m=1.3, quad=spec)
        assert abs(fv.value - fv.cross_value) <= 10 * fv.quadrature_error + 1e-11 * abs(fv.value)


def test_functional_j_matches_deficit():
    coeffs = P.polymul([0, 0, 1.0], P.polypow([1, -1], 3))
    tf = TestFunction(RadialProfile.from_polynomial(coeffs), SphericalMode(9, 2))
    v = substitute_v(tf, 0.0)
    jv = functional(Functional.J, v)
    iu = functional(Functional.I, tf)
    assert jv.value == pytest.approx(iu.value, rel=1e-10)
    jjv = functional(Functional.JJ, v)
    iiu = functional(Functional.II, tf)
    assert jjv.value == pytest.approx(iiu.value, rel=1e-10)


def test_functional_zero_profile():
    tf = TestFunction(RadialProfile.from_polynomial([0.0]), SphericalMode(5, 0))
    for name in (Functional.I, Functional.II, Functional.WEIGHTED_HARDY):
        assert functional(name, tf).value == 0.0


def test_functional_series_term():
    coeffs = P.polymul([0, 0, 1.0], P.polypow([1, -1], 3))
    tf = TestFunction(RadialProfile.from_polynomial(coeffs), SphericalMode(9, 2))
    t1 = functional(Functional.SERIES_TERM, tf, m=0.5, series_index=1).value
    t2 = functional(Functional.SERIES_TERM, tf, m=0.5, series_index=2).value
    assert 0 < t2 < t1


def test_quadratic_parallelogram_additivity():
    # quadratic functionals satisfy Q[f+g] + Q[f-g] = 2Q[f] + 2Q[g]
    spec = QuadratureSpec()
    mode = SphericalMode(6, 1)
    fc = P.polymul([0, 1.0], P.polypow([1, -1], 3))
    gc = P.polymul([0, 0, 1.0], P.polypow([1, -1], 4))
    f, g, f_plus_g, f_minus_g = (
        RadialProfile.from_polynomial(c) for c in (fc, gc, P.polyadd(fc, gc), P.polysub(fc, gc))
    )
    for name in (Functional.I, Functional.II):
        qf = functional(name, TestFunction(f, mode), quad=spec).value
        qg = functional(name, TestFunction(g, mode), quad=spec).value
        qs = functional(name, TestFunction(f_plus_g, mode), quad=spec).value
        qd = functional(name, TestFunction(f_minus_g, mode), quad=spec).value
        assert qs + qd == pytest.approx(2 * qf + 2 * qg, rel=1e-9)


def test_hardy_moment_inequalities_on_random_profiles():
    # one-dimensional Hardy relations between reduced-profile moments
    rng = np.random.default_rng(11)
    for _ in range(20):
        k = int(rng.integers(0, 4))
        N = int(rng.choice([5, 6, 9, 30]))
        q = rng.uniform(-1, 1, 5)
        coeffs = P.polymul([0.0] * (k + int(rng.integers(0, 3))) + [1.0], P.polypow([1, -1], int(rng.integers(3, 6))))
        coeffs = P.polymul(coeffs, q)
        tf = TestFunction(RadialProfile.from_polynomial(coeffs), SphericalMode(N, k))
        g = tf.profile.power_shift((N - 4) / 2 - k)
        rr = np.linspace(1e-4, 1.0, 4001)[:-1]
        g0, g1, g2 = (g.taylor(rr, 2).deriv(j) for j in range(3))
        w = np.gradient(rr)
        lhs1 = np.sum(rr ** (2 * k + 3) * g2**2 * w)
        rhs1 = (k + 1) ** 2 * np.sum(rr ** (2 * k + 1) * g1**2 * w)
        assert lhs1 >= rhs1 * (1 - 1e-3)
        lhs2 = np.sum(rr ** (2 * k + 1) * g1**2 * w)
        rhs2 = k**2 * np.sum(rr ** (2 * k - 1) * g0**2 * w)
        assert lhs2 >= rhs2 * (1 - 1e-3)


def test_functional_dual_route_randomized_suite():
    """Direct and identity-reduced evaluations agree across a randomized suite
    of closed-form profiles."""
    rng = np.random.default_rng(23)
    spec = QuadratureSpec()
    grid = [(N, k) for N in (5, 6, 9, 30) for k in (0, 1, 2, 3)]
    checked = 0
    for i in range(50):
        N, k = grid[i % len(grid)]
        j = int(rng.integers(0, 3))
        p = int(rng.integers(3, 6))
        q = rng.uniform(-1, 1, 4)
        coeffs = P.polymul([0.0] * (k + j) + [1.0], P.polymul(P.polypow([1, -1], p), q))
        tf = TestFunction(RadialProfile.from_polynomial(coeffs), SphericalMode(N, k))
        cycle = (
            Functional.I,
            Functional.II,
            Functional.WEIGHTED_GRADIENT,
            Functional.WEIGHTED_LAPLACIAN,
            Functional.J,
            Functional.JJ,
        )
        name = cycle[i % len(cycle)]
        weighted = name in (Functional.WEIGHTED_GRADIENT, Functional.WEIGHTED_LAPLACIAN)
        if name in (Functional.J, Functional.JJ):
            tf = substitute_v(tf, 0.0)
        fv = functional(name, tf, m=0.4 if weighted else 0.0, quad=spec)
        scale = abs(fv.value) + abs(fv.cross_value) + 1e-12
        tol = 10 * fv.quadrature_error + 1e-9 * scale
        assert abs(fv.value - fv.cross_value) <= tol, (i, N, k, name)
        checked += 1
    assert checked == 50


def test_functional_series_term_gradient_base():
    coeffs = P.polymul([0, 0, 1.0], P.polypow([1, -1], 3))
    tf = TestFunction(RadialProfile.from_polynomial(coeffs), SphericalMode(9, 2))
    hv = functional(Functional.SERIES_TERM, tf, m=0.5, series_index=1).value
    gv = functional(
        Functional.SERIES_TERM, tf, m=0.5, series_index=1, series_base=Functional.WEIGHTED_GRADIENT
    ).value
    assert hv > 0 and gv > 0 and gv != hv
    with pytest.raises(DomainError):
        functional(Functional.SERIES_TERM, tf, series_index=1, series_base=Functional.I)


# --------------------------------------------------------------------------
# RadialProfile.memoized: every served jet is bitwise a fresh evaluation


def _bits(jet: Jet) -> list:
    return [(row.shape, row.tobytes()) for row in jet.coeffs]


def _memo_subject() -> RadialProfile:
    """A profile whose jet goes through *, /, log and exp, and reads every
    row of its input jet (the mode operator reads only the value row)."""
    base = RadialProfile.from_polynomial([0.0, 0.0, 1.0, -0.5, 0.25]).power_shift(0.7)
    return mode_operator(SphericalMode(7, 2), base).power_shift(-0.3)


_NODES = arrays(np.float64, st.integers(1, 12), elements=st.floats(1e-3, 1.0))
_ROWS = st.floats(-2.0, 2.0)


@st.composite
def _requests(draw):
    """A few node arrays, then a sequence of requests on them: (node index,
    order, higher rows or None for the variable jet)."""
    nodes = draw(st.lists(_NODES, min_size=1, max_size=3))
    out = []
    for _ in range(draw(st.integers(1, 10))):
        i = draw(st.integers(0, len(nodes) - 1))
        order = draw(st.integers(0, 5))
        higher = None
        if draw(st.booleans()):
            n = nodes[i].size
            higher = [draw(arrays(np.float64, n, elements=_ROWS)) for _ in range(order)]
        out.append((i, order, higher))
    return nodes, out


@settings(max_examples=200, deadline=None)
@given(_requests())
def test_memoized_jets_are_bitwise_fresh_evaluations(case):
    nodes, requests = case
    plain = _memo_subject()
    memo = plain.memoized()
    with np.errstate(all="ignore"):
        for i, order, higher in requests:
            if higher is None:
                assert _bits(memo.taylor(nodes[i], order)) == _bits(plain.taylor(nodes[i], order))
            else:
                J = Jet([nodes[i], *higher])
                assert _bits(memo._jet_fn(J)) == _bits(plain._jet_fn(J))


def test_memoized_serves_only_bytewise_prefixes_of_a_stored_input():
    calls = []

    def fn(J):
        calls.append(J.order)
        return J * J

    memo = RadialProfile(fn).memoized()
    r = np.array([0.25, 0.5])
    memo.taylor(r, 3)
    memo.taylor(r, 3)
    memo.taylor(r, 1)
    assert calls == [3]  # a repeat and a lower order are served
    memo.taylor(r, 4)
    assert calls == [3, 4]  # a higher order is evaluated afresh
    memo.taylor(r, 4)
    memo.taylor(r, 2)
    assert calls == [3, 4]  # ... and replaces the stored entry
    # the value row matches, a higher row does not: never served
    other = Jet([r, np.ones_like(r), np.array([0.0, -0.0])])
    assert _bits(memo._jet_fn(other)) == _bits(fn(other))
    assert calls == [3, 4, 2, 2]
    memo._jet_fn(Jet([r, np.array([1.0, 2.0])]))
    assert calls == [3, 4, 2, 2, 1]
    # the same bytes in another shape are another node set
    memo.taylor(r.reshape(2, 1), 0)
    assert calls[-1] == 0 and len(calls) == 6


def test_functionals_are_bitwise_those_of_unmemoized_profiles(monkeypatch):
    suite = standard_suite(7)

    def outputs():
        out = []
        for case in suite:
            u = case.test_function()
            v = substitute_v(u)
            for name in Functional:
                tf = v if name in (Functional.J, Functional.JJ) else u
                weighted = name.value.startswith(("weighted", "series"))
                fv = functional(name, tf, m=case.m if weighted else 0.0)
                fields = [fv.value, fv.cross_value, fv.quadrature_error, *fv.components.values()]
                out.append([list(fv.components), *(x.hex() if x is not None else x for x in fields)])
        return out

    memoized = outputs()
    monkeypatch.setattr(RadialProfile, "memoized", lambda self: self)
    assert outputs() == memoized


@pytest.mark.parametrize("subdivisions", [1, 8])
def test_functional_counts_its_unconverged_integrals(monkeypatch, subdivisions):
    """On a fresh test function every integral runs, and ``unconverged``
    counts those that ended unconverged."""
    spec = QuadratureSpec(max_subdivisions=subdivisions)
    case = standard_suite(7)[3]
    recount = []
    integrate = radial.integrate

    def counting(*args, **kwargs):
        res = integrate(*args, **kwargs)
        recount.append(res.converged)
        return res

    monkeypatch.setattr(radial, "integrate", counting)
    mixed = False
    for name in Functional:
        recount.clear()
        fv = functional(name, _side_function(case, name), m=case.m, quad=spec)
        assert fv.unconverged == recount.count(False)
        if subdivisions == 1:
            assert fv.unconverged == len(recount) > 0
        mixed = mixed or 0 < fv.unconverged < len(recount)
    assert mixed == (subdivisions == 8)
    assert functional(Functional.I, case.test_function()).unconverged == 0


# --------------------------------------------------------------------------
# the test function's store of integral results: serving an integral changes
# no output, and the store holds only integrals of its own test function


_V_SIDED = (Functional.J, Functional.JJ)


def _side_function(case, name):
    """A fresh test function of the case on the side the functional needs."""
    u = case.test_function()
    return substitute_v(u) if name in _V_SIDED else u


def _fields(fv) -> list:
    """Everything a functional returns, floats as float.hex."""
    def token(x):
        return x.hex() if isinstance(x, float) else x

    return [token(x) for x in (fv.value, fv.cross_value, fv.quadrature_error, fv.unconverged)] + [
        (label, token(x)) for label, x in fv.components.items()
    ]


def _weight(case, name):
    return case.m if name.value.startswith(("weighted", "series")) else 0.0


@pytest.mark.parametrize("subdivisions", [1, None])
@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("weighted", [True, False])
def test_functionals_on_a_shared_test_function_match_fresh_ones(subdivisions, order, weighted):
    """``weighted=False`` runs the weighted functionals at m = 0, where their
    direct integrals coincide with those of I and II."""
    spec = QuadratureSpec() if subdivisions is None else QuadratureSpec(max_subdivisions=subdivisions)
    names = list(Functional) if order == "forward" else list(reversed(Functional))
    for case in standard_suite(7)[:8]:
        m = {n: _weight(case, n) if weighted else 0.0 for n in Functional}
        u = case.test_function()
        shared = {False: u, True: substitute_v(u)}
        with count_quadrature() as runs:
            got = [functional(n, shared[n in _V_SIDED], m=m[n], quad=spec) for n in names]
        for name, fv in zip(names, got):
            fresh = functional(name, _side_function(case, name), m=m[name], quad=spec)
            assert _fields(fv) == _fields(fresh), (case.index, name)
        # only the integrals that run are counted; I and II share 4 of their
        # 10 integrals, J and JJ 6 of their 12, the weighted Laplacian's h^2
        # moment is the weighted Hardy integral, and at m = 0 the weighted
        # Laplacian, gradient and Hardy integrals and that moment are those
        # of I and II
        assert runs.calls == len(u._integrals) + len(shared[True]._integrals)
        assert runs.calls == (31 - 11 if weighted else 31 - 14)


def _filled(case, spec=None):
    """A test function of the case whose store holds every u-side integral."""
    u = case.test_function()
    for name in Functional:
        if name not in _V_SIDED:
            functional(name, u, m=_weight(case, name), quad=spec)
    return u


def test_store_tells_quadrature_specs_apart():
    case = standard_suite(7)[3]
    coarse = QuadratureSpec(max_subdivisions=1)
    for name in (Functional.I, Functional.WEIGHTED_GRADIENT):
        fresh = [_fields(functional(name, case.test_function(), m=case.m, quad=q)) for q in (coarse, None)]
        assert fresh[0] != fresh[1]
        u = _filled(case, coarse)
        assert [_fields(functional(name, u, m=case.m, quad=q)) for q in (coarse, None)] == fresh


def test_store_tells_weight_exponents_apart():
    case = standard_suite(7)[3]
    weights = (case.m, 0.5 * case.m)
    weighted = [n for n in Functional if n.value.startswith(("weighted", "series"))]
    for name in weighted:
        fresh = [_fields(functional(name, case.test_function(), m=m)) for m in weights]
        assert fresh[0] != fresh[1], name
        u = case.test_function()
        assert [_fields(functional(name, u, m=m)) for m in weights] == fresh, name


def test_replace_and_substitutions_start_an_empty_store():
    case = standard_suite(7)[3]
    u = _filled(case)
    assert len(u._integrals) == 14  # the weighted Hardy integral is a weighted-Laplacian moment
    # another profile with the same support and origin order, so that every
    # key of the filled store would match
    lead, boundary, q = case.factors
    other = dataclasses.replace(case, factors=(lead, boundary, [2.0 * c for c in q])).jet_profile()
    swapped = dataclasses.replace(u, profile=other)
    assert swapped._integrals == {} and swapped == TestFunction(other, u.mode)
    for name in (Functional.I, Functional.WEIGHTED_LAPLACIAN):
        got = functional(name, swapped, m=case.m)
        assert _fields(got) == _fields(functional(name, TestFunction(other, u.mode), m=case.m))
        assert _fields(got) != _fields(functional(name, u, m=case.m))
    # u -> v -> u: the round trip is another profile, with its own integrals
    v = substitute_v(u)
    assert v._integrals == {}
    functional(Functional.J, v)
    back = substitute_u(v)
    assert back._integrals == {}
    fresh = substitute_u(substitute_v(case.test_function()))
    for name in (Functional.I, Functional.II):
        got = functional(name, back)
        assert _fields(got) == _fields(functional(name, fresh))
        assert _fields(got) != _fields(functional(name, u))
