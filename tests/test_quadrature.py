import heapq
import math
from dataclasses import replace

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rellich.errors import DivergenceError, DomainError
from rellich import quadrature
from rellich.quadrature import (
    QuadratureSpec,
    _gk_points,
    count_quadrature,
    describe_cascade_failure,
    integrate,
    integrate_halfline,
    integrate_logweighted,
    origin_integral,
)

SPEC = QuadratureSpec()


def test_smooth_integral():
    res = integrate(np.sin, 0.0, math.pi, SPEC)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("eps", [0.5, 0.05, 0.005])
def test_golden_power_singularity(eps):
    res = integrate_logweighted(-1.0 + 2 * eps, [], None, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0 / (2 * eps), rel=1e-10)


def test_golden_iterated_log_antiderivatives():
    # antiderivative of X_1^2/r is X_1, so the integral over (0,1] is exactly 1
    res = integrate_logweighted(-1.0, [1.0], None, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-10)
    for a in (1.0, 0.1):
        res = integrate_logweighted(-1.0, [a], None, SPEC)
        assert res.converged
        assert res.value == pytest.approx(1.0 / a, rel=1e-10)


def test_error_estimates_are_honest():
    cases = [
        (lambda: integrate_logweighted(-0.9, [], None, SPEC), 10.0),
        (lambda: integrate_logweighted(-1.0, [1.0], None, SPEC), 1.0),
        (lambda: integrate(np.cos, 0.0, 1.0, SPEC), math.sin(1.0)),
    ]
    for run, exact in cases:
        res = run()
        true_err = abs(res.value - exact)
        assert true_err <= 3.0 * res.error_estimate + 1e-15


def test_substitution_invariance_on_regular_integrand():
    f = lambda r: np.cos(3 * r) * r**2
    plain = integrate(f, 0.0, 1.0, SPEC)
    logged = origin_integral(f, -1.0, 1.0, SPEC)  # a negative origin power takes the log substitution
    assert abs(plain.value - logged.value) <= plain.error_estimate + logged.error_estimate + 1e-14


def test_non_convergence_is_reported_not_silent(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 4)
    rough = replace(SPEC, rel_tol=1e-14)
    res = integrate(lambda r: np.abs(r - 1 / math.pi) ** -0.5, 0.0, 1.0, rough)
    assert not res.converged


def test_halfline_matches_exponential():
    res = integrate_halfline(lambda s: np.exp(-0.3 * s), 0.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 0.3, rel=1e-11)


def test_halfline_cut_at_its_cap_without_a_decaying_tail_has_an_unknown_error():
    res = integrate_halfline(lambda s: np.ones_like(s), 0.0, SPEC, s_cap=100.0)
    assert not res.converged and res.error_estimate == math.inf
    decaying = integrate_halfline(lambda s: (1.0 + s) ** -1.5, 0.0, SPEC, s_cap=100.0)
    assert not decaying.converged and math.isfinite(decaying.error_estimate)


def test_logweighted_matches_generic_quadrature():
    # mass within double-precision radii: the r-space oracle resolves it fully
    eps, a = 0.05, 0.1
    res = integrate_logweighted(-1.0 + 2 * eps, [a], None, SPEC)

    def explicit(r):
        x1 = 1.0 / (1.0 - np.log(r))
        return r ** (-1.0 + 2 * eps) * x1 ** (1.0 + a)

    ref = origin_integral(explicit, -1.0 + 2 * eps, 1.0, SPEC)
    assert ref.converged
    assert res.value == pytest.approx(ref.value, rel=1e-10)
    # deeper singularity: the r-space oracle is truncated at denormal radii,
    # so it can only confirm to its own (honestly reported) tail error
    eps = 0.01
    res = integrate_logweighted(-1.0 + 2 * eps, [a], None, SPEC)
    ref = origin_integral(explicit := (lambda r: r ** (-1.0 + 2 * eps) * (1.0 / (1.0 - np.log(r))) ** (1.0 + a)),
                          -1.0 + 2 * eps, 1.0, SPEC)
    assert abs(res.value - ref.value) <= 3.0 * ref.error_estimate


def test_logweighted_divergence_cascade():
    with pytest.raises(DivergenceError):
        integrate_logweighted(-1.0, [-0.5], None, SPEC)
    with pytest.raises(DivergenceError):
        integrate_logweighted(-1.0, [0.0, 0.0], None, SPEC)
    with pytest.raises(DivergenceError):
        integrate_logweighted(-1.2, [1.0], None, SPEC)
    # eps = 0 with the first offset zero defers to the second offset
    res = integrate_logweighted(-1.0, [0.0, 0.2], None, SPEC)
    assert res.value > 0.0


@pytest.mark.parametrize("offsets, exact", [([0.0, 0.06], 50.0 / 3.0), ([0.0, 0.0, 0.5], 2.0)])
def test_logweighted_drops_leading_zero_offsets_at_eps_zero(offsets, exact):
    """u = ln(1 + s) removes X_1 at eps = 0: the integral is the one over the
    remaining offsets, down to the one-factor closed form 1/b."""
    res = integrate_logweighted(-1, offsets)
    assert res.converged and res.evaluations == 0
    assert res.value == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize(
    "power, offsets, value",
    [(-1, [0.3, 0.5], "0x1.b37794f21a163p-1"), (-0.9, [0.0, 0.5], "0x1.98bd550b2b702p-1")],
)
def test_logweighted_keeps_its_quadrature_elsewhere(power, offsets, value):
    """A nonzero first offset, or eps > 0, is integrated as before, bit for
    bit."""
    res = integrate_logweighted(power, offsets)
    assert res.converged and res.evaluations > 0
    assert res.value.hex() == value


def test_single_log_is_taken_in_closed_form():
    """One log factor without a cutoff is Q(1 + b) at rho = 1: exactly 1/b at
    eps = 0, where the half-line rule ran out of panels (99.004 for b = 0.01,
    converged=False), and an incomplete gamma function for eps > 0, checked
    against a 40-digit quadrature; no integrand is evaluated."""
    import mpmath as mp

    with count_quadrature() as counts:
        res = integrate_logweighted(-1.0, [0.01], None, SPEC)
    assert (res.value, res.evaluations, res.converged) == (100.0, 0, True)
    assert (counts.calls, counts.evaluations) == (1, 0)
    for eps, b in [(0.05, 0.1), (0.3, -2.5), (1e-6, 0.5), (0.01, 3.7)]:
        power = -1.0 + 2.0 * eps
        res = integrate_logweighted(power, [b], None, SPEC)
        with mp.workdps(40):
            e, beta = (mp.mpf(power) + 1) / 2, 1 + mp.mpf(b)
            breaks = [0] + [mp.mpf(10) ** j for j in range(13)] + [mp.inf]
            ref = mp.quad(lambda s: mp.exp(-2 * e * s) * (1 + s) ** -beta, breaks)
            err = float(abs(res.value - ref) / ref)
        assert res.converged and res.evaluations == 0
        assert err <= 1e-13, (eps, b, err)


@pytest.mark.parametrize(
    "power, offsets", [(math.nan, [1.0]), (-1.0, [math.nan]), (math.inf, []), (-1.0, [0.0, -math.inf])]
)
def test_cascade_rejects_non_finite_inputs(power, offsets):
    with pytest.raises(DomainError):
        describe_cascade_failure(power, offsets)
    with count_quadrature() as counts, pytest.raises(DomainError):
        integrate_logweighted(power, offsets, None, SPEC)
    assert counts.calls == 0


def test_logweighted_with_cutoff():
    from rellich.minseq import CutoffSpec

    cut = CutoffSpec()
    res = integrate_logweighted(-0.5, [], cut, SPEC)
    full = integrate_logweighted(-0.5, [], None, SPEC)
    assert 0.0 < res.value < full.value


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=bad)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=bad)
    with pytest.raises(DomainError):
        integrate(np.sin, 1.0, 0.5, SPEC)


def test_breakpoints_split_kinked_integrand():
    f = lambda r: np.abs(r - 0.5)
    with_bp = integrate(f, 0.0, 1.0, SPEC, breakpoints=(0.5,))
    assert with_bp.converged
    assert with_bp.value == pytest.approx(0.25, rel=1e-13)


def test_count_quadrature_counts_each_entry_call_once(monkeypatch):
    with count_quadrature() as outer:
        first = origin_integral(lambda r: r**-0.5, -0.5, 1.0, SPEC)  # through the half-line rule
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
        with count_quadrature() as inner:
            rough = integrate(lambda r: np.sin(200.0 * r), 0.0, 1.0, SPEC)
    assert first.converged and not rough.converged
    assert (inner.calls, inner.evaluations, inner.unconverged) == (1, rough.evaluations, 1)
    assert (outer.calls, outer.unconverged) == (2, 1)
    assert outer.evaluations == first.evaluations + rough.evaluations
    integrate(lambda r: r, 0.0, 1.0, SPEC)
    assert outer.calls == 2  # the block has closed


# --------------------------------------------------------------------------
# the half-line look-ahead against the panel-by-panel loop it replaces


def _reference_bisection(lefts, rights, rel_tol, abs_tol, max_subdivisions, rule=None, trace=None):
    """The heap bisection as the engine ran it before the block's levels
    were walked in one pass, kept verbatim as the reference: every batch,
    the block's levels included, is popped from the heap and yielded."""
    values, errors = (yield lefts, rights) if rule is None else ([rule[0]], [rule[1]])
    heap = [(-e, lo, hi, v, e) for lo, hi, v, e in zip(lefts, rights, values, errors)]
    total, total_err = rule or (float(np.add.reduce(values)), float(np.add.reduce(errors)))
    heapq.heapify(heap)
    n_sub = len(heap)
    while total_err > max(abs_tol, rel_tol * abs(total)) and n_sub < max_subdivisions:
        batch = [heapq.heappop(heap) for _ in range(min(16, len(heap)))]
        if not batch:
            break
        ls, rs = [], []
        for _, lo, hi, _v, _e in batch:
            mid = 0.5 * (lo + hi)
            ls.extend([lo, mid])
            rs.extend([mid, hi])
        values, errors = yield ls, rs
        n_sub += len(batch)
        for _neg, _lo, _hi, v, e in batch:
            total -= v
            total_err -= e
        for lo, hi, v, e in zip(ls, rs, values, errors):
            heapq.heappush(heap, (-e, lo, hi, v, e))
            total += v
            total_err += e
        if not math.isfinite(total):
            return total, math.inf, False
        if trace is not None:
            trace.append((total, total_err))
    return total, total_err, total_err <= max(abs_tol, rel_tol * abs(total))


def _one_call_per_batch(f, a, b, rel_tol, abs_tol, max_subdivisions, breakpoints=()):
    """The finite rule's bisection from the intervals between a, the
    breakpoints and b, with one integrand call and one sums call per batch:
    (value, error, evaluations, converged)."""
    cuts = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    gen = _reference_bisection(cuts[:-1], cuts[1:], rel_tol, abs_tol, max_subdivisions)
    rules, n_eval = None, 0
    with np.errstate(all="ignore"):
        while True:
            try:
                ls, rs = gen.send(rules)
            except StopIteration as stop:
                value, err, converged = stop.value
                return value, err, n_eval, converged
            lefts, rights = np.array(ls), np.array(rs)
            pts = _gk_points(lefts, rights)
            vals = np.asarray(f(pts.ravel()), dtype=float).reshape(pts.shape)
            rules = tuple(x.tolist() for x in quadrature._gk_sums(vals, lefts, rights))
            n_eval += vals.size


def _halfline_one_panel_per_call(h, s0, spec=SPEC, s_cap=1e200, panels=None):
    """The half-line rule with one integrand call per panel's first rule;
    each panel's evaluations go to ``panels`` when a list is given.  The
    panel that crosses s_cap ends there, and the integral with it."""
    from rellich.quadrature import _HALFLINE_MAX_PANELS, QuadratureResult

    acc, err, evals = 0.0, 0.0, 0
    panel_abs = []
    left, width = s0, 1.0
    converged = False

    def tail_estimate():
        if len(panel_abs) < 3:
            return None
        a_prev, a_last = panel_abs[-2], panel_abs[-1]
        if a_last == 0.0 and a_prev == 0.0:
            return 0.0
        if a_last >= a_prev:
            return None
        ratio = min(a_last / max(a_prev, 1e-300), 0.995)
        if len(panel_abs) >= 4 and panel_abs[-3] > 0:
            ratio = min(max(ratio, a_prev / panel_abs[-3]), 0.995)
        return a_last * ratio / (1.0 - ratio)

    panel_subdivisions = max(64, quadrature._MAX_SUBDIVISIONS // 16)
    for _ in range(_HALFLINE_MAX_PANELS):
        right = min(left + width, s_cap)
        sub_abs = max(spec.abs_tol, spec.rel_tol * abs(acc)) / 8.0
        v, e, n, _ok = _one_call_per_batch(h, left, right, spec.rel_tol, sub_abs, panel_subdivisions)
        evals += n
        if panels is not None:
            panels.append(n)
        if not np.isfinite(v):
            return QuadratureResult(acc, math.inf, evals, False)
        acc += v
        err += e
        panel_abs.append(abs(v))
        left = right
        width *= 2.0
        tail = tail_estimate()
        if tail is not None and tail <= spec.target(acc) / 2.0:
            err += tail
            converged = True
            break
        if left >= s_cap:
            err += math.inf if tail is None else tail
            break
    converged = converged and err <= spec.target(acc)
    return QuadratureResult(acc, err, evals, converged)


def _refined(s):
    return np.exp(-0.2 * s) / (1e-3 + (s - 5.3) ** 2)


_HALFLINE_CASES = {
    "exponential": (lambda s: np.exp(-0.3 * s), 0.0, 1e200),
    "slow-power-tail": (lambda s: (1.0 + s) ** -1.02, 0.0, 1e200),
    "nan-late": (lambda s: np.where(s > 60.0, np.nan, np.exp(-0.01 * s)), 0.0, 1e200),
    "refined": (_refined, 0.5, 1e200),
    "s-cap": (lambda s: (1.0 + s) ** -2.0, 0.0, 40.0),
    "s-cap-growing": (lambda s: np.sqrt(1.0 + s), 0.0, 40.0),
}


def _bits(res):
    return (res.value.hex(), res.error_estimate.hex(), res.converged)


def _recording(h, seen):
    def wrapped(s):
        seen.append(float(np.max(s)))
        return h(s)

    return wrapped


@pytest.fixture(params=[1, 4, 16])
def lookahead(request, monkeypatch):
    """The half-line look-ahead at 1 (one panel per call), 4 and 16 panels."""
    monkeypatch.setattr(quadrature, "_LOOKAHEAD", request.param)
    return request.param


@pytest.mark.parametrize("name", sorted(_HALFLINE_CASES))
def test_lookahead_matches_one_panel_per_call(name, lookahead):
    h, s0, s_cap = _HALFLINE_CASES[name]
    reached, ref_reached = [], []
    got = integrate_halfline(_recording(h, reached), s0, SPEC, s_cap)
    ref = _halfline_one_panel_per_call(_recording(h, ref_reached), s0, SPEC, s_cap)
    assert _bits(got) == _bits(ref)
    assert got.evaluations >= ref.evaluations
    if name.startswith("s-cap"):  # the look-ahead stops where the truncation does
        assert max(reached) == max(ref_reached)


def test_rspace_origin_integral_evaluates_no_node_past_its_cap(lookahead):
    """An r-space origin integral that stops before its truncation at
    s = 650 never feeds its integrand a radius below e^{-650}, however many
    panels a call looks ahead: the panel that crosses the cap is evaluated
    only once the integral needs it."""
    radii = []

    def f(r):
        radii.append(float(np.min(r)))
        return r**-0.5

    got = origin_integral(f, -0.5, 1.0, SPEC)
    assert got.converged and got.value == pytest.approx(2.0, rel=1e-12)
    assert min(radii) >= math.exp(-quadrature._RSPACE_S_CAP)


def _capped_run(monkeypatch, cap):
    """origin_integral of 1e-15 r^{-1} (1 + ln(1/r))^{-1.02}, whose tail in
    s never settles, truncated at s = cap and with an absolute tolerance of
    1e-30, so that the panel that crosses s ~ 745 bisects; the integrand
    stays finite at the smallest denormal radius.  Returns the radii the
    integrand gets and, per round, its nodes in s and their values."""
    radii, rounds, real = [], [], quadrature._gk_sums

    def f(r):
        radii.append(r.copy())
        return 1e-15 / (r * (1.0 - np.log(r)) ** 1.02)

    def sums(vals, lefts, rights):
        rounds.append((_gk_points(lefts, rights), vals.copy()))
        return real(vals, lefts, rights)

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_gk_sums", sums)
        patch.setattr(quadrature, "_RSPACE_S_CAP", cap)
        assert not origin_integral(f, -1.0, 1.0, QuadratureSpec(SPEC.rel_tol, 1e-30)).converged
    return radii, rounds


def test_rspace_origin_integral_at_its_cap_leaves_out_the_underflowed_radii(monkeypatch):
    """An r-space origin integral that reaches its truncation at s = 650
    ends the panel that crosses it there, [511, 650]: no node lies past the
    cap, so no radius underflows, and the borderline
    r^{-1} (1 + ln(1/r))^{-1.02} keeps a finite value and error.  With the
    truncation at s = 1500, past 1023, the panel [511, 1023] crosses
    s ~ 745, where e^{-s} underflows to 0: its integrand never gets a radius
    of 0 and the values at the underflowed nodes are 0; the panel
    [1023, 1500] underflows whole, and its round calls no integrand."""
    radii, rounds = _capped_run(monkeypatch, quadrature._RSPACE_S_CAP)
    assert max(s.max() for s, _ in rounds) <= quadrature._RSPACE_S_CAP
    last = [s for s, _ in rounds if s.min() >= 511.0]
    assert len(last) == 1 and last[0].max() > 649.0  # the panel [511, 650]
    assert all((np.exp(-s) > 0.0).all() for s, _ in rounds)
    assert len(radii) == len(rounds)
    got = origin_integral(lambda r: 1 / (r * (1 - np.log(r)) ** 1.02), -1.0, 1.0)
    assert not got.converged and math.isfinite(got.value) and math.isfinite(got.error_estimate)

    radii, rounds = _capped_run(monkeypatch, 1500.0)
    assert max(s.max() for s, _ in rounds) <= 1500.0
    assert all((r > 0.0).all() for r in radii)
    underflowed = [(np.exp(-s) == 0.0, vals) for s, vals in rounds]
    assert any(gone.any() and not gone.all() for gone, _ in underflowed)
    assert all((vals[gone] == 0.0).all() for gone, vals in underflowed)
    whole = [bool(gone.all()) for gone, _ in underflowed]
    assert whole == [False] * (len(rounds) - 1) + [True] and (rounds[-1][1] == 0.0).all()
    assert len(radii) == len(rounds) - 1  # the round of the underflowed panel calls no integrand


def test_lookahead_cases_reach_their_branches():
    """Each case exercises what its name says in the reference loop."""
    slow = _halfline_one_panel_per_call(*_HALFLINE_CASES["slow-power-tail"][:2])
    nan = _halfline_one_panel_per_call(*_HALFLINE_CASES["nan-late"][:2])
    assert not slow.converged and math.isfinite(slow.error_estimate)
    assert not nan.converged and nan.error_estimate == math.inf and nan.value > 0
    panels = []
    _halfline_one_panel_per_call(_refined, 0.5, panels=panels)
    assert max(panels) > 15 and min(panels) == 15  # some panels refine, some do not
    h, s0, s_cap = _HALFLINE_CASES["s-cap"]
    capped = _halfline_one_panel_per_call(h, s0, SPEC, s_cap)
    assert not capped.converged


def test_an_exception_beyond_the_stopping_panel_does_not_surface():
    h = lambda s: np.exp(-s)  # stops at its sixth panel, inside the first look-ahead of 16
    seen = []
    ref = _halfline_one_panel_per_call(_recording(h, seen), 0.0)
    reach = max(seen)
    raised = []

    def strict(s):
        if np.max(s) > reach:
            raised.append(True)
            raise ValueError("beyond the panels the integral needs")
        return h(s)

    got = integrate_halfline(strict, 0.0, SPEC)
    assert raised  # the look-ahead did reach past the stopping panel
    assert _bits(got) == _bits(ref)


@pytest.mark.parametrize("bad_from", [20.0, 40.0])  # the fifth panel fails, or a later one
def test_an_exception_in_a_needed_panel_surfaces(bad_from, lookahead):
    def failing(s):
        if np.max(s) > bad_from:
            raise ValueError("needed panel")
        return (1.0 + s) ** -1.02

    with pytest.raises(ValueError, match="needed panel"):
        integrate_halfline(failing, 0.0, SPEC)


# --------------------------------------------------------------------------
# the single-interval block against the one-call-per-batch bisection it replaces


def _finite_one_call_per_batch(f, a, b, spec=SPEC, breakpoints=()):
    """The finite rule with one integrand call per bisection batch."""
    from rellich.quadrature import QuadratureResult

    args = (spec.rel_tol, spec.abs_tol, quadrature._MAX_SUBDIVISIONS, breakpoints)
    return QuadratureResult(*_one_call_per_batch(f, a, b, *args))


# the 15-point nodes of the level of 8 intervals of [0, 1]
_EIGHTHS = _gk_points(np.arange(8) / 8, np.arange(1, 9) / 8).ravel()


def _calls(f, seen):
    def wrapped(r):
        seen.append(np.array(r, copy=True))
        return f(r)

    return wrapped


# (integrand, interval, integrand calls of the one-call-per-batch rule)
_FINITE_CASES = {
    "first-rule": (np.exp, (0.0, 1.0), 1),
    "four-intervals": (lambda r: np.sin(10.0 * r), (0.0, 1.0), 3),
    "eight-intervals": (lambda r: np.exp(30.0 * r), (0.0, 1.0), 4),
    "eight-intervals-off-dyadic": (lambda r: np.exp(30.0 * r), (0.1, 1.0 / 0.7), 4),
    "past-32-intervals": (lambda r: 1.0 / (0.02 + r), (0.0, 1.0), 7),
    "kinked": (lambda r: np.abs(r - 1 / math.pi) ** 0.5, (0.0, 1.0), None),
    "nan-at-unused-eighths": (lambda r: np.where(np.isin(r, _EIGHTHS), np.nan, np.sin(10.0 * r)), (0.0, 1.0), 3),
}


@pytest.mark.parametrize("name", sorted(_FINITE_CASES))
def test_block_matches_one_call_per_batch(name):
    f, (a, b), ref_calls = _FINITE_CASES[name]
    seen, ref_seen = [], []
    got = integrate(_calls(f, seen), a, b, SPEC)
    ref = _finite_one_call_per_batch(_calls(f, ref_seen), a, b)
    assert _bits(got) == _bits(ref)
    assert got.evaluations == sum(r.size for r in seen) == 225 + sum(r.size for r in ref_seen[4:])
    assert got.evaluations >= ref.evaluations
    assert seen[0].size == 225  # the first call covers the levels of 1, 2, 4 and 8 intervals
    if ref_calls is not None:
        assert len(ref_seen) == ref_calls
    # past the block, every call is the reference's
    assert len(seen) == 1 + max(0, len(ref_seen) - 4)
    for mine, theirs in zip(seen[1:], ref_seen[4:]):
        assert np.array_equal(mine, theirs)
    if name == "nan-at-unused-eighths":
        assert got.converged and math.isfinite(got.value)


def test_an_exception_at_unneeded_block_nodes_does_not_surface():
    def strict(r):
        if np.isin(r, _EIGHTHS).any():
            raise ValueError("at the level of 8 intervals, which the integral does not need")
        return np.sin(10.0 * r)

    seen = []
    got = integrate(_calls(strict, seen), 0.0, 1.0, SPEC)
    ref = _finite_one_call_per_batch(lambda r: np.sin(10.0 * r), 0.0, 1.0)
    assert _bits(got) == _bits(ref)
    assert seen[0].size == 225  # the block was tried, raised, and the batches went one per call
    assert [r.size for r in seen[1:]] == [15, 30, 60]
    assert got.evaluations == ref.evaluations


def test_an_exception_at_a_needed_block_level_surfaces():
    def failing(r):
        if np.isin(r, _EIGHTHS).any():
            raise ValueError("needed level")
        return np.exp(30.0 * r)

    with pytest.raises(ValueError, match="needed level"):
        integrate(failing, 0.0, 1.0, SPEC)


def test_breakpoint_and_halfline_integrals_make_the_same_calls(monkeypatch):
    """Integrals that start on breakpoints, and the half-line rule's panel
    refinements, keep one integrand call per batch: the block is not built."""
    built, real = [], quadrature._block_bisection
    monkeypatch.setattr(quadrature, "_block_bisection", lambda block, *tols: built.append(block) or real(block, *tols))
    f = lambda r: np.abs(r - 0.3) ** 0.5
    seen, ref_seen = [], []
    got = integrate(_calls(f, seen), 0.0, 1.0, SPEC, breakpoints=(0.3,))
    ref = _finite_one_call_per_batch(_calls(f, ref_seen), 0.0, 1.0, breakpoints=(0.3,))
    assert _bits(got) == _bits(ref) and got.evaluations == ref.evaluations
    assert len(seen) == len(ref_seen) > 1
    assert all(np.array_equal(mine, theirs) for mine, theirs in zip(seen, ref_seen))
    assert origin_integral(lambda r: r**-0.5, -0.5, 1.0, SPEC).converged
    sizes = []
    res = integrate_halfline(_calls(_refined, sizes), 0.5, SPEC)
    assert res.converged and max(r.size for r in sizes) > 60  # some panels refined
    assert 225 not in {r.size for r in sizes}  # ... without a block
    assert not built
    integrate(f, 0.0, 1.0, SPEC)
    assert [(lefts[0], rights[0]) for lefts, rights in built] == [(0.0, 1.0)]  # the spy sees the block where there is one


# --------------------------------------------------------------------------
# each interval's rule is a function of its own 15 values


@given(
    hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(15)), elements=st.floats(-1e3, 1e3)),
    st.integers(0, 7),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_gk_sums_gives_each_row_its_own_bits_in_any_batch(vals, offset, rnd):
    n = len(vals)
    lefts = np.arange(n, dtype=float)
    rights = lefts + np.array([rnd.choice([1e-3, 0.5, 1.0, 7.25]) for _ in range(n)])
    # the batch at an offset from the buffer's start, so rows sit at other alignments
    buf = np.empty(n * 15 + offset)
    shifted = buf[offset:].reshape(n, 15)
    shifted[...] = vals
    got = quadrature._gk_sums(shifted, lefts, rights)
    for i in range(n):
        alone = quadrature._gk_sums(vals[i : i + 1].copy(), lefts[i : i + 1], rights[i : i + 1])
        assert [x[0].hex() for x in alone] == [got[0][i].hex(), got[1][i].hex()]
    order = list(range(n))
    rnd.shuffle(order)
    permuted = quadrature._gk_sums(vals[order], lefts[order], rights[order])
    assert all(np.array_equal(p, g[order]) for p, g in zip(permuted, got))


def test_one_interval_sums_its_first_four_levels_in_one_call(monkeypatch):
    rows, real = [], quadrature._gk_sums
    monkeypatch.setattr(quadrature, "_gk_sums", lambda vals, *a: rows.append(len(vals)) or real(vals, *a))
    seen = []
    res = integrate(_calls(lambda r: np.exp(30.0 * r), seen), 0.0, 1.0, SPEC)
    assert res.converged and res.evaluations == 225
    assert len(seen) == 1  # the bisection reaches the level of 8 intervals, all from the block
    assert rows == [15]


# --------------------------------------------------------------------------
# integrals in lockstep against each integral alone


def _each(fs):
    """The engine's integrand for the integrands fs: each on its group's
    nodes, recording every call's groups as [(nodes, integrals)]."""
    calls = []

    def f(groups):
        calls.append([(x, list(which)) for x, which in groups])
        out = [None] * len(fs)
        for x, which in groups:
            for i in which:
                out[i] = fs[i](x)
        return out

    return f, calls


def _sizes(call):
    """An integrand call's groups as [(node count, integrals)]."""
    return [(x.size, which) for x, which in call]


def _result_bits(res):
    return (res.value.hex(), res.error_estimate.hex(), res.evaluations, res.converged)


_MIXED = {
    "block-only": lambda x: x**2,
    "past-the-block": lambda x: x**60,
    "many-rounds": lambda x: np.abs(x - 1 / 3) ** 0.5,
    "singular": lambda x: np.abs(x - 1 / math.pi) ** -0.5,
    "non-finite": lambda x: np.where(x > 0.7, np.nan, x),
}


@pytest.mark.parametrize("subdivisions", [4096, 8])
@pytest.mark.parametrize("breakpoints", [(), (0.25, 0.5)])
def test_lockstep_gives_each_integral_its_own_result(monkeypatch, subdivisions, breakpoints):
    """Five integrands bisected together give each the result it gets alone,
    bitwise, in value, error, evaluations and converged, with and without
    breakpoints (where every integral starts on the breakpoint panels, as
    the scans' cutoff zone does) and with the subdivision cap at 8, which
    stops some integrals and not others.  Each counts as one call, and
    each round is one integrand call on the nodes of every integral that
    has not stopped, the first one group that holds all."""
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", subdivisions)
    fs = list(_MIXED.values())
    f, calls = _each(fs)
    with count_quadrature() as counts:
        got = quadrature._integrate_many(f, len(fs), 0.0, 1.0, SPEC, breakpoints)
    alone, alone_calls = [], []
    for g in fs:
        seen = []
        alone.append(integrate(_calls(g, seen), 0.0, 1.0, SPEC, breakpoints))
        alone_calls.append(len(seen))
    assert [_result_bits(r) for r in got] == [_result_bits(r) for r in alone]
    ref = [_finite_one_call_per_batch(g, 0.0, 1.0, SPEC, breakpoints) for g in fs]
    assert [_bits(r) for r in got] == [_bits(r) for r in ref]
    assert (counts.calls, counts.evaluations) == (len(fs), sum(r.evaluations for r in alone))
    assert counts.unconverged == sum(not r.converged for r in alone) > 0
    if subdivisions == 8:
        assert 0 < sum(r.converged for r in got) < len(fs) - 1  # the cap stops a finite integral
    assert not math.isfinite(got[-1].value) and not got[-1].converged
    assert [which for _, which in calls[0]] == [list(range(len(fs)))]  # the first round is one group of all
    assert len(calls) == max(alone_calls) < sum(alone_calls)  # a round per batch of the longest
    if not breakpoints:  # x**2 stops in the block, x**60 past it unless the cap stops it there
        assert calls[0][0][0].size == 225 and got[0].evaluations == 225
        assert all(0 not in which for c in calls[1:] for _, which in c)
        assert (got[1].evaluations > 225) == (subdivisions > 8)


def test_lockstep_falls_back_to_one_integral_per_call():
    """When integrand 0 raises at block nodes it does not need, in the round
    integrand 1 needs all of, the engine calls each integrand alone: both
    get their results alone, and the exception never surfaces.  Where the
    raising integrand needs the nodes, it surfaces."""

    def strict(x):
        if np.isin(x, _EIGHTHS).any():
            raise ValueError("at the level of 8 intervals")
        return np.sin(10.0 * x)

    fs = [strict, lambda x: np.exp(30.0 * x)]
    f, calls = _each(fs)
    got = quadrature._integrate_many(f, 2, 0.0, 1.0, SPEC)
    ref = [_finite_one_call_per_batch(lambda x: np.sin(10.0 * x), 0.0, 1.0), integrate(fs[1], 0.0, 1.0, SPEC)]
    assert [_bits(r) for r in got] == [_bits(r) for r in ref]
    assert got[0].evaluations == ref[0].evaluations and got[1].evaluations == 225
    # the shared block call raised; then each alone, and integrand 0 goes on one batch per round
    assert [_sizes(c) for c in calls[:3]] == [[(225, [0, 1])], [(225, [0])], [(225, [1])]]
    assert [_sizes(c) for c in calls[3:]] == [[(15, [0])], [(30, [0])], [(60, [0])]]

    def failing(x):
        if np.isin(x, _EIGHTHS).any():
            raise ValueError("needed level")
        return np.exp(30.0 * x)

    f, _ = _each([failing, lambda x: x**2])
    with pytest.raises(ValueError, match="needed level"):
        quadrature._integrate_many(f, 2, 0.0, 1.0, SPEC)


def _reference(f, a, b, breakpoints):
    """``integrate(f, a, b, SPEC, breakpoints)`` by the heap reference, one
    integrand call per batch, with its evaluations counted as the engine
    counts them: an integral on one interval evaluates the 225 points of
    its first four levels whatever level it stops at."""
    seen = []
    value, err, n_eval, converged = _one_call_per_batch(
        _calls(f, seen), a, b, SPEC.rel_tol, SPEC.abs_tol, quadrature._MAX_SUBDIVISIONS, breakpoints
    )
    if not any(a < p < b for p in breakpoints):
        n_eval = 225 + sum(x.size for x in seen[4:])
    return value.hex(), err.hex(), n_eval, converged


_DEGENERATE = (1.0, float(np.nextafter(1.0, 2.0)))


@pytest.mark.parametrize("subdivisions", [1, 2, 8, 16, 4096])
@pytest.mark.parametrize("breakpoints", [(), (0.25, 0.5)])
@pytest.mark.parametrize("interval", [(0.0, 1.0), _DEGENERATE])
def test_engine_matches_the_heap_reference(monkeypatch, subdivisions, breakpoints, interval):
    """Each _MIXED integral, alone and in one lockstep run, ends bitwise
    where the heap reference ends, in value, error, evaluations and
    converged: at every subdivision cap, with and without breakpoints, and
    on an interval one ulp wide, whose halves repeat an endpoint."""
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", subdivisions)
    fs = list(_MIXED.values())
    ref = [_reference(g, *interval, breakpoints) for g in fs]
    alone = [integrate(g, *interval, SPEC, breakpoints) for g in fs]
    together = quadrature._integrate_many(_each(fs)[0], len(fs), *interval, SPEC, breakpoints)
    assert [_result_bits(r) for r in alone] == ref
    assert [_result_bits(r) for r in together] == ref


# rules overridden by interval: (value, error), None keeping the rule's own
_DOCTORED = {
    "nan-value-at-level-0": {(0.0, 1.0): (math.nan, None)},
    "inf-value-at-level-0": {(0.0, 1.0): (math.inf, None)},
    "inf-error-at-level-0": {(0.0, 1.0): (None, math.inf)},
    "error-at-the-tolerance": {(0.0, 1.0): (0.0, SPEC.abs_tol), (0.5, 1.0): (0.0, SPEC.abs_tol)},
    "nan-value-at-level-1": {(0.5, 1.0): (math.nan, None)},
    "nan-error-at-level-1": {(0.0, 0.5): (None, math.nan)},
    "inf-value-at-level-2": {(0.25, 0.5): (math.inf, None)},
    "minus-inf-value-at-level-3": {(0.125, 0.25): (-math.inf, None)},
    "inf-error-at-level-2": {(0.5, 0.75): (None, math.inf)},
    "inf-errors-at-level-3": {(0.75, 0.875): (None, math.inf), (0.875, 1.0): (None, math.inf)},
    "inf-error-past-the-block": {(0.9375, 1.0): (None, math.inf)},
    "infinities-that-cancel": {(0.5, 0.75): (math.inf, None), (0.75, 1.0): (-math.inf, None)},
}


@pytest.mark.parametrize("subdivisions", [1, 2, 8, 16, 4096])
@pytest.mark.parametrize("breakpoints", [(), (0.25, 0.5)])
@pytest.mark.parametrize("doctored", sorted(_DOCTORED))
def test_non_finite_rules_match_the_heap_reference(monkeypatch, subdivisions, breakpoints, doctored):
    """Rules holding NaN, +inf and -inf values and infinite or NaN errors,
    at each level of the block and past it, stop the engine bitwise where
    they stop the heap reference."""
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", subdivisions)
    overrides, real = _DOCTORED[doctored], quadrature._gk_sums

    def sums(vals, lefts, rights):
        values, errors = real(vals, lefts, rights)
        for i, edge in enumerate(zip(lefts.tolist(), rights.tolist())):
            value, error = overrides.get(edge, (None, None))
            values[i] = values[i] if value is None else value
            errors[i] = errors[i] if error is None else error
        return values, errors

    monkeypatch.setattr(quadrature, "_gk_sums", sums)
    fs = [lambda x: x**60, lambda x: np.sin(10.0 * x), lambda x: x**2]
    ref = [_reference(g, 0.0, 1.0, breakpoints) for g in fs]
    alone = [integrate(g, 0.0, 1.0, SPEC, breakpoints) for g in fs]
    together = quadrature._integrate_many(_each(fs)[0], len(fs), 0.0, 1.0, SPEC, breakpoints)
    assert [_result_bits(r) for r in alone] == ref
    assert [_result_bits(r) for r in together] == ref


def _checked_groups(monkeypatch):
    """Make every integrand call of a lockstep run check its groups against
    the spans of its round: the groups partition the live integrals, each
    group's nodes are the nodes of its integrals' spans, and integrals with
    equal spans share a group, so no two groups hold the same span.  Returns
    the list that gets each call's groups as [(node count, integrals)]."""
    real, calls = quadrature._round, []

    def round_(f, spans):
        f = getattr(f, "unchecked", f)  # a retry's own calls check their own spans
        key = lambda i: (*spans[i][0], *spans[i][1])

        def checked(groups):
            assert sorted(i for _, which in groups for i in which) == sorted(spans)
            assert len({key(which[0]) for _, which in groups}) == len(groups)
            for x, which in groups:
                assert {key(i) for i in which} == {key(which[0])}
                lefts, rights = (np.array(side) for side in spans[which[0]])
                assert np.array_equal(x, _gk_points(lefts, rights).ravel())
            calls.append(_sizes(groups))
            return f(groups)

        checked.unchecked = f
        return real(checked, spans)

    monkeypatch.setattr(quadrature, "_round", round_)
    return calls


def test_lockstep_groups_partition_the_live_integrals_and_share_equal_spans(monkeypatch):
    """In a block run, a breakpoint run (a scan quotient's cutoff zone) and
    a half-line run, every integrand call's groups hold each live integral
    once, on its own nodes, with the integrals of equal spans together; the
    first round of each is one group that holds every integral."""
    from rellich.minseq import MinSeqParams, ScanFamily, rayleigh_quotient

    calls = _checked_groups(monkeypatch)
    fs = list(_MIXED.values())
    quadrature._integrate_many(_each(fs)[0], len(fs), 0.0, 1.0, SPEC)
    assert calls[0] == [(225, list(range(len(fs))))] and len(calls) > 1
    calls.clear()
    rayleigh_quotient(ScanFamily.RELLICH_IMPROVED, MinSeqParams(6, 0.0, 1e-3, (0.1,)))
    assert calls[0] == [(60, [0, 1])]  # both sides on the zone's first 60 nodes
    calls.clear()
    cases = [_HALFLINE_CASES[name][0] for name in ("exponential", "slow-power-tail", "nan-late")]
    quadrature._halfline_many(_each(cases)[0], len(cases), 0.0, SPEC)
    assert calls[0] == [(15 * quadrature._LOOKAHEAD, [0, 1, 2])]  # the first look-ahead
    assert any(len(call) > 1 for call in calls)  # later rounds split the integrals into groups


def test_integrate_rejects_non_finite_bounds():
    never = lambda x: pytest.fail("the integrand was called")
    for a, b in [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), (0.0, math.nan)]:
        with pytest.raises(DomainError, match="finite"):
            integrate(never, a, b, SPEC)
        with pytest.raises(DomainError, match="finite"):
            quadrature._integrate_many(never, 2, a, b, SPEC)


def test_origin_integral_rejects_a_non_finite_upper_limit():
    never = lambda x: pytest.fail("the integrand was called")
    for power in (-0.5, 0.5):
        for hi in (math.inf, math.nan):
            with pytest.raises(DomainError):
                origin_integral(never, power, hi, SPEC)
    with pytest.raises(DomainError, match="inf"):
        quadrature._origin_many(never, 2, math.inf, SPEC)


def test_halfline_rejects_a_non_finite_start():
    never = lambda s: pytest.fail("the integrand was called")
    for s0 in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="finite s0"):
            integrate_halfline(never, s0, SPEC)


# --------------------------------------------------------------------------
# half-lines in lockstep against each panel by panel


def test_halflines_in_lockstep_match_one_panel_per_call(lookahead):
    """Every half-line case bisects in one lockstep run of their half-line
    rules (each from its own s0 and to its own cap), and each ends bitwise
    where the panel-by-panel loop ends alone, with at least its
    evaluations, in fewer integrand calls than the rules alone make.  The
    entry point on one [s0, inf) counts each of its integrals once."""
    cases = [_HALFLINE_CASES[name] for name in sorted(_HALFLINE_CASES)]
    refs = [_halfline_one_panel_per_call(h, s0, SPEC, s_cap) for h, s0, s_cap in cases]
    f, calls = _each([h for h, _, _ in cases])
    with np.errstate(all="ignore"):
        got = quadrature._lockstep(f, [quadrature._halfline(s0, SPEC, s_cap) for _, s0, s_cap in cases])
    for (value, err, evaluations, converged), ref in zip(got, refs):
        assert (value.hex(), err.hex(), converged) == _bits(ref)
        assert evaluations >= ref.evaluations
    alone = []
    for h, s0, s_cap in cases:
        seen = []
        integrate_halfline(_recording(h, seen), s0, SPEC, s_cap)
        alone.append(len(seen))
    assert len(calls) == max(alone) < sum(alone)

    cases = [(h, s0, s_cap) for h, s0, s_cap in cases if (s0, s_cap) == (0.0, 1e200)]
    f, _ = _each([h for h, _, _ in cases])
    with count_quadrature() as counts:
        got = quadrature._halfline_many(f, len(cases), 0.0, SPEC)
    assert len(cases) == 3 and counts.calls == len(cases)
    assert counts.evaluations == sum(res.evaluations for res in got)
    assert [_bits(res) for res in got] == [_bits(_halfline_one_panel_per_call(h, 0.0)) for h, _, _ in cases]


def _peaks(s):
    return np.exp(-0.3 * s) * (1.0 + 1.0 / (1e-2 + (s - 2.0) ** 2) + 1.0 / (1e-2 + (s - 5.0) ** 2))


def test_a_speculative_panel_that_raises_changes_no_result(lookahead):
    """The panels [1, 3] and [3, 7] of _peaks both bisect.  An integrand
    that raises whenever [3, 7] bisects in a call with another panel, which
    only a speculative round makes, still ends bitwise where the
    panel-by-panel loop does, and so does the integral it runs with."""
    raised = []

    def strict(s):
        inside = (s > 3.0) & (s < 7.0)
        if inside.any() and not inside.all() and s.min() >= 1.0:
            raised.append(True)
            raise ValueError("a speculative round")
        return _peaks(s)

    panels = []
    ref = _halfline_one_panel_per_call(_peaks, 0.0, panels=panels)
    assert panels[1] > 15 and panels[2] > 15  # the reference bisects both panels
    slow = _HALFLINE_CASES["slow-power-tail"][0]
    f, _ = _each([strict, slow])
    got = quadrature._halfline_many(f, 2, 0.0, SPEC)
    assert bool(raised) == (lookahead > 1)  # with one panel per look-ahead nothing speculates
    assert _bits(got[0]) == _bits(ref) and got[0].evaluations >= ref.evaluations
    assert _result_bits(got[1]) == _result_bits(integrate_halfline(slow, 0.0, SPEC))
