"""The four benchmark workloads, driven through rellich's public functions.

A workload turns a seed into a list of operations.  Each operation is one
call into the package plus a correctness gate on its output; the gate says
whether the op failed and extracts the figure the workload's accuracy metric
is built from.  Inputs come only from the seed, so a seed fixes the work.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable

import numpy as np

SUITE_DIMENSIONS = (5, 6, 9, 30)
SERIES_K = 5
SCAN_SLACK = 1e-9


@dataclass
class Op:
    """One operation: ``run`` calls the package, ``gate`` judges the output.

    ``gate(output)`` returns (ok, figure); an exception from ``run`` is a
    failed op with no figure.  Ops of one ``stratum`` cost about the same.
    """

    key: tuple
    run: Callable[[], object]
    gate: Callable[[object], tuple[bool, float | None]]
    stratum: tuple = ()


@dataclass
class Outcome:
    ok: bool
    figure: float | None
    seconds: float
    error: str | None = None


def execute(op: Op, clock) -> Outcome:
    """Run one op, timing only the call into the package."""
    t0 = clock()
    try:
        out = op.run()
    except Exception as exc:  # a failing op is counted, never fatal
        return Outcome(False, None, clock() - t0, type(exc).__name__)
    dt = clock() - t0
    ok, figure = op.gate(out)
    return Outcome(bool(ok), None if figure is None else float(figure), dt)


def relative_disagreement(a: float, b: float) -> float:
    """|a - b| / (|a| + |b| + 1e-30), the registry's residual convention."""
    return abs(a - b) / (abs(a) + abs(b) + 1e-30)


# --------------------------------------------------------------------------
# registry workloads


def registry_gate(report) -> tuple[bool, float | None]:
    """A registry op fails on a FAIL verdict; the figure is the case value."""
    res = report.results[0]
    return bool(report.passed), (None if res.rejected else res.value)


def registry_ops(rellich, suite, kind: str) -> list[Op]:
    verify = rellich.verify
    ops = []
    for name in verify.registry_targets(kind):
        for case in suite:
            if kind == "identity":
                run = lambda name=name, case=case: verify.check_identity(name, [case])
            else:
                run = lambda name=name, case=case: verify.check_inequality(name, [case], K=SERIES_K)
            ops.append(Op((name, case.index), run, registry_gate, (name, case.N)))
    return ops


def _grad_sq(f, ck):
    out = f.deriv().square()
    if ck:
        out = out + ck * f.square().shift(-2.0)
    return out


def series_split(rellich, name: str, case, K: int):
    """The exact part of a series-weighted slack and its series densities.

    Mirrors the registry's slack formulas with the public PowerSum methods:
    slack = exact - sum_t coeff_t * int_0^1 density_t S_K dr, so that
    exact - slack is the float path's series term.  Returns None for targets
    without a series term.
    """
    C = rellich.constants
    N, ck, m, f = case.N, case.eigenvalue, case.m, case.f
    lap = f.mode_apply(N, ck)

    def deficit_i():
        return (
            lap.square().shift(N - 1).integrate01()
            - (N * (N - 4) / 4.0) ** 2 * f.square().shift(N - 5).integrate01()
        )

    def deficit_ii():
        return (
            lap.square().shift(N - 1).integrate01()
            - (N * N / 4.0) * _grad_sq(f, ck).shift(N - 3).integrate01()
        )

    if name == "hardy-improved":
        exact = _grad_sq(f, ck).shift(N - 1).integrate01()
        exact -= ((N - 2) / 2.0) ** 2 * f.square().shift(N - 3).integrate01()
        return exact, [(0.25, f.square().shift(N - 3))]
    if name == "hardy-improved-weighted":
        exact = _grad_sq(f, ck).shift(N - 1 - 2 * m).integrate01()
        exact -= ((N - 2 * m - 2) / 2.0) ** 2 * f.square().shift(N - 3 - 2 * m).integrate01()
        return exact, [(0.25, f.square().shift(N - 3 - 2 * m))]
    if name == "rellich-improved":
        return deficit_i(), [(1 + N * (N - 4) / 8.0, f.square().shift(N - 5))]
    if name == "rellich-gradient-improved":
        return deficit_ii(), [(0.25, _grad_sq(f, ck).shift(N - 3))]
    if name == "rellich-weighted-improved":
        exact = lap.square().shift(N - 1 - 2 * m).integrate01()
        exact -= C.sigma(m, N) * f.square().shift(N - 5 - 2 * m).integrate01()
        return exact, [(C.sigma_bar(m, N), f.square().shift(N - 5 - 2 * m))]
    if name == "rellich-gradient-weighted-improved":
        exact = lap.square().shift(N - 1 - 2 * m).integrate01()
        exact -= ((N + 2 * m) / 2.0) ** 2 * _grad_sq(f, ck).shift(N - 3 - 2 * m).integrate01()
        return exact, [(0.25, _grad_sq(f, ck).shift(N - 3 - 2 * m))]
    if name.startswith("higher-order-"):
        variant = {
            "higher-order-rellich-chain": C.HigherOrderVariant.RELLICH_CHAIN,
            "higher-order-gradient-chain": C.HigherOrderVariant.GRADIENT_CHAIN,
            "higher-order-alternating-chain": C.HigherOrderVariant.ALTERNATING_CHAIN,
        }[name]

        def lap_pow(n):
            out = f
            for _ in range(n):
                out = out.mode_apply(N, ck)
            return out

        order = 2
        if variant is C.HigherOrderVariant.GRADIENT_CHAIN:
            exact = _grad_sq(lap_pow(order), ck).shift(N - 1).integrate01()
        else:
            exact = lap_pow(order).square().shift(N - 1).integrate01()
        series = []
        for term, coeff in C.higher_order_coefficients(N, order, 1, variant):
            base = lap_pow(term.delta_order)
            if term.kind == "gradient":
                density = _grad_sq(base, ck).shift(N - 1 - term.weight_power)
            else:
                density = base.square().shift(N - 1 - term.weight_power)
            if term.with_series:
                series.append((float(coeff), density))
            else:
                exact -= float(coeff) * density.integrate01()
        return exact, series
    return None


def series_errors(rellich, suite, slacks: dict, K: int, reference) -> dict:
    """Relative error of each float series term against the reference.

    ``slacks`` maps (target, case index) to the registry's slack; only the
    suite's N = 30 cases are compared, where the float path's cancellation
    is worst.
    """
    errors = {}
    for (name, index), slack in slacks.items():
        case = suite[index]
        if case.N != 30 or slack is None:
            continue
        split = series_split(rellich, name, case, K)
        if split is None:
            continue
        exact, series = split
        ref = sum(
            (float(coeff) * reference.power_sum_integral(density) for coeff, density in series),
            0.0,
        )
        errors[(name, index)] = abs((exact - slack) - ref) / abs(ref)
    return errors


# --------------------------------------------------------------------------
# scans


def scan_plan(rellich, seed: int) -> list[tuple[str, object, list]]:
    """The README scan settings plus one seeded extra (N, m) per family.

    README settings: every family at N = 6 with K = 1 and K = 2, and amn at
    N = 30, m = 8, mode 2.  The extras use K = 1 and a seeded dimension;
    weighted families draw m in their admissible range, and amn scans the
    mode that attains a_mn.
    """
    minseq, C = rellich.minseq, rellich.constants
    F = minseq.ScanFamily
    plan = []
    for fam in F:
        for K in (1, 2):
            plan.append((f"{fam.value}/N6/K{K}", fam, minseq.default_schedule(fam, 6, K=K)))
    plan.append(("amn/N30/m8/k2", F.AMN, minseq.default_schedule(F.AMN, 30, 8.0, mode_k=2)))
    rng = np.random.default_rng(seed)
    # each dimension serves about a quarter of the families, so the seed moves
    # the pairing more than the total cost
    dims = rng.permutation(np.tile(SUITE_DIMENSIONS, 3))
    for fam, N in zip(F, dims):
        N = int(N)
        m, k = 0.0, 0
        if fam is F.WEIGHTED_GRAD_IMPROVED:
            m = float(rng.uniform(0.0, C.m_star(N)))
        elif fam in (F.WEIGHTED_RELLICH_IMPROVED, F.AMN):
            m = float(rng.uniform(0.0, 0.9 * (N - 4) / 2.0))
        if fam is F.AMN:
            k = C.a_mn(N, m).argmin_k
        plan.append(
            (f"{fam.value}/N{N}/m{m:.4g}/k{k}", fam, minseq.default_schedule(fam, N, m, mode_k=k))
        )
    return plan


def scan_gate(result) -> tuple[bool, float | None]:
    """The direction_ok rule, applied to a single step; the figure is the
    step's relative gap |quotient - theoretical| / theoretical."""
    q, theory = result.quotients[0], result.theoretical
    ok = math.isfinite(q) and q >= theory - SCAN_SLACK
    return ok, abs(q - theory) / abs(theory)


def scan_ops(rellich, plan) -> list[Op]:
    minseq = rellich.minseq
    ops = []
    for label, fam, schedule in plan:
        for step, params in enumerate(schedule):
            run = lambda fam=fam, params=params: minseq.scan_to_limit(fam, [params])
            ops.append(Op((label, step), run, scan_gate, (label,)))
    return ops


def limit_gaps(plan, gaps: dict) -> list[float]:
    """The relative gap of every scan's last step, from the per-step gaps."""
    last = [gaps.get((label, len(schedule) - 1)) for label, _, schedule in plan]
    return [g for g in last if g is not None and math.isfinite(g)]


# --------------------------------------------------------------------------
# functionals


def functional_gate(tolerance: float):
    def gate(fv) -> tuple[bool, float | None]:
        if fv.cross_value is None:
            return bool(np.isfinite(fv.value)), None
        d = relative_disagreement(fv.value, fv.cross_value)
        return d <= tolerance, d

    return gate


def functional_ops(rellich, suite) -> list[Op]:
    radial = rellich.radial
    F = radial.Functional
    gate = functional_gate(rellich.verify.IDENTITY_TOLERANCE)
    ops = []
    for case in suite:
        u = case.test_function()
        v = radial.substitute_v(u)
        for name in F:
            tf = v if name in (F.J, F.JJ) else u
            m = case.m if name in (F.WEIGHTED_LAPLACIAN, F.WEIGHTED_GRADIENT, F.WEIGHTED_HARDY, F.SERIES_TERM) else 0.0
            run = lambda name=name, tf=tf, m=m: radial.functional(name, tf, m=m)
            ops.append(Op((name.value, case.index), run, gate, (name.value, case.N)))
    return ops


# --------------------------------------------------------------------------
# registry of workloads


@dataclass
class Workload:
    """A named workload: how to build its ops and judge a run's accuracy.

    ``accuracy(rellich, state, figures)`` turns the last figure of every op
    (by key) into the workload's accuracy figure, named ``accuracy_name``.
    ``tail_pct`` is the percentile op_tail_ms
    reports, fixed per workload so that runs and commits report the same
    one: the highest of 99, 98, 97.5 that leaves at least 10 distinct ops
    of a pass beyond it, or, where a run makes about one pass, 20 samples.
    """

    name: str
    why: str
    accuracy_name: str
    build: Callable
    accuracy: Callable
    tail_pct: float


SERIES_TARGETS = (
    "hardy-improved",
    "hardy-improved-weighted",
    "rellich-improved",
    "rellich-gradient-improved",
    "rellich-weighted-improved",
    "rellich-gradient-weighted-improved",
    "higher-order-rellich-chain",
    "higher-order-gradient-chain",
    "higher-order-alternating-chain",
)


def _build_suite_ops(kind):
    def build(rellich, seed):
        suite = rellich.verify.standard_suite(seed)
        if kind == "functional":
            return {"suite": suite}, functional_ops(rellich, suite)
        return {"suite": suite}, registry_ops(rellich, suite, kind)

    return build


def _build_scans(rellich, seed):
    plan = scan_plan(rellich, seed)
    return {"plan": plan}, scan_ops(rellich, plan)


def _max_figure(_rellich, _state, figures):
    return max(v for v in figures.values() if v is not None)


def _series_accuracy(rellich, state, figures):
    from reference import SeriesReference

    errs = series_errors(rellich, state["suite"], figures, SERIES_K, SeriesReference(SERIES_K))
    return max(errs.values())


def _gap_median(_rellich, state, figures):
    return statistics.median(limit_gaps(state["plan"], figures))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "registry-identities",
            "exact PowerSum algebra with light quadrature: where per-case memoization or rational-m changes show",
            "residual_max",
            _build_suite_ops("identity"),
            _max_figure,
            99.0,
        ),
        Workload(
            "registry-inequalities",
            "series quadrature and series_partial, some integrals at the subdivision cap; PowerSum only evaluates floats",
            "series_rel_err_max",
            _build_suite_ops("inequality"),
            _series_accuracy,
            98.0,
        ),
        Workload(
            "scan-limits",
            "minseq quotients, s-space halfline quadrature and Jet arithmetic, with no PowerSum and no verify",
            "limit_gap_rel_median",
            _build_scans,
            _gap_median,
            98.0,
        ),
        Workload(
            "functionals",
            "the radial layer's dual-route functionals on Jet profiles, which neither registry calls",
            "residual_max",
            _build_suite_ops("functional"),
            _max_figure,
            97.5,
        ),
    )
}
