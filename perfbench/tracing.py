"""Spans around rellich's layer entry points, recorded from outside the package.

``install(rellich)`` replaces public entry points with timing wrappers and
returns a ``Tracer``; ``uninstall`` puts the originals back.  A wrapped
name is replaced on every module that holds it, because verify, minseq and
radial import ``integrate``, ``integrate_halfline``, ``series_partial`` and
``functional`` by name; class methods are replaced on the class.

Each span records (id, parent id, op id, name, start, end).  Self time is
a span's duration minus the time its direct children cover.  Jet arithmetic
is too fine-grained for a stored span per call: Jet methods only count calls
and time their outermost call, and that time is still charged to the
enclosing span as child time.
"""

from __future__ import annotations

import inspect
import json
from collections import defaultdict
from time import perf_counter

import numpy as np


class _Stat:
    __slots__ = ("calls", "outer_calls", "outer_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.outer_calls = 0  # calls with no enclosing span of the same name
        self.outer_s = 0.0  # time in those calls
        self.self_s = 0.0


class Tracer:
    def __init__(self):
        self._restore: list[tuple] = []
        self.reset()

    def reset(self):
        """Drop everything recorded so far; the wrappers stay installed."""
        self.spans: list[tuple] = []
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._depth: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self.jet_ops = 0
        self.jet_s = 0.0
        self._in_jet = False
        self._paused = False

    def untraced(self, fn):
        """``fn`` with every wrapper passing straight through while it runs."""

        def run(*args, **kwargs):
            self._paused = True
            try:
                return fn(*args, **kwargs)
            finally:
                self._paused = False

        return run

    # ------------------------------------------------------------- spans
    def call(self, name, fn, args, kwargs, on_exit=None):
        if self._paused:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        entry = [sid, name, 0.0, 0.0]
        self._stack.append(entry)
        self._depth[name] += 1
        entry[2] = start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            depth = self._depth[name] - 1
            self._depth[name] = depth
            dur = end - start
            st = self.stats[name]
            st.calls += 1
            st.self_s += dur - entry[3]
            if depth == 0:
                st.outer_calls += 1
                st.outer_s += dur
            parent = None
            if self._stack:
                self._stack[-1][3] += dur
                parent = self._stack[-1][0]
            self.spans.append((sid, parent, self.op_id, name, start, end))
        if on_exit is not None:
            on_exit(result, args, depth == 0)
        return result

    def jet_call(self, fn, args, kwargs):
        if self._paused:
            return fn(*args, **kwargs)
        self.jet_ops += 1
        if self._in_jet:
            return fn(*args, **kwargs)
        self._in_jet = True
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - start
            self._in_jet = False
            self.jet_s += dur
            if self._stack:
                self._stack[-1][3] += dur

    # ------------------------------------------------------- installation
    def wrap(self, name, fn, on_exit=None):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_exit)

        return wrapper

    def patch(self, owner, attr, replacement):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, modules, attr, name, on_exit=None):
        """Wrap the function ``attr`` once and rebind it on every module holding it."""
        original = getattr(modules[0], attr)
        wrapper = self.wrap(name, original, on_exit)
        for mod in modules:
            if mod.__dict__.get(attr) is original:
                self.patch(mod, attr, wrapper)

    def patch_method(self, cls, attr, name, on_exit=None):
        self.patch(cls, attr, self.wrap(name, cls.__dict__[attr], on_exit))

    def patch_jet_method(self, cls, attr):
        raw = cls.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.jet_call(fn, args, kwargs)

        self.patch(cls, attr, kind(wrapper) if kind else wrapper)

    def write_spans(self, path):
        """One JSON array per line: id, parent id, op id, name, start, end (s)."""
        t0 = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, op, name, start - t0, end - t0]) + "\n")

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


_JET_METHODS = (
    "variable", "constant", "deriv", "truncate", "derivative", "__add__", "__radd__",
    "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__", "__truediv__",
    "__rtruediv__", "log", "exp", "__pow__", "select",
)
_POWERSUM_ALGEBRA = (
    "__add__", "__sub__", "__mul__", "__rmul__", "shift", "deriv", "square", "mode_apply",
)


def install(rellich) -> Tracer:
    """Wrap the layer entry points of an imported rellich package."""
    tr = Tracer()
    q, v, m, r, il = (rellich.quadrature, rellich.verify, rellich.minseq, rellich.radial, rellich.iterlog)

    # powerseries: construction (the constructor and the algebra that ends in it)
    PowerSum = rellich.powerseries.PowerSum

    def on_construct(_result, args, _outer):
        ps = args[0]
        tr.counts["powerseries.construct_calls"] += 1
        bits = max(x.denominator.bit_length() for x in (*ps.coeffs, *ps.powers))
        if bits > tr.counts["powerseries.denominator_bits_max"]:
            tr.counts["powerseries.denominator_bits_max"] = bits

    tr.patch_method(PowerSum, "__init__", "powerseries.construct", on_construct)
    for attr in _POWERSUM_ALGEBRA:
        tr.patch_method(PowerSum, attr, "powerseries.construct")
    tr.patch_method(PowerSum, "integrate01", "powerseries.integrate01")

    def on_eval(_result, args, _outer):
        tr.counts["powerseries.eval_points"] += np.size(args[1])

    tr.patch_method(PowerSum, "__call__", "powerseries.eval", on_eval)

    # quadrature: results are counted at the outermost span only, because the
    # LOG path of integrate nests integrate_halfline
    def on_quad(result, _args, outer):
        if outer:
            tr.counts["quadrature.calls"] += 1
            tr.counts["quadrature.evals"] += result.evaluations
            tr.counts["quadrature.converged"] += bool(result.converged)

    for attr in ("integrate", "integrate_halfline"):
        tr.patch_everywhere([q, v, m, r], attr, "quadrature", on_quad)

    # iterlog
    def on_series(_result, args, _outer):
        tr.counts["iterlog.series_partial_points"] += np.size(args[1])

    tr.patch_everywhere([il, v], "series_partial", "iterlog.series_partial", on_series)

    # taylor: count-and-time only
    for attr in _JET_METHODS:
        tr.patch_jet_method(rellich.taylor.Jet, attr)

    # radial
    tr.patch_everywhere([r, v], "functional", "radial.functional")
    for attr in ("taylor", "__call__", "derivative_values"):
        tr.patch_method(r.RadialProfile, attr, "radial.profile_eval")

    # minseq
    tr.patch_everywhere([m], "rayleigh_quotient", "minseq.quotient")
    tr.patch_everywhere([m], "default_schedule", "minseq.schedule")

    # verify
    def on_check(report, _args, _outer):
        tr.counts["verify.rejected"] += sum(1 for res in report.results if res.rejected)

    tr.patch_everywhere([v], "check_identity", "verify.check", on_check)
    tr.patch_everywhere([v], "check_inequality", "verify.check", on_check)
    tr.patch_everywhere([v], "standard_suite", "verify.suite")

    # constants: every public function
    C = rellich.constants
    for attr in C.__all__:
        fn = C.__dict__[attr]
        if inspect.isfunction(fn):
            tr.patch_everywhere([C], attr, "constants")
    return tr


def layer_metrics(tr: Tracer, ops: int, setup: dict, calibration: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit), per traced op where the unit says so.

    ``setup`` holds the traced set-up spans' seconds (suite, schedule), which
    were recorded before ``tr`` was reset for the op loop.  Times are scaled
    by ``calibration``, the run's median calibration factor.
    """
    s, c = tr.stats, tr.counts
    per = 1.0 / max(ops, 1)
    per_s = per * calibration
    quad_calls = c["quadrature.calls"]
    quad_s = s["quadrature"].outer_s * calibration
    out = {
        "powerseries.construct_calls": (c["powerseries.construct_calls"] * per, "count/op"),
        "powerseries.construct_s": (s["powerseries.construct"].outer_s * per_s, "s/op"),
        "powerseries.integrate01_calls": (s["powerseries.integrate01"].calls * per, "count/op"),
        "powerseries.integrate01_s": (s["powerseries.integrate01"].outer_s * per_s, "s/op"),
        "powerseries.eval_points": (c["powerseries.eval_points"] * per, "count/op"),
        "powerseries.eval_s": (s["powerseries.eval"].outer_s * per_s, "s/op"),
        "powerseries.denominator_bits_max": (c["powerseries.denominator_bits_max"], "bits"),
        "quadrature.calls": (quad_calls * per, "count/op"),
        "quadrature.evals": (c["quadrature.evals"] * per, "count/op"),
        "quadrature.unconverged": ((quad_calls - c["quadrature.converged"]) * per, "count/op"),
        "quadrature.converged_ratio": (c["quadrature.converged"] / quad_calls if quad_calls else 1.0, "1"),
        "quadrature.self_s": (s["quadrature"].self_s * per_s, "s/op"),
        "quadrature.evals_per_s": (c["quadrature.evals"] / quad_s if quad_s else 0.0, "1/s"),
        "iterlog.series_partial_points": (c["iterlog.series_partial_points"] * per, "count/op"),
        "iterlog.series_partial_s": (s["iterlog.series_partial"].outer_s * per_s, "s/op"),
        "taylor.jet_ops": (tr.jet_ops * per, "count/op"),
        "taylor.jet_s": (tr.jet_s * per_s, "s/op"),
        "radial.functional_calls": (s["radial.functional"].calls * per, "count/op"),
        "radial.functional_self_s": (s["radial.functional"].self_s * per_s, "s/op"),
        "radial.profile_evals": (s["radial.profile_eval"].outer_calls * per, "count/op"),
        "radial.profile_eval_s": (s["radial.profile_eval"].outer_s * per_s, "s/op"),
        "minseq.quotient_calls": (s["minseq.quotient"].calls * per, "count/op"),
        "minseq.quotient_self_s": (s["minseq.quotient"].self_s * per_s, "s/op"),
        "minseq.schedule_s": (setup["minseq.schedule"] * calibration, "s"),
        "verify.checks": (s["verify.check"].calls * per, "count/op"),
        "verify.rejected": (c["verify.rejected"] * per, "count/op"),
        "verify.check_self_s": (s["verify.check"].self_s * per_s, "s/op"),
        "verify.suite_s": (setup["verify.suite"] * calibration, "s"),
        "constants.calls": (s["constants"].calls * per, "count/op"),
        "constants.s": (s["constants"].outer_s * per_s, "s/op"),
    }
    return out

