"""Command-line front end: constants, tables, verification suites, scans.

Output is deterministic for a fixed configuration (including the suite
seed): CSV with '.' decimals and 17-significant-digit floats, or JSON.
Exit codes: 0 all checks pass, 1 check failure, 2 usage or domain error.
A config file of ``key = value`` lines pointed to by $RELLICH_CONFIG
supplies defaults; explicit flags win.  Its ``K`` is the number of series
terms for ``verify``; a scan's number of log factors comes only from
``scan --K``.
"""

from __future__ import annotations

import argparse
import errno
import inspect
import io
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from . import constants as C
from . import minseq, verify
from .errors import DivergenceError, DomainError
from .quadrature import QuadratureSpec

CONFIG_ENV = "RELLICH_CONFIG"

_CONFIG_KEYS = {
    "seed": int,
    "rel-tol": float,
    "abs-tol": float,
    "K": int,
    "format": str,
    "out": str,
    "suite-size": int,
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def load_config(path: str | None) -> dict:
    cfg: dict = {}
    if not path:
        return cfg
    try:
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise DomainError(f"malformed config line: {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _CONFIG_KEYS:
                    raise DomainError(f"unknown config key: {key!r}")
                try:
                    cfg[key] = _CONFIG_KEYS[key](value)
                except ValueError as exc:
                    raise DomainError(f"config key {key!r}: {exc}") from exc
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    return cfg


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --out {out_path!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _check_out(out_path: str | None):
    """Raise _emit's error for an --out path it could not open (a directory,
    or a missing parent directory), without opening the path."""
    if not out_path:
        return
    parent = os.path.dirname(os.path.abspath(out_path))
    if os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return
    raise DomainError(f"cannot write --out {out_path!r}: {os.strerror(code)}")


def _rows_to_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(x) for x in row) + "\n")
    return buf.getvalue()


def _rows_to_json(header: list[str], rows: list[list]) -> str:
    data = [dict(zip(header, row)) for row in rows]
    return json.dumps(data, indent=2) + "\n"


def _output(header, rows, fmt: str, out_path):
    text = _rows_to_csv(header, rows) if fmt == "csv" else _rows_to_json(header, rows)
    _emit(text, out_path)


def _quad_spec(args) -> QuadratureSpec:
    return QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol)


def _row(a, value, m="", k="", detail="") -> list:
    """One output row (family, N, m, k, l, value, detail) of the requested
    family at the requested N."""
    return [a.family, a.N, m, k, "", value, detail]


def _amn_rows(a) -> list[list]:
    rep = C.a_mn(a.N, a.m, per_mode=True)
    detail = f"argmin_k={rep.argmin_k}; branch={rep.branch}"
    if rep.exact is not None:
        detail += f"; exact={rep.exact}"
    rows = [_row(a, rep.value, a.m, rep.argmin_k, detail)]
    rows += [["amn-candidate", a.N, a.m, k, "", value, ""] for k, value in rep.per_mode_values]
    return rows


def _threshold_rows(a) -> list[list]:
    N = a.N
    rows = [["m-star", N, "", "", "", C.m_star(N), ""], ["k-bar", N, "", "", "", float(C.k_bar(N)), ""]]
    for k in range(1, C.k_bar(N) + 1):
        lo, hi = C.m1k(N, k), C.m2k(N, k)
        rows.append(["m1", N, "", k, "", lo if lo is not None else math.nan, ""])
        rows.append(["m2", N, "", k, "", hi if hi is not None else math.nan, ""])
    if a.m is not None:
        rows.append(["x0", N, a.m, "", "", C.x0(N, a.m), ""])
    return rows


def _higher_order_rows(a) -> list[list]:
    terms = C.higher_order_coefficients(a.N, a.order, a.l, C.HigherOrderVariant(a.variant))
    rows = []
    for spec, coeff in terms:
        desc = f"{spec.kind} order={spec.delta_order} weight=|x|^{spec.weight_power}" + (
            " series" if spec.with_series else ""
        )
        rows.append(["higher-order", a.N, a.order, "", a.l, float(coeff), desc])
    return rows


class _ConstantFamily(NamedTuple):
    rows: Callable[[argparse.Namespace], list[list]]  # output rows for the parsed flags
    needs_m: bool = False


# every family of `rellich constants`, in the order --help lists them
_CONSTANT_FAMILIES: dict[str, _ConstantFamily] = {
    "hardy": _ConstantFamily(lambda a: [_row(a, C.hardy_constant(a.N))]),
    "rellich": _ConstantFamily(lambda a: [_row(a, C.rellich_constant(a.N))]),
    "rellich-grad": _ConstantFamily(lambda a: [_row(a, C.rellich_grad_constant(a.N))]),
    "sigma": _ConstantFamily(lambda a: [_row(a, C.sigma(a.m, a.N), a.m)], needs_m=True),
    "sigma-bar": _ConstantFamily(lambda a: [_row(a, C.sigma_bar(a.m, a.N), a.m)], needs_m=True),
    "per-mode": _ConstantFamily(
        lambda a: [_row(a, C.per_mode_quotient(a.k, a.N, a.m), a.m, a.k)], needs_m=True
    ),
    "amn": _ConstantFamily(_amn_rows, needs_m=True),
    "reduction": _ConstantFamily(lambda a: [_row(a, C.reduction_constant_A(a.N, a.m), a.m)], needs_m=True),
    "section2": _ConstantFamily(
        lambda a: [_row(a, value, detail=key) for key, value in C.section2_constants(a.N).items()]
    ),
    "thresholds": _ConstantFamily(_threshold_rows),
    "higher-order": _ConstantFamily(_higher_order_rows),
    "bessel-zero": _ConstantFamily(lambda a: [["bessel-zero", "", "", "", "", C.brezis_vazquez_z0(), ""]]),
}


def cmd_constants(args) -> int:
    family = _CONSTANT_FAMILIES[args.family]
    if family.needs_m and args.m is None:
        raise DomainError(f"family {args.family!r} requires --m")
    header = ["family", "N", "m", "k", "l", "value", "detail"]
    _output(header, family.rows(args), args.format, args.out)
    return 0


def cmd_amn_table(args) -> int:
    N = C._check_dimension(args.N, 5)
    try:
        grid = [float(tok) for tok in args.grid.split(",") if tok.strip()]
    except ValueError as exc:
        raise DomainError(f"malformed m grid {args.grid!r}: {exc}") from exc
    if not grid:
        raise DomainError("empty m grid")
    upper = (N - 4) / 2.0
    kept = [m for m in grid if 0.0 <= m < upper]
    clipped = [m for m in grid if not (0.0 <= m < upper)]
    if clipped:
        print(
            f"note: clipped {len(clipped)} grid point(s) outside [0, {upper:g}): "
            + ", ".join(f"{m:g}" for m in clipped),
            file=sys.stderr,
        )
    rows = []
    for m in kept:
        rep = C.a_mn(N, m)
        rows.append([m, rep.value, rep.argmin_k, rep.branch])
    _output(["m", "a_mn", "argmin_k", "branch"], rows, args.format, args.out)
    return 0


def cmd_verify(args) -> int:
    if args.N is not None and args.N < 5:
        raise DomainError("verification targets require N >= 5")
    _check_out(args.out)  # before the run, which takes seconds
    suite = verify.standard_suite(seed=args.seed, size=args.suite_size)
    if args.N is not None:
        suite = [case for case in suite if case.N == args.N]
        if not suite:
            raise DomainError(f"no suite cases in dimension N = {args.N}")
    spec = _quad_spec(args)
    kinds = {"identities": ["identity"], "inequalities": ["inequality"], "all": ["identity", "inequality"]}[
        args.set
    ]
    rows = []
    all_passed = True
    first_failure = None
    for kind in kinds:
        for name in verify.registry_targets(kind):
            if kind == "identity":
                rep = verify.check_identity(name, suite, spec)
            else:
                rep = verify.check_inequality(name, suite, args.K, spec)
            rejected = sum(r.rejected for r in rep.results)
            rows.append([name, kind, rep.worst_case, rejected, "pass" if rep.passed else "FAIL"])
            print(f"{name}: {'pass' if rep.passed else 'FAIL'} (worst {_fmt(rep.worst_case)})")
            if not rep.passed and first_failure is None:
                first_failure = (name, rep.worst_case)
                all_passed = False
    if args.out:
        _output(["target", "kind", "worst", "rejected_cases", "status"], rows, args.format, args.out)
    if not all_passed:
        print(f"FIRST FAILURE: {first_failure[0]} worst={_fmt(first_failure[1])}", file=sys.stderr)
        return 1
    return 0


def cmd_registry(args) -> int:
    rows = [[name, kind, desc] for name, kind, desc in verify.registry_describe()]
    _output(["target", "kind", "description"], rows, args.format, args.out)
    return 0


def _parse_schedule(text: str, N: int, m: float, mode_k: int) -> list[minseq.MinSeqParams]:
    """Schedule syntax: 'eps:a1[:a2...];eps:a1...' (semicolon-separated steps)."""
    steps = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) < 2:
            raise DomainError(f"malformed schedule step {chunk!r}; expected eps:a1[:a2...]")
        try:
            eps = float(parts[0])
            a = tuple(float(x) for x in parts[1:])
        except ValueError as exc:
            raise DomainError(f"malformed schedule step {chunk!r}: {exc}") from exc
        steps.append(minseq.MinSeqParams(N, m, eps, a, mode_k=mode_k))
    if not steps:
        raise DomainError("empty schedule")
    return steps


def cmd_scan(args) -> int:
    try:
        family = minseq.ScanFamily(args.family)
    except ValueError as exc:
        names = dict.fromkeys(name for f in minseq.ScanFamily for name in (f.value, f.target.name))
        raise DomainError(f"unknown scan family {args.family!r}; known: {', '.join(names)}") from exc
    mode_k = args.k or 0
    m = args.m or 0.0
    if args.schedule and args.schedule != "default":
        schedule = _parse_schedule(args.schedule, args.N, m, mode_k)
    else:
        schedule = minseq.default_schedule(family, args.N, m, mode_k=mode_k, K=args.K)
        if (carried := max(len(p.a) for p in schedule)) < args.K:
            note = f"the default {family.value} schedule carries {carried} log factor(s), not the {args.K} of --K"
            print(f"note: {note}", file=sys.stderr)
    result = minseq.scan_to_limit(family, schedule, _quad_spec(args))
    text = minseq.scan_result_csv(result)
    if args.format == "json":
        rows = [
            {
                "step": i,
                "epsilon": p.epsilon,
                "a": list(p.a),
                "quotient": q,
                "theoretical": result.theoretical,
            }
            for i, (p, q) in enumerate(zip(result.schedule, result.quotients))
        ]
        text = json.dumps(rows, indent=2) + "\n"
    _emit(text, args.out)
    if not result.monotone:
        print("note: scan is not monotone along the schedule", file=sys.stderr)
    uncertified = [f"{i} ({n})" for i, n in enumerate(result.unconverged) if n]
    if uncertified:
        print(
            "note: unconverged quadratures at scan steps " + ", ".join(uncertified)
            + "; those quotients are not certified",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rellich",
        description="Best constants in Hardy-Rellich-type inequalities and their numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--rel-tol", type=float, default=None, help="quadrature relative tolerance")
        p.add_argument("--abs-tol", type=float, default=None, help="quadrature absolute tolerance")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("constants", help="closed-form and minimized best constants")
    p.add_argument(
        "--family",
        required=True,
        choices=tuple(_CONSTANT_FAMILIES),
    )
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--l", type=int, default=0)
    p.add_argument("--order", type=int, default=2, help="polyharmonic order for higher-order families")
    p.add_argument(
        "--variant",
        choices=tuple(v.value for v in C.HigherOrderVariant),
        default="rellich-chain",
    )
    common(p)
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("amn-table", help="piecewise table of the weighted gradient constant")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--grid", required=True, help="comma-separated m values")
    common(p)
    p.set_defaults(fn=cmd_amn_table)

    p = sub.add_parser("verify", help="run the identity/inequality registry on the standard suite")
    p.add_argument("--set", choices=("identities", "inequalities", "all"), default="all")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--K", type=int, default=None, help="series terms for inequality checks")
    p.add_argument("--N", type=int, default=None, help="restrict the suite to one dimension")
    p.add_argument("--suite-size", type=int, default=None)
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("registry", help="list the verification registry")
    common(p)
    p.set_defaults(fn=cmd_registry)

    p = sub.add_parser("scan", help="Rayleigh-quotient scan along a minimizing-sequence schedule")
    p.add_argument("--family", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--m", type=float, default=0.0)
    p.add_argument("--k", type=int, default=0, help="spherical mode for per-mode scans")
    p.add_argument(
        "--K",
        type=int,
        default=1,
        help="number of iterated-log factors (flag only: the config's K sets verify's series terms)",
    )
    p.add_argument("--schedule", default="default", help="'default' or 'eps:a1[:a2..];...'")
    common(p)
    p.set_defaults(fn=cmd_scan)
    return parser


def _default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


# the library's own defaults, so that the commands follow any change to them
_DEFAULTS = {
    "seed": _default(verify.standard_suite, "seed"),
    "rel_tol": QuadratureSpec.rel_tol,
    "abs_tol": QuadratureSpec.abs_tol,
    "K": _default(verify.check_inequality, "K"),
    "format": "csv",
    "out": None,
    "suite_size": _default(verify.standard_suite, "size"),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(os.environ.get(CONFIG_ENV))
        for key, default in _DEFAULTS.items():
            if getattr(args, key, None) is None:
                cfg_key = key.replace("_", "-")
                setattr(args, key, config.get(cfg_key, default))
        return args.fn(args)
    except (DomainError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
