"""One sha256 per benchmark workload over the exact outputs of every op.

    python3 tools/op_digest.py --seed N [--workload W] [--src DIR] [--against DIR]

Builds the ops of ``perfbench/workloads.py`` for the seed, runs each once in
list order and hashes its output as ``float.hex`` tokens: scan quotients,
their unconverged counts and the theoretical constant; registry case
values, flags and unconverged counts; functional value, cross value, error
estimate (its token prefixed ``err=``), unconverged count and components.
An op that raises contributes its exception's type name.
Each op's quadrature counts (``count_quadrature``: calls, evaluations,
unconverged) are recorded next to its tokens but left out of the hash.
Prints one line per workload: name, digest, op count.  Two trees compute
bitwise-identical outputs when their digests agree; ``--src`` points at the
``src/`` directory of the package to run (default: this checkout's).

``--against DIR`` runs the same ops on the package under DIR too (a checkout
or its ``src/``), each tree in its own subprocess, the two trees' ops
matched by key.  After the digest lines, which are this tree's, it prints
one summary line per workload where some op's outputs differ: how many ops
differ, of how many; how many of those differ in a count, a flag or an
exception name; the largest relative move of the value fields and, apart
from it, of the error-estimate fields (a functional's quadrature error),
each with its op key and the field's two values, this tree's first (a move
of 1 may be a round-off residual of 2.2e-16 that became 4.4e-16).  Then
one line per op that differs in a count, a flag or an exception name, and
one per op that only one tree has; last, one line per workload whose
quadrature totals (calls, evaluations, unconverged, summed over its ops)
differ, with both trees' totals.  It exits 1 when any op line or any
workload's quadrature totals differ, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


_ERR = "err="  # the prefix of an error-estimate field's token


class _Error(float):
    """An error-estimate field, tokenized with the ``_ERR`` prefix."""


def _token(x) -> str:
    if isinstance(x, _Error):
        return _ERR + float.hex(x)
    return float.hex(x) if isinstance(x, float) else repr(x)


def output_tokens(out) -> list[str]:
    """The exact content of one op's output, as strings."""
    if hasattr(out, "quotients"):  # ScanResult
        fields = [*out.quotients, *out.unconverged, out.theoretical]
    elif hasattr(out, "results"):  # CheckReport
        fields = [out.passed]
        for r in out.results:
            fields += [r.index, r.value, r.rejected, r.unconverged]
    else:  # FunctionalValue
        fields = [out.value, out.cross_value, _Error(out.quadrature_error), out.unconverged]
        for label, value in out.components.items():
            fields += [label, value]
    return [_token(x) for x in fields]


def op_record(op) -> tuple[str, tuple[int, int, int]]:
    """('key:tokens', the text one op adds to its workload's digest; its
    quadrature counts (calls, evaluations, unconverged))."""
    from rellich.quadrature import count_quadrature

    with count_quadrature() as counts:
        try:
            tokens = output_tokens(op.run())
        except Exception as exc:  # a raising op is part of the output
            tokens = ["raised", type(exc).__name__]
    line = " ".join(map(str, op.key)) + ":" + " ".join(tokens)
    return line, (counts.calls, counts.evaluations, counts.unconverged)


def _hash(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update((line + "\n").encode())
    return h.hexdigest()


def digest(ops) -> str:
    return _hash(op_record(op)[0] for op in ops)


def _float(token: str) -> float | None:
    """A finite float field's value; None for any other token."""
    return float.fromhex(token.removeprefix(_ERR)) if "0x" in token else None


_NO_MOVE = (0.0, None, None)


def field_moves(line: str, other: str) -> tuple[bool, tuple, tuple]:
    """(whether a count, a flag or an exception name differs; the largest
    relative move of the value fields; that of the error-estimate fields)
    between two op lines of one op, each move as (move, the field in line,
    the field in other), ``_NO_MOVE`` where no such field moves."""
    mine, theirs = line.split(":", 1)[1].split(), other.split(":", 1)[1].split()
    if len(mine) != len(theirs):
        return True, _NO_MOVE, _NO_MOVE
    in_kind, moves = False, [_NO_MOVE, _NO_MOVE]  # of the value fields, of the error estimates
    for a, b in zip(mine, theirs):
        if a == b:
            continue
        x, y = _float(a), _float(b)
        error = a.startswith(_ERR)
        if x is None or y is None or error != b.startswith(_ERR):
            in_kind = True
        elif x != y:  # not a zero against a zero of the other sign
            move = abs(x - y) / max(abs(x), abs(y))
            if move > moves[error][0]:
                moves[error] = (move, x, y)
    return in_kind, *moves


def summary(name: str, ours: dict, other: dict) -> str | None:
    """One line on the ops of workload ``name`` whose outputs differ, the
    two trees' op lines by key; None where none differs."""
    differ = in_kind = 0
    worst = [(_NO_MOVE, None), (_NO_MOVE, None)]  # (move, op key): of the value fields, of the error estimates
    for key, line in ours.items():
        if key not in other or line == other[key]:
            continue
        differ += 1
        kind, *moves = field_moves(line, other[key])
        in_kind += kind
        for i, move in enumerate(moves):
            if move[0] > worst[i][0][0]:
                worst[i] = (move, key)
    if not differ:
        return None

    def largest(what: str, at) -> str:
        (move, x, y), key = at
        where = f" at {key} ({x!r} against {y!r})" if key else ""
        return f"largest {what} move {move:.3g}{where}"

    return (
        f"{name}: {differ} of {len(ours)} ops differ, {in_kind} in a count, flag or exception; "
        f"{largest('value', worst[0])}; {largest('error-estimate', worst[1])}"
    )


def _tree_lines(src: Path, seed: int, names: list[str]) -> tuple[dict, dict]:
    """Each workload's op lines and its quadrature totals, computed on the
    package in src by a fresh interpreter."""
    cmd = [sys.executable, __file__, "--seed", str(seed), "--src", str(src), "--lines"]
    for name in names:
        cmd += ["--workload", name]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines, totals = {name: [] for name in names}, dict.fromkeys(names, (0, 0, 0))
    for row in out.splitlines():
        name, line, counts = row.split("\t")
        lines[name].append(line)
        totals[name] = tuple(t + int(c) for t, c in zip(totals[name], counts.split()))
    return lines, totals


def _by_key(lines) -> dict[str, str]:
    return {line.split(":", 1)[0]: line for line in lines}


def compare(names, mine: dict, theirs: dict, totals: tuple[dict, dict] | None = None) -> list[str]:
    """The digest lines of mine, then per workload its :func:`summary` line,
    one line per op that differs in a count, a flag or an exception name,
    matched by op key, and one per op of only one tree; then, given
    ``totals`` = (mine, theirs), each workload's quadrature (calls,
    evaluations, unconverged), one line per workload where they differ."""
    report = [f"{name} {_hash(mine[name])} {len(mine[name])}" for name in names]
    for name in names:
        ours, other = _by_key(mine[name]), _by_key(theirs[name])
        if (line := summary(name, ours, other)) is not None:
            report.append(line)
        for key, line in ours.items():
            if key in other and line != other[key] and field_moves(line, other[key])[0]:
                report.append(f"{name} {key}: a count, flag or exception differs")
        report += [f"{name} {key}: only in this tree" for key in ours if key not in other]
        report += [f"{name} {key}: only in the other tree" for key in other if key not in ours]
    for name in names if totals else ():
        ours, other = totals[0][name], totals[1][name]
        if ours != other:
            report.append(
                f"{name}: quadrature calls, evaluations, unconverged {' '.join(map(str, ours))} "
                f"against {' '.join(map(str, other))}"
            )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the rellich package")
    ap.add_argument("--against", help="a second tree to run the ops on and compare with")
    ap.add_argument("--lines", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "perfbench")]
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    if args.against:
        other = Path(args.against)
        if (other / "src" / "rellich").is_dir():
            other = other / "src"
        (mine, my_totals), (theirs, their_totals) = (
            _tree_lines(src, args.seed, names) for src in (Path(args.src), other)
        )
        report = compare(names, mine, theirs, (my_totals, their_totals))
        print("\n".join(report))
        return int(len(report) > len(names))  # any line past the digests is a difference
    sys.path[:0] = [args.src]
    import rellich

    for name in names:
        _state, ops = workloads.WORKLOADS[name].build(rellich, args.seed)
        if args.lines:
            for op in ops:
                line, counts = op_record(op)
                print(f"{name}\t{line}\t{' '.join(map(str, counts))}")
        else:
            print(name, digest(ops), len(ops))
    return 0


if __name__ == "__main__":
    sys.exit(main())
