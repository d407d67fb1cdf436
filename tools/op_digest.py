"""One sha256 per benchmark workload over the exact outputs of every op.

    python3 tools/op_digest.py --seed N [--workload W] [--src DIR] [--against DIR]

Builds the ops of ``perfbench/workloads.py`` for the seed, runs each once in
list order and hashes its output as ``float.hex`` tokens: scan quotients and
their unconverged counts; registry case values, flags and unconverged
counts; functional value, cross value, error estimate, unconverged count and
components.  An op that raises contributes its exception's type name.
Prints one line per workload: name, digest, op count.  Two trees compute
bitwise-identical outputs when their digests agree; ``--src`` points at the
``src/`` directory of the package to run (default: this checkout's).

``--against DIR`` runs the same ops on the package under DIR too (a checkout
or its ``src/``), each tree in its own subprocess.  After the digest lines,
which are this tree's, it prints one line per op whose outputs differ:
workload, op key and the largest relative difference of its float fields
(inf where a count, a flag or an exception name differs).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _token(x) -> str:
    return float.hex(x) if isinstance(x, float) else repr(x)


def output_tokens(out) -> list[str]:
    """The exact content of one op's output, as strings."""
    if hasattr(out, "quotients"):  # ScanResult
        fields = [*out.quotients, *out.unconverged]
    elif hasattr(out, "results"):  # CheckReport
        fields = [out.passed]
        for r in out.results:
            fields += [r.index, r.value, r.rejected, r.unconverged]
    else:  # FunctionalValue
        fields = [out.value, out.cross_value, out.quadrature_error, out.unconverged]
        for label, value in out.components.items():
            fields += [label, value]
    return [_token(x) for x in fields]


def op_line(op) -> str:
    """'key:tokens', the text one op adds to its workload's digest."""
    try:
        tokens = output_tokens(op.run())
    except Exception as exc:  # a raising op is part of the output
        tokens = ["raised", type(exc).__name__]
    return " ".join(map(str, op.key)) + ":" + " ".join(tokens)


def _hash(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update((line + "\n").encode())
    return h.hexdigest()


def digest(ops) -> str:
    return _hash(op_line(op) for op in ops)


def _float(token: str) -> float | None:
    """A finite float field's value; None for any other token."""
    return float.fromhex(token) if "0x" in token else None


def max_rel_diff(line: str, other: str) -> float:
    """The largest relative difference between the float fields of two
    op_lines of one op; inf where any other field differs."""
    mine, theirs = line.split(":", 1)[1].split(), other.split(":", 1)[1].split()
    if len(mine) != len(theirs):
        return math.inf
    worst = 0.0
    for a, b in zip(mine, theirs):
        if a == b:
            continue
        x, y = _float(a), _float(b)
        if x is None or y is None:
            return math.inf
        worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def _tree_lines(src: Path, seed: int, names: list[str]) -> dict[str, list[str]]:
    """Each workload's op_lines, computed on the package in src by a fresh
    interpreter."""
    cmd = [sys.executable, __file__, "--seed", str(seed), "--src", str(src), "--lines"]
    for name in names:
        cmd += ["--workload", name]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = {name: [] for name in names}
    for row in out.splitlines():
        name, line = row.split("\t", 1)
        lines[name].append(line)
    return lines


def compare(names, mine: dict, theirs: dict) -> list[str]:
    """The digest lines of mine, then one line per op that differs."""
    report = [f"{name} {_hash(mine[name])} {len(mine[name])}" for name in names]
    for name in names:
        for line, other in zip(mine[name], theirs[name]):
            if line != other:
                key = line.split(":", 1)[0]
                report.append(f"{name} {key}: {max_rel_diff(line, other):.3g}")
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
        mine, theirs = (_tree_lines(src, args.seed, names) for src in (Path(args.src), other))
        print("\n".join(compare(names, mine, theirs)))
        return 0
    sys.path[:0] = [args.src]
    import rellich

    for name in names:
        _state, ops = workloads.WORKLOADS[name].build(rellich, args.seed)
        if args.lines:
            for op in ops:
                print(f"{name}\t{op_line(op)}")
        else:
            print(name, digest(ops), len(ops))
    return 0


if __name__ == "__main__":
    sys.exit(main())
