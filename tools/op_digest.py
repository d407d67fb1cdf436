"""One sha256 per benchmark workload over the exact outputs of every op.

    python3 tools/op_digest.py --seed N [--workload W] [--src DIR]

Builds the ops of ``perfbench/workloads.py`` for the seed, runs each once in
list order and hashes its output as ``float.hex`` tokens: scan quotients and
their unconverged counts; registry case values, flags and unconverged
counts; functional value, cross value, error estimate, unconverged count and
components.  An op that raises contributes its exception's type name.
Prints one line per workload: name, digest, op count.  Two trees compute
bitwise-identical outputs when their digests agree; ``--src`` points at the
``src/`` directory of the package to run (default: this checkout's).
"""

from __future__ import annotations

import argparse
import hashlib
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


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        try:
            tokens = output_tokens(op.run())
        except Exception as exc:  # a raising op is part of the output
            tokens = ["raised", type(exc).__name__]
        h.update((" ".join(map(str, op.key)) + ":" + " ".join(tokens) + "\n").encode())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append", help="repeatable; default: every workload")
    ap.add_argument("--src", default=str(ROOT / "src"), help="directory holding the rellich package")
    args = ap.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT / "perfbench")]
    import rellich
    import workloads

    for name in args.workload or list(workloads.WORKLOADS):
        _state, ops = workloads.WORKLOADS[name].build(rellich, args.seed)
        print(name, digest(ops), len(ops))
    return 0


if __name__ == "__main__":
    sys.exit(main())
