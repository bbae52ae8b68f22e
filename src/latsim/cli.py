"""Command-line front end.

Subcommands: count, enumerate, classify, j, height, verify.
classify takes a quadruple (--tau) or a basis (--basis), whose quadruple it
prints first. j and its error bound and the Weil-height bound and its
ceiling print with 17 significant digits, so the text parses back to the
doubles.
Exit codes: 0 ok, 1 failed verification, 2 usage error (argparse default),
invalid input (ValueError, ArithmeticError) or out of memory (MemoryError),
141 (128 + SIGPIPE) when the reader closes standard output early.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np

from . import census, classes, lattice, modular, verify
from .census import ClassSetId

SET_IDS = {s.value: s for s in ClassSetId}
# one line per class row (a, b, c, d, kind, height); jsonl as json.dumps
# writes the record {"a": a, ..., "height": height}
_ROW_FORMATS = {
    "jsonl": '{{"a": {}, "b": {}, "c": {}, "d": {}, "kind": "{}", '
             '"height": {}}}\n',
    "csv": "{},{},{},{},{},{}\n",
    "plain": "({},{},{},{}) {} height={}\n",
}
_KIND_NAMES = np.array([str(kind) for kind in classes.KINDS])


def _parse_quadruple(text: str) -> classes.TauQuadruple:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected a,b,c,d")
    try:
        a, b, c, d = (int(p) for p in parts)
        return classes.TauQuadruple(a, b, c, d)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_basis(text: str) -> lattice.PlanarLattice:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected four rationals p/q (column-major)")
    try:
        m11, m21, m12, m22 = (Fraction(p) for p in parts)
        return lattice.PlanarLattice((m11, m21), (m12, m22))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latsim",
        description="Classify, enumerate and count similarity classes of "
                    "planar arithmetic lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count classes of height <= T")
    p.add_argument("--set", choices=SET_IDS, required=True)
    p.add_argument("--max-height", type=int, required=True, metavar="T")

    p = sub.add_parser("enumerate", help="stream classes of height <= T")
    p.add_argument("--set", choices=SET_IDS, required=True)
    p.add_argument("--max-height", type=int, required=True, metavar="T")
    p.add_argument("--format", choices=_ROW_FORMATS, default="jsonl")

    p = sub.add_parser("classify", help="classify a quadruple or a basis")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--tau", type=_parse_quadruple, metavar="a,b,c,d")
    given.add_argument("--basis", type=_parse_basis,
                       metavar="p1/q1,p2/q2,p3/q3,p4/q4",
                       help="basis matrix entries, column-major")

    p = sub.add_parser("j", help="j-invariant of a class")
    p.add_argument("--tau", type=_parse_quadruple, required=True,
                   metavar="a,b,c,d")
    p.add_argument("--normalized", action="store_true")

    p = sub.add_parser("height", help="Weil-height bound of a class")
    p.add_argument("--tau", type=_parse_quadruple, required=True,
                   metavar="a,b,c,d")

    p = sub.add_parser("verify", help="run a self-verification suite")
    p.add_argument("--suite", choices=sorted(verify.SUITES), required=True)
    p.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)

    return parser


def _cmd_count(args) -> int:
    print(census.count_fast(SET_IDS[args.set], args.max_height))
    return 0


def _cmd_enumerate(args) -> int:
    line = _ROW_FORMATS[args.format].format
    for a, b, c, d, height in census._class_blocks(SET_IDS[args.set],
                                                   args.max_height):
        kind = _KIND_NAMES[classes.kind_entries(a, b, c, d)]
        sys.stdout.write("".join(map(line, a.tolist(), b.tolist(),
                                     c.tolist(), d.tolist(), kind.tolist(),
                                     height.tolist())))
    return 0


def _cmd_classify(args) -> int:
    q = args.tau
    if q is None:
        # the canonical tau of the basis' Gram form, in lowest terms, is the
        # class quadruple
        tau = lattice.canonical_tau(lattice.gram(args.basis))
        q = classes.TauQuadruple(*tau._ints)
        print(f"tau={q.a},{q.b},{q.c},{q.d}")
    kind = classes.classify(q)
    line = f"{kind} height_quadruple={classes.max_height(q)}"
    if kind is classes.ClassKind.WELL_ROUNDED:
        line += f" height_pair={q.b}"
    print(line)
    return 0


def _cmd_j(args) -> int:
    tau = modular.tau_of_quadruple(args.tau)
    fn = modular.j_normalized if args.normalized else modular.j_invariant
    jv = fn(tau)
    # every digit of each double, so the text parses back to value and bound
    print(f"j={jv.value.real:.17g}{jv.value.imag:+.17g}i "
          f"est_error={jv.est_error:.17g} terms={modular.J_TERMS}")
    return 0


def _cmd_height(args) -> int:
    q = args.tau
    # every digit, so the text parses back to the doubles
    print(f"weil_height_bound={classes.weil_height_bound(q):.17g} "
          f"ceiling={classes.weil_height_ceiling(q):.17g}")
    return 0


def _cmd_verify(args) -> int:
    return 0 if verify.run_suite(args.suite, args.seed) else 1


COMMANDS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "classify": _cmd_classify,
    "j": _cmd_j,
    "height": _cmd_height,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        # a reader that closed the pipe is found here, not at exit
        sys.stdout.flush()
        return code
    except (ValueError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter's last flush of what stdout still buffers goes
        # nowhere instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
