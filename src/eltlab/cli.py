"""Batch command-line front end.

One subcommand per computation, deterministic byte-identical output
for identical inputs and seeds, and no interactive mode.  Exit codes:
0 success, 1 usage or parse error, 2 domain error (for example a
singular determinant), 3 verification failure.

Machine mode (--machine) emits one value per line prefixed by a field
name; human mode prints bare results.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from . import assign, matrix, poly, puiseux, transfer
from .core import format_scalar, get_ring, parse_scalar
from .errors import ELTError, ParseError

_SUITE_CHOICES = ("all",) + transfer.SUITE_FAMILIES


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit status 2; this front end
    reserves 2 for domain errors, so remap to 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="eltlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, path: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if path:
            p.add_argument("path", help="input file")
        p.add_argument(
            "--machine", action="store_true",
            help="field-prefixed line output",
        )
        return p

    add("det", "determinant of a matrix")
    add("adj", "adjoint of a matrix")
    p = add("qinv", "quasi-inverse of a matrix")
    p.add_argument("--layer-ring", choices=("Q", "Z"), default="Q")
    add("charpoly", "characteristic polynomial of a matrix")
    p = add("roots", "root description of a polynomial")
    p.add_argument("--layer-ring", choices=("Q", "Z"), default="Q")
    p = add("eig-verify", "grade a claimed eigenpair")
    p.add_argument("--value", required=True, help="eigenvalue scalar")
    p.add_argument("--vector", required=True, help="comma-separated scalar entries")
    add("trace", "trace of a matrix")
    add("etr", "essential trace of a matrix")
    p = add("nilpotent", "least power with all layers zero")
    p.add_argument("--bound", type=_positive, default=None,
                   help="power bound (default n^2)")
    add("cycles", "simple cycles of the finite-entry digraph")
    add("hungarian", "Hungarian row scaling of a (tropical) matrix")
    add("eltrop", "tropicalisation of a series")
    p = add("verify", "run identity verification suites", path=False)
    p.add_argument("name", choices=_SUITE_CHOICES)
    p.add_argument("--trials", type=_positive, default=1000)
    p.add_argument("--seed", type=_positive, default=None,
                   help="default 42, or the ELTLAB_SEED variable")
    return parser


def _read(path: str) -> str:
    """The text of a UTF-8 file, with universal newlines as text mode
    reads them; bytes that are not UTF-8 are a ParseError."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _emit_scalar(args, name: str, value) -> None:
    text = format_scalar(value)
    print(f"{name}: {text}" if args.machine else text)


def _emit_matrix(args, m: matrix.ELTMatrix) -> None:
    print(m.to_text(structured=args.machine))


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ELTLAB_SEED")
    if env is not None:
        try:
            value = int(env)
        except ValueError:
            raise ParseError(f"ELTLAB_SEED is not an integer: {env!r}")
        if value <= 0:
            raise ParseError("ELTLAB_SEED must be positive")
        return value
    return 42


def _cmd_det(args) -> int:
    _emit_scalar(args, "det", matrix.det(matrix.ELTMatrix.from_text(_read(args.path))))
    return 0


def _cmd_adj(args) -> int:
    _emit_matrix(args, matrix.adjoint(matrix.ELTMatrix.from_text(_read(args.path))))
    return 0


def _cmd_qinv(args) -> int:
    a = matrix.ELTMatrix.from_text(_read(args.path))
    result = matrix.quasi_inverse(a, get_ring(args.layer_ring))
    _emit_matrix(args, result.inverse)
    return 0


def _cmd_charpoly(args) -> int:
    p = matrix.charpoly(matrix.ELTMatrix.from_text(_read(args.path)))
    text = poly.format_polynomial(p)
    print(f"charpoly: {text}" if args.machine else text)
    return 0


def _cmd_roots(args) -> int:
    p = poly.parse_polynomial(_read(args.path))
    description = poly.elt_roots(p, get_ring(args.layer_ring))
    for corner in description.corners:
        print(f"corner {corner.tangible}: layers {corner.layers}")
    for iv in description.intervals:
        print(f"interval ({iv.lower}, {iv.upper}): layers {iv.layers}")
    print("neg-inf: root" if description.neg_infinity_root else "neg-inf: not-a-root")
    return 0


def _cmd_eig_verify(args) -> int:
    a = matrix.ELTMatrix.from_text(_read(args.path))
    value = parse_scalar(args.value)
    vector = matrix.parse_vector(args.vector)
    status = matrix.eigen_verify(a, value, vector)
    print(f"status: {status}" if args.machine else str(status))
    return 0


def _cmd_trace(args) -> int:
    _emit_scalar(args, "trace", matrix.trace(matrix.ELTMatrix.from_text(_read(args.path))))
    return 0


def _cmd_etr(args) -> int:
    report = matrix.essential_trace(matrix.ELTMatrix.from_text(_read(args.path)))
    if args.machine:
        print(f"etr: {format_scalar(report.value)}")
        print(f"status: {report.status}")
        print(f"trace: {format_scalar(report.trace)}")
        print(f"mu: {'none' if report.mu is None else report.mu}")
    else:
        print(format_scalar(report.value))
    return 0


def _cmd_nilpotent(args) -> int:
    a = matrix.ELTMatrix.from_text(_read(args.path))
    ok, index = matrix.is_nilpotent(a, args.bound)
    if args.machine:
        print(f"nilpotent: {'yes' if ok else 'no'}")
        if ok:
            print(f"index: {index}")
    else:
        print(f"yes {index}" if ok else "no")
    return 0


def _cmd_cycles(args) -> int:
    a = matrix.ELTMatrix.from_text(_read(args.path))
    cycles = matrix.simple_cycles(a)
    for cyc in cycles:
        path = "->".join(str(v) for v in cyc.vertices)
        print(f"cycle {path}: weight {format_scalar(cyc.weight)} mean {cyc.mean}")
    if not cycles and not args.machine:
        print("no cycles")
    return 0


def _cmd_hungarian(args) -> int:
    text = _read(args.path)
    if "^[" in text:
        grid = matrix.tangible_matrix(matrix.ELTMatrix.from_text(text))
    else:
        grid = assign.parse_tropical_matrix(text)
    result = assign.hungarian_scaling(grid)
    print("alphas: " + ", ".join(str(a) for a in result.alphas))
    print("sigma: " + ", ".join(f"{i}->{j}" for i, j in enumerate(result.sigma)))
    print(f"value: {result.value}")
    if args.machine:
        print("u: " + ", ".join(str(x) for x in result.row_duals))
        print("v: " + ", ".join(str(x) for x in result.col_duals))
    return 0


def _cmd_eltrop(args) -> int:
    series = puiseux.parse_series(_read(args.path))
    _emit_scalar(args, "eltrop", puiseux.eltrop(series))
    return 0


def _cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    names = None if args.name == "all" else [args.name]
    records = transfer.run_suite(names, trials=args.trials, seed=seed)
    for record in records:
        print(record.line)
    return 0 if all(record.ok for record in records) else 3


_COMMANDS = {
    "det": _cmd_det,
    "adj": _cmd_adj,
    "qinv": _cmd_qinv,
    "charpoly": _cmd_charpoly,
    "roots": _cmd_roots,
    "eig-verify": _cmd_eig_verify,
    "trace": _cmd_trace,
    "etr": _cmd_etr,
    "nilpotent": _cmd_nilpotent,
    "cycles": _cmd_cycles,
    "hungarian": _cmd_hungarian,
    "eltrop": _cmd_eltrop,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"eltlab: parse error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"eltlab: {exc}", file=sys.stderr)
        return 1
    except ELTError as exc:
        print(f"eltlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # str() of an int refuses more than sys.get_int_max_str_digits()
        # digits; a result that long cannot be printed
        if "integer string conversion" not in str(exc):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"eltlab: result has a number of more than {limit} digits, "
              "the most Python prints", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
