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
import re
import sys
from typing import Callable, Optional, Sequence

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


def _integer(text: str) -> int:
    """``int(text)`` for an optional minus and ASCII digits, as the file
    readers take them; ValueError for other digits, ``_``, ``+``, spaces."""
    if re.fullmatch("-?[0-9]+", text) is None:
        raise ValueError(text)
    return int(text)


def _positive(text: str) -> int:
    try:
        value = _integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError("value must be positive")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="eltlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, help_text: str, run: Callable, path: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=run)
        if path:
            p.add_argument("path", help="input file")
        p.add_argument("--machine", action="store_true", help="field-prefixed line output")
        return p

    add("det", "determinant of a matrix", _cmd_det)
    add("adj", "adjoint of a matrix", _cmd_adj)
    p = add("qinv", "quasi-inverse of a matrix", _cmd_qinv)
    p.add_argument("--layer-ring", choices=("Q", "Z"), default="Q")
    add("charpoly", "characteristic polynomial of a matrix", _cmd_charpoly)
    p = add("roots", "root description of a polynomial", _cmd_roots)
    p.add_argument("--layer-ring", choices=("Q", "Z"), default="Q")
    p = add("eig-verify", "grade a claimed eigenpair", _cmd_eig_verify)
    p.add_argument("--value", required=True, help="eigenvalue scalar")
    p.add_argument("--vector", required=True, help="comma-separated scalar entries")
    add("trace", "trace of a matrix", _cmd_trace)
    add("etr", "essential trace of a matrix", _cmd_etr)
    p = add("nilpotent", "least power with all layers zero", _cmd_nilpotent)
    p.add_argument("--bound", type=_positive, default=None,
                   help="power bound (default n^2)")
    add("cycles", "simple cycles of the finite-entry digraph", _cmd_cycles)
    add("hungarian", "Hungarian row scaling of a (tropical) matrix", _cmd_hungarian)
    add("eltrop", "tropicalisation of a series", _cmd_eltrop)
    p = add("verify", "run identity verification suites", _cmd_verify, path=False)
    p.add_argument("name", choices=_SUITE_CHOICES)
    p.add_argument("--trials", type=_positive, default=1000)
    p.add_argument("--seed", type=_positive, default=None,
                   help="default 42, or the ELTLAB_SEED variable")
    # the usage as Python 3.10-3.12 wrap it, which 3.13 would put on one
    # line, so the text does not depend on the Python version
    parser.usage = f"%(prog)s [-h]\n{'':14}{{{','.join(sub.choices)}}}\n{'':14}..."
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


def _matrix(args) -> matrix.ELTMatrix:
    return matrix.ELTMatrix.from_text(_read(args.path))


def _emit(args, name: str, text: str) -> None:
    print(f"{name}: {text}" if args.machine else text)


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ELTLAB_SEED")
    if env is not None:
        try:
            value = _integer(env)
        except ValueError:
            raise ParseError(f"ELTLAB_SEED is not an integer: {env!r}")
        if value <= 0:
            raise ParseError("ELTLAB_SEED must be positive")
        return value
    return 42


def _cmd_det(args) -> None:
    _emit(args, "det", format_scalar(matrix.det(_matrix(args))))


def _cmd_adj(args) -> None:
    print(matrix.adjoint(_matrix(args)).to_text(structured=args.machine))


def _cmd_qinv(args) -> None:
    result = matrix.quasi_inverse(_matrix(args), get_ring(args.layer_ring))
    print(result.inverse.to_text(structured=args.machine))


def _cmd_charpoly(args) -> None:
    _emit(args, "charpoly", poly.format_polynomial(matrix.charpoly(_matrix(args))))


def _cmd_roots(args) -> None:
    p = poly.parse_polynomial(_read(args.path))
    description = poly.elt_roots(p, get_ring(args.layer_ring))
    for corner in description.corners:
        print(f"corner {corner.tangible}: layers {corner.layers}")
    for iv in description.intervals:
        print(f"interval ({iv.lower}, {iv.upper}): layers {iv.layers}")
    print("neg-inf: root" if description.neg_infinity_root else "neg-inf: not-a-root")


def _cmd_eig_verify(args) -> None:
    a = _matrix(args)
    value = parse_scalar(args.value)
    vector = matrix.parse_vector(args.vector)
    _emit(args, "status", str(matrix.eigen_verify(a, value, vector)))


def _cmd_trace(args) -> None:
    _emit(args, "trace", format_scalar(matrix.trace(_matrix(args))))


def _cmd_etr(args) -> None:
    report = matrix.essential_trace(_matrix(args))
    _emit(args, "etr", format_scalar(report.value))
    if args.machine:
        print(f"status: {report.status}")
        print(f"trace: {format_scalar(report.trace)}")
        print(f"mu: {'none' if report.mu is None else report.mu}")


def _cmd_nilpotent(args) -> None:
    ok, index = matrix.is_nilpotent(_matrix(args), args.bound)
    if args.machine:
        print(f"nilpotent: {'yes' if ok else 'no'}")
        if ok:
            print(f"index: {index}")
    else:
        print(f"yes {index}" if ok else "no")


def _cmd_cycles(args) -> None:
    cycles = matrix.simple_cycles(_matrix(args))
    for cyc in cycles:
        path = "->".join(str(v) for v in cyc.vertices)
        print(f"cycle {path}: weight {format_scalar(cyc.weight)} mean {cyc.mean}")
    if not cycles and not args.machine:
        print("no cycles")


def _cmd_hungarian(args) -> None:
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


def _cmd_eltrop(args) -> None:
    _emit(args, "eltrop", format_scalar(puiseux.eltrop(puiseux.parse_series(_read(args.path)))))


def _cmd_verify(args) -> Optional[int]:
    seed = _resolve_seed(args)
    names = None if args.name == "all" else [args.name]
    records = transfer.run_suite(names, trials=args.trials, seed=seed)
    for record in records:
        print(record.line)
    return None if all(record.ok for record in records) else 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args) or 0
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
