"""The four workloads: their inputs, their operations and their checks.

Each workload is a closed loop from one process with one operation in
flight.  Its inputs form a pool of rounds.  All rounds hold the same
operations on inputs of the same kinds and sizes, in a fixed order;
only the values drawn from the seed differ.  Runs execute whole
rounds, so every run sees the same mix.

Checks run after the timed phase.  The first outcome of every distinct
input is checked against an independent route (oracles.py); a repeat
of the same input must give an equal outcome.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from statistics import median
from types import SimpleNamespace
from typing import Callable, List, Optional

from perfbench import gen, oracles
from perfbench.oracles import describe, describe_matrix

LIBRARY_MODULES = ("cli", "core", "matrix", "assign", "poly", "puiseux", "transfer", "errors")


def import_library() -> SimpleNamespace:
    """Import eltlab afresh, so that set-up time includes the imports."""
    for key in [k for k in sys.modules if k == "eltlab" or k.startswith("eltlab.")]:
        del sys.modules[key]
    return SimpleNamespace(
        **{name: importlib.import_module(f"eltlab.{name}") for name in LIBRARY_MODULES}
    )


def _library_modules() -> dict:
    return {k: v for k, v in sys.modules.items() if k == "eltlab" or k.startswith("eltlab.")}


@contextlib.contextmanager
def library_kept():
    """Put the loaded eltlab modules back on exit, so a set-up inside
    the block (which imports the library afresh) leaves the modules a
    running workload uses in place."""
    saved = _library_modules()
    try:
        yield
    finally:
        for key in _library_modules():
            del sys.modules[key]
        sys.modules.update(saved)


def call_attr(owner, name: str, *args):
    """Look the function up at call time, so a traced binding is used."""
    return getattr(owner, name)(*args)


@dataclass
class Op:
    kind: str
    key: tuple  # equal keys mean equal inputs, hence equal outcomes
    call: Callable[[], object]
    data: object = None  # what the check needs


class Workload:
    """One workload.  ``FULL`` holds the input sizes of a measured run,
    ``TINY`` the sizes of a smoke test; both become attributes."""

    name = ""
    sizes = ""
    rss_of = "this process"
    min_rounds = 1  # rounds a measured run makes even when the time is up
    sample_during_ops = True  # see reference.Reference
    FULL: dict = {}
    TINY: dict = {}

    def __init__(self, root: Path, seed: int, tiny: bool = False):
        self.root = root
        self.seed = seed
        self.tiny = tiny
        self.__dict__.update(self.TINY if tiny else self.FULL)
        self.lib: Optional[SimpleNamespace] = None
        self.rounds: List[List[Op]] = []

    def setup(self) -> None:
        """Import the library, draw the inputs and warm up."""
        self.rounds = []
        self.lib = import_library()
        self.rounds = self.build(random.Random(f"{self.name}:{self.seed}"))
        self.warm_up()

    def build(self, rng: random.Random) -> List[List[Op]]:
        raise NotImplementedError

    def warm_up(self) -> None:
        seen = set()
        for op in self.rounds[0]:
            if op.kind not in seen:
                seen.add(op.kind)
                with contextlib.suppress(self.lib.errors.ELTError):
                    op.call()

    def traced_rounds(self) -> List[List[Op]]:
        """Rounds for the traced run; in-process for every workload."""
        return self.rounds

    def check(self, op: Op, result, exc) -> bool:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def layer_extras(self, untraced_latencies: List[float]) -> dict:
        """Per-layer metrics measured outside the traced calls, given
        the latencies of the untraced pass of the traced run."""
        return {}


# ---------------------------------------------------------------------------


class Spectral(Workload):
    """Spectral data of small matrices, in process.

    A round runs det for n = 2..8, adjoint and quasi_inverse for
    n = 2..6, and charpoly, essential_trace and eigen_candidates for
    n = 2..7.  For n <= 4 each gets five matrices of every entry class
    (generic, tie-heavy, -inf-heavy; see gen.matrix): the median
    latency falls among these, and averaging it over many inputs keeps
    it from depending on the seed.  Above that each gets one matrix
    whose class rotates along the ladder but is the same in every
    round, so rounds cost about the same.  det at n = 8 gets three
    generic matrices per round: they take most of a round, and a run
    makes at least four rounds, so with at least eleven of them the
    tail latency is always a det at n = 8, not whichever operation
    ranks eleventh.
    """

    name = "spectral"
    LADDERS = {
        "det": 8, "adjoint": 6, "quasi_inverse": 6,
        "charpoly": 7, "essential_trace": 7, "eigen_candidates": 7,
    }
    ENTRIES = ("generic", "ties", "holes")
    ALL_ENTRIES_UP_TO = 4
    TOP_DETS = 3
    FULL = {"cap": 8, "pool": 12, "small_copies": 5, "min_rounds": 4}
    TINY = {"cap": 4, "pool": 2, "small_copies": 1}

    @property
    def sizes(self) -> str:
        tops = ", ".join(f"{k} n<={min(v, self.cap)}" for k, v in self.LADDERS.items())
        return (f"n from 2: {tops}; {self.small_copies} of each entry class for n<={self.ALL_ENTRIES_UP_TO}, "
                f"one rotating class above; {self.pool} rounds")

    def build(self, rng):
        lib = self.lib
        rounds = []
        for r in range(self.pool):
            ops = []
            for n in range(2, self.cap + 1):
                for k, (kind, top) in enumerate(self.LADDERS.items()):
                    if n > top:
                        continue
                    for i, cls in enumerate(self._entry_classes(k, kind, n)):
                        desc = gen.matrix(rng, n, cls)
                        a = lib.matrix.ELTMatrix(gen.materialise(lib.core, desc))
                        ops.append(Op(kind, (r, kind, n, i), lambda m=lib.matrix, k=kind, a=a: call_attr(m, k, a), desc))
            rounds.append(ops)
        return rounds

    def _entry_classes(self, k: int, kind: str, n: int) -> tuple:
        """Entry classes of the matrices for the k-th operation at n."""
        if n <= self.ALL_ENTRIES_UP_TO:
            return self.ENTRIES * self.small_copies
        if kind == "det" and n == 8:
            return ("generic",) * self.TOP_DETS
        return (self.ENTRIES[(k + n + 1) % 3],)

    def check(self, op, result, exc):
        desc = op.data
        if op.kind == "quasi_inverse":
            d = oracles.det(desc)
            if d is None or d[1] == 0:
                return isinstance(exc, self.lib.errors.SingularDeterminant)
            if exc is not None or not (result.left.ok and result.right.ok):
                return False
            inv = oracles.inverse_scalar(d)
            expected = [[oracles.mul(inv, x) for x in row] for row in oracles.adjoint(desc)]
            return describe_matrix(result.inverse) == expected
        if exc is not None:
            return False
        if op.kind == "det":
            return describe(result) == oracles.det(desc)
        if op.kind == "adjoint":
            return describe_matrix(result) == oracles.adjoint(desc)
        if op.kind == "charpoly":
            return {d: describe(c) for d, c in result.coefficients.items()} == oracles.charpoly(desc)
        if op.kind == "essential_trace":
            return self._check_etr(desc, result)
        if op.kind == "eigen_candidates":
            poly = self.lib.poly
            coeffs = {d: gen.materialise(self.lib.core, [c])[0] for d, c in oracles.charpoly(desc).items()}
            return result == poly.elt_roots(poly.ELTPolynomial(coeffs))
        return False

    def _check_etr(self, desc, report) -> bool:
        """Recompute every field of the report from the oracle's
        characteristic polynomial, trace and long-cycle bound."""
        n = len(desc)
        cp = oracles.charpoly(desc)
        coefficients = {k: cp[n - k] for k in range(1, n + 1) if n - k in cp}
        tr = oracles.trace(desc)
        long = oracles.karp([[None if x is None else x[0] for x in row] for row in desc], skip_diagonal=True)
        got_long = None if report.long_cycle_bound is self.lib.core.BOTTOM else report.long_cycle_bound
        same = (
            describe(report.trace) == tr
            and {k: describe(c) for k, c in report.coefficients.items()} == coefficients
            and got_long == long
        )
        if not coefficients:
            return same and report.mu is None and report.value.is_neg_inf
        ratios = {k: c[0] / k for k, c in coefficients.items()}
        best = max(ratios.values())
        l_set = frozenset(k for k, r in ratios.items() if r == best)
        if tr is None:
            status = "inessential"
        elif long is None or tr[0] > long:
            status = "essential"
        elif tr[0] == long:
            status = "quasi-essential"
        else:
            status = "inessential"
        value = tr if status == "essential" else (best, Fraction(0))
        return (
            same
            and report.l_set == l_set
            and report.mu == min(l_set)
            and describe(report.dominant) == coefficients[min(l_set)]
            and report.status.value == status
            and describe(report.value) == value
        )


# ---------------------------------------------------------------------------


class Dense(Workload):
    """Large-matrix primitives and assignment algorithms, in process.

    Each round has, for n in 30, 40, 50 and for dense (a twentieth
    -inf) and sparse (seven tenths -inf) entries: one product A*B, one
    A.apply(v), and hungarian_scaling, karp_max_mean_cycle and
    is_critical on the tangible grid of A.  is_critical gets the raw
    grid of dense matrices (rarely critical) and a grid with a planted
    critical permutation for sparse ones.  The dense pair at the
    largest n is also multiplied as B*A: these two products are the
    slowest operations, and a run makes at least six rounds, so with at
    least eleven of them the tail latency is always such a product.
    """

    name = "dense"
    DENSITIES = ("dense", "sparse")
    FULL = {"dims": (30, 40, 50), "pool": 2, "min_rounds": 6}
    TINY = {"dims": (4, 6), "pool": 1}

    @property
    def sizes(self) -> str:
        return (f"n in {self.dims}; {', '.join(self.DENSITIES)} entries; B*A as well as A*B "
                f"for the dense pair at n={max(self.dims)}; {self.pool} rounds")

    def build(self, rng):
        lib = self.lib
        matrix, assign, bottom = lib.matrix, lib.assign, lib.core.BOTTOM
        rounds = []
        for r in range(self.pool):
            ops = []
            for n in self.dims:
                for density in self.DENSITIES:
                    a_desc = gen.matrix(rng, n, density)
                    b_desc = gen.matrix(rng, n, density)
                    v_desc = gen.vector(rng, n)
                    a = matrix.ELTMatrix(gen.materialise(lib.core, a_desc))
                    b = matrix.ELTMatrix(gen.materialise(lib.core, b_desc))
                    v = tuple(gen.materialise(lib.core, v_desc))
                    grid = [[None if x is None else x[0] for x in row] for row in a_desc]
                    crit = grid if density == "dense" else gen.plant_critical(rng, grid)
                    lib_grid = gen.tropical(grid, bottom)
                    lib_crit = gen.tropical(crit, bottom)
                    key = (r, n, density)
                    ops += [
                        Op("mul", key, lambda a=a, b=b: a * b, (a_desc, b_desc)),
                        Op("apply", key, lambda a=a, v=v: a.apply(v), (a_desc, v_desc)),
                        Op("hungarian_scaling", key,
                           lambda g=lib_grid: call_attr(assign, "hungarian_scaling", g), grid),
                        Op("karp_max_mean_cycle", key,
                           lambda g=lib_grid: call_attr(assign, "karp_max_mean_cycle", g), grid),
                        Op("is_critical", key,
                           lambda g=lib_crit: call_attr(assign, "is_critical", g), crit),
                    ]
                    if n == max(self.dims) and density == "dense":
                        ops.append(Op("mul", key + ("BA",), lambda a=a, b=b: b * a, (b_desc, a_desc)))
            rounds.append(ops)
        return rounds

    def check(self, op, result, exc):
        if exc is not None:
            return False
        if op.kind == "mul":
            return self._check_product(op, result)
        if op.kind == "apply":
            a_desc, v_desc = op.data
            return [describe(x) for x in result] == oracles.matvec(a_desc, v_desc)
        if op.kind == "hungarian_scaling":
            return oracles.hungarian_certificate_ok(op.data, result)
        if op.kind == "karp_max_mean_cycle":
            return result == oracles.karp(op.data)
        if op.kind == "is_critical":
            return oracles.critical_ok(op.data, result)
        return False

    def _check_product(self, op, result) -> bool:
        """(AB)v = A(Bv) for a random finite v and for three unit
        vectors e_j, which pin down three columns of AB exactly."""
        a_desc, b_desc = op.data
        n = len(a_desc)
        if (result.nrows, result.ncols) != (n, len(b_desc[0])):
            return False
        c_desc = describe_matrix(result)
        rng = random.Random(f"product:{self.seed}:{op.key}")
        vectors = [gen.vector(rng, n)]
        for j in rng.sample(range(n), min(3, n)):
            vectors.append([oracles.ONE if i == j else None for i in range(n)])
        return all(
            oracles.matvec(c_desc, v) == oracles.matvec(a_desc, oracles.matvec(b_desc, v))
            for v in vectors
        )


# ---------------------------------------------------------------------------


class Verify(Workload):
    """The identity-transfer harness, in process.

    Each round calls transfer.run_suite once per identity family at
    n = 3 and twice at n = 2 (with two round seeds drawn from the
    workload seed), plus the mutation control.  The cheap n = 2 calls
    make up more than half of a round, so the median latency falls
    inside their cluster rather than on the gap to the n = 3 calls.
    """

    name = "verify"
    FAMILIES = ("det-mult", "a-adj", "det-a-adj", "a-adj-sq", "cayley-hamilton")
    # calls: (n, which of the two round seeds) per family
    FULL = {"trials": 30, "calls": ((2, 0), (2, 1), (3, 0)), "pool": 32}
    TINY = {"trials": 3, "calls": ((2, 0),), "pool": 2}

    @property
    def sizes(self) -> str:
        return (f"{len(self.FAMILIES)} families x (n, seed) in {self.calls} + mutation control; "
                f"{self.trials} trials per identity; {self.pool} rounds")

    def build(self, rng):
        transfer = self.lib.transfer
        rounds = []
        for _ in range(self.pool):
            seeds = (rng.randint(1, 10**6), rng.randint(1, 10**6))
            ops = []
            for family in self.FAMILIES:
                for n, which in self.calls:
                    seed = seeds[which]
                    ops.append(Op(
                        "run_suite", (family, n, seed),
                        lambda f=family, n=n, s=seed: call_attr(transfer, "run_suite", [f], self.trials, s, (n,)),
                        ([f"{family}-n{n}"], seed),
                    ))
            ops.append(Op(
                "run_suite", ("mutation-control", seeds[0]),
                lambda s=seeds[0]: call_attr(transfer, "run_suite", ["mutation-control"], self.trials, s),
                (["mutation-control"], seeds[0]),
            ))
            rounds.append(ops)
        return rounds

    def check(self, op, result, exc):
        names, seed = op.data
        return (
            exc is None
            and [r.name for r in result] == names
            and all(r.ok and r.seed == seed for r in result)
        )


# ---------------------------------------------------------------------------


class CliMix(Workload):
    """``python -m eltlab <cmd> <file>`` per operation, in sequence.

    Each round writes one small file for every file-reading subcommand:
    matrices with n <= 5, polynomials of degree <= 8 and series.  Three
    files are malformed (exit 1) and one qinv matrix is singular (exit
    2).  Children inherit the environment without ELTLAB_BACKEND,
    ELTLAB_SEED, PYTHONPYCACHEPREFIX and PYTHONDONTWRITEBYTECODE, so
    they use the interpreter's default bytecode cache, which set-up
    warms.
    """

    name = "cli-mix"
    rss_of = "children"
    # The operations run in children on this process's vCPU: a sample
    # taken while one runs would take the vCPU from it.
    sample_during_ops = False
    DROP_ENV = ("ELTLAB_BACKEND", "ELTLAB_SEED", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE")
    CHILD_TIMEOUT_S = 60
    # repeats: children timed for cli.interp_ms and cli.import_ms
    FULL = {"pool": 3, "repeats": 9}
    TINY = {"pool": 1, "repeats": 3}

    @property
    def sizes(self) -> str:
        return f"matrices n=2..5, polynomials degree 2..8, series of 1..6 terms; 16 files per round; {self.pool} rounds"

    @property
    def workdir(self) -> Path:
        return self.root / ".perfbench" / self.name

    def child_env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if k not in self.DROP_ENV}
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def run_child(self, args) -> tuple:
        proc = subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self._env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=self.CHILD_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def run_inprocess(self, args) -> tuple:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(list(args))
        return code, out.getvalue().encode(), err.getvalue().encode()

    def setup(self) -> None:
        self._env = self.child_env()
        super().setup()

    def build(self, rng):
        self.workdir.mkdir(parents=True, exist_ok=True)
        rounds = []
        for r in range(self.pool):
            rounds.append([
                Op(kind, (r, kind), lambda a=args: self.run_child(["-m", "eltlab", *a]), (args, code, desc))
                for kind, args, code, desc in self._cases(rng, r)
            ])
        return rounds

    def _write(self, r: int, label: str, text: str) -> str:
        path = self.workdir / f"r{r}-{label}"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def _matrix_file(self, r, label, desc) -> str:
        return self._write(r, label, "\n".join(", ".join(oracles.fmt(x) for x in row) for row in desc) + "\n")

    def _cases(self, rng, r):
        """(kind, argv after -m eltlab, expected exit code, oracle data)."""
        def n_for(i):
            return 2 + (r + i) % 4

        def square(i, entries="generic"):
            return gen.matrix(rng, n_for(i), entries)

        cases = []
        for i, cmd in enumerate(("det", "adj", "charpoly", "trace", "etr", "cycles")):
            desc = square(i, ("generic", "ties")[i % 2])
            cases.append((cmd, [cmd, self._matrix_file(r, f"{cmd}.mat", desc)], 0, desc))
        nonsingular = square(6)
        while oracles.det(nonsingular) is None or oracles.det(nonsingular)[1] == 0:
            nonsingular = square(6)
        cases.append(("qinv", ["qinv", self._matrix_file(r, "qinv.mat", nonsingular)], 0, nonsingular))
        singular = gen.matrix(rng, 3, "generic")
        singular[rng.randrange(3)] = [None] * 3
        cases.append(("qinv-singular", ["qinv", self._matrix_file(r, "singular.mat", singular)], 2, singular))
        small = gen.matrix(rng, min(n_for(8), 4), "ties")
        cases.append(("nilpotent", ["nilpotent", self._matrix_file(r, "nil.mat", small)], 0, small))
        eig = square(9)
        vec = ",".join(oracles.fmt(x) for x in gen.vector(rng, len(eig)))
        value = oracles.fmt((Fraction(rng.randint(-9, 9)), Fraction(1)))
        cases.append(("eig-verify", ["eig-verify", self._matrix_file(r, "eig.mat", eig),
                                     f"--value={value}", f"--vector={vec}"], 0, eig))
        trop = [[None if x is None else x[0] for x in row] for row in gen.matrix(rng, n_for(10), "sparse")]
        text = "\n".join(", ".join("-inf" if x is None else str(x) for x in row) for row in trop) + "\n"
        cases.append(("hungarian", ["hungarian", self._write(r, "trop.mat", text)], 0, trop))
        terms = gen.polynomial(rng, 2 + (r * 3 + 1) % 7)
        text = " + ".join(
            oracles.fmt(c) + ("" if d == 0 else "*L" if d == 1 else f"*L^{d}") for d, c in terms
        )
        cases.append(("roots", ["roots", self._write(r, "p.poly", text + "\n")], 0, terms))
        series = gen.series(rng, 1 + r % 6)
        text = " + ".join(f"{c}*t^({e})" for e, c in series)
        cases.append(("eltrop", ["eltrop", self._write(r, "s.ser", text + "\n")], 0, series))
        broken = [
            ("det", "bad.mat", "1^[2], 3^[1]\n2/4^[1], 0^[1]\n"),
            ("roots", "bad.poly", "0^[1]*L^2 + + 3^[1]\n"),
            ("eltrop", "bad.ser", "2*t^(1/0)\n"),
        ]
        for cmd, label, text in broken:
            cases.append((f"{cmd}-malformed", [cmd, self._write(r, label, text)], 1, None))
        return cases

    def warm_up(self) -> None:
        """Compile the bytecode cache once and load the files the
        children read."""
        for op in self.rounds[0][:2]:
            op.call()

    def traced_rounds(self):
        return [
            [Op(op.kind, op.key, lambda a=op.data[0]: self.run_inprocess(a), op.data) for op in ops]
            for ops in self.rounds
        ]

    def check(self, op, result, exc):
        args, code, desc = op.data
        if exc is not None:
            return False
        got_code, out, err = result
        expected = self.run_inprocess(args)
        if got_code != code or expected[0] != code or out != expected[1] or b"Traceback" in err:
            return False
        if op.kind == "det":
            return out == (oracles.fmt(oracles.det(desc)) + "\n").encode()
        return True

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def layer_extras(self, untraced_latencies):
        """Interpreter floor and import cost from children, warm
        in-process cli.main from the untraced in-process rounds."""
        interp = median([_timed(self.run_child, ["-c", "pass"]) for _ in range(self.repeats)])
        imported = median([_timed(self.run_child, ["-c", "import eltlab.cli"]) for _ in range(self.repeats)])
        return {
            "cli.interp_ms": interp * 1e3,
            "cli.import_ms": (imported - interp) * 1e3,
            "cli.main_ms": median(untraced_latencies) * 1e3,
        }


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


WORKLOADS = {cls.name: cls for cls in (CliMix, Spectral, Dense, Verify)}
