"""Formal polynomial identities checked across three interpretations.

An expression is a pair (P+, P-) of positive trees built from 0, 1,
variables x1..xm, sums, and products; the pair stands for P+ - P-.
A proposed identity P = Q is verified in two stages.  The classical
hypothesis is checked symbolically: both sides are expanded to exact
integer-coefficient monomial tables and compared, never sampled.  The
layered conclusions (balance, surpassing, or equality) are then
sampled over the max-plus and scalar models with seeded generators so
that any failure is reproducible.

The canned suites encode the determinant, adjoint, and characteristic
polynomial identities componentwise, plus a mutation control with one
deliberately corrupted sign that the symbolic stage must reject.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ._markers import BOTTOM, Bottom
from .core import ELTScalar, NEG_INF, ONE, format_scalar
from .errors import ParseError, UnboundVariable
from .matrix import _parity
from .rand import random_scalar

# ---------------------------------------------------------------------------
# positive expression trees


@dataclass(frozen=True)
class Const:
    value: int


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Add:
    args: Tuple["Node", ...]


@dataclass(frozen=True)
class Mul:
    args: Tuple["Node", ...]


Node = Union[Const, Var, Add, Mul]

_ZERO = Const(0)
_UNIT = Const(1)


def _is_zero(node: Node) -> bool:
    return isinstance(node, Const) and node.value == 0


def _node_add(a: Node, b: Node) -> Node:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    parts: List[Node] = []
    for x in (a, b):
        parts.extend(x.args if isinstance(x, Add) else (x,))
    return Add(tuple(parts))


def _node_mul(a: Node, b: Node) -> Node:
    if _is_zero(a) or _is_zero(b):
        return _ZERO
    if a == _UNIT:
        return b
    if b == _UNIT:
        return a
    parts: List[Node] = []
    for x in (a, b):
        parts.extend(x.args if isinstance(x, Mul) else (x,))
    return Mul(tuple(parts))


class PolyExpression:
    """Pair of positive trees standing for pos - neg."""

    __slots__ = ("pos", "neg")

    def __init__(self, pos: Node, neg: Node = _ZERO):
        self.pos = pos
        self.neg = neg

    @classmethod
    def zero(cls) -> "PolyExpression":
        return cls(_ZERO)

    @classmethod
    def one(cls) -> "PolyExpression":
        return cls(_UNIT)

    @classmethod
    def var(cls, index: int) -> "PolyExpression":
        if index < 1:
            raise ValueError("variable indices start at 1")
        return cls(Var(index))

    def __add__(self, other: "PolyExpression") -> "PolyExpression":
        return PolyExpression(
            _node_add(self.pos, other.pos), _node_add(self.neg, other.neg)
        )

    def __mul__(self, other: "PolyExpression") -> "PolyExpression":
        return PolyExpression(
            _node_add(
                _node_mul(self.pos, other.pos), _node_mul(self.neg, other.neg)
            ),
            _node_add(
                _node_mul(self.pos, other.neg), _node_mul(self.neg, other.pos)
            ),
        )

    def __neg__(self) -> "PolyExpression":
        return PolyExpression(self.neg, self.pos)

    def __sub__(self, other: "PolyExpression") -> "PolyExpression":
        return self + (-other)

    def __pow__(self, n: int) -> "PolyExpression":
        if n < 0:
            raise ValueError("expression powers must be nonnegative")
        out = PolyExpression.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyExpression):
            return NotImplemented
        return self.pos == other.pos and self.neg == other.neg

    def __hash__(self) -> int:
        return hash((self.pos, self.neg))

    def __str__(self) -> str:
        return format_expression(self)

    def __repr__(self) -> str:
        return f"PolyExpression({self})"


# ---------------------------------------------------------------------------
# concrete syntax


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*()":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in "01":
            tokens.append(("const", ch, i))
            i += 1
            continue
        if ch == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            name = text[i:j]
            if j == i + 1 or (name[1] == "0"):
                raise ParseError(f"malformed variable {name!r}", i)
            tokens.append(("var", name, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> Tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def expr(self) -> Node:
        node = self.term()
        while self.peek()[0] == "+":
            self.take("+")
            node = _node_add(node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek()[0] == "*":
            self.take("*")
            node = _node_mul(node, self.factor())
        return node

    def factor(self) -> Node:
        kind, value, at = self.peek()
        if kind == "const":
            self.take("const")
            return _ZERO if value == "0" else _UNIT
        if kind == "var":
            self.take("var")
            return Var(int(value[1:]))
        if kind == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        raise ParseError(f"expected a factor, found {value!r}", at)


def parse_expression(text: str) -> PolyExpression:
    """Parse the grammar 0 | 1 | xN | E+E | E*E | (E), with a single
    optional top-level '-' splitting the positive and negative parts."""
    parser = _Parser(text)
    pos = parser.expr()
    neg: Node = _ZERO
    if parser.peek()[0] == "-":
        parser.take("-")
        neg = parser.expr()
    parser.take("end")
    return PolyExpression(pos, neg)


def _render(node: Node, product_context: bool = False) -> str:
    if isinstance(node, Const):
        return str(node.value)
    if isinstance(node, Var):
        return f"x{node.index}"
    if isinstance(node, Mul):
        return "*".join(_render(a, True) for a in node.args)
    body = " + ".join(_render(a) for a in node.args)
    return f"({body})" if product_context else body


def format_expression(e: PolyExpression) -> str:
    if _is_zero(e.neg):
        return _render(e.pos)
    return f"{_render(e.pos)} - {_render(e.neg)}"


# ---------------------------------------------------------------------------
# exact expansion


def num_variables(e: PolyExpression) -> int:
    def walk(node: Node) -> int:
        if isinstance(node, Var):
            return node.index
        if isinstance(node, (Add, Mul)):
            return max((walk(a) for a in node.args), default=0)
        return 0

    return max(walk(e.pos), walk(e.neg))


Exponents = Tuple[int, ...]


@dataclass(frozen=True)
class MonomialTable:
    """Exact expansion counts: exponent vector -> (count in P+, count
    in P-)."""

    nvars: int
    entries: Dict[Exponents, Tuple[int, int]]

    def appears(self, exponents: Sequence[int]) -> bool:
        key = _pad(tuple(exponents), self.nvars)
        plus, minus = self.entries.get(key, (0, 0))
        return plus > 0 or minus > 0

    @property
    def has_disjoint_support(self) -> bool:
        return all(plus == 0 or minus == 0 for plus, minus in self.entries.values())

    def net(self) -> Dict[Exponents, int]:
        out = {}
        for key, (plus, minus) in self.entries.items():
            if plus != minus:
                out[key] = plus - minus
        return out


def _pad(key: Exponents, nvars: int) -> Exponents:
    if len(key) == nvars:
        return key
    if len(key) > nvars:
        if any(key[nvars:]):
            return key
        return key[:nvars]
    return key + (0,) * (nvars - len(key))


def _expand_node(node: Node, nvars: int, memo: Dict[int, Dict[Exponents, int]]) -> Dict[Exponents, int]:
    cached = memo.get(id(node))
    if cached is not None:
        return cached
    if isinstance(node, Const):
        out = {} if node.value == 0 else {(0,) * nvars: 1}
    elif isinstance(node, Var):
        key = tuple(1 if k == node.index - 1 else 0 for k in range(nvars))
        out = {key: 1}
    elif isinstance(node, Add):
        out = {}
        for arg in node.args:
            for key, c in _expand_node(arg, nvars, memo).items():
                out[key] = out.get(key, 0) + c
    else:
        out = {(0,) * nvars: 1}
        for arg in node.args:
            part = _expand_node(arg, nvars, memo)
            nxt: Dict[Exponents, int] = {}
            for k1, c1 in out.items():
                for k2, c2 in part.items():
                    key = tuple(a + b for a, b in zip(k1, k2))
                    nxt[key] = nxt.get(key, 0) + c1 * c2
            out = nxt
    memo[id(node)] = out
    return out


def expand(e: PolyExpression, nvars: Optional[int] = None) -> MonomialTable:
    if nvars is None:
        nvars = num_variables(e)
    memo: Dict[int, Dict[Exponents, int]] = {}
    plus = _expand_node(e.pos, nvars, memo)
    minus = _expand_node(e.neg, nvars, memo)
    entries: Dict[Exponents, Tuple[int, int]] = {}
    for key, c in plus.items():
        entries[key] = (c, 0)
    for key, c in minus.items():
        p, _ = entries.get(key, (0, 0))
        entries[key] = (p, c)
    return MonomialTable(nvars, entries)


def appears(e: PolyExpression, exponents: Sequence[int]) -> bool:
    return expand(e).appears(exponents)


def disjoint_support(e: PolyExpression) -> bool:
    return expand(e).has_disjoint_support


def ring_equal(p: PolyExpression, q: PolyExpression) -> bool:
    """Exact identity of both sides as integer polynomials."""
    nvars = max(num_variables(p), num_variables(q))
    return expand(p, nvars).net() == expand(q, nvars).net()


# ---------------------------------------------------------------------------
# evaluation models


class RingModel:
    """Exact integers with genuine negation."""

    name = "ring"
    zero = 0
    one = 1

    def add(self, a: int, b: int) -> int:
        return a + b

    def mul(self, a: int, b: int) -> int:
        return a * b

    def neg(self, a: int) -> int:
        return -a

    def sample(self, rng: random.Random) -> int:
        return rng.randint(-9, 9)

    def show(self, a: int) -> str:
        return str(a)


class MaxPlusModel:
    """Rationals with max and plus; negation is trivial."""

    name = "maxplus"
    zero = BOTTOM
    one = Fraction(0)

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        return a + b

    def neg(self, a):
        return a

    def sample(self, rng: random.Random):
        if rng.randrange(10) == 0:
            return BOTTOM
        return Fraction(rng.randint(-10, 10))

    def show(self, a) -> str:
        return "-inf" if isinstance(a, Bottom) else str(a)


class ELTModel:
    """Layered scalars; negation flips the layer."""

    name = "elt"
    zero = NEG_INF
    one = ONE

    def add(self, a: ELTScalar, b: ELTScalar) -> ELTScalar:
        return a + b

    def mul(self, a: ELTScalar, b: ELTScalar) -> ELTScalar:
        return a * b

    def neg(self, a: ELTScalar) -> ELTScalar:
        return -a

    def sample(self, rng: random.Random) -> ELTScalar:
        return random_scalar(rng)

    def show(self, a: ELTScalar) -> str:
        return format_scalar(a)


RING_MODEL = RingModel()
MAXPLUS_MODEL = MaxPlusModel()
ELT_MODEL = ELTModel()


def evaluate(e: PolyExpression, model, assignment: Union[Mapping[int, object], Sequence[object]]):
    """Evaluate pos and neg in the model and combine with its negation."""

    def lookup(index: int):
        if isinstance(assignment, Mapping):
            if index not in assignment:
                raise UnboundVariable(f"no value bound for x{index}")
            return assignment[index]
        if index > len(assignment):
            raise UnboundVariable(f"no value bound for x{index}")
        return assignment[index - 1]

    memo: Dict[int, object] = {}

    def walk(node: Node):
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Const):
            out = model.zero if node.value == 0 else model.one
        elif isinstance(node, Var):
            out = lookup(node.index)
        elif isinstance(node, Add):
            out = walk(node.args[0])
            for arg in node.args[1:]:
                out = model.add(out, walk(arg))
        else:
            out = walk(node.args[0])
            for arg in node.args[1:]:
                out = model.mul(out, walk(arg))
        memo[id(node)] = out
        return out

    return model.add(walk(e.pos), model.neg(walk(e.neg)))


# ---------------------------------------------------------------------------
# randomized identity checks


@dataclass(frozen=True)
class CheckReport:
    relation: str
    ring_ok: bool
    maxplus_ok: bool
    elt_ok: bool
    strong_ok: Optional[bool]
    trials: int
    seed: int
    counterexamples: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.ring_ok
            and self.maxplus_ok
            and self.elt_ok
            and self.strong_ok is not False
        )


def _sample_assignment(model, rng: random.Random, nvars: int) -> Tuple[object, ...]:
    return tuple(model.sample(rng) for _ in range(nvars))


def _run_sampled(
    p: PolyExpression,
    q: PolyExpression,
    model,
    holds,
    trials: int,
    rng: random.Random,
    label: str,
    failures: List[str],
) -> bool:
    nvars = max(num_variables(p), num_variables(q))
    ok = True
    for trial in range(trials):
        values = _sample_assignment(model, rng, nvars)
        lhs = evaluate(p, model, values)
        rhs = evaluate(q, model, values)
        if not holds(lhs, rhs):
            ok = False
            if len(failures) < 3:
                shown = ", ".join(
                    f"x{k + 1}={model.show(v)}" for k, v in enumerate(values)
                )
                failures.append(
                    f"{label} trial {trial}: {shown}: "
                    f"lhs={model.show(lhs)} rhs={model.show(rhs)}"
                )
    return ok


def check_nabla(
    p: PolyExpression, q: PolyExpression, trials: int = 1000, seed: int = 42
) -> CheckReport:
    """Symbolic ring identity plus sampled balance: every scalar
    instance of p + (-)q must have layer zero."""
    rng = random.Random(seed)
    failures: List[str] = []
    ring_ok = ring_equal(p, q)
    elt_ok = _run_sampled(
        p, q, ELT_MODEL,
        lambda lhs, rhs: (lhs + (-rhs)).layer == 0,
        trials, rng, "elt", failures,
    )
    return CheckReport(
        "nabla", ring_ok, True, elt_ok, None, trials, seed, tuple(failures)
    )


def check_surpass(
    p: PolyExpression,
    q: PolyExpression,
    trials: int = 1000,
    seed: int = 42,
    strong: bool = False,
) -> CheckReport:
    """Symbolic ring identity, sampled tangible dominance, sampled
    scalar surpassing; in strong mode additionally requires the right
    side to have disjoint monomial support."""
    rng = random.Random(seed)
    failures: List[str] = []
    ring_ok = ring_equal(p, q)
    maxplus_ok = _run_sampled(
        p, q, MAXPLUS_MODEL,
        lambda lhs, rhs: lhs >= rhs,
        trials, rng, "maxplus", failures,
    )
    elt_ok = _run_sampled(
        p, q, ELT_MODEL,
        lambda lhs, rhs: lhs.surpasses(rhs),
        trials, rng, "elt", failures,
    )
    strong_ok = disjoint_support(q) if strong else None
    if strong_ok is False:
        failures.append("strong: right side has overlapping monomial support")
    return CheckReport(
        "surpass", ring_ok, maxplus_ok, elt_ok, strong_ok, trials, seed,
        tuple(failures),
    )


def check_equal(
    p: PolyExpression, q: PolyExpression, trials: int = 1000, seed: int = 42
) -> CheckReport:
    """Symbolic ring identity plus sampled equality in both layered
    models."""
    rng = random.Random(seed)
    failures: List[str] = []
    ring_ok = ring_equal(p, q)
    maxplus_ok = _run_sampled(
        p, q, MAXPLUS_MODEL,
        lambda lhs, rhs: lhs == rhs,
        trials, rng, "maxplus", failures,
    )
    elt_ok = _run_sampled(
        p, q, ELT_MODEL,
        lambda lhs, rhs: lhs == rhs,
        trials, rng, "elt", failures,
    )
    return CheckReport(
        "equal", ring_ok, maxplus_ok, elt_ok, None, trials, seed,
        tuple(failures),
    )


# ---------------------------------------------------------------------------
# expression-level linear algebra


ExprMatrix = Tuple[Tuple[PolyExpression, ...], ...]


def symbolic_matrix(n: int, offset: int = 0) -> ExprMatrix:
    """n x n matrix of fresh variables, row-major from offset + 1."""
    return tuple(
        tuple(PolyExpression.var(offset + i * n + j + 1) for j in range(n))
        for i in range(n)
    )


def matmul_expression(a: ExprMatrix, b: ExprMatrix) -> ExprMatrix:
    n = len(a)
    inner = len(b)
    out = []
    for i in range(n):
        row = []
        for j in range(len(b[0])):
            acc = PolyExpression.zero()
            for k in range(inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def det_expression(m: ExprMatrix) -> PolyExpression:
    """Permutation expansion with signs carried by the pair algebra."""
    n = len(m)
    total = PolyExpression.zero()
    for perm in itertools.permutations(range(n)):
        prod = PolyExpression.one()
        for i, j in enumerate(perm):
            prod = prod * m[i][j]
        total = total + (-prod if _parity(perm) else prod)
    return total


def _det_submatrix(m: ExprMatrix, rows: Sequence[int], cols: Sequence[int]) -> PolyExpression:
    return det_expression(
        tuple(tuple(m[i][j] for j in cols) for i in rows)
    )


def adjoint_expression(m: ExprMatrix) -> ExprMatrix:
    n = len(m)
    if n == 1:
        return ((PolyExpression.one(),),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            keep_r = [r for r in range(n) if r != j]
            keep_c = [c for c in range(n) if c != i]
            cof = _det_submatrix(m, keep_r, keep_c)
            row.append(-cof if (i + j) % 2 else cof)
        out.append(tuple(row))
    return tuple(out)


def charpoly_at_self(m: ExprMatrix) -> ExprMatrix:
    """The characteristic polynomial of the symbolic matrix evaluated
    at the matrix itself, componentwise."""
    n = len(m)
    coeffs = [PolyExpression.one()]
    for k in range(1, n + 1):
        acc = PolyExpression.zero()
        for subset in itertools.combinations(range(n), k):
            acc = acc + _det_submatrix(m, subset, subset)
        coeffs.append(-acc if k % 2 else acc)
    powers = [_identity_expression(n)]
    for _ in range(n):
        powers.append(matmul_expression(powers[-1], m))
    out = [[PolyExpression.zero()] * n for _ in range(n)]
    for k in range(n + 1):
        power = powers[n - k]
        for i in range(n):
            for j in range(n):
                out[i][j] = out[i][j] + coeffs[k] * power[i][j]
    return tuple(tuple(row) for row in out)


def _identity_expression(n: int) -> ExprMatrix:
    return tuple(
        tuple(
            PolyExpression.one() if i == j else PolyExpression.zero()
            for j in range(n)
        )
        for i in range(n)
    )


# ---------------------------------------------------------------------------
# canned suites


@dataclass(frozen=True)
class CannedIdentity:
    name: str
    relation: str
    components: Tuple[Tuple[PolyExpression, PolyExpression], ...]
    strong: bool = False


def canned_identities(sizes: Sequence[int] = (2, 3)) -> Tuple[CannedIdentity, ...]:
    suites = []
    for n in sizes:
        a = symbolic_matrix(n)
        b = symbolic_matrix(n, n * n)
        det_a = det_expression(a)
        det_b = det_expression(b)
        det_ab = det_expression(matmul_expression(a, b))
        suites.append(
            CannedIdentity(
                f"det-mult-n{n}", "surpass",
                ((det_ab, det_a * det_b),), strong=True,
            )
        )
        a_adj = matmul_expression(a, adjoint_expression(a))
        comps = []
        for i in range(n):
            for j in range(n):
                rhs = det_a if i == j else PolyExpression.zero()
                comps.append((a_adj[i][j], rhs))
        suites.append(
            CannedIdentity(f"a-adj-n{n}", "surpass", tuple(comps), strong=True)
        )
        suites.append(
            CannedIdentity(
                f"det-a-adj-n{n}", "equal",
                ((det_expression(a_adj), det_a**n),),
            )
        )
        sq = matmul_expression(a_adj, a_adj)
        comps = tuple(
            (sq[i][j], det_a * a_adj[i][j])
            for i in range(n)
            for j in range(n)
        )
        suites.append(CannedIdentity(f"a-adj-sq-n{n}", "equal", comps))
        ch = charpoly_at_self(a)
        comps = tuple(
            (ch[i][j], PolyExpression.zero())
            for i in range(n)
            for j in range(n)
        )
        suites.append(
            CannedIdentity(f"cayley-hamilton-n{n}", "surpass", comps, strong=True)
        )
    return tuple(suites)


def corrupted_det_mult(n: int = 2) -> CannedIdentity:
    """det-mult with one permutation sign of det(B) flipped; the
    symbolic ring stage must report this as a failure."""
    a = symbolic_matrix(n)
    b = symbolic_matrix(n, n * n)
    det_ab = det_expression(matmul_expression(a, b))
    total = PolyExpression.zero()
    flipped = False
    for perm in itertools.permutations(range(n)):
        prod = PolyExpression.one()
        for i, j in enumerate(perm):
            prod = prod * b[i][j]
        if _parity(perm) and not flipped:
            flipped = True
        elif _parity(perm):
            prod = -prod
        total = total + prod
    return CannedIdentity(
        f"mutated-det-mult-n{n}", "surpass",
        ((det_ab, det_expression(a) * total),), strong=True,
    )


@dataclass(frozen=True)
class SuiteRecord:
    name: str
    ok: bool
    seed: int
    reports: Tuple[CheckReport, ...]

    @property
    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name} {self.seed}"


def run_identity(ident: CannedIdentity, trials: int = 1000, seed: int = 42) -> SuiteRecord:
    reports = []
    for p, q in ident.components:
        if ident.relation == "surpass":
            reports.append(check_surpass(p, q, trials, seed, strong=ident.strong))
        elif ident.relation == "equal":
            reports.append(check_equal(p, q, trials, seed))
        else:
            reports.append(check_nabla(p, q, trials, seed))
    ok = all(r.ok for r in reports)
    return SuiteRecord(ident.name, ok, seed, tuple(reports))


SUITE_FAMILIES = (
    "det-mult",
    "a-adj",
    "det-a-adj",
    "a-adj-sq",
    "cayley-hamilton",
    "mutation-control",
)


def _family(name: str) -> str:
    head, sep, tail = name.rpartition("-n")
    if sep and tail.isdigit():
        return head
    return name


def run_suite(
    names: Optional[Sequence[str]] = None,
    trials: int = 1000,
    seed: int = 42,
    sizes: Sequence[int] = (2, 3),
) -> List[SuiteRecord]:
    """Run the canned identity families requested by name (all when
    names is None), plus the mutation control, which passes exactly
    when the corrupted identity is detected as failing."""
    wanted = None if names is None else set(names)
    records = []
    for ident in canned_identities(sizes):
        if wanted is None or _family(ident.name) in wanted:
            records.append(run_identity(ident, trials, seed))
    if wanted is None or "mutation-control" in wanted:
        mutated = run_identity(corrupted_det_mult(), trials=10, seed=seed)
        records.append(
            SuiteRecord("mutation-control", not mutated.ok, seed, mutated.reports)
        )
    return records
