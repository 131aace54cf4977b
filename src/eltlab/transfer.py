"""Formal polynomial identities checked symbolically and in two layered
models.

An expression is a pair (P+, P-) of positive trees built from 0, 1,
variables x1..xm, sums, and products; the pair stands for P+ - P-.
A proposed identity P = Q is verified in two stages.  The classical
hypothesis is checked symbolically: both sides are expanded to exact
integer-coefficient monomial tables and compared, never sampled.  The
layered conclusion (surpassing or equality) is then sampled in the
max-plus model and then the ELT model, on one seeded generator, so
that any failure is reproducible.  The components of one identity with
the same variable count share that generator: each trial's assignment
is drawn once and judged for all of them.  The compiled programs and
the symbolic verdicts depend on no seed: they form a plan, which
``run_suite`` builds once per family and size and keeps for the life
of the process, so a repeated suite only draws and evaluates.

Expressions are compiled, on an explicit stack, into a straight-line
program: a topologically ordered list of binary sums and products over
slots.  The program is value-numbered (Cocke 1970): sums and products
commute in every model, so the same op on the same two slots gets one
slot, and both sides of all the components in a group compile into
one program that computes each shared subexpression once.  Sampling
runs that program on plain ints, since every sampled tangible and
layer is an integer and so is every value computed from them, with
None for -inf.  It runs over blocks of trials: one draw per block, and
one pass over the program per block, each slot holding a column of
the block's values (for ELT, one list of tangibles and one of layers)
and each op one list comprehension.  Surpassing is decided on the ints
by its closed form, and scalars are built only to print
counterexamples.  Expansion runs the same program once over monomial
tables whose monomials are packed into ints (Kronecker substitution).
Both drop each slot's value after its last use, and rendering,
equality and hashing walk the same children-first list of subtrees, so
no operation on an expression recurses.

The canned families encode the determinant, adjoint, and
characteristic polynomial identities componentwise, plus a mutation
control with one deliberately corrupted sign that the symbolic stage
must reject.  Their determinants and adjugates come from one signed
expansion over column subsets (``subset_terms``, ``adjugate``) that
runs over any carrier; on ELT scalars it is the tests' reference for
``matrix``'s int kernel.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar, Union

from .core import ELTScalar, NEG_INF, Record, format_scalar, parse_int
from .errors import ParseError, UnboundVariable

if TYPE_CHECKING:
    from .reports import SuiteRecord


# ---------------------------------------------------------------------------
# positive expression trees


class Const(Record):
    __slots__ = ("value",)

    def __init__(self, value: int):
        object.__setattr__(self, "value", value)


class Var(Record):
    __slots__ = ("index",)

    def __init__(self, index: int):
        object.__setattr__(self, "index", index)


class Add(Record):
    __slots__ = ("args",)

    def __init__(self, args: Tuple["Node", ...]):
        object.__setattr__(self, "args", args)


class Mul(Record):
    __slots__ = ("args",)

    def __init__(self, args: Tuple["Node", ...]):
        object.__setattr__(self, "args", args)


Node = Const | Var | Add | Mul

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

    __slots__ = ("pos", "neg", "_program")

    def __init__(self, pos: Node, neg: Node = _ZERO):
        self.pos = pos
        self.neg = neg
        self._program: Optional[_Program] = None  # set by _program

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
        # one table numbers both, so equal trees get equal numbers
        table: Dict[tuple, int] = {}

        def number(key: tuple) -> int:
            return table.setdefault(key, len(table))

        return _shapes(self, number) == _shapes(other, number)

    def __hash__(self) -> int:
        return hash(_shapes(self, hash))

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
            while j < len(text) and text[j] in "0123456789":
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


# deepest parenthesis nesting the recursive-descent parser accepts
_MAX_NESTING = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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
            return Var(parse_int(value[1:], at))
        if kind == "(":
            if self.depth == _MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {_MAX_NESTING} levels", at
                )
            self.take("(")
            self.depth += 1
            node = self.expr()
            self.take(")")
            self.depth -= 1
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


def format_expression(e: PolyExpression) -> str:
    """The text of e, with a sum inside a product in parentheses.

    Subtrees are rendered children first, in the order of ``_walk``,
    so the depth of e needs no recursion."""
    texts: Dict[int, str] = {}

    def text(node: Node, in_product: bool = False) -> str:
        if isinstance(node, Const):
            return str(node.value)
        if isinstance(node, Var):
            return f"x{node.index}"
        body = texts[id(node)]
        return f"({body})" if in_product and isinstance(node, Add) else body

    for node in _walk((e,))[0]:
        if isinstance(node, Mul):
            texts[id(node)] = "*".join(text(a, True) for a in node.args)
        else:
            texts[id(node)] = " + ".join(map(text, node.args))
    if _is_zero(e.neg):
        return text(e.pos)
    return f"{text(e.pos)} - {text(e.neg)}"


# ---------------------------------------------------------------------------
# straight-line programs


# (is_product, left slot, right slot), in program order
Ops = list[tuple[bool, int, int]]
# the (pos, neg) slots of each compiled expression
Outputs = tuple[tuple[int, int], ...]


class _Program(NamedTuple):
    """Expressions compiled together to binary sums and products over
    slots.

    Slot 0 holds zero, slot 1 holds one and slot k + 1 holds x_k, for k
    up to ``top``, the highest variable index.  Op i, a triple
    (is_product, left slot, right slot) with left <= right, writes slot
    2 + top + i.  ``outputs`` holds the (pos, neg) slots of each
    expression, in the order given.  ``last`` holds, per slot, the
    last op that reads it, after which a run drops its value, or -1
    for a slot that is kept: an output, or a slot no op reads."""

    top: int
    ops: Ops
    outputs: Outputs
    last: tuple[int, ...]


def _walk(exprs: Sequence[PolyExpression]) -> Tuple[List[Node], int]:
    """The distinct sums and products of the expressions, children
    first, and the highest variable index.

    The trees are walked in order, pos before neg, on an explicit stack,
    in post-order; a subtree shared by identity is listed once.  A
    1-tuple on the stack marks a node whose children are done."""
    order: List[Node] = []
    seen = set()
    top = 0
    stack: list = [side for e in reversed(exprs) for side in (e.neg, e.pos)]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:
            order.append(node[0])
        elif kind is Var:
            if node.index > top:
                top = node.index
        elif kind is not Const and id(node) not in seen:
            seen.add(id(node))
            stack.append((node,))
            stack.extend(reversed(node.args))
    return order, top


def _shapes(e: PolyExpression, number: Callable[[tuple], int]) -> Tuple[int, int]:
    """The numbers ``number`` gives the trees of e, pos then neg.

    A leaf is numbered by its kind and value, a sum or product by its
    kind and the numbers of its arguments, children first."""
    numbers: Dict[int, int] = {}

    def of(node: Node) -> int:
        if isinstance(node, Const):
            return number((0, node.value))
        if isinstance(node, Var):
            return number((1, node.index))
        return numbers[id(node)]

    for node in _walk((e,))[0]:
        numbers[id(node)] = number((2 + isinstance(node, Mul), *map(of, node.args)))
    return of(e.pos), of(e.neg)


def _compile(exprs: Sequence[PolyExpression]) -> _Program:
    """One program for all the expressions, value-numbered.

    An n-ary sum or product folds left in argument order.  Sums and
    products commute in every model (monomial tables, max-plus ints and
    ELT pairs), so a binary op is keyed by its kind and its two slots in
    increasing order, and the same op on the same slots, in any
    expression and on either side, gets one slot."""
    order, top = _walk(exprs)
    slots: Dict[int, int] = {}
    numbered: Dict[Tuple[bool, int, int], int] = {}

    def slot(node: Node) -> int:
        if isinstance(node, Const):
            return 0 if node.value == 0 else 1
        if isinstance(node, Var):
            return node.index + 1
        return slots[id(node)]

    ops: Ops = []
    for node in order:
        product = isinstance(node, Mul)
        acc = 1 if product else 0  # the empty product and sum
        if node.args:
            acc = slot(node.args[0])
            for arg in node.args[1:]:
                b = slot(arg)
                key = (product, acc, b) if acc <= b else (product, b, acc)
                got = numbered.get(key)
                if got is None:
                    ops.append(key)
                    got = numbered[key] = top + 1 + len(ops)
                acc = got
        slots[id(node)] = acc
    outputs = tuple((slot(e.pos), slot(e.neg)) for e in exprs)
    last = [-1] * (2 + top + len(ops))
    for i, (_, a, b) in enumerate(ops):
        last[a] = last[b] = i
    for pair in outputs:
        for s in pair:
            last[s] = -1
    return _Program(top, ops, outputs, tuple(last))


def _program(e: Union[PolyExpression, _Program]) -> _Program:
    """e itself if it is a program, else the program of e alone, built
    on the first call and cached on e."""
    if isinstance(e, _Program):
        return e
    if e._program is None:
        e._program = _compile((e,))
    return e._program


# ---------------------------------------------------------------------------
# exact expansion


Exponents = tuple[int, ...]


class MonomialTable(Record):
    """Exact expansion counts: exponent vector -> (count in P+, count
    in P-)."""

    __slots__ = ("nvars", "entries")

    def __init__(self, nvars: int, entries: Dict[Exponents, Tuple[int, int]]):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", entries)

    @property
    def has_disjoint_support(self) -> bool:
        return all(plus == 0 or minus == 0 for plus, minus in self.entries.values())

    def net(self) -> Dict[Exponents, int]:
        out = {}
        for key, (plus, minus) in self.entries.items():
            if plus != minus:
                out[key] = plus - minus
        return out


def _run_monomials(ops: Ops, v: List[Optional[Dict[int, int]]], last: Sequence[int]) -> None:
    """Run a program over monomial tables (packed exponents -> count),
    appending one table per op to v.  A product of two monomials is the
    sum of their keys.  Each table is dropped after op ``last[slot]``."""
    for i, (product, a, b) in enumerate(ops):
        x = v[a]
        y = v[b]
        if product:
            out: Dict[int, int] = {}
            get = out.get
            for k1, c1 in x.items():
                for k2, c2 in y.items():
                    key = k1 + k2
                    out[key] = get(key, 0) + c1 * c2
        else:
            out = dict(x)
            for key, c in y.items():
                out[key] = out.get(key, 0) + c
        v.append(out)
        if last[a] == i:
            v[a] = None
        if last[b] == i:
            v[b] = None


def expand(
    e: Union[PolyExpression, _Program], nvars: Optional[int] = None
) -> Union[MonomialTable, Tuple[MonomialTable, ...]]:
    """The monomial table of e over ``nvars`` variables, by default its
    highest variable index.  Given a program compiled from several
    expressions, the tuple of their tables, in order; the program runs
    once for all of them.

    Monomials are packed into ints (Kronecker substitution): each slot
    gets a bound on its total degree, the sum of its inputs' bounds for
    a product and the larger one for a sum, and with ``base`` the
    largest bound plus one, x_k is ``base**(k-1)``.  No exponent can
    reach ``base``, so a product of monomials is one int addition that
    never carries, and only the output tables are unpacked to exponent
    tuples."""
    top, ops, outputs, last = _program(e)
    if nvars is None:
        nvars = top
    elif nvars < top:
        raise ValueError(f"expression has x{top}, more than {nvars} variables")
    bound = [0, 0] + [1] * top
    for product, a, b in ops:
        bound.append(bound[a] + bound[b] if product else max(bound[a], bound[b]))
    base = max(bound) + 1
    v: List[Optional[Dict[int, int]]] = [{}, {0: 1}]
    v.extend({base**k: 1} for k in range(top))
    _run_monomials(ops, v, last)
    pad = (0,) * (nvars - top)
    tables = []
    for pos, neg in outputs:
        counts = {key: (c, 0) for key, c in v[pos].items()}
        for key, c in v[neg].items():
            counts[key] = (counts.get(key, (0, 0))[0], c)
        entries = {}
        for key, pair in counts.items():
            digits = []
            for _ in range(top):
                key, digit = divmod(key, base)
                digits.append(digit)
            entries[(*digits, *pad)] = pair
        tables.append(MonomialTable(nvars, entries))
    return tuple(tables) if isinstance(e, _Program) else tables[0]


# ---------------------------------------------------------------------------
# evaluation models
#
# Each model runs a program over columns: a slot holds its values over
# a block of trials, one list per part of a value, and each op is one
# pass over its operands' lists.  A max-plus value has one part, its
# tangible.  An ELT value has two, its tangible and its layer, kept in
# two lists of ints rather than one list of (tangible, layer) tuples,
# so a block creates no tuple for the cyclic collector to track.  A
# tangible is None for -inf, and the layer of -inf is 0, which every op
# keeps: a product with -inf has the layer product 0, and a sum of two
# -infs takes the first one's layer.  So two ELT values are equal
# exactly when their tangibles and their layers are.  Each slot's
# column is dropped after the last op that reads it, and a run returns,
# for each output, the column of the sum of pos and the negation of
# neg.
#
# A model's ``sample`` draws values straight from ``getrandbits``, with
# the rejection loops that ``random`` runs on it.  A value is -inf when
# a 4-bit draw, redrawn while >= 10, is 0: that is ``randrange(10) ==
# 0``.  Otherwise its tangible is a 5-bit draw, redrawn while >= 21,
# minus 10: ``randint(-10, 10)``.  An ELT value takes its layer from
# ``_LAYERS`` at a 3-bit draw, redrawn while >= 5: ``choice(_LAYERS)``.
# The stdlib methods make those same ``getrandbits`` calls, so the
# stream, and every verdict drawn from it, is theirs.


Pair = tuple[int, int] | None
Column = tuple[list, ...]


def _dominates(x: Optional[int], y: Optional[int]) -> bool:
    """x >= y on the ints with None below every int."""
    return y is None or (x is not None and x >= y)


def _surpasses(p: Optional[int], l: int, q: Optional[int], m: int) -> bool:
    """p^[l] surpasses q^[m], by the closed form of
    ``ELTScalar.surpasses``: they are equal, or the first has layer 0
    and the second is -inf or has a smaller tangible.  A tangible is
    None for -inf, whose layer is 0."""
    return (p == q and l == m) or (p is not None and l == 0 and (q is None or p > q))


def _elt_equal(p: Optional[int], l: int, q: Optional[int], m: int) -> bool:
    """p^[l] equals q^[m], a tangible None for -inf, whose layer is 0."""
    return p == q and l == m


def _max(x: Sequence[Optional[int]], y: Sequence[Optional[int]]) -> list:
    """The trialwise max of two columns of tangibles.  The runners
    write it inline for their ops, where a call per op cost about a
    tenth of a pass at 30 trials."""
    return [q if p is None else p if q is None or p >= q else q for p, q in zip(x, y)]


# LAYER_CHOICES of tests/rand.py as ints: a choice over either takes the
# same draw
_LAYERS = (-2, -1, 0, 1, 2)


def _draw(rng: random.Random, count: int, layered: bool) -> tuple:
    """``count`` values drawn as this section's comment says: each None or a
    tangible, paired with a layer when ``layered``."""
    getrandbits = rng.getrandbits
    values = []
    for _ in range(count):
        r = getrandbits(4)
        while r >= 10:
            r = getrandbits(4)
        if not r:
            values.append(None)
            continue
        t = getrandbits(5)
        while t >= 21:
            t = getrandbits(5)
        if layered:
            l = getrandbits(3)
            while l >= 5:
                l = getrandbits(3)
            values.append((t - 10, _LAYERS[l]))
        else:
            values.append(t - 10)
    return tuple(values)


class MaxPlusModel:
    """Ints with max and plus, None for -inf; negation is trivial.  A
    column is a 1-tuple: the list of tangibles."""

    def sample(self, rng: random.Random, count: int) -> Tuple[Optional[int], ...]:
        """``count`` values, each -inf or a tangible in -10..10."""
        return _draw(rng, count, False)

    def show(self, a: Optional[int]) -> str:
        return "-inf" if a is None else str(a)

    def value(self, column: Column, trial: int) -> Optional[int]:
        return column[0][trial]

    def run(self, program: _Program, values: Sequence[Optional[int]], k: int) -> Tuple[Column, ...]:
        """The column of each output over k trials, where ``values``
        holds x1..x_top of each trial in turn, as ``sample`` draws them."""
        top, ops, outputs, last = program
        v: List[Optional[Sequence[Optional[int]]]] = [[None] * k, [0] * k]
        v.extend(values[j::top] for j in range(top))
        append = v.append
        for i, (product, a, b) in enumerate(ops):
            x = v[a]
            y = v[b]
            if product:
                append([None if p is None or q is None else p + q for p, q in zip(x, y)])
            else:
                append([q if p is None else p if q is None or p >= q else q for p, q in zip(x, y)])
            if last[a] == i:
                v[a] = None
            if last[b] == i:
                v[b] = None
        return tuple((_max(v[pos], v[neg]),) for pos, neg in outputs)


def _scalar(a: Pair) -> ELTScalar:
    """The ELT scalar tangible^[layer] of a pair, -inf for None, for
    printing."""
    return NEG_INF if a is None else ELTScalar(*a)


class ELTModel:
    """(tangible, layer) pairs of ints, None for -inf; negation flips
    the layer.  A column is a pair of lists: the tangibles and the
    layers."""

    def sample(self, rng: random.Random, count: int) -> Tuple[Pair, ...]:
        """``count`` values, each -inf or a tangible in -10..10 with a
        layer from ``_LAYERS``."""
        return _draw(rng, count, True)

    def show(self, a: Pair) -> str:
        return format_scalar(_scalar(a))

    def value(self, column: Column, trial: int) -> Pair:
        tangible = column[0][trial]
        return None if tangible is None else (tangible, column[1][trial])

    def run(self, program: _Program, values: Sequence[Pair], k: int) -> Tuple[Column, ...]:
        """The column of each output over k trials, where ``values``
        holds x1..x_top of each trial in turn, as ``sample`` draws them.

        A sum takes the layer of the operand with the larger tangible,
        or the sum of both layers on a tie; a product multiplies the
        layers; the negation of neg flips its layers."""
        top, ops, outputs, last = program
        ts: List[Optional[list]] = [[None] * k, [0] * k]
        ls: List[Optional[list]] = [[0] * k, [1] * k]
        for j in range(top):
            column = values[j::top]
            ts.append([None if x is None else x[0] for x in column])
            ls.append([0 if x is None else x[1] for x in column])
        for i, (product, a, b) in enumerate(ops):
            x = ts[a]
            y = ts[b]
            if product:
                ts.append([None if p is None or q is None else p + q for p, q in zip(x, y)])
                ls.append([l * m for l, m in zip(ls[a], ls[b])])
            else:
                ts.append([q if p is None else p if q is None or p >= q else q for p, q in zip(x, y)])
                ls.append([
                    l if q is None else m if p is None or q > p else l if p > q else l + m
                    for p, q, l, m in zip(x, y, ls[a], ls[b])
                ])
            if last[a] == i:
                ts[a] = ls[a] = None
            if last[b] == i:
                ts[b] = ls[b] = None
        out = []
        for pos, neg in outputs:
            x = ts[pos]
            y = ts[neg]
            out.append((_max(x, y), [
                l if q is None else -m if p is None or q > p else l if p > q else l - m
                for p, q, l, m in zip(x, y, ls[pos], ls[neg])
            ]))
        return tuple(out)


MAXPLUS_MODEL = MaxPlusModel()
ELT_MODEL = ELTModel()


def evaluate(
    e: Union[PolyExpression, _Program],
    model,
    assignment: Sequence[object],
    trials: Optional[int] = None,
):
    """Evaluate pos and neg in the model, with x_k bound to
    assignment[k - 1], and combine them with the model's negation.
    Given a program compiled from several expressions, the tuple of
    their values, in order; the program runs once for all of them.

    Given ``trials``, ``assignment`` holds that many assignments of
    x1..x_top in turn, as ``sample`` draws them, the program runs once
    over columns of that many trials, and each value is the model's
    column instead.  Without it, the program runs on one-trial columns."""
    program = _program(e)
    top = program.top
    k = 1 if trials is None else trials
    if top * k > len(assignment):
        raise UnboundVariable(f"no value bound for x{top}")
    values = model.run(program, assignment[:top * k], k)
    if trials is None:
        values = tuple(model.value(column, 0) for column in values)
    return values if isinstance(e, _Program) else values[0]


# ---------------------------------------------------------------------------
# randomized identity checks


class CheckReport(Record):
    __slots__ = (
        "relation", "ring_ok", "maxplus_ok", "elt_ok", "strong_ok", "trials", "seed",
        "counterexamples",
    )

    def __init__(
        self,
        relation: str,
        ring_ok: bool,
        maxplus_ok: bool,
        elt_ok: bool,
        strong_ok: Optional[bool],
        trials: int,
        seed: int,
        counterexamples: Tuple[str, ...],
    ):
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "ring_ok", ring_ok)
        object.__setattr__(self, "maxplus_ok", maxplus_ok)
        object.__setattr__(self, "elt_ok", elt_ok)
        object.__setattr__(self, "strong_ok", strong_ok)
        object.__setattr__(self, "trials", trials)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "counterexamples", counterexamples)

    @property
    def ok(self) -> bool:
        return (
            self.ring_ok
            and self.maxplus_ok
            and self.elt_ok
            and self.strong_ok is not False
        )


# relation -> its sampled stages (label, model, holds), run in this order
# on one generator; holds takes the parts of lhs, then those of rhs
_STAGES = {
    "surpass": (
        ("maxplus", MAXPLUS_MODEL, _dominates),
        ("elt", ELT_MODEL, _surpasses),
    ),
    "equal": (
        ("maxplus", MAXPLUS_MODEL, operator.eq),
        ("elt", ELT_MODEL, _elt_equal),
    ),
}

# trials per pass over a program: one pass spreads its per-op cost over
# the block, and the block bounds the memory a pass holds
BLOCK = 256


Component = tuple[PolyExpression, PolyExpression]


class _Plan(NamedTuple):
    """The part of checking (p, q) pairs that no seed changes.

    Pairs with the same variable count form a group, and ``groups``
    holds each group's variable count, the indices of its pairs and the
    program of both sides of all of them, p before q.  ``ring_ok`` and
    ``strong_ok`` hold each pair's symbolic verdicts, in pair order;
    ``strong_ok`` is None outside strong mode.  A plan holds no
    expression and no monomial table."""

    groups: tuple[tuple[int, tuple[int, ...], _Program], ...]
    ring_ok: tuple[bool, ...]
    strong_ok: tuple[bool | None, ...]


def _plan(components: Sequence[Component], strong: bool) -> _Plan:
    """The plan of the (p, q) pairs.

    One walk over each pair finds its variable count.  Both sides of
    all the pairs of a group compile into one program, so a
    subexpression they share is computed once, and the program is
    expanded once for the symbolic stage."""
    groups: Dict[int, List[int]] = {}
    for i, pair in enumerate(components):
        groups.setdefault(_walk(pair)[1], []).append(i)
    planned = []
    ring_ok = [False] * len(components)
    strong_ok: List[Optional[bool]] = [None] * len(components)
    for nvars, members in groups.items():
        program = _compile([side for i in members for side in components[i]])
        tables = expand(program)
        for i, p_table, q_table in zip(members, tables[::2], tables[1::2]):
            ring_ok[i] = p_table.net() == q_table.net()
            if strong:
                strong_ok[i] = q_table.has_disjoint_support
        planned.append((nvars, tuple(members), program))
    return _Plan(tuple(planned), tuple(ring_ok), tuple(strong_ok))


def _sample(plan: _Plan, relation: str, trials: int, seed: int) -> Tuple[CheckReport, ...]:
    """The report of ``check_identity`` on each pair of the plan, in
    order.

    Each group shares one generator seeded with ``seed``, and runs its
    trials in blocks of ``BLOCK``: one ``sample`` call draws a block's
    assignments, the group's program runs once over their columns, and
    every pair of the group is judged on every trial of the block.  No
    draw depends on a value, so those are the draws each pair would
    make trial by trial on a generator of its own, and its report is
    the same.  Only a failing pair's trials are walked, in order, for
    its first three counterexamples.  A block is dropped before the
    next is drawn, so memory does not grow with ``trials``."""
    stages = _STAGES[relation]
    failures: List[List[str]] = [[] for _ in plan.ring_ok]
    verdicts: List[List[bool]] = [[] for _ in plan.ring_ok]
    for nvars, members, program in plan.groups:
        rng = random.Random(seed)
        for label, model, holds in stages:
            for i in members:
                verdicts[i].append(True)
            for start in range(0, trials, BLOCK):
                k = min(BLOCK, trials - start)
                values = model.sample(rng, nvars * k)
                out = evaluate(program, model, values, k)
                for i, lhs, rhs in zip(members, out[::2], out[1::2]):
                    if all(map(holds, *lhs, *rhs)):
                        continue
                    verdicts[i][-1] = False
                    failed = failures[i]
                    for t, parts in enumerate(zip(*lhs, *rhs)):
                        if len(failed) == 3:
                            break
                        if holds(*parts):
                            continue
                        shown = ", ".join(
                            f"x{j + 1}={model.show(v)}"
                            for j, v in enumerate(values[t * nvars:(t + 1) * nvars])
                        )
                        failed.append(
                            f"{label} trial {start + t}: {shown}: "
                            f"lhs={model.show(model.value(lhs, t))} "
                            f"rhs={model.show(model.value(rhs, t))}"
                        )
    reports = []
    for ring_ok, strong_ok, (maxplus_ok, elt_ok), failed in zip(
        plan.ring_ok, plan.strong_ok, verdicts, failures
    ):
        if strong_ok is False:
            failed.append("strong: right side has overlapping monomial support")
        reports.append(CheckReport(
            relation, ring_ok, maxplus_ok, elt_ok, strong_ok, trials, seed, tuple(failed),
        ))
    return tuple(reports)


def check_identity(
    p: PolyExpression,
    q: PolyExpression,
    relation: str,
    trials: int = 1000,
    seed: int = 42,
    strong: bool = False,
) -> CheckReport:
    """Symbolic ring identity, then the relation sampled in the
    max-plus and ELT models: tangible dominance and scalar surpassing
    for "surpass", equality in both for "equal".  In strong mode the
    right side must also have disjoint monomial support.  At most
    three sampled counterexamples are kept."""
    return _sample(_plan(((p, q),), strong), relation, trials, seed)[0]


# ---------------------------------------------------------------------------
# expression-level linear algebra


ExprMatrix = tuple[tuple[PolyExpression, ...], ...]
Entry = TypeVar("Entry")  # of any carrier the column-subset expansions run over


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


def subset_terms(
    rows: Iterable[Sequence[Entry]], zero: Entry, one: Entry
) -> Dict[int, Entry]:
    """The signed expansion of the grid rows over column subsets, over
    any carrier with this zero and one: column set C (a bit mask) ->
    the sum, over the ways of placing the rows in distinct columns of C,
    of the product of their entries, signed by the inversions.

    The rows are placed in order, each in a column no earlier row took;
    placing a row in column j multiplies by its entry there and flips
    the sign once per used column above j.  A product that *is* zero is
    dropped, and a set no product reaches is left out.  For a square
    grid the one full set holds the determinant; for n-1 rows of width
    n the set without column j holds the minor that deletes column j.
    About 2^n*n products per row.
    """
    dp = {0: one}
    for row in rows:
        placed: Dict[int, Entry] = {}
        for used, prefix in dp.items():
            for j, x in enumerate(row):
                if used >> j & 1:
                    continue
                prod = prefix * x
                if prod is zero:
                    continue
                if (used >> j).bit_count() & 1:
                    prod = -prod
                cols = used | 1 << j
                have = placed.get(cols)
                placed[cols] = prod if have is None else have + prod
        dp = placed
    return dp


def adjugate(
    rows: Sequence[Sequence[Entry]], zero: Entry, one: Entry
) -> Tuple[Tuple[Entry, ...], ...]:
    """The transposed cofactor matrix of the square grid rows, over the
    carrier of ``subset_terms``.

    For each row k the rows without it are expanded over column subsets
    (``subset_terms``); entry (j, k) is ``(-1)^(j+k)`` times the value
    at the set of all columns but j, the minor that deletes row k and
    column j.  That is n expansions of about 2^(n-1)*n products each,
    where a cofactor walk of the permutations takes about (2n+e)*n!.
    A 1x1 grid gets [[one]].
    """
    n = len(rows)
    every = (1 << n) - 1
    out = [[zero] * n for _ in range(n)]
    for k in range(n):
        minors = subset_terms((row for i, row in enumerate(rows) if i != k), zero, one)
        for j in range(n):
            minor = minors.get(every ^ 1 << j)
            if minor is not None:
                out[j][k] = -minor if (j + k) & 1 else minor
    return tuple(tuple(row) for row in out)


def det_expression(m: ExprMatrix) -> PolyExpression:
    """The value at the full column set of the column-subset expansion
    ``subset_terms``, signs carried by the pair algebra."""
    return subset_terms(m, PolyExpression.zero(), PolyExpression.one())[(1 << len(m)) - 1]


def adjoint_expression(m: ExprMatrix) -> ExprMatrix:
    """The adjugate of m, by the column-subset expansion of ``adjugate``."""
    return adjugate(m, PolyExpression.zero(), PolyExpression.one())


def charpoly_at_self(m: ExprMatrix) -> ExprMatrix:
    """The characteristic polynomial of the symbolic matrix evaluated
    at the matrix itself, componentwise."""
    n = len(m)
    coeffs = [PolyExpression.one()]
    for k in range(1, n + 1):
        acc = PolyExpression.zero()
        for subset in itertools.combinations(range(n), k):
            acc = acc + det_expression(tuple(tuple(m[i][j] for j in subset) for i in subset))
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


class CannedIdentity(Record):
    __slots__ = ("name", "relation", "components", "strong")

    def __init__(
        self, name: str, relation: str, components: Tuple[Component, ...], strong: bool = False
    ):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "strong", strong)


def _det_mult(n: int) -> CannedIdentity:
    a = symbolic_matrix(n)
    b = symbolic_matrix(n, n * n)
    det_ab = det_expression(matmul_expression(a, b))
    return CannedIdentity(
        f"det-mult-n{n}", "surpass",
        ((det_ab, det_expression(a) * det_expression(b)),), strong=True,
    )


def _det_and_a_adj(n: int) -> Tuple[PolyExpression, ExprMatrix]:
    """det(A) and A*adj(A) for the symbolic n x n matrix A."""
    a = symbolic_matrix(n)
    return det_expression(a), matmul_expression(a, adjoint_expression(a))


def _a_adj(n: int) -> CannedIdentity:
    det_a, a_adj = _det_and_a_adj(n)
    comps = tuple(
        (a_adj[i][j], det_a if i == j else PolyExpression.zero())
        for i in range(n)
        for j in range(n)
    )
    return CannedIdentity(f"a-adj-n{n}", "surpass", comps, strong=True)


def _det_a_adj(n: int) -> CannedIdentity:
    det_a, a_adj = _det_and_a_adj(n)
    return CannedIdentity(
        f"det-a-adj-n{n}", "equal", ((det_expression(a_adj), det_a**n),)
    )


def _a_adj_sq(n: int) -> CannedIdentity:
    det_a, a_adj = _det_and_a_adj(n)
    sq = matmul_expression(a_adj, a_adj)
    comps = tuple(
        (sq[i][j], det_a * a_adj[i][j])
        for i in range(n)
        for j in range(n)
    )
    return CannedIdentity(f"a-adj-sq-n{n}", "equal", comps)


def _cayley_hamilton(n: int) -> CannedIdentity:
    ch = charpoly_at_self(symbolic_matrix(n))
    comps = tuple(
        (ch[i][j], PolyExpression.zero())
        for i in range(n)
        for j in range(n)
    )
    return CannedIdentity(f"cayley-hamilton-n{n}", "surpass", comps, strong=True)


# family name -> builder of its identity for n x n matrices, in suite order
FAMILIES: Dict[str, Callable[[int], CannedIdentity]] = {
    "det-mult": _det_mult,
    "a-adj": _a_adj,
    "det-a-adj": _det_a_adj,
    "a-adj-sq": _a_adj_sq,
    "cayley-hamilton": _cayley_hamilton,
}

SUITE_FAMILIES = (*FAMILIES, "mutation-control")


def corrupted_det_mult(n: int = 2) -> CannedIdentity:
    """det-mult with det(B) taken along B's last row, ``sum_j b[n-1][j]
    * adj(B)[j][n-1]``, with the sign of the j = 0 term flipped; the
    symbolic ring stage must report this as a failure at every n >= 1."""
    a = symbolic_matrix(n)
    b = symbolic_matrix(n, n * n)
    det_ab = det_expression(matmul_expression(a, b))
    adj = adjoint_expression(b)
    total = -(b[-1][0] * adj[0][-1])
    for j in range(1, n):
        total = total + b[-1][j] * adj[j][-1]
    return CannedIdentity(
        f"mutated-det-mult-n{n}", "surpass",
        ((det_ab, det_expression(a) * total),), strong=True,
    )


def _record(name: str, relation: str, plan: _Plan, trials: int, seed: int) -> SuiteRecord:
    from .reports import SuiteRecord

    reports = _sample(plan, relation, trials, seed)
    return SuiteRecord(name, all(r.ok for r in reports), seed, reports)


def run_identity(ident: CannedIdentity, trials: int = 1000, seed: int = 42) -> SuiteRecord:
    return _record(
        ident.name, ident.relation, _plan(ident.components, ident.strong), trials, seed
    )


@functools.cache
def _suite_plan(family: str, n: int) -> Tuple[str, str, _Plan]:
    """The name, relation and plan of a suite family's identity for
    n x n matrices, "mutation-control" standing for
    ``corrupted_det_mult``.  A plan does not depend on the seed or the
    trial count, so each is built on its first call and kept for the
    life of the process, and a repeated suite only draws and
    evaluates."""
    ident = corrupted_det_mult(n) if family == "mutation-control" else FAMILIES[family](n)
    return ident.name, ident.relation, _plan(ident.components, ident.strong)


def run_suite(
    names: Optional[Sequence[str]] = None,
    trials: int = 1000,
    seed: int = 42,
    sizes: Sequence[int] = (2, 3),
) -> List[SuiteRecord]:
    """Run the families requested by name (all when names is None),
    sizes outer and families inner, plus the mutation control, which
    passes exactly when the corrupted identity is detected as failing.
    The mutation control always runs at n = 2 with 10 trials, whatever
    ``sizes`` and ``trials`` say.  Only the requested identities are
    built, each once per process.  An unknown name raises ValueError."""
    wanted = set(SUITE_FAMILIES if names is None else names)
    unknown = sorted(wanted.difference(SUITE_FAMILIES))
    if unknown:
        raise ValueError(
            f"not an identity family: {', '.join(unknown)}; "
            f"the families are {', '.join(SUITE_FAMILIES)}"
        )
    records = [
        _record(*_suite_plan(family, n), trials, seed)
        for n in sizes
        for family in FAMILIES
        if family in wanted
    ]
    if "mutation-control" in wanted:
        from .reports import SuiteRecord

        mutated = _record(*_suite_plan("mutation-control", 2), 10, seed)
        records.append(
            SuiteRecord("mutation-control", not mutated.ok, seed, mutated.reports)
        )
    return records
