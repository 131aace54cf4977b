"""Brute-force routes that the library's algorithms are checked against.

They compute what the library computes by other means (every
permutation, every principal minor, every walk, every subtree scalar by
scalar, a polynomial evaluated with and without one monomial, every
power of a matrix, every side of an identity on a program of its own,
every monomial product as a tuple of exponents), or every term of a
max-plus step, so they are slow, exponential or recursive, and live
with the tests, not in ``eltlab``.
"""

import itertools
import operator
import random
from fractions import Fraction
from operator import add
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from eltlab import ELTMatrix, ELTPolynomial, ELTScalar, MonomialStatus, NEG_INF, ONE
from eltlab.core import BOTTOM, integer_grid
from eltlab.errors import DegeneratePolynomial, UnboundVariable
from eltlab.matrix import det, permutation_terms
from eltlab.transfer import (
    _STAGES,
    ELT_MODEL,
    MAXPLUS_MODEL,
    Add,
    CheckReport,
    Component,
    Const,
    Exponents,
    MonomialTable,
    Ops,
    PolyExpression,
    Var,
    _Program,
    _compile,
    _dominates,
    evaluate,
    num_variables,
)


def charpoly_symbolic(a: ELTMatrix) -> ELTPolynomial:
    """det(L*I + (-)A) expanded with polynomial entries.

    The permutation sum is evaluated over single-variable polynomials
    instead of scalars, a second route to ``matrix.charpoly``.
    """
    assert a.is_square
    n = a.nrows
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            cells: Dict[int, ELTScalar] = {}
            neg = -a.entry(i, j)
            if not neg.is_neg_inf:
                cells[0] = neg
            if i == j:
                cells[1] = cells[1] + ONE if 1 in cells else ONE
            row.append(ELTPolynomial(cells))
        entries.append(row)
    total = ELTPolynomial.zero()
    for odd, prod in permutation_terms(entries, ELTPolynomial.zero(), ELTPolynomial.constant(ONE)):
        total = total + (-prod if odd else prod)
    return total


def adjoint_by_minors(a: ELTMatrix) -> ELTMatrix:
    """Signed transposed cofactor matrix, one determinant per minor: a
    second route to ``matrix.adjoint``'s single cofactor walk.  For 1x1
    it is [[0^[1]]]."""
    assert a.is_square
    n = a.nrows
    if n == 1:
        return ELTMatrix([[ONE]])
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            keep_r = [r for r in range(n) if r != j]
            keep_c = [c for c in range(n) if c != i]
            cof = det(a.submatrix(keep_r, keep_c))
            row.append(cof if (i + j) % 2 == 0 else -cof)
        out.append(row)
    return ELTMatrix(out)


def charpoly_by_minors(a: ELTMatrix) -> ELTPolynomial:
    """det(L*I + (-)A) via sums of principal minors: a second route to
    ``matrix.charpoly``, one determinant per principal minor.

    The coefficient of L^(n-k) is the k-th signed principal minor sum;
    the leading coefficient is 0^[1].
    """
    assert a.is_square
    n = a.nrows
    coeffs: Dict[int, ELTScalar] = {n: ONE}
    indices = range(n)
    for k in range(1, n + 1):
        acc = NEG_INF
        for subset in itertools.combinations(indices, k):
            acc = acc + det(a.submatrix(subset, subset))
        if k % 2 == 1:
            acc = -acc
        if not acc.is_neg_inf:
            coeffs[n - k] = acc
    return ELTPolynomial(coeffs)


def classify_at(p: ELTPolynomial, deg: int, a: Fraction) -> MonomialStatus:
    """Grade one monomial at one tangible point.

    The monomial is inessential at ``a`` when dropping it does not
    change the value there and it evaluates strictly below that value;
    essential when it alone already gives the full value and the rest
    falls strictly below; quasi-essential otherwise.
    """
    c = p.coeff(deg)
    if c.is_neg_inf:
        raise ValueError(f"polynomial has no monomial of degree {deg}")
    point = ELTScalar(a, 1)
    full = p.evaluate(point)
    alone = c * point**deg
    rest = p.without(deg).evaluate(point)
    if full == rest and alone.tangible < full.tangible:
        return MonomialStatus.INESSENTIAL
    if full == alone and rest.tangible < full.tangible:
        return MonomialStatus.ESSENTIAL
    return MonomialStatus.QUASI_ESSENTIAL


def is_root(p: ELTPolynomial, x: ELTScalar) -> bool:
    return p.evaluate(x).layer == 0


def dominant_degrees(p: ELTPolynomial, x: Fraction) -> Tuple[int, ...]:
    """Degrees whose line attains the envelope at the tangible point x,
    by evaluating every monomial there: a second route to the tied
    degrees that ``poly.elt_roots`` reads off the hull sweep."""
    if p.is_zero:
        raise DegeneratePolynomial("the zero polynomial has no envelope")
    values = {d: d * x + c.tangible for d, c in p.coefficients.items()}
    top = max(values.values())
    return tuple(d for d in sorted(values) if values[d] == top)


def nilpotent_one_by_one(a: ELTMatrix, bound: Optional[int] = None) -> Tuple[bool, Optional[int]]:
    """``matrix.is_nilpotent`` by multiplying the powers A, A^2, ... one
    at a time up to the bound (default n^2)."""
    assert a.is_square
    if bound is None:
        bound = a.nrows * a.nrows
    power = a
    for m in range(1, bound + 1):
        if all(x.layer == 0 for row in power.rows for x in row):
            return True, m
        if m < bound:
            power = power * a
    return False, None


def power_entry_paths(a: ELTMatrix, k: int, i: int, j: int) -> ELTScalar:
    """Entry (i, j) of A^k as an explicit sum over length-k paths."""
    assert a.is_square and k >= 0
    n = a.nrows
    if k == 0:
        return ONE if i == j else NEG_INF
    acc = NEG_INF
    for mids in itertools.product(range(n), repeat=k - 1):
        walk = (i,) + mids + (j,)
        prod = ONE
        for x, y in zip(walk, walk[1:]):
            prod = prod * a.entry(x, y)
            if prod.is_neg_inf:
                break
        acc = acc + prod
    return acc


class FoldMaxPlusModel:
    """Rationals with max and plus, BOTTOM for -inf; negation is trivial."""

    zero = BOTTOM
    one = Fraction(0)

    def add(self, a, b):
        return max(a, b)

    def mul(self, a, b):
        return a + b

    def neg(self, a):
        return a


class FoldELTModel:
    """Layered scalars; negation flips the layer."""

    zero = NEG_INF
    one = ONE

    def add(self, a: ELTScalar, b: ELTScalar) -> ELTScalar:
        return a + b

    def mul(self, a: ELTScalar, b: ELTScalar) -> ELTScalar:
        return a * b

    def neg(self, a: ELTScalar) -> ELTScalar:
        return -a


FOLD_MAXPLUS = FoldMaxPlusModel()
FOLD_ELT = FoldELTModel()


def fold_evaluate(e: PolyExpression, model, assignment: Sequence[object]):
    """Recursive evaluation over the trees, scalar by scalar: a second
    route to ``transfer.evaluate``, which runs a compiled program on
    ints.  Recursion bounds the depth it can take."""
    memo: Dict[int, object] = {}

    def walk(node):
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Const):
            out = model.zero if node.value == 0 else model.one
        elif isinstance(node, Var):
            if node.index > len(assignment):
                raise UnboundVariable(f"no value bound for x{node.index}")
            out = assignment[node.index - 1]
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


def _run_monomials(ops: Ops, v: List[Optional[Dict[Exponents, int]]], keep: Set[int]) -> None:
    """Run a program over monomial tables (exponents -> count),
    appending one table per op to v.  The table of a slot outside
    ``keep`` is dropped after the last op that reads it."""
    last = {}
    for i, (_, a, b) in enumerate(ops):
        last[a] = last[b] = i
    for i, (product, a, b) in enumerate(ops):
        x = v[a]
        y = v[b]
        if product:
            out: Dict[Exponents, int] = {}
            for k1, c1 in x.items():
                for k2, c2 in y.items():
                    key = tuple(map(operator.add, k1, k2))
                    out[key] = out.get(key, 0) + c1 * c2
        else:
            out = dict(x)
            for key, c in y.items():
                out[key] = out.get(key, 0) + c
        v.append(out)
        for used in (a, b):
            if last[used] == i and used not in keep:
                v[used] = None


def expand_by_tuples(
    e: Union[PolyExpression, _Program], nvars: Optional[int] = None
) -> Union[MonomialTable, Tuple[MonomialTable, ...]]:
    """``transfer.expand`` with every monomial an exponent tuple and
    every product of two monomials a tuple addition, where the library
    packs each monomial into one int."""
    top, ops, outputs = e if isinstance(e, _Program) else _compile((e,))
    if nvars is None:
        nvars = top
    elif nvars < top:
        raise ValueError(f"expression has x{top}, more than {nvars} variables")
    v: List[Optional[Dict[Exponents, int]]] = [{}, {(0,) * nvars: 1}]
    v.extend({tuple(int(k == i) for k in range(nvars)): 1} for i in range(top))
    _run_monomials(ops, v, {s for pair in outputs for s in pair})
    tables = []
    for pos, neg in outputs:
        entries = {key: (c, 0) for key, c in v[pos].items()}
        for key, c in v[neg].items():
            entries[key] = (entries.get(key, (0, 0))[0], c)
        tables.append(MonomialTable(nvars, entries))
    return tuple(tables) if isinstance(e, _Program) else tables[0]


def scalar_surpasses(x, y) -> bool:
    """ELT surpassing of two pairs, None for -inf, decided on their
    scalars by ``ELTScalar.surpasses``."""
    def lift(a):
        return NEG_INF if a is None else ELTScalar(*a)

    return lift(x).surpasses(lift(y))


# transfer._STAGES with ELT surpassing decided on scalars
STAGES = {
    "surpass": (("maxplus", MAXPLUS_MODEL, _dominates), ("elt", ELT_MODEL, scalar_surpasses)),
    "equal": _STAGES["equal"],
}


def ring_equal(p: PolyExpression, q: PolyExpression) -> bool:
    """Exact identity of both sides as integer polynomials."""
    p_table, q_table = expand_by_tuples(_compile((p, q)))
    return p_table.net() == q_table.net()


def check_components_one_by_one(
    components: Sequence[Component], relation: str, trials: int, seed: int, strong: bool
) -> Tuple[CheckReport, ...]:
    """``transfer._sample(transfer._plan(...))`` with every side
    evaluated and expanded on its own: the same grouped draws, but one
    program per expression, ``ring_equal`` per pair and a second
    expansion of q for the strong stage, both over exponent tuples, and
    ELT surpassing decided on scalars, where the library runs one
    program per group, expands it over packed keys and decides
    surpassing on pairs."""
    stages = STAGES[relation]
    groups: Dict[int, List[int]] = {}
    for i, (p, q) in enumerate(components):
        groups.setdefault(max(num_variables(p), num_variables(q)), []).append(i)
    failures: List[List[str]] = [[] for _ in components]
    verdicts: List[List[bool]] = [[] for _ in components]
    for nvars, members in groups.items():
        rng = random.Random(seed)
        for label, model, holds in stages:
            for i in members:
                verdicts[i].append(True)
            for trial in range(trials):
                values = tuple(model.sample(rng) for _ in range(nvars))
                for i in members:
                    p, q = components[i]
                    lhs = evaluate(p, model, values)
                    rhs = evaluate(q, model, values)
                    if not holds(lhs, rhs):
                        verdicts[i][-1] = False
                        if len(failures[i]) < 3:
                            shown = ", ".join(
                                f"x{k + 1}={model.show(v)}" for k, v in enumerate(values)
                            )
                            failures[i].append(
                                f"{label} trial {trial}: {shown}: "
                                f"lhs={model.show(lhs)} rhs={model.show(rhs)}"
                            )
    reports = []
    for (p, q), (maxplus_ok, elt_ok), failed in zip(components, verdicts, failures):
        strong_ok = expand_by_tuples(q).has_disjoint_support if strong else None
        if strong_ok is False:
            failed.append("strong: right side has overlapping monomial support")
        reports.append(CheckReport(
            relation, ring_equal(p, q), maxplus_ok, elt_ok, strong_ok, trials,
            seed, tuple(failed),
        ))
    return tuple(reports)


def karp_full_scan(t) -> Optional[Fraction]:
    """``assign.karp_max_mean_cycle`` with every step taking the max
    over all in-edges of every vertex, where the library stops each
    scan at the first edge that cannot beat the best walk.

    The walk weights are ints, the entries scaled by their common
    denominator d, and the ratios are compared by cross-multiplying.  A
    vertex no k-edge walk reaches holds ``low``, so far below every true
    weight that a step from it stays under ``floor`` and is put back to
    ``low``.
    """
    n = len(t)
    assert all(len(row) == n for row in t)
    d, w = integer_grid(t)
    reach = n * max((abs(x) for row in w for x in row if x is not None), default=0)
    floor = -reach
    low = floor - reach - 1
    # the in-edges of each vertex; one with none reads itself through a
    # loop of weight low, which no walk can afford
    sources = [[i for i in range(n) if w[i][j] is not None] or [j] for j in range(n)]
    weights = [[low if w[i][j] is None else w[i][j] for i in srcs] for j, srcs in enumerate(sources)]
    dist = [[0] * n]
    for _ in range(n):
        step = dist[-1].__getitem__
        row = [max(map(add, map(step, srcs), ws)) for srcs, ws in zip(sources, weights)]
        dist.append([x if x >= floor else low for x in row])
    best: Optional[Tuple[int, int]] = None
    for col in zip(*dist):
        full = col[n]
        if full == low or best is not None and full * best[1] <= best[0] * n:
            continue  # no n-edge walk, or its k = 0 ratio cannot beat best
        worst = (full, n)  # k = 0: every walk starts at weight 0
        for k in range(1, n):
            part = col[k]
            if part != low and (full - part) * worst[1] < worst[0] * (n - k):
                worst = (full - part, n - k)
        if best is None or worst[0] * best[1] > best[0] * worst[1]:
            best = worst
    return None if best is None else Fraction(best[0], best[1] * d)
