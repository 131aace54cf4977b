"""Brute-force routes that the library's algorithms are checked against.

They compute what the library computes by other means (every
permutation, every walk, every subtree scalar by scalar, a polynomial
evaluated with and without one monomial), so they are slow,
exponential or recursive, and live with the tests, not in ``eltlab``.
"""

import itertools
from fractions import Fraction
from typing import Dict, Sequence

from eltlab import ELTMatrix, ELTPolynomial, ELTScalar, MonomialStatus, NEG_INF, ONE
from eltlab.core import BOTTOM
from eltlab.errors import UnboundVariable
from eltlab.matrix import _parity
from eltlab.transfer import Add, Const, PolyExpression, Var


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
    for perm in itertools.permutations(range(n)):
        prod = ELTPolynomial.constant(ONE)
        for i, j in enumerate(perm):
            prod = prod * entries[i][j]
            if prod.is_zero:
                break
        if _parity(perm):
            prod = -prod
        total = total + prod
    return total


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
