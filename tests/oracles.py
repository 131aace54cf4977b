"""Brute-force routes that the library's algorithms are checked against.

They enumerate what the library computes by other means (every
permutation, every walk), so they are exponential and live with the
tests, not in ``eltlab``.
"""

import itertools
from typing import Dict

from eltlab import ELTMatrix, ELTPolynomial, ELTScalar, NEG_INF, ONE
from eltlab.matrix import _parity


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
