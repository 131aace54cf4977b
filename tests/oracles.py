"""Brute-force routes that the library's algorithms are checked against.

They compute what the library computes by other means (every
permutation one by one, every principal minor, every walk, every
subtree scalar by scalar, a polynomial evaluated with and without one
monomial, every power of a matrix, every side of an identity on a
program of its own, every monomial product as a tuple of exponents,
every sampled value through the stdlib's own draw methods, every root
candidate as a Fraction, every characteristic polynomial coefficient
and cofactor as the leading term of its classical lift),
or every term of a max-plus step, so they are slow, exponential or
recursive, and live with the tests, not in ``eltlab``.  So do one
polynomial route, the determinant from one assignment and exact
elimination, and the few helpers that only the tests call: a
submatrix, a row scaling, the canned identity catalogue, an
expression's variable count and a monomial lookup.
"""

import itertools
import math
import operator
import random
from fractions import Fraction
from operator import add
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, TypeVar, Union

from eltlab import ELTMatrix, ELTPolynomial, ELTScalar, MonomialStatus, NEG_INF, ONE
from eltlab.assign import TropicalMatrix, hungarian_scaling
from eltlab.core import BOTTOM, Bottom, LayerRing, integer_grid
from eltlab.errors import (
    DegeneratePolynomial,
    InfeasibleAssignment,
    UnboundVariable,
    WorkBudgetExceeded,
)
from eltlab.matrix import essential_trace, tangible_matrix
from eltlab.poly import (
    ROOT_CANDIDATE_WORK,
    ROOT_POWER_MAX_BITS,
    ROOTS_MAX_WORK,
    _divisors,
    _roots_budget_exceeded,
)
from eltlab.transfer import (
    _STAGES,
    ELT_MODEL,
    MAXPLUS_MODEL,
    Add,
    FAMILIES,
    CannedIdentity,
    CheckReport,
    Component,
    Const,
    Exponents,
    MonomialTable,
    Ops,
    PolyExpression,
    Var,
    _LAYERS,
    _Program,
    _compile,
    _dominates,
    _walk,
    evaluate,
)

Entry = TypeVar("Entry")  # of any carrier the permutation expansions run over


def parity(perm: Sequence[int]) -> int:
    """1 for an odd permutation, by counting its inversions."""
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return inv & 1


def permutation_terms_one_by_one(
    rows: Sequence[Sequence[Entry]], zero: Entry, one: Entry
) -> Iterator[Tuple[int, Entry]]:
    """``matrix.permutation_terms`` with each permutation built on its
    own from ``one`` and its parity counted anew, where the
    library walks the permutations depth-first and shares prefixes."""
    for perm in itertools.permutations(range(len(rows))):
        prod = one
        for row, j in zip(rows, perm):
            prod = prod * row[j]
            if prod is zero:
                break
        else:
            yield parity(perm), prod


def subset_terms_one_by_one(
    rows: Sequence[Sequence[Entry]], zero: Entry, one: Entry
) -> Dict[int, Entry]:
    """``transfer.subset_terms`` by one determinant per column set: for
    every set C of as many columns as there are rows, the signed terms
    of ``permutation_terms_one_by_one`` on the rows cut down to C,
    where the library places the rows over all sets at once.  A set
    whose terms are all dropped is left out."""
    width = len(rows[0]) if rows else 0
    out = {}
    for cols in itertools.combinations(range(width), len(rows)):
        total = None
        for odd, prod in permutation_terms_one_by_one(
            [[row[j] for j in cols] for row in rows], zero, one
        ):
            term = -prod if odd else prod
            total = term if total is None else total + term
        if total is not None:
            out[sum(1 << j for j in cols)] = total
    return out


def adjugate_one_by_one(
    rows: Sequence[Sequence[Entry]], zero: Entry, one: Entry
) -> Tuple[Tuple[Entry, ...], ...]:
    """The transposed cofactor matrix by a walk of
    ``itertools.permutations``: each permutation adds, for every row k,
    its product over the other rows, signed by its parity, to entry
    (perm[k], k).  An independent route to ``transfer.adjugate``, which
    expands each row-deleted minor over column subsets; its sums run
    in another order."""
    n = len(rows)
    out = [[zero] * n for _ in range(n)]
    for perm in itertools.permutations(range(n)):
        entries = [row[j] for row, j in zip(rows, perm)]
        before = [one]
        for x in entries[:-1]:
            before.append(before[-1] * x)
        odd = parity(perm)
        after = one
        for k in range(n - 1, -1, -1):
            cofactor = before[k] * after
            if cofactor is not zero:
                out[perm[k]][k] = out[perm[k]][k] + (-cofactor if odd else cofactor)
            after = entries[k] * after
    return tuple(tuple(row) for row in out)


def det_one_by_one(a: ELTMatrix) -> ELTScalar:
    """The determinant as even minus odd permutation sums, over
    ``permutation_terms_one_by_one``: a route to ``matrix.det`` that
    shares no code with the library's walk."""
    plus = minus = NEG_INF
    for odd, prod in permutation_terms_one_by_one(a.rows, NEG_INF, ONE):
        if odd:
            minus = minus + prod
        else:
            plus = plus + prod
    return plus + (-minus)


def det_by_tight_layers(a: ELTMatrix) -> ELTScalar:
    """The determinant from one assignment: ``value^[det_Q(L)]``.

    value is the Hungarian optimum over the tangibles (Kuhn 1955;
    Butkovič, *Max-linear Systems*, 2010), and L holds the layers of the
    tight entries, ``u_i + v_j = t_ij``, and 0 elsewhere.  A permutation
    is optimal exactly when all its entries are tight, so det_Q(L) is
    the signed layer sum of the optimal permutations, by exact Fraction
    elimination.  No finite permutation gives -inf.  The duals are
    checked as a certificate first: ``u_i + v_j >= t_ij`` on every
    finite entry, and ``sum u + sum v`` equals sigma's weight.  A route
    to ``matrix.det`` that shares no code with its walk or with the
    column-subset expansion."""
    t = tangible_matrix(a)
    n = len(t)
    try:
        h = hungarian_scaling(t)
    except InfeasibleAssignment:
        return NEG_INF
    u, v, sigma = h.row_duals, h.col_duals, h.sigma
    assert sorted(sigma) == list(range(n))
    value = sum(t[i][sigma[i]] for i in range(n))
    assert value == h.value == sum(u) + sum(v)
    assert all(
        u[i] + v[j] >= x for i, row in enumerate(t) for j, x in enumerate(row) if x is not BOTTOM
    )
    tight = [
        [a.entry(i, j).layer if x is not BOTTOM and u[i] + v[j] == x else Fraction(0)
         for j, x in enumerate(row)]
        for i, row in enumerate(t)
    ]
    return ELTScalar(value, det_by_elimination(tight))


def det_by_elimination(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """The determinant of a square rational matrix by Gaussian
    elimination on Fractions, exact."""
    m = [list(row) for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def submatrix(a: ELTMatrix, rows: Sequence[int], cols: Sequence[int]) -> ELTMatrix:
    return ELTMatrix([[a.entry(i, j) for j in cols] for i in rows])


def essential_trace_value(a: ELTMatrix) -> ELTScalar:
    return essential_trace(a).value


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
    for odd, prod in permutation_terms_one_by_one(
        entries, ELTPolynomial.zero(), ELTPolynomial.constant(ONE)
    ):
        total = total + (-prod if odd else prod)
    return total


def adjoint_by_minors(a: ELTMatrix) -> ELTMatrix:
    """Signed transposed cofactor matrix, one determinant of every
    minor by ``det_one_by_one``: an independent route to
    ``matrix.adjoint``, which expands each row-deleted minor over
    column subsets.  For 1x1 it is [[0^[1]]]."""
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
            cof = det_one_by_one(submatrix(a, keep_r, keep_c))
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
            acc = acc + det_one_by_one(submatrix(a, subset, subset))
        if k % 2 == 1:
            acc = -acc
        if not acc.is_neg_inf:
            coeffs[n - k] = acc
    return ELTPolynomial(coeffs)


# tangible -> nonzero coefficient of t^tangible in a classical lift
Lifted = Dict[Fraction, Fraction]


def _lift(a: ELTMatrix) -> Tuple[List[List[int]], Callable[[int, int], Lifted]]:
    """The classical lift of square a on ints, and its decoder.

    ``a^[l]`` goes to ``l*t^a`` and -inf to 0 (after Akian, Gaubert &
    Guterman 2008), with the tangibles over their common denominator D,
    shifted by their least value S so that no power is negative, the
    layers over theirs, E, and t = 2^B (Kronecker substitution).  A sum
    of products of k entries then holds, in balanced base-2^B digits,
    E^k times its layer sum at each tangible.  Its digit is at most
    ``prod_i (1 + sum_j |l_ij|)`` in size, which B has two bits over,
    so ``decode(value, k)`` reads every digit back.  None of this
    shares code with the library's int form.
    """
    finite = [x for row in a.rows for x in row if not x.is_neg_inf]
    d = math.lcm(*(x.tangible.denominator for x in finite))
    e = math.lcm(*(x.layer.denominator for x in finite))
    shift = min((int(x.tangible * d) for x in finite), default=0)
    bound = math.prod(
        1 + sum(abs(int(x.layer * e)) for x in row if not x.is_neg_inf) for row in a.rows
    )
    b = bound.bit_length() + 2
    ints = [
        [0 if x.is_neg_inf else int(x.layer * e) << b * (int(x.tangible * d) - shift) for x in row]
        for row in a.rows
    ]

    def decode(value: int, k: int) -> Lifted:
        out = {}
        position = 0
        while value:
            digit = value & ((1 << b) - 1)
            if digit >> b - 1:
                digit -= 1 << b
            if digit:
                out[Fraction(position + k * shift, d)] = Fraction(digit, e**k)
            value = (value - digit) >> b
            position += 1
        return out

    return ints, decode


def berkowitz(m: Sequence[Sequence[int]]) -> List[int]:
    """``[1, c_1, ..., c_n]`` with ``det(x*I - m) = sum_k c_k x^(n-k)``,
    division-free (Berkowitz 1984): the vector of each trailing
    principal submatrix is a Toeplitz matrix, with diagonals 1, -a,
    -R*C, -R*A*C, -R*A^2*C, ..., times the vector of the one below it.
    About n^4/4 products."""
    n = len(m)
    vec = [1]
    for k in range(n - 1, -1, -1):
        below = range(k + 1, n)
        r = m[k][k + 1:]
        col = [m[i][k] for i in below]
        diags = [1, -m[k][k]]
        for _ in below:
            diags.append(-sum(x * y for x, y in zip(r, col)))
            col = [sum(x * y for x, y in zip(m[i][k + 1:], col)) for i in below]
        vec = [sum(diags[i - j] * vec[j] for j in range(min(i + 1, len(vec)))) for i in range(len(vec) + 1)]
    return vec


def charpoly_by_lift(a: ELTMatrix) -> Dict[int, Lifted]:
    """Power m of L -> the lift of ``matrix.charpoly``'s coefficient of
    L^m.  (-)A lifts to -M, so det(L*I + (-)A) lifts to det(x*I - M),
    whose coefficients come from ``berkowitz``."""
    ints, decode = _lift(a)
    n = a.nrows
    return {n - k: decode(c, k) for k, c in enumerate(berkowitz(ints))}


def adjugate_by_lift(a: ELTMatrix) -> List[List[Lifted]]:
    """The lift of each entry of ``matrix.adjoint``, by Cayley-Hamilton:
    ``adj(M) = (-1)^(n-1) (M^(n-1) + c_1 M^(n-2) + ... + c_(n-1) I)``,
    evaluated by Horner's rule on ``berkowitz``'s coefficients."""
    ints, decode = _lift(a)
    n = a.nrows
    c = berkowitz(ints)
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n):
        q = [
            [sum(x * q[h][j] for h, x in enumerate(row)) + (c[k] if i == j else 0) for j in range(n)]
            for i, row in enumerate(ints)
        ]
    sign = -1 if n % 2 == 0 else 1
    return [[decode(sign * x, n - 1) for x in row] for row in q]


def agrees_with_lift(x: ELTScalar, lifted: Lifted) -> bool:
    """Whether x is the leading term of its lift, as the transfer
    principle says an ELT sum of products is: its layer is the lifted
    coefficient at its tangible, and none sits above it.  Where the
    layers at the top cancel, x is T^[0] and the lift shows only lower
    terms, so the layer (0) is checked and T only bounded from below by
    the top term."""
    if x.is_neg_inf:
        return not lifted
    top = max(lifted, default=None)
    if x.layer == 0:
        return top is None or top < x.tangible
    return top == x.tangible and lifted[top] == x.layer


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


def rational_roots_by_fractions(int_coeffs: Dict[int, int], ring: LayerRing) -> Tuple[Fraction, ...]:
    """``poly._rational_roots`` with every candidate a normalised
    Fraction, checked against the ring and a set of the roots found,
    and evaluated as a sum of Fraction powers, where the library tests
    the ring once per denominator and evaluates on ints.  The same
    candidates count against the same budgets, in the same order."""
    roots = []
    degs = sorted(d for d, a in int_coeffs.items() if a != 0)
    low = degs[0]
    if low > 0 and Fraction(0) in ring:
        roots.append(Fraction(0))
    shifted = {d - low: int_coeffs[d] for d in degs}
    top = max(shifted)
    if top == 0:
        return tuple(roots)
    lead = shifted[top]
    const = shifted[0]
    seen = set(roots)
    work = math.isqrt(abs(const)) + math.isqrt(abs(lead))
    if work > ROOTS_MAX_WORK:
        raise _roots_budget_exceeded(top)
    dens = _divisors(lead)
    for num in _divisors(const):
        for den in dens:
            if math.gcd(num, den) != 1:
                continue
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if cand in seen or cand not in ring:
                    continue
                work += ROOT_CANDIDATE_WORK
                if work > ROOTS_MAX_WORK:
                    raise _roots_budget_exceeded(top)
                bits = top * (max(abs(cand.numerator), cand.denominator) - 1).bit_length()
                if bits > ROOT_POWER_MAX_BITS:
                    raise WorkBudgetExceeded(
                        f"root candidate {cand} at degree {top}: the search is "
                        f"limited to powers of {ROOT_POWER_MAX_BITS} bits"
                    )
                if sum(a * cand**d for d, a in shifted.items()) == 0:
                    seen.add(cand)
                    roots.append(cand)
    return tuple(sorted(roots))


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


def num_variables(e: PolyExpression) -> int:
    """The highest variable index in e, 0 when it has none."""
    return _walk((e,))[1]


def appears(table: MonomialTable, exponents: Sequence[int]) -> bool:
    """Whether the monomial has a count in the table, its exponents
    padded with zeros, or cut off trailing zeros, to the table's
    variable count."""
    key = tuple(exponents)
    if not any(key[table.nvars:]):
        key = key[: table.nvars] + (0,) * (table.nvars - len(key))
    plus, minus = table.entries.get(key, (0, 0))
    return plus > 0 or minus > 0


def canned_identities(sizes: Sequence[int] = (2, 3)) -> Tuple[CannedIdentity, ...]:
    """Every family's identity at each size, sizes outer."""
    return tuple(build(n) for n in sizes for build in FAMILIES.values())


def scale_rows(t: TropicalMatrix, alphas: Sequence[Fraction]) -> TropicalMatrix:
    """Add alpha_i to every finite entry of row i."""
    return tuple(
        tuple(x if isinstance(x, Bottom) else x + a for x in row)
        for row, a in zip(t, alphas)
    )


def ring_equal(p: PolyExpression, q: PolyExpression) -> bool:
    """Exact identity of both sides as integer polynomials."""
    p_table, q_table = expand_by_tuples(_compile((p, q)))
    return p_table.net() == q_table.net()


def reference_draw(model, rng: random.Random, count: int) -> tuple:
    """``model.sample(rng, count)`` drawn value by value through the
    stdlib methods, where the library calls ``getrandbits`` and runs
    their rejection loops itself."""
    def one():
        if rng.randrange(10) == 0:
            return None
        tangible = rng.randint(-10, 10)
        return tangible if model is MAXPLUS_MODEL else (tangible, rng.choice(_LAYERS))

    return tuple(one() for _ in range(count))


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
                values = reference_draw(model, rng, nvars)
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
