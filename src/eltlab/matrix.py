"""Matrices over layered scalars.

Because tangibles never cancel, matrix sums and products keep
``t(x + y) = max(t(x), t(y))``; all the usual identities that fail in
plain max-plus are recovered here up to layers, and the functions in
this module report those layers exactly.

Highlights: a permanent-style determinant split into even and odd
permutation sums, the adjoint by one cofactor walk of the same sums
(both for any carrier, so ``transfer`` builds its identities on them),
the quasi-inverse (inverse up to quasi-identities), the characteristic
polynomial by one signed expansion over column subsets, a
Cayley-Hamilton check up to layer-zero slack, eigenpair verification,
the essential trace with its spectral-dominance report, nilpotency of
index at most n^2, and simple-cycle enumeration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .assign import karp_max_mean_cycle
from .core import (
    BOTTOM,
    Bottom,
    ELTScalar,
    IntGrid,
    LayerRing,
    NEG_INF,
    ONE,
    Q_RING,
    format_scalar,
    integer_grid,
    invert,
    parse_int,
    parse_scalar,
)
from .errors import (
    DimensionMismatch,
    NotSquare,
    ParseError,
    SingularDeterminant,
    WorkBudgetExceeded,
    ZeroVector,
)
from .poly import ELTPolynomial, MonomialStatus, RootDescription, elt_roots

Vector = tuple[ELTScalar, ...]
IntForm = tuple[int, IntGrid, int, IntGrid]
Entry = TypeVar("Entry")  # of any carrier the permutation expansions run over


class ELTMatrix:
    """Immutable rectangular matrix of scalars.

    The int-based routines (products, ``charpoly``, ``simple_cycles``)
    read its exact int form ``(d, tangibles, d_layer, layers)``: the
    tangibles as ints over the lcm d of their denominators, None for
    -inf, and the layers as ints over the lcm d_layer of theirs
    (``core.integer_grid``).  The form is computed on first use and
    kept, so a matrix used many times is converted once.
    """

    __slots__ = ("_rows", "_ints")

    def __init__(self, rows: Iterable[Iterable[ELTScalar]]):
        grid = tuple(tuple(row) for row in rows)
        if not grid or not grid[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(grid[0])
        for row in grid:
            if len(row) != width:
                raise ValueError("matrix rows must all have the same length")
            for x in row:
                if not isinstance(x, ELTScalar):
                    raise TypeError(f"matrix entry must be a scalar, got {type(x).__name__}")
        self._rows = grid
        self._ints: Optional[IntForm] = None

    @classmethod
    def identity(cls, n: int) -> "ELTMatrix":
        return cls(
            [[ONE if i == j else NEG_INF for j in range(n)] for i in range(n)]
        )

    @classmethod
    def filled(cls, nrows: int, ncols: int, value: ELTScalar) -> "ELTMatrix":
        return cls([[value] * ncols for _ in range(nrows)])

    @classmethod
    def diagonal(cls, entries: Sequence[ELTScalar]) -> "ELTMatrix":
        n = len(entries)
        return cls(
            [[entries[i] if i == j else NEG_INF for j in range(n)] for i in range(n)]
        )

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return len(self._rows[0])

    @property
    def rows(self) -> Tuple[Tuple[ELTScalar, ...], ...]:
        return self._rows

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def entry(self, i: int, j: int) -> ELTScalar:
        return self._rows[i][j]

    def _int_form(self) -> IntForm:
        if self._ints is None:
            d, tangibles = integer_grid([[x.tangible for x in row] for row in self._rows])
            d_layer, layers = integer_grid([[x.layer for x in row] for row in self._rows])
            self._ints = (d, tangibles, d_layer, layers)
        return self._ints

    def transpose(self) -> "ELTMatrix":
        return ELTMatrix(zip(*self._rows))

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "ELTMatrix":
        return ELTMatrix([[self._rows[i][j] for j in cols] for i in rows])

    def __add__(self, other: "ELTMatrix") -> "ELTMatrix":
        if not isinstance(other, ELTMatrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch(
                f"cannot add {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols}"
            )
        return ELTMatrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self._rows, other._rows)
            ]
        )

    def __mul__(self, other: "ELTMatrix") -> "ELTMatrix":
        if not isinstance(other, ELTMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        return ELTMatrix(_products(self._int_form(), other._int_form()))

    def scale(self, c: ELTScalar) -> "ELTMatrix":
        """Entrywise product with the scalar c."""
        return ELTMatrix([[c * x for x in row] for row in self._rows])

    def apply(self, v: Sequence[ELTScalar]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.ncols:
            raise DimensionMismatch(
                f"cannot apply {self.nrows}x{self.ncols} to a vector of length {len(v)}"
            )
        column = ELTMatrix([(x,) for x in v])
        return tuple(row[0] for row in _products(self._int_form(), column._int_form()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ELTMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(format_scalar(x) for x in row) for row in self._rows
        )
        return f"ELTMatrix[{body}]"

    # text format: one row per line, entries separated by commas.  The
    # structured variant prefixes explicit "rows:"/"cols:" header lines
    # and labels row i with "row<i>: ".

    def to_text(self, structured: bool = False) -> str:
        rows = [", ".join(format_scalar(x) for x in row) for row in self._rows]
        if structured:
            rows = [
                f"rows: {self.nrows}",
                f"cols: {self.ncols}",
                *(f"row{i}: {row}" for i, row in enumerate(rows)),
            ]
        return "\n".join(rows)

    @classmethod
    def from_text(cls, text: str) -> "ELTMatrix":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty matrix text")
        expected: Optional[Tuple[int, int]] = None
        if lines[0].startswith("rows:"):
            if len(lines) < 2 or not lines[1].startswith("cols:"):
                raise ParseError("structured matrix header needs a cols: line")
            expected = (_parse_dim(lines[0], "rows"), _parse_dim(lines[1], "cols"))
            lines = [_unlabel(ln, i) for i, ln in enumerate(lines[2:])]
        grid = [[parse_scalar(tok) for tok in ln.split(",")] for ln in lines]
        if not grid:
            raise ParseError("matrix text has no entry rows")
        width = len(grid[0])
        for row in grid:
            if len(row) != width:
                raise ParseError("matrix rows have inconsistent lengths")
        if expected is not None and expected != (len(grid), width):
            raise ParseError(
                f"matrix body is {len(grid)}x{width}, header says {expected[0]}x{expected[1]}"
            )
        return cls(grid)


def _products(left: IntForm, right: IntForm) -> List[List[ELTScalar]]:
    """The product of two matrices' int forms (``ELTMatrix``): every row
    of the left times every column of the right, ``sum_j row[j] * col[j]``.

    Both sides' int tangibles are rescaled to the lcm d of their two
    denominators, so a term is an int tangible sum over d with an int
    layer product over the product of the two layer denominators.
    Each column's finite terms are sorted once, largest first; a row
    with largest finite tangible ``top`` scans them until ``b + top <
    best`` (the threshold algorithm's stop rule, Fagin, Lotem & Naor
    2003): no later term reaches the best sum.  The stop is strict
    because a term with ``b + top == best`` can still tie, and a tie
    adds its layer product.  An entry with no finite term is -inf.
    """
    d_left, row_t, d_left_layer, row_l = left
    d_right, right_t, d_right_layer, right_l = right
    d = math.lcm(d_left, d_right)
    row_t, right_t = _rescaled(row_t, d // d_left), _rescaled(right_t, d // d_right)
    d_layer = d_left_layer * d_right_layer
    # (tangible, row index, layer) of each column's finite entries
    terms = [
        sorted(
            ((b, j, l) for j, (b, l) in enumerate(zip(ct, cl)) if b is not None),
            reverse=True,
        )
        for ct, cl in zip(zip(*right_t), zip(*right_l))
    ]
    tangibles: Dict[int, Fraction] = {}
    layers: Dict[int, Fraction] = {}
    out = []
    for rt, rl in zip(row_t, row_l):
        top = max((a for a in rt if a is not None), default=None)
        if top is None:
            out.append([NEG_INF] * len(terms))
            continue
        out_row = []
        for col in terms:
            scan = iter(col)
            for b, j, l in scan:
                a = rt[j]
                if a is not None:
                    best, layer = a + b, rl[j] * l
                    break
            else:
                out_row.append(NEG_INF)
                continue
            need = best - top
            for b, j, l in scan:
                if b < need:
                    break
                a = rt[j]
                if a is None:
                    continue
                a += b
                if a > best:
                    best, layer, need = a, rl[j] * l, a - top
                elif a == best:
                    layer += rl[j] * l
            t = tangibles.get(best)
            if t is None:
                t = tangibles[best] = Fraction(best, d)
            s = layers.get(layer)
            if s is None:
                s = layers[layer] = Fraction(layer, d_layer)
            out_row.append(ELTScalar(t, s))
        out.append(out_row)
    return out


def _rescaled(grid: IntGrid, k: int) -> IntGrid:
    if k == 1:
        return grid
    return [[None if x is None else x * k for x in row] for row in grid]


def _parse_dim(line: str, label: str) -> int:
    value = line.partition(":")[2].strip()
    dim = parse_int(value) if value.isascii() and value.isdigit() else 0
    if dim <= 0:
        raise ParseError(f"malformed {label}: header {line!r}")
    return dim


def _unlabel(line: str, i: int) -> str:
    """Row i of a structured matrix without its optional "row<i>:" label."""
    label, sep, body = line.partition(":")
    if not sep:
        return line
    if label != f"row{i}":
        raise ParseError(f"row {i} is labelled {label!r}, expected 'row{i}'")
    return body


def parse_vector(text: str) -> Vector:
    toks = text.split(",")
    if not any(tok.strip() for tok in toks):
        raise ParseError("empty vector text")
    return tuple(parse_scalar(tok) for tok in toks)


def format_vector(v: Sequence[ELTScalar]) -> str:
    return ", ".join(format_scalar(x) for x in v)


def _require_square(a: ELTMatrix) -> int:
    if not a.is_square:
        raise NotSquare(f"expected a square matrix, got {a.nrows}x{a.ncols}")
    return a.nrows


# ---------------------------------------------------------------------------
# determinant and adjoint


# the largest orders the n! permutation sums accept, where one order
# more costs about n times as much: from the command line on a dense
# matrix (2-vCPU host), det of a 9x9 takes 6.3 s, adjoint of an 8x8 2.0
# s (a 9x9 would take 17 s) and quasi_inverse of an 8x8 (its
# determinant, its adjoint and two checked products) 3.9 s
DET_MAX_ORDER = 9
ADJOINT_MAX_ORDER = 8
QUASI_INVERSE_MAX_ORDER = 8


def _require_order(a: ELTMatrix, limit: int, what: str) -> int:
    """The order of square a, or WorkBudgetExceeded above limit."""
    n = _require_square(a)
    if n > limit:
        raise WorkBudgetExceeded(
            f"{what} of a {n}x{n} matrix: the permutation sum is limited "
            f"to {limit}x{limit}"
        )
    return n


def _parity(perm: Sequence[int]) -> int:
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return inv & 1


def permutation_terms(
    rows: Sequence[Sequence[Entry]], zero: Entry, one: Entry
) -> Iterator[Tuple[int, Entry]]:
    """(odd, product) for each permutation of the square grid rows, the
    product of ``rows[i][perm[i]]`` built in row order, over any carrier
    with this zero and one: ELT scalars, expressions, polynomials.  A
    product stops once it *is* zero, and its term is left out."""
    for perm in itertools.permutations(range(len(rows))):
        prod = one
        for row, j in zip(rows, perm):
            prod = prod * row[j]
            if prod is zero:
                break
        else:
            yield _parity(perm), prod


def adjugate(
    rows: Sequence[Sequence[Entry]], zero: Entry, one: Entry
) -> Tuple[Tuple[Entry, ...], ...]:
    """The transposed cofactor matrix of the square grid rows, over the
    carrier of ``permutation_terms``, in one walk of the permutations.

    Cofactor (k, c) is the sum over sigma with sigma(k) = c of sgn(sigma)
    times the product over rows l != k of a_{l, sigma(l)}.  So for each
    row k a permutation adds that product, signed by its parity, to
    entry (sigma(k), k), built as ``before[k] * (entries[k+1] * ...)``:
    in row order, as a minor's expansion builds it.  No minor is formed,
    and a 1x1 grid gets [[one]].
    """
    n = len(rows)
    out = [[zero] * n for _ in range(n)]
    for perm in itertools.permutations(range(n)):
        entries = [row[j] for row, j in zip(rows, perm)]
        before = [one]
        for x in entries[:-1]:
            before.append(before[-1] * x)
        odd = _parity(perm)
        after = one
        for k in range(n - 1, -1, -1):
            cofactor = before[k] * after
            if cofactor is not zero:
                out[perm[k]][k] = out[perm[k]][k] + (-cofactor if odd else cofactor)
            after = entries[k] * after
    return tuple(tuple(row) for row in out)


def det_pair(a: ELTMatrix) -> Tuple[ELTScalar, ELTScalar]:
    """Sums of the even and of the odd permutation products; the
    determinant is ``plus + (-)minus``.  Orders above DET_MAX_ORDER
    raise WorkBudgetExceeded."""
    _require_order(a, DET_MAX_ORDER, "det")
    plus = minus = NEG_INF
    for odd, prod in permutation_terms(a.rows, NEG_INF, ONE):
        if odd:
            minus = minus + prod
        else:
            plus = plus + prod
    return plus, minus


def det(a: ELTMatrix) -> ELTScalar:
    plus, minus = det_pair(a)
    return plus + (-minus)


def adjoint(a: ELTMatrix) -> ELTMatrix:
    """Signed transposed cofactor matrix; for 1x1 it is [[0^[1]]].
    Orders above ADJOINT_MAX_ORDER raise WorkBudgetExceeded."""
    _require_order(a, ADJOINT_MAX_ORDER, "adjoint")
    return ELTMatrix(adjugate(a.rows, NEG_INF, ONE))


# ---------------------------------------------------------------------------
# quasi-identities and the quasi-inverse


@dataclass(frozen=True)
class QuasiIdentityReport:
    """Checks that a matrix is a quasi-identity: ones on the diagonal,
    layer-zero entries off it, idempotent, and nonsingular in the sense
    that its determinant has nonzero layer."""

    diagonal_ok: bool
    offdiagonal_ok: bool
    idempotent: bool
    determinant: ELTScalar
    nonsingular: bool

    @property
    def ok(self) -> bool:
        return (
            self.diagonal_ok
            and self.offdiagonal_ok
            and self.idempotent
            and self.nonsingular
        )

    def __bool__(self) -> bool:
        return self.ok


def quasi_identity_check(m: ELTMatrix) -> QuasiIdentityReport:
    n = _require_square(m)
    diagonal_ok = all(m.entry(i, i) == ONE for i in range(n))
    offdiagonal_ok = all(
        m.entry(i, j).layer == 0
        for i in range(n)
        for j in range(n)
        if i != j
    )
    idempotent = m * m == m
    d = det(m)
    return QuasiIdentityReport(diagonal_ok, offdiagonal_ok, idempotent, d, d.layer != 0)


@dataclass(frozen=True)
class QuasiInverseResult:
    inverse: ELTMatrix
    left: QuasiIdentityReport
    right: QuasiIdentityReport


def quasi_inverse(a: ELTMatrix, ring: LayerRing = Q_RING) -> QuasiInverseResult:
    """Inverse up to quasi-identities: det(A)^(-1) times the adjoint.

    Raises SingularDeterminant unless the determinant is finite with a
    unit layer.  The left and right reports certify that both products
    with A are quasi-identities.  Orders above QUASI_INVERSE_MAX_ORDER
    raise WorkBudgetExceeded.
    """
    _require_order(a, QUASI_INVERSE_MAX_ORDER, "quasi_inverse")
    d = det(a)
    if d.is_neg_inf or not ring.is_unit(d.layer):
        raise SingularDeterminant(
            f"determinant {d} has no unit layer in {ring.name}"
        )
    qi = adjoint(a).scale(invert(d, ring))
    return QuasiInverseResult(
        qi,
        quasi_identity_check(qi * a),
        quasi_identity_check(a * qi),
    )


# ---------------------------------------------------------------------------
# characteristic polynomial


CHARPOLY_MAX_ORDER = 16
# the largest power bound is_nilpotent accepts: the layers of A^m can
# grow by log2(n) bits per power, so this caps the layer bits of small
# matrices, and NILPOTENT_MAX_WORK caps the work of large ones
NILPOTENT_MAX_BOUND = 2**14
# the most work is_nilpotent spends, counted over its matrix products
# as n^3 times the bit length of the product's layers.  All-0^[1]
# matrices at their default bound n^2 take, from the command line on a
# 2-vCPU host, 2.5 s at 48x48 (work 3.9e9) and, at 64x64, 7.0 s
# (1.3e10), which this stops after 1.5 s
NILPOTENT_MAX_WORK = 6 * 10**9


def charpoly(a: ELTMatrix) -> ELTPolynomial:
    """det(L*I + (-)A), expanded over column subsets.

    Rows are placed in order; after row r, ``dp[C]`` is the signed sum
    of the products that put rows ``0..r`` in the column set C, kept as
    a list indexed by the power of L.  Placing row r in column j not in
    C multiplies by ``(-)a_rj``, and by L as well when ``j == r``; the
    sign flips once per column of C above j, the inversions the new
    pair makes.  ELT sums are associative and commutative and products
    distribute over them, so ``dp[all columns]`` is the sum over
    principal minors, the coefficient of L^(n-k) the k-th signed one,
    in about 2^n*n^2 int operations instead of a determinant per minor.
    The leading coefficient is 0^[1].

    It runs on the matrix's int form (``ELTMatrix``); every term of the
    L^m slot is a product of ``r+1-m`` entries, so its layers share one
    power of the layer denominator.  Orders above CHARPOLY_MAX_ORDER raise
    WorkBudgetExceeded.
    """
    n = _require_square(a)
    if n > CHARPOLY_MAX_ORDER:
        raise WorkBudgetExceeded(
            f"charpoly of a {n}x{n} matrix: the 2^n expansion is limited "
            f"to {CHARPOLY_MAX_ORDER}x{CHARPOLY_MAX_ORDER}"
        )
    d, tangibles, d_layer, layers = a._int_form()
    # column set -> (tangible per L power, None for -inf; layer per L power)
    dp: Dict[int, Tuple[List[Optional[int]], List[int]]] = {0: ([0], [1])}
    for r in range(n):
        cells = [
            (j, 1 << j, t, layers[r][j])
            for j, t in enumerate(tangibles[r])
            if t is not None or j == r
        ]
        placed = {}
        for cols, (ts, ls) in dp.items():
            for j, bit, t_entry, l_entry in cells:
                if cols & bit:
                    continue
                odd = (cols >> (j + 1)).bit_count() & 1
                # (L-power shift, tangible, signed layer) of each factor
                factors = []
                if t_entry is not None:
                    factors.append((0, t_entry, l_entry if odd else -l_entry))
                if j == r:
                    factors.append((1, 0, -1 if odd else 1))
                target = placed.get(cols | bit)
                if target is None:
                    target = placed[cols | bit] = ([None] * (r + 2), [0] * (r + 2))
                out_t, out_l = target
                for shift, ft, fl in factors:
                    for m, t in enumerate(ts, shift):
                        if t is None:
                            continue
                        t += ft
                        have = out_t[m]
                        if have is None or t > have:
                            out_t[m] = t
                            out_l[m] = ls[m - shift] * fl
                        elif t == have:
                            out_l[m] += ls[m - shift] * fl
        dp = placed
    ts, ls = dp[(1 << n) - 1]
    return ELTPolynomial({
        m: ELTScalar(Fraction(t, d), Fraction(l, d_layer ** (n - m)))
        for m, (t, l) in enumerate(zip(ts, ls))
        if t is not None
    })


def poly_at_matrix(p: ELTPolynomial, a: ELTMatrix) -> ELTMatrix:
    """Evaluate a polynomial at a square matrix (constant term times
    the identity)."""
    n = _require_square(a)
    acc = ELTMatrix.filled(n, n, NEG_INF)
    power = ELTMatrix.identity(n)
    deg = 0
    for d in sorted(p.degrees):
        while deg < d:
            power = power * a
            deg += 1
        acc = acc + power.scale(p.coeff(d))
    return acc


def cayley_hamilton_check(a: ELTMatrix) -> bool:
    """Whether the matrix annihilates its characteristic polynomial up
    to layers: every entry of p(A) has layer zero."""
    value = poly_at_matrix(charpoly(a), a)
    return all(x.layer == 0 for row in value.rows for x in row)


# ---------------------------------------------------------------------------
# traces and eigenpairs


def trace(a: ELTMatrix) -> ELTScalar:
    n = _require_square(a)
    acc = NEG_INF
    for i in range(n):
        acc = acc + a.entry(i, i)
    return acc


class EigenStatus(Enum):
    STRICT = "strict"
    ELT_ONLY = "elt-only"
    NO = "no"

    def __str__(self) -> str:
        return self.value


def eigen_verify(a: ELTMatrix, value: ELTScalar, vector: Sequence[ELTScalar]) -> EigenStatus:
    """Grade a claimed eigenpair.

    STRICT means A v equals value * v exactly; ELT_ONLY means every
    component only balances (the difference has layer zero); NO
    otherwise.  Vectors whose entries all have layer zero are rejected,
    they satisfy the balance trivially.
    """
    n = _require_square(a)
    v = tuple(vector)
    if len(v) != n:
        raise DimensionMismatch(f"vector length {len(v)} does not match {n}x{n}")
    if all(x.layer == 0 for x in v):
        raise ZeroVector("eigenvector needs an entry with nonzero layer")
    left = a.apply(v)
    right = tuple(value * x for x in v)
    if left == right:
        return EigenStatus.STRICT
    if all(x.nabla(y) for x, y in zip(left, right)):
        return EigenStatus.ELT_ONLY
    return EigenStatus.NO


def eigen_candidates(a: ELTMatrix, ring: LayerRing = Q_RING) -> RootDescription:
    """Root description of the characteristic polynomial."""
    return elt_roots(charpoly(a), ring)


# ---------------------------------------------------------------------------
# cycles


@dataclass(frozen=True)
class CycleInfo:
    """A simple cycle through finite entries, listed from its smallest
    vertex; ``mean`` is the tangible weight divided by the length."""

    vertices: Tuple[int, ...]
    weight: ELTScalar
    mean: Fraction

    @property
    def length(self) -> int:
        return len(self.vertices)


# the most path extensions simple_cycles makes; a cycle longer than one
# vertex closes one of them, and the complete 9x9 digraph (125,673
# cycles) fits
CYCLES_MAX = 2**17


def simple_cycles(a: ELTMatrix) -> Tuple[CycleInfo, ...]:
    """All simple cycles of the digraph of finite entries, each found
    from its smallest vertex; no path length meets the recursion limit.

    A path from a start only takes vertices above it that lead back to
    it through vertices above it.  Past CYCLES_MAX path extensions, over
    all starts, the search raises WorkBudgetExceeded.  The path's int
    tangible sum and layer product (from the matrix's int form) run on a
    stack beside it, so a cycle's weight is built once, when it closes."""
    n = _require_square(a)
    d, tangibles, d_layer, layers = a._int_form()
    adj = [[j for j in range(n) if tangibles[i][j] is not None] for i in range(n)]
    into: List[List[int]] = [[] for _ in range(n)]
    for i, row in enumerate(adj):
        for j in row:
            into[j].append(i)
    found: list[CycleInfo] = []
    paths = 0
    for start in range(n):
        # start and the vertices above it that reach it through such vertices
        back = {start}
        stack = [start]
        while stack:
            for u in into[stack.pop()]:
                if u > start and u not in back:
                    back.add(u)
                    stack.append(u)
        # depth-first over paths from start through back, on a stack of
        # neighbour iterators that runs beside the path, and one of the
        # (tangible sum, layer product) of the path's edges
        path = [start]
        used = {start}
        todo = [iter(adj[start])]
        sums = [(0, 1)]
        while todo:
            v = path[-1]
            t_row, l_row = tangibles[v], layers[v]
            t_sum, l_prod = sums[-1]
            for w in todo[-1]:
                if w == start:
                    size = len(path)
                    total = t_sum + t_row[w]
                    weight = ELTScalar(
                        Fraction(total, d), Fraction(l_prod * l_row[w], d_layer**size)
                    )
                    found.append(CycleInfo(tuple(path), weight, Fraction(total, d * size)))
                elif w in back and w not in used:
                    paths += 1
                    if paths > CYCLES_MAX:
                        raise WorkBudgetExceeded(
                            f"cycles of a {n}x{n} matrix: the search is limited "
                            f"to {CYCLES_MAX} paths"
                        )
                    used.add(w)
                    path.append(w)
                    todo.append(iter(adj[w]))
                    sums.append((t_sum + t_row[w], l_prod * l_row[w]))
                    break
            else:
                todo.pop()
                sums.pop()
                used.discard(path.pop())
    return tuple(found)


# ---------------------------------------------------------------------------
# essential trace


Bound = Fraction | Bottom


@dataclass(frozen=True)
class EtrReport:
    """Essential trace with its supporting spectral data.

    ``coefficients`` maps k to the coefficient of L^(n-k) in the
    characteristic polynomial (finite ones only); ``l_set`` collects
    the k maximising t(c_k)/k and ``mu`` is its minimum.  The status
    grades the trace monomial: essential when the trace tangible beats
    every simple cycle of length at least two, quasi-essential on a
    tie, inessential when it is beaten or absent.  The value is the
    trace itself in the essential case and (t(c_mu)/mu)^[0] otherwise.
    AB and BA have the same trace and the same etr tangible; their etr
    values can differ only in the layer-zero collapse of a
    quasi-essential tie, where one side is essential and the other
    quasi-essential.
    """

    trace: ELTScalar
    coefficients: Dict[int, ELTScalar]
    l_set: frozenset
    mu: Optional[int]
    dominant: ELTScalar
    long_cycle_bound: Bound
    status: MonomialStatus
    value: ELTScalar


def essential_trace(a: ELTMatrix) -> EtrReport:
    n = _require_square(a)
    p = charpoly(a)
    coefficients = {
        k: p.coeff(n - k) for k in range(1, n + 1) if not p.coeff(n - k).is_neg_inf
    }
    tr = trace(a)
    # the best mean of a cycle of length at least two: Karp without loops
    long_mean = karp_max_mean_cycle(tuple(
        tuple(BOTTOM if i == j else x.tangible for j, x in enumerate(row))
        for i, row in enumerate(a.rows)
    ))
    long_bound: Bound = BOTTOM if long_mean is None else long_mean
    if not coefficients:
        return EtrReport(
            tr, {}, frozenset(), None, NEG_INF, long_bound,
            MonomialStatus.INESSENTIAL, NEG_INF,
        )
    ratios = {k: Fraction(c.tangible, k) for k, c in coefficients.items()}
    best = max(ratios.values())
    l_set = frozenset(k for k, r in ratios.items() if r == best)
    mu = min(l_set)
    dominant = coefficients[mu]
    if tr.is_neg_inf:
        status = MonomialStatus.INESSENTIAL
    elif tr.tangible > long_bound:
        status = MonomialStatus.ESSENTIAL
    elif tr.tangible == long_bound:
        status = MonomialStatus.QUASI_ESSENTIAL
    else:
        status = MonomialStatus.INESSENTIAL
    value = tr if status is MonomialStatus.ESSENTIAL else ELTScalar(best, 0)
    return EtrReport(
        tr, coefficients, l_set, mu, dominant, long_bound, status, value
    )


def essential_trace_value(a: ELTMatrix) -> ELTScalar:
    return essential_trace(a).value


# ---------------------------------------------------------------------------
# nilpotency


def _layer_bits(a: ELTMatrix) -> int:
    """The bit length of a's largest layer over their common
    denominator, plus that of the denominator."""
    d_layer, layers = a._int_form()[2:]
    top = max((abs(x) for row in layers for x in row if x is not None), default=0)
    return top.bit_length() + d_layer.bit_length()


def is_nilpotent(a: ELTMatrix, bound: Optional[int] = None) -> Tuple[bool, Optional[int]]:
    """First power index at which every entry of A^m has layer zero.

    Returns (True, m) for the least such m up to the bound (default
    n^2), else (False, None).  A bound above NILPOTENT_MAX_BOUND, or
    products that would take more than NILPOTENT_MAX_WORK, raise
    WorkBudgetExceeded.

    Every term of A^m * A^k carries a factor of A^m, so once A^m has
    layer zero so have all higher powers: the layer-zero powers form a
    tail.  The squares A^(2^j) up to the bound lift, from the top bit
    down, the largest m whose power is not layer-zero, in about
    2*log2(bound) products instead of bound.
    """
    n = _require_square(a)
    if bound is None:
        bound = n * n
    if bound > NILPOTENT_MAX_BOUND:
        raise WorkBudgetExceeded(
            f"nilpotency up to power {bound}: the search is limited "
            f"to powers up to {NILPOTENT_MAX_BOUND}"
        )
    work = 0

    def product(x: ELTMatrix, y: ELTMatrix) -> ELTMatrix:
        nonlocal work
        # a layer of x*y is a sum of n products of a layer of x and one of y
        work += n**3 * (_layer_bits(x) + _layer_bits(y) + n.bit_length())
        if work > NILPOTENT_MAX_WORK:
            raise WorkBudgetExceeded(
                f"nilpotency of a {n}x{n} matrix up to power {bound}: the search "
                f"is limited to {NILPOTENT_MAX_WORK} for n^3 times the layer bits, "
                f"summed over its matrix products"
            )
        return x * y

    squares = [a]
    while 2 ** len(squares) <= bound:
        squares.append(product(squares[-1], squares[-1]))
    m, power = 0, None
    for j in reversed(range(len(squares))):
        if m + 2**j > bound:
            continue
        lifted = squares[j] if power is None else product(power, squares[j])
        if not all(x.layer == 0 for row in lifted.rows for x in row):
            m, power = m + 2**j, lifted
    if m >= bound:
        return False, None
    return True, m + 1
