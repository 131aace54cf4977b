"""Matrices over layered scalars.

Because tangibles never cancel, matrix sums and products keep
``t(x + y) = max(t(x), t(y))``; all the usual identities that fail in
plain max-plus are recovered here up to layers, and the functions in
this module report those layers exactly.

Highlights: a permanent-style determinant split into even and odd
permutation sums, on one depth-first walk of the permutations that
shares prefix products, carries the parity and drops every permutation
through a prefix that is zero; one int kernel of the signed expansion
over column subsets (``transfer.subset_terms``) on the matrix's int
form, under one 16x16 budget, for the ELT adjoint, the quasi-inverse
(its determinant read at the full column set, refused when singular
before any cofactor is formed) and the characteristic polynomial (a
cell for L on each diagonal entry, the powers of L counted in the low
bits of the kernel's key), each private kernel passing its int form
to the next as it is; a Cayley-Hamilton check up to layer-zero slack,
eigenpair verification, the essential trace with its spectral-dominance
report, nilpotency of index at most n^2, and simple-cycle enumeration.
The max-plus side (``assign``) sees a matrix through its tangible
projection, and its Hungarian row offsets come back as an invertible
diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from .assign import TropicalMatrix, hungarian_scaling, karp_max_mean_cycle
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
Cell = Tuple[int, int, int, int]  # (column bit, key step, int tangible, int layer)


class ELTMatrix:
    """Immutable rectangular matrix of scalars.

    The int-based routines (products, ``adjoint``, ``quasi_inverse``,
    ``charpoly``, ``simple_cycles``) read its exact int form ``(d,
    tangibles, d_layer, layers)``: the tangibles as ints over the lcm d
    of their denominators, None for -inf, and the layers as ints over
    the lcm d_layer of theirs (``core.integer_grid``).  The form is
    computed on first use and kept, so a matrix used many times is
    converted once.
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
        return ELTMatrix(_scalars(_products(self._int_form(), other._int_form())))

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
        return tuple(row[0] for row in _scalars(_products(self._int_form(), column._int_form())))

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


def _products(left: IntForm, right: IntForm) -> IntForm:
    """The int form of the product of two matrices' int forms
    (``ELTMatrix``): every row of the left times every column of the
    right, ``sum_j row[j] * col[j]``.

    Both sides' int tangibles are rescaled to the lcm d of their two
    denominators, so a term is an int tangible sum over d with an int
    layer product over d_layer, the product of the two layer
    denominators.
    Each column's finite terms are sorted once, largest first; a row
    with largest finite tangible ``top`` scans them until ``b + top <
    best`` (the threshold algorithm's stop rule, Fagin, Lotem & Naor
    2003): no later term reaches the best sum.  The stop is strict
    because a term with ``b + top == best`` can still tie, and a tie
    adds its layer product.  An entry with no finite term is -inf:
    tangible None and layer 0, as ``core.integer_grid`` gives it.
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
    out_t: IntGrid = []
    out_l: IntGrid = []
    for rt, rl in zip(row_t, row_l):
        top = max((a for a in rt if a is not None), default=None)
        t_row, l_row = [], []
        out_t.append(t_row)
        out_l.append(l_row)
        for col in terms:
            scan = iter(col)
            for b, j, l in scan:
                a = rt[j]
                if a is not None:
                    best, layer = a + b, rl[j] * l
                    break
            else:
                t_row.append(None)
                l_row.append(0)
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
            t_row.append(best)
            l_row.append(layer)
    return d, out_t, d_layer, out_l


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


def tangible_matrix(a: ELTMatrix) -> TropicalMatrix:
    """Entrywise tangible projection of a scalar matrix."""
    return tuple(tuple(x.tangible for x in row) for row in a.rows)


def critical_scaling_elt(a: ELTMatrix) -> ELTMatrix:
    """Invertible diagonal D with unit layers such that t(DA) is
    critical; the diagonal lifts the Hungarian row offsets."""
    result = hungarian_scaling(tangible_matrix(a))
    return ELTMatrix.diagonal(
        tuple(ELTScalar(alpha, 1) for alpha in result.alphas)
    )


# ---------------------------------------------------------------------------
# determinant and adjoint


# the largest orders the expansions accept.  det sums the n!
# permutations, where one order more costs about n times as much.
# adjoint, quasi_inverse and charpoly share one budget: they run one int
# kernel over column subsets on the matrix's int form, about
# n^2*2^(n-1) int products for the cofactors and 2^n*n^2/6 placements
# for charpoly, where one order more costs about 2.2 times as much;
# quasi_identity_check takes a failing matrix's determinant from the
# same kernel.  From the command line on a dense matrix (a shared 2-vCPU
# host under load, medians of 3 to 7): det of a 9x9 takes 4 to 6 s,
# adjoint and quasi_inverse of a 16x16 4 to 5.5 s, charpoly and the
# essential trace of a 16x16 1.9 to 2.8 s
DET_MAX_ORDER = 9
EXPANSION_MAX_ORDER = 16


def _require_order(n: int, limit: int, what: str, method: str = "permutation sum") -> int:
    """The order n, or WorkBudgetExceeded above limit."""
    if n > limit:
        raise WorkBudgetExceeded(
            f"{what} of a {n}x{n} matrix: the {method} is limited "
            f"to {limit}x{limit}"
        )
    return n


def permutation_terms(
    rows: Sequence[Sequence[Entry]], zero: Entry, one: Entry
) -> Iterator[Tuple[int, Entry]]:
    """(odd, product) for each permutation of the square grid rows, in
    ``itertools.permutations`` order, the product of ``rows[i][perm[i]]``
    built in row order.  ``det_pair`` runs it on ELT scalars; the walk
    needs of a carrier only ``*``, this one, and this zero to test with
    ``is``.

    The rows are walked depth-first on an explicit stack.  A prefix
    product is built once, from ``one``, and shared by all its
    completions, about e*n! products in all.  Placing row r in column j
    adds one inversion per used column above j, so the parity is
    carried down the walk.  A prefix product that *is* zero drops every
    permutation through it.
    """
    n = len(rows)
    if not n:  # the one permutation of no rows
        yield 0, one
        return
    every = (1 << n) - 1
    prods = [one] * n  # prods[r]: the product of rows 0..r-1 on the walk
    # (row, column, used columns with it, parity with it) still to place
    todo = [(0, j, 1 << j, 0) for j in reversed(range(n))]
    while todo:
        r, j, used, odd = todo.pop()
        prod = prods[r] * rows[r][j]
        if prod is zero:
            continue
        r += 1
        if r == n:  # a 1x1 grid
            yield odd, prod
            continue
        if r == n - 1:  # the last row takes the one column left
            k = (every ^ used).bit_length() - 1
            prod = prod * rows[r][k]
            if prod is not zero:
                yield odd ^ (used >> k).bit_count() & 1, prod
            continue
        prods[r] = prod
        for k in reversed(range(n)):
            if not used >> k & 1:
                todo.append((r, k, used | 1 << k, odd ^ (used >> k).bit_count() & 1))


def det_pair(a: ELTMatrix) -> Tuple[ELTScalar, ELTScalar]:
    """Sums of the even and of the odd permutation products; the
    determinant is ``plus + (-)minus``.  Orders above DET_MAX_ORDER
    raise WorkBudgetExceeded."""
    _require_order(_require_square(a), DET_MAX_ORDER, "det")
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


def _cells(t_row: Sequence[Optional[int]], l_row: Sequence[int]) -> List[Cell]:
    """The ``_expansion`` cells of one row of an int form, one per
    finite entry, column j at key bit j."""
    return [(1 << j, 1 << j, t, l) for j, (t, l) in enumerate(zip(t_row, l_row)) if t is not None]


def _expansion(rows: Iterable[Sequence[Cell]]) -> Dict[int, Tuple[int, int]]:
    """``transfer.subset_terms`` of ELT rows on their int form (``ELTMatrix``),
    each row a list of cells ``(bit, step, t, l)``: an entry of int
    tangible t and int layer l whose column is the key bit ``bit``.
    Key -> (int tangible, int layer) of its sum.

    Placing a cell on a key without its bit adds step to the key and t
    to the tangible, multiplies by l, and negates the layer once per key
    bit above it, the used columns above its column; a larger tangible
    replaces the term kept for the key and a tie adds the layers.  With
    the bit as the step (``_cells``) the key is the column set, and the
    layers are over the layer denominator to the power of the number of
    rows; ``charpoly`` adds low key bits that count the powers of L.
    """
    dp = {0: (0, 1)}
    for cells in rows:
        placed: Dict[int, Tuple[int, int]] = {}
        for key, (t_prefix, l_prefix) in dp.items():
            for bit, step, t, l in cells:
                if key & bit:
                    continue
                t += t_prefix
                l *= -l_prefix if (key & -bit).bit_count() & 1 else l_prefix
                to = key + step
                have = placed.get(to)
                if have is None or t > have[0]:
                    placed[to] = (t, l)
                elif t == have[0]:
                    placed[to] = (t, have[1] + l)
        dp = placed
    return dp


def _cofactors(form: IntForm) -> IntForm:
    """``transfer.adjugate`` of a square int form: entry (j, k) is
    ``(-1)^(j+k)`` times the minor that deletes row k and column j, from
    one ``_expansion`` of the rows without k.  Each row's cells are
    built once.  The layers are over the layer denominator to the power
    n-1."""
    d, tangibles, d_layer, layers = form
    n = len(tangibles)
    every = (1 << n) - 1
    rows = list(map(_cells, tangibles, layers))
    out_t: IntGrid = [[None] * n for _ in range(n)]
    out_l: IntGrid = [[0] * n for _ in range(n)]
    for k in range(n):
        minors = _expansion(rows[:k] + rows[k + 1:])
        for j in range(n):
            minor = minors.get(every ^ 1 << j)
            if minor is not None:
                out_t[j][k], l = minor
                out_l[j][k] = -l if (j + k) & 1 else l
    return d, out_t, d_layer ** (n - 1), out_l


def _scalars(form: IntForm) -> List[List[ELTScalar]]:
    """The scalars ``(t/d)^[l/d_layer]`` of an int form, -inf for None,
    with one Fraction per distinct int and ``ELTScalar._raw``, which
    skips the constructor's checks that these Fractions pass by
    construction."""
    d, tangibles, d_layer, layers = form
    t_fractions: Dict[int, Fraction] = {}
    l_fractions: Dict[int, Fraction] = {}
    out = []
    for t_row, l_row in zip(tangibles, layers):
        out_row = []
        for t, l in zip(t_row, l_row):
            if t is None:
                out_row.append(NEG_INF)
                continue
            x = t_fractions.get(t)
            if x is None:
                x = t_fractions[t] = Fraction(t, d)
            y = l_fractions.get(l)
            if y is None:
                y = l_fractions[l] = Fraction(l, d_layer)
            out_row.append(ELTScalar._raw(x, y))
        out.append(out_row)
    return out


def _expanded_det(form: IntForm, what: str) -> IntForm:
    """The 1x1 int form of the determinant of a square int form, at the
    full column set of ``_expansion``, for the function ``what``.
    Orders above EXPANSION_MAX_ORDER raise WorkBudgetExceeded."""
    d, tangibles, d_layer, layers = form
    n = _require_order(len(tangibles), EXPANSION_MAX_ORDER, what, "2^n expansion")
    t, l = _expansion(map(_cells, tangibles, layers)).get((1 << n) - 1, (None, 0))
    return d, [[t]], d_layer**n, [[l]]


def adjoint(a: ELTMatrix) -> ELTMatrix:
    """Signed transposed cofactor matrix; for 1x1 it is [[0^[1]]].

    ``transfer.adjugate`` on the matrix's int form (``_cofactors``): one int
    expansion over column subsets per deleted row, about n^2*2^(n-1)
    int products, and each entry's scalar built once.  Orders above
    EXPANSION_MAX_ORDER raise WorkBudgetExceeded."""
    _require_order(_require_square(a), EXPANSION_MAX_ORDER, "adjoint", "2^n expansion")
    return ELTMatrix(_scalars(_cofactors(a._int_form())))


# ---------------------------------------------------------------------------
# quasi-identities and the quasi-inverse


@dataclass(frozen=True)
class QuasiIdentityReport:
    """Checks that a matrix is a quasi-identity: ones on the diagonal,
    layer-zero entries off it, idempotent, and a determinant of nonzero
    layer, which is expanded only when a check fails."""

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
    """When the other checks hold, det(m) is 0^[1]: ``M = M*M`` gives
    ``t_ij >= t_ik + t_kj``, so every cycle weighs at most ``t_ii = 0``;
    the identity has weight 0 and layer 1, and every other permutation
    of weight 0 uses an off-diagonal entry, of layer 0.  Only a matrix
    that fails a check expands its determinant over column subsets
    (``_expansion``), and only it is refused above EXPANSION_MAX_ORDER."""
    _require_square(m)
    return _quasi_identity_report(m._int_form())


def _quasi_identity_report(form: IntForm) -> QuasiIdentityReport:
    """``quasi_identity_check`` on a square int form.  A diagonal entry
    must be 0^[1], tangible 0 and layer d_layer; an entry off it must
    have layer 0, as -inf has.  The square's form is over (d,
    d_layer^2), so the matrix is idempotent when the square has its
    tangibles and d_layer times its layers.  Only a matrix that fails a
    check expands its determinant (``_expanded_det``), on this form."""
    _, tangibles, d_layer, layers = form
    diagonal_ok = all(tangibles[i][i] == 0 and layers[i][i] == d_layer for i in range(len(layers)))
    offdiagonal_ok = all(not l for i, row in enumerate(layers) for j, l in enumerate(row) if i != j)
    _, square_t, _, square_l = _products(form, form)
    idempotent = square_t == tangibles and all(
        l2 == l * d_layer for row, row2 in zip(layers, square_l) for l, l2 in zip(row, row2)
    )
    if diagonal_ok and offdiagonal_ok and idempotent:
        det_m = ONE
    else:
        det_m = _scalars(_expanded_det(form, "quasi_identity_check"))[0][0]
    return QuasiIdentityReport(diagonal_ok, offdiagonal_ok, idempotent, det_m, det_m.layer != 0)


@dataclass(frozen=True)
class QuasiInverseResult:
    inverse: ELTMatrix
    left: QuasiIdentityReport
    right: QuasiIdentityReport


def quasi_inverse(a: ELTMatrix, ring: LayerRing = Q_RING) -> QuasiInverseResult:
    """Inverse up to quasi-identities: det(A)^(-1) times the adjoint.

    det(A) is the full column set of one int expansion over column
    subsets (``_expansion``), about a 1/n share of the cofactors' work.
    Raises SingularDeterminant unless it is finite with a unit layer,
    before any cofactor is formed.  The cofactors come from the same
    kernel (``_cofactors``), and each entry of the inverse is built once,
    its tangible less det's and its layer over det's, on the int form.
    The left and right reports certify that both products with A are
    quasi-identities, read off the products of that form with A's; by
    the paper's theorem they pass every check, so no product's scalars
    are built and no determinant is expanded for them.  Orders above
    EXPANSION_MAX_ORDER raise WorkBudgetExceeded.
    """
    _require_square(a)
    form = a._int_form()
    full = _expanded_det(form, "quasi_inverse")
    det_a = _scalars(full)[0][0]
    if det_a.is_neg_inf or not ring.is_unit(det_a.layer):
        raise SingularDeterminant(f"determinant {det_a} has no unit layer in {ring.name}")
    # det(A) is (t/d)^[l/d_layer^n], so a cofactor (c/d)^[m/d_layer^(n-1)]
    # times its inverse is ((c - t)/d)^[m*d_layer/l]; the sign of l goes
    # into the layers, so that their denominator stays positive
    d, _, d_layer, _ = form
    t, l = full[1][0][0], full[3][0][0]
    k = d_layer if l > 0 else -d_layer
    _, cof_t, _, cof_l = _cofactors(form)
    inv_t = [[None if c is None else c - t for c in row] for row in cof_t]
    inverse = (d, inv_t, abs(l), [[m * k for m in row] for row in cof_l])
    return QuasiInverseResult(
        ELTMatrix(_scalars(inverse)),
        _quasi_identity_report(_products(inverse, form)),
        _quasi_identity_report(_products(form, inverse)),
    )


# ---------------------------------------------------------------------------
# characteristic polynomial


# the largest power bound is_nilpotent accepts: the layers of A^m can
# grow by log2(n) bits per power, so this caps the layer bits of small
# matrices, and NILPOTENT_MAX_WORK caps the work of large ones
NILPOTENT_MAX_BOUND = 2**14
# the most work is_nilpotent spends, counted over its matrix products
# as n^3 times the bit length of the product's layers.  All-0^[1]
# matrices at their default bound n^2 take, from the command line on a
# 2-vCPU host, 2.6 s at 48x48 (work 3.9e9) and, at 64x64, 6.9 s
# (1.3e10), which this stops after 1.6 s.  The time goes to the
# layers' big-int products, not to building scalars
NILPOTENT_MAX_WORK = 6 * 10**9


def charpoly(a: ELTMatrix) -> ELTPolynomial:
    """det(L*I + (-)A), expanded over column subsets.

    One ``_expansion`` places the rows of (-)A on the matrix's int form
    (``ELTMatrix``), each with one more cell on its diagonal for L:
    tangible 0, layer 1.  The key's low ``w = n.bit_length()`` bits
    count the powers of L and the column bits sit above them, so an L
    cell's step is its column bit plus 1.  ELT sums are associative and
    commutative and products distribute over them, so the full column
    set plus m holds the coefficient of L^m, the (n-m)-th signed
    principal minor sum, in about 2^n*n^2 int operations instead of a
    determinant per minor.  The leading coefficient is 0^[1].  Every
    term of L^m is a product of n-m entries, so its layer is over the
    layer denominator to that power.  Orders above EXPANSION_MAX_ORDER
    raise WorkBudgetExceeded.
    """
    n = _require_order(_require_square(a), EXPANSION_MAX_ORDER, "charpoly", "2^n expansion")
    d, tangibles, d_layer, layers = a._int_form()
    w = n.bit_length()  # bits enough to count up to n powers of L
    rows = []
    for r, (t_row, l_row) in enumerate(zip(tangibles, layers)):
        cells = [(bit << w, bit << w, t, -l) for bit, _, t, l in _cells(t_row, l_row)]
        cells.append((1 << r + w, (1 << r + w) + 1, 0, 1))
        rows.append(cells)
    full = ((1 << n) - 1) << w  # every key ends at the full column set
    coefficients = {}
    for key, (t, l) in _expansion(rows).items():
        m = key - full
        coefficients[m] = ELTScalar(Fraction(t, d), Fraction(l, d_layer ** (n - m)))
    return ELTPolynomial(coefficients)


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


# ---------------------------------------------------------------------------
# nilpotency


def _layer_bits(form: IntForm) -> int:
    """The bit length of an int form's largest layer, plus that of its
    layer denominator."""
    d_layer, layers = form[2:]
    top = max((abs(x) for row in layers for x in row), default=0)
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
    2*log2(bound) products (``_products``) instead of bound.
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

    def product(x: IntForm, y: IntForm) -> IntForm:
        nonlocal work
        # a layer of x*y is a sum of n products of a layer of x and one of y
        work += n**3 * (_layer_bits(x) + _layer_bits(y) + n.bit_length())
        if work > NILPOTENT_MAX_WORK:
            raise WorkBudgetExceeded(
                f"nilpotency of a {n}x{n} matrix up to power {bound}: the search "
                f"is limited to {NILPOTENT_MAX_WORK} for n^3 times the layer bits, "
                f"summed over its matrix products"
            )
        d, tangibles, d_layer, layers = _products(x, y)
        # the layers over d_layer/g, the lcm of their own denominators,
        # as ELTMatrix._int_form puts them and _layer_bits charges them
        g = math.gcd(d_layer, *(l for row in layers for l in row))
        return d, tangibles, d_layer // g, [[l // g for l in row] for row in layers]

    squares = [a._int_form()]
    while 2 ** len(squares) <= bound:
        squares.append(product(squares[-1], squares[-1]))
    m, power = 0, None
    for j in reversed(range(len(squares))):
        if m + 2**j > bound:
            continue
        lifted = squares[j] if power is None else product(power, squares[j])
        if any(l for row in lifted[3] for l in row):
            m, power = m + 2**j, lifted
    if m >= bound:
        return False, None
    return True, m + 1
