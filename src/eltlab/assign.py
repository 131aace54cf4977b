"""Max-plus assignment layer: criticality, Hungarian row scaling and
Karp's maximum cycle mean (which the essential trace also uses for its
long-cycle bound).

A tropical matrix is a rectangular grid of rationals and -inf, usually
an ELT matrix's tangible projection (``matrix.tangible_matrix``).  An
entry is column-critical when it is finite and maximal within its
column; a square matrix is critical when some permutation picks a
column-critical entry from every row.  The Hungarian scaling produces
exact rational row offsets (from dual potentials of the max-weight
assignment) that make any feasible matrix critical.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .core import (
    BOTTOM, Bottom, exact_rational, format_grid, grid, integer_grid, parse_grid, parse_rational
)
from .errors import InfeasibleAssignment, NotSquare

if TYPE_CHECKING:
    from .reports import HungarianResult

Entry = Fraction | Bottom
TropicalMatrix = tuple[tuple[Entry, ...], ...]


def tropical_matrix(rows: Sequence[Sequence[object]]) -> TropicalMatrix:
    """Normalise a grid of rationals / -inf markers into a tropical
    matrix."""
    return grid(rows, lambda x: x if isinstance(x, Bottom) else exact_rational(x))


def _require_square_grid(t: TropicalMatrix) -> int:
    if len(t) != len(t[0]):
        raise NotSquare(f"expected a square matrix, got {len(t)}x{len(t[0])}")
    return len(t)


# ---------------------------------------------------------------------------
# criticality


def column_critical_positions(t: TropicalMatrix) -> Tuple[Tuple[bool, ...], ...]:
    """Mask of finite entries that are maximal within their column,
    compared as ints over the entries' common denominator."""
    _, w = integer_grid(t)
    columns = []
    for col in zip(*w):
        top = max((x for x in col if x is not None), default=None)
        columns.append([top is not None and x == top for x in col])
    return tuple(zip(*columns))


def is_critical(t: TropicalMatrix) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Perfect matching over column-critical positions.

    Returns (True, sigma) with sigma mapping rows to columns, or
    (False, None).  Ties resolve toward lower column indices.  The
    augmenting paths are searched on explicit stacks, so their length
    does not meet the recursion limit.
    """
    n = _require_square_grid(t)
    mask = column_critical_positions(t)
    cols = [[j for j in range(n) if row[j]] for row in mask]
    match_col: List[Optional[int]] = [None] * n
    for root in range(n):
        # Kuhn's augmenting-path search on explicit stacks: rows[k]
        # scans the iterator todo[k]; picked[k] is the column it took,
        # held by rows[k + 1]
        banned = [False] * n
        rows = [root]
        picked: List[int] = []
        todo = [iter(cols[root])]
        while todo:
            for j in todo[-1]:
                if not banned[j]:
                    banned[j] = True
                    picked.append(j)
                    break
            else:
                todo.pop()
                rows.pop()
                if picked:
                    picked.pop()
                continue
            holder = match_col[j]
            if holder is None:
                break
            rows.append(holder)
            todo.append(iter(cols[holder]))
        if not todo:
            return False, None
        for i, j in zip(rows, picked):
            match_col[j] = i
    sigma = [0] * n
    for j, i in enumerate(match_col):
        assert i is not None
        sigma[i] = j
    return True, tuple(sigma)


# ---------------------------------------------------------------------------
# Hungarian scaling


def hungarian_scaling(t: TropicalMatrix) -> HungarianResult:
    """Exact max-weight assignment by augmenting paths on the equality
    graph of dual potentials.

    Raises InfeasibleAssignment when no permutation avoids -inf.  The
    returned alphas make the row-scaled matrix critical: adding
    alpha_i to row i turns every sigma entry into a column maximum.
    The search runs on the entries scaled to ints over their common
    denominator d; the duals and the value are divided by d at the end.
    Each tree keeps its free columns in a list, in index order, and one
    pass over it finds the least slack and the first column holding
    it, which the tree takes next; that breaks every tie toward the
    lowest column index.
    """
    n = _require_square_grid(t)
    d, w = integer_grid(t)
    u: List[int] = []
    for i in range(n):
        finite = [x for x in w[i] if x is not None]
        if not finite:
            raise InfeasibleAssignment(f"row {i} has no finite entry")
        u.append(max(finite))
    v: List[int] = [0] * n
    match_col: List[Optional[int]] = [None] * n
    match_row: List[Optional[int]] = [None] * n

    for r in range(n):
        tree_rows = [r]
        tree_cols: List[int] = []
        free = list(range(n))  # the columns outside the tree, in index order
        slack: List[Optional[int]] = [None] * n
        way: List[int] = [0] * n
        for j in range(n):
            if w[r][j] is not None:
                slack[j] = u[r] + v[j] - w[r][j]
                way[j] = r
        while True:
            # the least slack of a free column, and the first column holding it
            delta: Optional[int] = None
            pos = 0
            for k, j in enumerate(free):
                s = slack[j]
                if s is not None and (delta is None or s < delta):
                    delta, pos = s, k
            if delta is None:
                raise InfeasibleAssignment(
                    "no finite-weight permutation exists"
                )
            if delta > 0:
                for i in tree_rows:
                    u[i] -= delta
                for j in tree_cols:
                    v[j] += delta
                for j in free:
                    if slack[j] is not None:
                        slack[j] -= delta
            j_next = free[pos]
            if match_col[j_next] is None:
                j = j_next
                while True:
                    i = way[j]
                    match_col[j] = i
                    match_row[i], j = j, match_row[i]
                    if j is None:
                        break
                break
            del free[pos]
            tree_cols.append(j_next)
            i_next = match_col[j_next]
            tree_rows.append(i_next)
            row = w[i_next]
            base = u[i_next]
            for j in free:
                x = row[j]
                if x is None:
                    continue
                cand = base + v[j] - x
                if slack[j] is None or cand < slack[j]:
                    slack[j] = cand
                    way[j] = i_next

    from .reports import HungarianResult

    sigma = tuple(match_row[i] for i in range(n))
    return HungarianResult(
        tuple(Fraction(-x, d) for x in u),
        sigma,
        tuple(Fraction(x, d) for x in u),
        tuple(Fraction(x, d) for x in v),
        Fraction(sum(w[i][sigma[i]] for i in range(n)), d),
    )


# ---------------------------------------------------------------------------
# maximum mean cycle


def karp_max_mean_cycle(t: TropicalMatrix) -> Optional[Fraction]:
    """Maximum mean over directed cycles of finite entries, None when
    the digraph is acyclic.

    Karp's recurrence with walks from every vertex at once (Karp 1978):
    ``D_0(v) = 0`` and ``D_k(v)`` is the best weight of a k-edge walk
    ending at v.  The answer is the max over v of the min over k < n of
    ``(D_n(v) - D_k(v)) / (n - k)``.  An n-edge walk holds a cycle, so
    no v gives more than the best mean; a vertex on a best cycle gives
    at least that mean for every k.  No component split is needed.

    The walk weights are ints, the entries scaled by their common
    denominator d, and the ratios are compared by cross-multiplying.  A
    vertex no k-edge walk reaches holds ``low``, so far below every true
    weight that a step from it stays under ``floor`` and is put back to
    ``low``; so does a vertex with no in-edge.

    Each vertex's in-edges are sorted once, heaviest first.  A step
    with ``top`` the largest weight of the previous row scans them
    until ``wt + top <= walk``, the best walk so far: no later edge
    beats it.  Only the maximum is kept, so an edge that could merely
    tie it is skipped too; the matrix product scans on through a tie,
    because there a tie adds a layer.
    """
    n = _require_square_grid(t)
    d, w = integer_grid(t)
    reach = n * max((abs(x) for row in w for x in row if x is not None), default=0)
    floor = -reach
    low = floor - reach - 1
    into = [
        sorted(((w[i][j], i) for i in range(n) if w[i][j] is not None), reverse=True)
        for j in range(n)
    ]
    dist = [[0] * n]
    for _ in range(n):
        prev = dist[-1]
        top = max(prev)
        row = []
        for edges in into:
            walk = low
            for wt, i in edges:
                if wt + top <= walk:
                    break
                wt += prev[i]
                if wt > walk:
                    walk = wt
            row.append(walk if walk >= floor else low)
        dist.append(row)
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


# ---------------------------------------------------------------------------
# text format: the grid layout of ``core``, entries rational or -inf


def parse_tropical_matrix(text: str) -> TropicalMatrix:
    return tropical_matrix(parse_grid(text, _parse_entry))


def _parse_entry(token: str) -> Entry:
    return BOTTOM if token.strip() == "-inf" else parse_rational(token.strip())


def format_tropical_matrix(t: TropicalMatrix) -> str:
    return format_grid([["-inf" if isinstance(x, Bottom) else str(x) for x in row] for row in t])
