"""Independent routes for checking eltlab's outputs.

Nothing here imports eltlab.  A scalar is described as ``None`` for
-inf or as a pair ``(tangible, layer)`` of Fractions; matrices are
lists of rows of such descriptions.  The arithmetic is the ELT
semiring: addition keeps the larger tangible and adds layers on a
tie, multiplication adds tangibles and multiplies layers, negation
flips the layer sign.

The determinant oracle evaluates the same permutation sum as the
library, grouped by dynamic programming over the set of used columns
and the parity of the partial permutation.  This costs 2^n * n steps
instead of n!, so every determinant the benchmark times can be
checked.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

Desc = Optional[Tuple[Fraction, Fraction]]
ONE: Desc = (Fraction(0), Fraction(1))


def add(x: Desc, y: Desc) -> Desc:
    if x is None:
        return y
    if y is None:
        return x
    if x[0] > y[0]:
        return x
    if x[0] < y[0]:
        return y
    return (x[0], x[1] + y[1])


def mul(x: Desc, y: Desc) -> Desc:
    if x is None or y is None:
        return None
    return (x[0] + y[0], x[1] * y[1])


def neg(x: Desc) -> Desc:
    return None if x is None else (x[0], -x[1])


def describe(s) -> Desc:
    """Description of a library scalar, read through its projections."""
    return None if s.is_neg_inf else (s.tangible, s.layer)


def describe_matrix(m) -> List[List[Desc]]:
    return [[describe(x) for x in row] for row in m.rows]


def fmt(x: Desc) -> str:
    """The CLI's scalar text format."""
    return "-inf" if x is None else f"{x[0]}^[{x[1]}]"


# ---------------------------------------------------------------------------
# determinant family


def det_pair(rows: Sequence[Sequence[Desc]]) -> Tuple[Desc, Desc]:
    """Even and odd permutation sums of a square matrix.

    Assigning row k to column j after the columns in ``mask`` are used
    adds one inversion per used column greater than j, so the parity
    of a partial permutation depends on its column set only through
    that count, and the best sums per (mask, parity) compose.
    """
    n = len(rows)
    states: Dict[int, Tuple[Desc, Desc]] = {0: (ONE, None)}
    for i in range(n):
        nxt: Dict[int, Tuple[Desc, Desc]] = {}
        row = rows[i]
        for mask, (even, odd) in states.items():
            for j in range(n):
                x = row[j]
                if x is None or mask >> j & 1:
                    continue
                e, o = mul(even, x), mul(odd, x)
                if bin(mask >> (j + 1)).count("1") & 1:
                    e, o = o, e
                key = mask | 1 << j
                cur = nxt.get(key)
                nxt[key] = (e, o) if cur is None else (add(cur[0], e), add(cur[1], o))
        states = nxt
    return states.get((1 << n) - 1, (None, None))


def det(rows: Sequence[Sequence[Desc]]) -> Desc:
    plus, minus = det_pair(rows)
    return add(plus, neg(minus))


def submatrix(rows, keep_r, keep_c):
    return [[rows[i][j] for j in keep_c] for i in keep_r]


def adjoint(rows) -> List[List[Desc]]:
    n = len(rows)
    if n == 1:
        return [[ONE]]
    out = []
    for i in range(n):
        out_row = []
        for j in range(n):
            keep_r = [r for r in range(n) if r != j]
            keep_c = [c for c in range(n) if c != i]
            cof = det(submatrix(rows, keep_r, keep_c))
            out_row.append(cof if (i + j) % 2 == 0 else neg(cof))
        out.append(out_row)
    return out


def charpoly(rows) -> Dict[int, Desc]:
    """Finite coefficients of det(L*I + (-)A) by degree: the sum of the
    k x k principal minors, negated for odd k, sits at degree n-k."""
    n = len(rows)
    coeffs: Dict[int, Desc] = {n: ONE}
    for k in range(1, n + 1):
        acc: Desc = None
        for subset in combinations(range(n), k):
            acc = add(acc, det(submatrix(rows, subset, subset)))
        if k % 2 == 1:
            acc = neg(acc)
        if acc is not None:
            coeffs[n - k] = acc
    return coeffs


def trace(rows) -> Desc:
    acc: Desc = None
    for i in range(len(rows)):
        acc = add(acc, rows[i][i])
    return acc


def inverse_scalar(x: Desc) -> Desc:
    """(-t)^[1/l]; the caller ensures x is finite with a nonzero layer."""
    return (-x[0], 1 / x[1])


# ---------------------------------------------------------------------------
# matrix-vector products


def matvec(rows, v: Sequence[Desc]) -> List[Desc]:
    out = []
    for row in rows:
        acc: Desc = None
        for x, y in zip(row, v):
            acc = add(acc, mul(x, y))
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# tropical (max-plus) side: entries are Fractions or None for -inf


def karp(t: Sequence[Sequence[Optional[Fraction]]], skip_diagonal: bool = False) -> Optional[Fraction]:
    """Maximum cycle mean by Karp's recurrence over walks from every
    vertex; None when the digraph of finite entries is acyclic.  With
    ``skip_diagonal`` the loops are left out, which gives the best mean
    over cycles of length at least two.  Weights are scaled to integers
    by their common denominator."""
    n = len(t)
    scale = 1
    for row in t:
        for x in row:
            if x is not None:
                scale = lcm(scale, x.denominator)
    edges = [
        (a, b, int(t[a][b] * scale))
        for a in range(n)
        for b in range(n)
        if t[a][b] is not None and not (skip_diagonal and a == b)
    ]
    dist: List[List[Optional[int]]] = [[0] * n]
    for _ in range(n):
        prev = dist[-1]
        row: List[Optional[int]] = [None] * n
        for a, b, w in edges:
            if prev[a] is not None:
                cand = prev[a] + w
                if row[b] is None or cand > row[b]:
                    row[b] = cand
        dist.append(row)
    best: Optional[Fraction] = None
    for v in range(n):
        full = dist[n][v]
        if full is None:
            continue
        worst = min(
            Fraction(full - dist[k][v], (n - k) * scale)
            for k in range(n)
            if dist[k][v] is not None
        )
        if best is None or worst > best:
            best = worst
    return best


def column_critical(t) -> List[List[bool]]:
    n_rows, n_cols = len(t), len(t[0])
    mask = [[False] * n_cols for _ in range(n_rows)]
    for j in range(n_cols):
        finite = [t[i][j] for i in range(n_rows) if t[i][j] is not None]
        if finite:
            top = max(finite)
            for i in range(n_rows):
                mask[i][j] = t[i][j] == top
    return mask


def has_perfect_matching(mask: Sequence[Sequence[bool]]) -> bool:
    """Kuhn's augmenting paths, with an explicit stack."""
    n = len(mask)
    match_col: List[Optional[int]] = [None] * n
    for root in range(n):
        seen = [False] * n
        parent_col: Dict[int, Optional[int]] = {}
        stack = [(root, None)]
        found = None
        while stack and found is None:
            i, via = stack.pop()
            for j in range(n):
                if mask[i][j] and not seen[j]:
                    seen[j] = True
                    parent_col[j] = via
                    if match_col[j] is None:
                        found = j
                        break
                    stack.append((match_col[j], j))
        if found is None:
            return False
        # walk back along the alternating path: row of j takes j
        j = found
        while j is not None:
            prev = parent_col[j]
            match_col[j] = root if prev is None else match_col[prev]
            j = prev
    return True


def hungarian_certificate_ok(t, result) -> bool:
    """Dual certificate of a max-weight assignment: u_i + v_j >= t_ij on
    finite entries, equality on sigma, value = sum of sigma entries =
    sum(u) + sum(v), and the row offsets are -u."""
    n = len(t)
    sigma, u, v = result.sigma, result.row_duals, result.col_duals
    if sorted(sigma) != list(range(n)) or len(u) != n or len(v) != n:
        return False
    for i in range(n):
        for j in range(n):
            if t[i][j] is not None and u[i] + v[j] < t[i][j]:
                return False
        if t[i][sigma[i]] is None or u[i] + v[sigma[i]] != t[i][sigma[i]]:
            return False
    value = sum((t[i][sigma[i]] for i in range(n)), Fraction(0))
    return (
        result.value == value == sum(u) + sum(v)
        and tuple(result.alphas) == tuple(-x for x in u)
    )


def critical_ok(t, result) -> bool:
    """is_critical's answer: a permutation of column-critical entries,
    or no perfect matching among them."""
    ok, sigma = result
    mask = column_critical(t)
    if not ok:
        return sigma is None and not has_perfect_matching(mask)
    n = len(t)
    return sorted(sigma) == list(range(n)) and all(mask[i][sigma[i]] for i in range(n))
