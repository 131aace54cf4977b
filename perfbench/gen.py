"""Seeded input descriptions for the workloads.

The benchmark draws its inputs here rather than through eltlab.rand,
so a change to the library cannot change a workload.  Everything is
produced as oracle descriptions (see oracles.py) and only turned into
library objects by ``materialise``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from perfbench.oracles import Desc

LAYERS = tuple(Fraction(v) for v in (-3, -2, -1, 1, 2, 3))
SMALL_LAYERS = tuple(Fraction(v) for v in (-2, -1, 1, 2))


def _tangible(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2)))


def matrix(rng: random.Random, n: int, entries: str) -> List[List[Desc]]:
    """A square matrix of one entry class.

    * ``generic``: rationals in [-40, 40], a tenth of entries -inf,
    * ``ties``: tangibles 0 or 1, so many permutations tie and their
      layers add, a tenth -inf,
    * ``holes``: generic values with two fifths of entries -inf,
    * ``dense``: wide integer range, a twentieth -inf,
    * ``sparse``: wide range, seven tenths -inf, with a planted
      permutation of finite entries so an assignment always exists.

    The number of -inf entries is fixed per class and size, so the
    cost of an operation varies little between seeds.
    """
    holes = {
        "generic": n * n // 10,
        "ties": n * n // 10,
        "holes": 2 * n * n // 5,
        "dense": n * n // 20,
        "sparse": 7 * n * n // 10,
    }[entries]
    if entries == "ties":
        cells = [(Fraction(rng.randint(0, 1)), rng.choice(SMALL_LAYERS)) for _ in range(n * n)]
    elif entries in ("dense", "sparse"):
        cells = [(Fraction(rng.randint(-999, 999)), rng.choice(SMALL_LAYERS)) for _ in range(n * n)]
    else:
        cells = [(_tangible(rng, 40), rng.choice(LAYERS)) for _ in range(n * n)]
    protected = set()
    if entries == "sparse":
        perm = list(range(n))
        rng.shuffle(perm)
        protected = {i * n + perm[i] for i in range(n)}
    candidates = [k for k in range(n * n) if k not in protected]
    for k in rng.sample(candidates, holes):
        cells[k] = None
    return [cells[i * n:(i + 1) * n] for i in range(n)]


def vector(rng: random.Random, n: int) -> List[Desc]:
    """A finite vector with nonzero layers."""
    return [(Fraction(rng.randint(-999, 999)), rng.choice(SMALL_LAYERS)) for _ in range(n)]


def polynomial(rng: random.Random, degree: int) -> List[tuple]:
    """(degree, coefficient) pairs of a polynomial with a leading term;
    lower terms are present with probability 3/4."""
    terms = [(degree, (Fraction(rng.randint(-5, 5)), rng.choice(SMALL_LAYERS)))]
    for d in range(degree - 1, -1, -1):
        if rng.randrange(4):
            terms.append((d, (Fraction(rng.randint(-12, 12)), rng.choice(SMALL_LAYERS))))
    return terms


def series(rng: random.Random, terms: int) -> List[tuple]:
    """(exponent, coefficient) pairs with distinct exponents and nonzero
    coefficients."""
    return [
        (Fraction(e, 2), Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 3))))
        for e in rng.sample(range(-40, 41), terms)
    ]


def plant_critical(rng: random.Random, grid: List[list]) -> List[list]:
    """Copy of a tangible grid in which the entries of a random
    permutation are raised above their column maxima, so the grid is
    critical."""
    n = len(grid)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [list(row) for row in grid]
    for i, j in enumerate(perm):
        top = max((grid[k][j] for k in range(n) if grid[k][j] is not None), default=Fraction(0))
        out[i][j] = top + 1
    return out


def tropical(grid: List[list], bottom) -> tuple:
    """The library's tropical matrix for a grid with None for -inf."""
    return tuple(tuple(bottom if x is None else x for x in row) for row in grid)


def materialise(core, rows) -> "object":
    """Library scalars for a grid (or vector) of descriptions."""

    def one(d):
        return core.NEG_INF if d is None else core.ELTScalar(d[0], d[1])

    if rows and isinstance(rows[0], list):
        return [[one(d) for d in row] for row in rows]
    return [one(d) for d in rows]
