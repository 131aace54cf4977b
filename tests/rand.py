"""Seeded generators for scalars, matrices, vectors, and series.

Every draw goes through an explicit random.Random instance so suites
can pin seeds and reproduce failures.  Tangibles are uniform integers
in [-10, 10] (as exact rationals), layers come from {-2, -1, 0, 1, 2},
and -inf appears with probability 1/10 where allowed; all probability
draws use integer ranges, never floats.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from eltlab.core import ELTScalar, NEG_INF
from eltlab.matrix import ELTMatrix, Vector
from eltlab.puiseux import PuiseuxSeries

LAYER_CHOICES = tuple(Fraction(v) for v in (-2, -1, 0, 1, 2))
UNIT_LAYER_CHOICES = tuple(Fraction(v) for v in (-2, -1, 1, 2))


def random_scalar(rng: random.Random, allow_neg_inf: bool = True) -> ELTScalar:
    if allow_neg_inf and rng.randrange(10) == 0:
        return NEG_INF
    return ELTScalar(Fraction(rng.randint(-10, 10)), rng.choice(LAYER_CHOICES))


def random_matrix(
    rng: random.Random,
    nrows: int,
    ncols: Optional[int] = None,
    allow_neg_inf: bool = True,
) -> ELTMatrix:
    if ncols is None:
        ncols = nrows
    return ELTMatrix(
        [
            [random_scalar(rng, allow_neg_inf) for _ in range(ncols)]
            for _ in range(nrows)
        ]
    )


def random_monomial_matrix(rng: random.Random, n: int) -> ELTMatrix:
    """Invertible matrix: one entry with a unit layer per row and
    column, -inf elsewhere."""
    perm = list(range(n))
    rng.shuffle(perm)
    rows = []
    for i in range(n):
        row = [NEG_INF] * n
        row[perm[i]] = ELTScalar(
            Fraction(rng.randint(-10, 10)), rng.choice(UNIT_LAYER_CHOICES)
        )
        rows.append(row)
    return ELTMatrix(rows)


def random_vector(rng: random.Random, n: int) -> Vector:
    """Finite entries with nonzero layers, as eigen and independence
    checks require."""
    return tuple(
        ELTScalar(Fraction(rng.randint(-10, 10)), rng.choice(UNIT_LAYER_CHOICES))
        for _ in range(n)
    )


def random_series(rng: random.Random, max_terms: int = 4) -> PuiseuxSeries:
    """Finite series; the zero series with probability 1/10, otherwise
    up to max_terms terms with small rational exponents."""
    if rng.randrange(10) == 0:
        return PuiseuxSeries.zero()
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exp = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        coeff = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        terms.append((exp, Fraction(coeff)))
    return PuiseuxSeries(terms)


def random_nilpotent_matrix(rng: random.Random, n: int) -> ELTMatrix:
    """One of three constructions whose powers reach all-layer-zero.

    Either a permuted strictly triangular matrix (A^n is the -inf
    matrix), a matrix whose entries already all have layer zero, or a
    matrix with a large layer-zero diagonal and strictly smaller
    off-diagonal entries of arbitrary layer: every maximal product in
    A^2 then passes through a diagonal factor, so A^2 is layer-zero.
    """
    kind = rng.randrange(3)
    if kind == 0:
        order = list(range(n))
        rng.shuffle(order)
        rows = [[NEG_INF] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if rng.randrange(4) != 0:
                    rows[order[a]][order[b]] = ELTScalar(
                        Fraction(rng.randint(-10, 10)), rng.choice(LAYER_CHOICES)
                    )
        return ELTMatrix(rows)
    if kind == 1:
        return ELTMatrix(
            [
                [
                    NEG_INF
                    if rng.randrange(10) == 0
                    else ELTScalar(Fraction(rng.randint(-10, 10)), 0)
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
        )
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(ELTScalar(Fraction(rng.randint(100, 200)), 0))
            elif rng.randrange(10) == 0:
                row.append(NEG_INF)
            else:
                row.append(
                    ELTScalar(
                        Fraction(rng.randint(-200, -100)), rng.choice(LAYER_CHOICES)
                    )
                )
        rows.append(row)
    return ELTMatrix(rows)
