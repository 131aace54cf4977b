"""Maximum assignment duals, critical matrices, and best cycle means."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from eltlab import ELTMatrix, ELTScalar, NEG_INF
from eltlab.assign import (
    column_critical_positions,
    format_tropical_matrix,
    hungarian_scaling,
    is_critical,
    karp_max_mean_cycle,
    parse_tropical_matrix,
    tropical_matrix,
)
from eltlab.core import BOTTOM
from eltlab.errors import InfeasibleAssignment
from eltlab.matrix import critical_scaling_elt, simple_cycles, tangible_matrix
from oracles import karp_full_scan, scale_rows
from rand import random_matrix

T = parse_tropical_matrix


def random_tropical(rng, n):
    return tropical_matrix(
        [
            [
                BOTTOM if rng.randrange(4) == 0 else Fraction(rng.randint(-9, 9))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def brute_best_assignment(t):
    n = len(t)
    best = None
    for perm in itertools.permutations(range(n)):
        if any(t[i][perm[i]] is BOTTOM for i in range(n)):
            continue
        value = sum(t[i][perm[i]] for i in range(n))
        if best is None or value > best:
            best = value
    return best


def test_text_round_trip():
    t = T("0, 9\n1, 10")
    assert t == ((Fraction(0), Fraction(9)), (Fraction(1), Fraction(10)))
    assert format_tropical_matrix(t) == "0, 9\n1, 10"
    with_bottom = T("-inf, 1/2\n3, -inf")
    assert format_tropical_matrix(with_bottom) == "-inf, 1/2\n3, -inf"
    assert with_bottom[0][0] is BOTTOM


def test_tangible_projection_of_elt_matrix():
    t = tangible_matrix(ELTMatrix.from_text("1^[1], -inf\n2/3^[0], 5^[-2]"))
    assert t == ((Fraction(1), BOTTOM), (Fraction(2, 3), Fraction(5)))


def test_assignment_example():
    res = hungarian_scaling(T("0, 9\n1, 10"))
    assert res.value == 10
    assert res.sigma == (1, 0)
    assert res.alphas == tuple(-u for u in res.row_duals)
    for i in range(2):
        assert res.row_duals[i] + res.col_duals[res.sigma[i]] == (9, 1)[i]


def test_assignment_matches_brute_force():
    rng = random.Random(131)
    for _ in range(150):
        n = rng.randint(1, 4)
        t = random_tropical(rng, n)
        best = brute_best_assignment(t)
        if best is None:
            with pytest.raises(InfeasibleAssignment):
                hungarian_scaling(t)
            continue
        res = hungarian_scaling(t)
        assert res.value == best
        # the duals certify optimality: feasible everywhere, tight on sigma
        for i in range(n):
            for j in range(n):
                if t[i][j] is not BOTTOM:
                    assert res.row_duals[i] + res.col_duals[j] >= t[i][j]
            assert res.row_duals[i] + res.col_duals[res.sigma[i]] == t[i][res.sigma[i]]


# tie-heavy grids, each with several optimal assignments, and the
# sigma, row duals, column duals and value the search gives them.  It
# grows each tree by the lowest-index column of least slack, which
# decides among the tied assignments
HUNGARIAN_TIES = [
    ("2, 2, 2, 2\n2, 2, 2, 2\n2, 2, 2, 2\n2, 2, 2, 2",
     (0, 1, 2, 3), "2 2 2 2", "0 0 0 0", "8"),
    ("-1/3, 3/2, -1/3, -1/3\n-1/3, -1/3, -1/3, -inf\n-1/3, -1/3, -1/3, -inf\n"
     "3/2, -1/3, -1/3, -1/3",
     (1, 0, 2, 3), "-1/3 -13/6 -13/6 -1/3", "11/6 11/6 11/6 0", "1/2"),
    ("3/2, 3/2, 2, 3/2, 0\n0, 2, 3/2, 0, 2\n2, 3/2, 2, 3/2, 3/2\n2, 3/2, -inf, -inf, 3/2\n"
     "3/2, 0, 3/2, 0, 0",
     (2, 1, 3, 4, 0), "3/2 2 3/2 3/2 1", "1/2 0 1/2 0 0", "17/2"),
    ("-1/3, -1/3, -1/3, -inf, -inf\n-1/3, -1/3, -1/3, -inf, -inf\n"
     "-inf, -1/3, -1/3, 1/2, -1/3\n-1/3, -1/3, 1/2, -1/3, 1/2\n-inf, -1/3, -inf, 1/2, -1/3",
     (0, 1, 3, 2, 4), "-1/3 -1/3 -1/3 1/2 -1/3", "0 0 0 5/6 0", "0"),
    ("-1/3, 1/2, 1/2, 1/2, -inf\n-1/3, 1/2, 1/2, -1/3, -1/3\n-inf, -1/3, -1/3, -1/3, 1/2\n"
     "-1/3, -1/3, -1/3, -1/3, 1/2\n1/2, -inf, 1/2, -1/3, -inf",
     (1, 2, 4, 3, 0), "1/2 1/2 -1/3 -1/3 1/2", "0 0 0 0 5/6", "5/3"),
]


@pytest.mark.parametrize(
    "text, sigma, row_duals, col_duals, value", HUNGARIAN_TIES,
    ids=[f"grid{k}" for k in range(len(HUNGARIAN_TIES))],
)
def test_hungarian_ties_break_toward_the_lowest_column(text, sigma, row_duals, col_duals, value):
    res = hungarian_scaling(T(text))
    assert res.sigma == sigma
    assert res.row_duals == tuple(Fraction(x) for x in row_duals.split())
    assert res.col_duals == tuple(Fraction(x) for x in col_duals.split())
    assert res.value == Fraction(value)


def test_criticality_check():
    assert is_critical(T("0, -inf\n-inf, 0")) == (True, (0, 1))
    ok, sigma = is_critical(T("0, 0\n-1, -1"))
    assert not ok and sigma is None
    assert column_critical_positions(T("0, 0\n-1, -1")) == (
        (True, True),
        (False, False),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from((0, 0, 1, None)), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
))
def test_is_critical_finds_a_critical_permutation_when_one_exists(grid):
    t = tropical_matrix([[BOTTOM if x is None else x for x in row] for row in grid])
    n = len(t)
    mask = column_critical_positions(t)
    exists = any(
        all(mask[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n))
    )
    ok, sigma = is_critical(t)
    assert ok == exists
    if ok:
        assert sorted(sigma) == list(range(n))
        assert all(mask[i][sigma[i]] for i in range(n))
    else:
        assert sigma is None


def test_is_critical_on_a_long_augmenting_chain():
    # row i holds zeros at columns i - 1 and i, so the search for row i
    # walks back through all earlier rows before it takes column i: a
    # path longer than the default recursion limit
    n = 1100
    t = tropical_matrix(
        [[Fraction(0) if j in (i - 1, i) else BOTTOM for j in range(n)] for i in range(n)]
    )
    assert is_critical(t) == (True, tuple(range(n)))


def test_scaling_makes_matrices_critical():
    rng = random.Random(137)
    done = 0
    while done < 120:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        t = tangible_matrix(a)
        try:
            res = hungarian_scaling(t)
        except InfeasibleAssignment:
            continue
        done += 1
        ok, _ = is_critical(scale_rows(t, res.alphas))
        assert ok
        d = critical_scaling_elt(a)
        for i in range(n):
            assert d.entry(i, i) == ELTScalar(res.alphas[i], 1)
            for j in range(n):
                if i != j:
                    assert d.entry(i, j).is_neg_inf
        ok, _ = is_critical(tangible_matrix(d * a))
        assert ok


def test_infeasible_scaling_raises():
    blocked = ELTMatrix.from_text("-inf, -inf\n1^[1], 2^[1]")
    with pytest.raises(InfeasibleAssignment):
        critical_scaling_elt(blocked)
    with pytest.raises(InfeasibleAssignment):
        hungarian_scaling(T("-inf"))


def elt_lift(t):
    n = len(t)
    return ELTMatrix(
        [
            [
                ELTScalar(t[i][j], 1) if t[i][j] is not BOTTOM else NEG_INF
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


def test_best_cycle_mean_example():
    assert karp_max_mean_cycle(T("-inf, 2\n3, -inf")) == Fraction(5, 2)
    assert karp_max_mean_cycle(T("-inf, 2\n-inf, -inf")) is None
    assert karp_max_mean_cycle(T("7")) == 7
    # vertex 0 has no in-edge and heavy out-edges; {1, 2} is a 2-cycle
    # of mean 7/2; {3, 4, 5} holds cycles of means 8/3 and 3/4; {6} is
    # a loop of mean 10/3; edges between components run one way only
    t = T(
        "-inf, 100, -inf, 50, -inf, -inf, -inf\n"
        "-inf, -inf, 3, -inf, -inf, -inf, -inf\n"
        "-inf, 4, -inf, 9, -inf, -inf, -inf\n"
        "-inf, -inf, -inf, -inf, 1, -inf, -inf\n"
        "-inf, -inf, -inf, 1/2, -inf, 2, -inf\n"
        "-inf, -inf, -inf, 5, -inf, -inf, 40\n"
        "-inf, -inf, -inf, -inf, -inf, -inf, 10/3"
    )

    def without(*edges):
        return tuple(
            tuple(BOTTOM if (i, j) in edges else x for j, x in enumerate(row))
            for i, row in enumerate(t)
        )

    assert karp_max_mean_cycle(t) == Fraction(7, 2)
    assert karp_max_mean_cycle(without((2, 1))) == Fraction(10, 3)
    assert karp_max_mean_cycle(without((2, 1), (6, 6))) == Fraction(8, 3)
    assert karp_max_mean_cycle(without((2, 1), (6, 6), (5, 3))) == Fraction(3, 4)
    assert karp_max_mean_cycle(without((2, 1), (6, 6), (5, 3), (4, 3))) is None


def test_best_cycle_mean_matches_brute_force():
    rng = random.Random(139)
    for _ in range(150):
        n = rng.randint(1, 5)
        t = random_tropical(rng, n)
        cycles = simple_cycles(elt_lift(t))
        expected = max((c.mean for c in cycles), default=None)
        assert karp_max_mean_cycle(t) == expected


tropical_entries = st.one_of(
    st.just(BOTTOM),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 12)),
)


@st.composite
def square_grids(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    return tropical_matrix([[draw(tropical_entries) for _ in range(n)] for _ in range(n)])


@st.composite
def acyclic_grids(draw, max_n=6):
    """Finite entries only from earlier to later vertices of a random order."""
    n = draw(st.integers(1, max_n))
    rank = draw(st.permutations(range(n)))
    return tropical_matrix(
        [
            [draw(tropical_entries) if rank[i] < rank[j] else BOTTOM for j in range(n)]
            for i in range(n)
        ]
    )


@settings(deadline=None)
@given(square_grids())
def test_hungarian_duals_certify_the_best_permutation(t):
    n = len(t)
    best = brute_best_assignment(t)
    if best is None:
        with pytest.raises(InfeasibleAssignment):
            hungarian_scaling(t)
        return
    res = hungarian_scaling(t)
    assert res.value == best
    assert sorted(res.sigma) == list(range(n))
    assert res.alphas == tuple(-u for u in res.row_duals)
    for i in range(n):
        for j in range(n):
            if t[i][j] is not BOTTOM:
                assert res.row_duals[i] + res.col_duals[j] >= t[i][j]
        assert res.row_duals[i] + res.col_duals[res.sigma[i]] == t[i][res.sigma[i]]


@settings(deadline=None)
@given(square_grids())
def test_best_cycle_mean_is_the_best_simple_cycle_mean(t):
    expected = max((c.mean for c in simple_cycles(elt_lift(t))), default=None)
    assert karp_max_mean_cycle(t) == expected


@given(acyclic_grids())
def test_best_cycle_mean_of_an_acyclic_graph_is_none(t):
    assert karp_max_mean_cycle(t) is None


def test_best_cycle_mean_of_a_long_cycle():
    # one cycle through 1,100 vertices: longer than the default
    # recursion limit, so no step may recurse per vertex
    n = 1100
    t = tropical_matrix(
        [[Fraction(i, 7) if j == (i + 1) % n else BOTTOM for j in range(n)] for i in range(n)]
    )
    assert karp_max_mean_cycle(t) == Fraction(1099, 14)


def karp_grids(rng, n):
    """One grid per kind, n x n: dense, sparse, tie-heavy, mostly -inf,
    acyclic, and one whose heaviest in-edges leave the lightest walks."""

    def fill(finite_in_ten, value):
        return [
            [value() if rng.randrange(10) < finite_in_ten else BOTTOM for _ in range(n)]
            for _ in range(n)
        ]

    def wide():
        return Fraction(rng.randint(-999, 999), rng.choice((1, 2, 3)))

    rank = list(range(n))
    rng.shuffle(rank)
    acyclic = [
        [wide() if rank[i] < rank[j] else BOTTOM for j in range(n)] for i in range(n)
    ]
    # vertex i loops with weight 3i, so its walks gain 3i per step, and
    # sends -3i to every other vertex: sorted heaviest first, the in-edges
    # of a vertex come from the lightest walks and the best term comes last
    adversarial = [
        [Fraction(3 * i if i == j else -3 * i) for j in range(n)] for i in range(n)
    ]
    return {
        "dense": fill(10, wide),
        "sparse": fill(3, wide),
        "ties": fill(9, lambda: Fraction(rng.randint(0, 1))),
        "neg-inf": fill(1, wide),
        "acyclic": acyclic,
        "adversarial": adversarial,
    }


def test_pruned_karp_equals_the_full_scan():
    rng = random.Random(149)
    for n in [*range(1, 13), 20, 30, 40]:
        for _ in range(3 if n <= 12 else 1):
            for kind, grid in karp_grids(rng, n).items():
                t = tropical_matrix(grid)
                assert karp_max_mean_cycle(t) == karp_full_scan(t), (kind, n)
    assert karp_max_mean_cycle(tropical_matrix(karp_grids(rng, 40)["adversarial"])) == 117
