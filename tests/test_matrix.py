"""Matrix arithmetic, determinants, characteristic polynomials, and traces."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eltlab import ELTMatrix, ELTScalar, NEG_INF, ONE, Z_RING
from eltlab.core import BOTTOM, parse_scalar
from eltlab.errors import (
    DimensionMismatch,
    NotSquare,
    ParseError,
    SingularDeterminant,
    WorkBudgetExceeded,
    ZeroVector,
)
from eltlab import matrix
from eltlab.matrix import (
    EigenStatus,
    MonomialStatus,
    adjoint,
    cayley_hamilton_check,
    charpoly,
    det,
    det_pair,
    eigen_candidates,
    eigen_verify,
    essential_trace,
    essential_trace_value,
    format_vector,
    is_nilpotent,
    parse_vector,
    poly_at_matrix,
    quasi_identity_check,
    quasi_inverse,
    simple_cycles,
    trace,
)
from eltlab.poly import format_polynomial, parse_polynomial
from oracles import (
    adjoint_by_minors,
    charpoly_by_minors,
    charpoly_symbolic,
    nilpotent_one_by_one,
    power_entry_paths,
)
from rand import (
    random_matrix,
    random_monomial_matrix,
    random_nilpotent_matrix,
    random_vector,
)

S = parse_scalar
M = ELTMatrix.from_text
P = parse_polynomial

A_EXAMPLE = M("1^[1], 1^[1]\n2^[1], 3^[1]")
SYM = M("1^[1], 2^[1]\n2^[1], 3^[1]")
NILP = M("0^[1], 1^[0]\n0^[0], 0^[1]")
TRI = M("1^[1], 2^[1], -inf\n-inf, 3^[1], 0^[2]\n1^[0], -inf, 2^[1]")


def fold_dot(xs, ys):
    """Reference row-by-column product, one scalar operation at a time."""
    acc = NEG_INF
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


@st.composite
def product_operands(draw):
    """A*B and A*v operands whose tangibles come from a palette of at
    most three rationals with denominators 1..12, so that tangible ties
    are common; layers include zero and negative values, and A and B
    may each have an all -inf row and an all -inf column."""
    palette = draw(
        st.lists(st.builds(Fraction, st.integers(-4, 4), st.integers(1, 12)), min_size=1, max_size=3)
    )
    entries = st.one_of(
        st.just(NEG_INF),
        st.builds(
            ELTScalar,
            st.sampled_from(palette),
            st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
        ),
    )

    def grid(nrows, ncols):
        rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
        if draw(st.booleans()):
            rows[draw(st.integers(0, nrows - 1))] = [NEG_INF] * ncols
        if draw(st.booleans()):
            j = draw(st.integers(0, ncols - 1))
            for row in rows:
                row[j] = NEG_INF
        return ELTMatrix(rows)

    p, q, r = (draw(st.integers(1, 5)) for _ in range(3))
    return grid(p, q), grid(q, r), tuple(draw(entries) for _ in range(q))


@st.composite
def scan_operands(draw):
    """A*B and A*v operands up to 12x12 for the sorted, early-stopping
    scan of the product: tangibles either spread over a wide range of
    rationals, so a scan stops well before its last term, or come from a
    palette of at most two, so ties are common.  Denominators differ,
    layers include zero, a share of entries is -inf, and some rows of A
    and columns of B are all -inf."""
    if draw(st.booleans()):
        tangibles = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 9))
    else:
        tangibles = st.sampled_from(draw(st.lists(
            st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6)), min_size=1, max_size=2
        )))
    finite = st.builds(ELTScalar, tangibles, st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)))
    holes = draw(st.integers(0, 9))  # in tenths
    entries = st.tuples(st.integers(0, 9), finite).map(lambda kx: NEG_INF if kx[0] < holes else kx[1])

    def grid(nrows, ncols):
        return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]

    p, q, r = (draw(st.integers(1, 12)) for _ in range(3))
    a, b = grid(p, q), grid(q, r)
    for i in draw(st.lists(st.integers(0, p - 1), max_size=2)):
        a[i] = [NEG_INF] * q
    for j in draw(st.lists(st.integers(0, r - 1), max_size=2)):
        for row in b:
            row[j] = NEG_INF
    return ELTMatrix(a), ELTMatrix(b), tuple(draw(entries) for _ in range(q))


@settings(max_examples=400, deadline=None)
@given(st.one_of(product_operands(), scan_operands()))
@example((M("-inf, 0^[1]"), M("5^[2]\n-inf"), (S("5^[2]"), NEG_INF)))
def test_products_match_the_scalar_fold(operands):
    a, b, v = operands
    cols = b.transpose().rows
    assert (a * b).rows == tuple(tuple(fold_dot(row, col) for col in cols) for row in a.rows)
    assert a.apply(v) == tuple(fold_dot(row, v) for row in a.rows)


@st.composite
def reused_operands(draw):
    """A square A, a B with A's column count and a C with A's row count,
    and a vector for A.  Each matrix draws its tangibles over its own
    denominator, mostly coprime to the others', so a product rescales
    both factors to a common one; small numerators make ties common."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))

    def grid(nrows, ncols):
        den = draw(st.sampled_from((1, 2, 3, 5, 6, 7)))
        finite = st.builds(
            ELTScalar,
            st.builds(Fraction, st.integers(-4, 4), st.just(den)),
            st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3)),
        )
        entries = st.one_of(st.just(NEG_INF), finite)
        return [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]

    return ELTMatrix(grid(n, n)), ELTMatrix(grid(m, n)), ELTMatrix(grid(n, m)), tuple(grid(1, n)[0])


@settings(max_examples=200, deadline=None)
@given(reused_operands())
@example((
    M("1/2^[1], -inf\n1/3^[-1], 1^[1]"),
    M("1/5^[1], 2/5^[2]"),
    M("1/7^[1]\n-inf"),
    (S("1/5^[1]"), S("0^[1]")),
))
def test_one_matrix_object_serves_every_product_and_expansion(operands):
    """A matrix converts to ints once and keeps that form: reused on
    either side of products with other denominators, with itself, in
    apply and in the expansions, every result is still the scalar
    fold's or a fresh copy's."""
    a, b, c, v = operands

    def fold(x, y):
        cols = y.transpose().rows
        return tuple(tuple(fold_dot(row, col) for col in cols) for row in x.rows)

    assert (b * a).rows == fold(b, a)
    assert (a * c).rows == fold(a, c)
    assert (a * a).rows == fold(a, a)
    assert a.apply(v) == tuple(fold_dot(row, v) for row in a.rows)
    assert charpoly(a) == charpoly(ELTMatrix(a.rows))
    assert simple_cycles(a) == simple_cycles(ELTMatrix(a.rows))


def test_product_examples():
    assert M("1/2^[3]") * M("-1/3^[-1/2]") == M("1/6^[-3/2]")
    assert M("1/2^[3]") * M("-inf") == M("-inf")
    # a tangible tie adds the layer products, here to layer zero
    tie = M("1/2^[1], 1/4^[1]") * M("0^[1]\n1/4^[-1]")
    assert tie == M("1/2^[0]")
    assert M("1/2^[1], -inf\n-inf, -inf").apply((S("1^[2]"), S("5^[1]"))) == (
        S("3/2^[2]"),
        NEG_INF,
    )


def test_construction_validation():
    with pytest.raises(ParseError):
        M("1^[1], 2^[1]\n3^[1]")
    with pytest.raises(ParseError):
        M("")
    with pytest.raises(ValueError):
        ELTMatrix([])
    with pytest.raises(ValueError):
        ELTMatrix([[ONE], [ONE, ONE]])


def test_shape_errors():
    rect = M("1^[1], 2^[1], 3^[1]\n4^[1], 5^[1], 6^[1]")
    with pytest.raises(NotSquare):
        det(rect)
    with pytest.raises(DimensionMismatch):
        rect + A_EXAMPLE
    with pytest.raises(DimensionMismatch):
        rect * rect


def test_matrix_algebra_laws():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        c = random_matrix(rng, n)
        ident = ELTMatrix.identity(n)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ident == a and ident * a == a
        assert (a * b).transpose() == b.transpose() * a.transpose()
        assert a.transpose().transpose() == a


def test_determinant_of_products():
    assert det(A_EXAMPLE * A_EXAMPLE.transpose()) == S("8^[1]")
    assert det(A_EXAMPLE.transpose() * A_EXAMPLE) == S("10^[0]")


def test_determinant_basics():
    assert det(M("3^[2]")) == S("3^[2]")
    upper = M("1^[1], 5^[1]\n-inf, 2^[1]")
    assert det(upper) == S("3^[1]")
    rng = random.Random(23)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 4))
        assert det(a.transpose()) == det(a)
        even, odd = det_pair(a)
        assert det(a) == even + (-odd)


def test_determinant_multiplicativity():
    rng = random.Random(37)
    for _ in range(100):
        n = rng.randint(1, 3)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        dab = det(a * b)
        assert dab.surpasses(det(a) * det(b))
        if dab is not NEG_INF and dab.layer != 0:
            assert dab == det(a) * det(b)
    for _ in range(60):
        n = rng.randint(1, 3)
        a = random_matrix(rng, n)
        q = random_monomial_matrix(rng, n)
        assert det(a * q) == det(a) * det(q)


def test_adjoint_examples():
    assert adjoint(A_EXAMPLE) == M("3^[1], 1^[-1]\n2^[-1], 1^[1]")
    assert adjoint(M("5^[2]")) == ELTMatrix([[ONE]])


def test_adjoint_identities():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(2, 3)
        a = random_matrix(rng, n)
        d = det(a)
        prod = a * adjoint(a)
        scaled_identity = ELTMatrix.identity(n).scale(d)
        for i in range(n):
            for j in range(n):
                assert prod.entry(i, j).surpasses(scaled_identity.entry(i, j))
        assert det(prod) == d ** n
        assert prod * prod == prod.scale(d)


def test_quasi_identity_report():
    good = quasi_identity_check(ELTMatrix.identity(3))
    assert good.ok and bool(good)
    bad = quasi_identity_check(M("0^[1], 5^[1]\n-inf, 0^[1]"))
    assert not bad.offdiagonal_ok
    assert not bad


def test_quasi_inverse_examples():
    res = quasi_inverse(M("0^[1], 2^[1]\n-inf, 0^[1]"))
    assert res.inverse == M("0^[1], 2^[-1]\n-inf, 0^[1]")
    assert res.left.ok and res.right.ok
    res = quasi_inverse(M("3^[2], -inf\n-inf, -1^[1]"))
    assert res.inverse == M("-3^[1/2], -inf\n-inf, 1^[1]")


def test_quasi_inverse_failures():
    with pytest.raises(SingularDeterminant):
        quasi_inverse(NILP)
    with pytest.raises(SingularDeterminant):
        quasi_inverse(M("-inf, -inf\n-inf, -inf"))
    with pytest.raises(SingularDeterminant):
        quasi_inverse(M("3^[2], -inf\n-inf, -1^[1]"), Z_RING)


def test_characteristic_polynomial_example():
    assert charpoly(SYM) == P("0^[1]*L^2 + 3^[-1]*L + 4^[0]")
    assert charpoly(M("3^[2]")) == P("0^[1]*L + 3^[-2]")


def test_characteristic_polynomial_routes_agree():
    rng = random.Random(61)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 5))
        assert charpoly(a) == charpoly_symbolic(a)


@st.composite
def square_operands(draw):
    """Square matrices of order 1..6.  Tangibles are tie-heavy (0, 1 or
    2) or rationals; layers are +-1, so that tied terms cancel to layer
    zero, or rationals including 0; none, a quarter or three quarters
    of the entries are -inf."""
    n = draw(st.integers(1, 6))
    tangibles = draw(st.sampled_from([
        st.integers(0, 2).map(Fraction),
        st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
    ]))
    layers = draw(st.sampled_from([
        st.sampled_from([Fraction(-1), Fraction(1)]),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
    ]))
    neg_inf_quarters = draw(st.sampled_from([0, 1, 3]))
    entry = st.integers(0, 3).flatmap(
        lambda q: st.just(NEG_INF) if q < neg_inf_quarters else st.builds(ELTScalar, tangibles, layers)
    )
    return ELTMatrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(square_operands())
@example(M("3^[2]"))
@example(M("-inf"))
@example(M("1^[1], 1^[-1]\n1^[1], 1^[1]"))
def test_charpoly_equals_the_principal_minor_sum(a):
    p = charpoly(a)
    for route in (charpoly_by_minors, charpoly_symbolic):
        q = route(a)
        assert repr(p) == repr(q)
        assert format_polynomial(p) == format_polynomial(q)


@settings(max_examples=150, deadline=None)
@given(square_operands())
@example(M("-inf"))
@example(M("1^[1], -inf\n-inf, 2^[1]"))
@example(M("1^[1], 1^[-1]\n1^[1], 1^[1]"))
def test_adjoint_walk_equals_the_minor_determinants(a):
    assert repr(adjoint(a)) == repr(adjoint_by_minors(a))


def test_matrix_satisfies_its_characteristic_polynomial():
    value = poly_at_matrix(charpoly(SYM), SYM)
    assert value == M("4^[0], 5^[0]\n5^[0], 6^[0]")
    assert cayley_hamilton_check(SYM)
    rng = random.Random(67)
    for _ in range(60):
        assert cayley_hamilton_check(random_matrix(rng, rng.randint(1, 4)))


def test_trace_laws():
    assert trace(NILP) == S("0^[2]")
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        assert trace(a + b) == trace(a) + trace(b)
        assert trace(a * b) == trace(b * a)


def test_eigen_verification():
    assert eigen_verify(SYM, S("3^[1]"), parse_vector("0^[1], 1^[1]")) is EigenStatus.STRICT
    assert eigen_verify(M("5^[0]"), S("3^[1]"), [S("0^[1]")]) is EigenStatus.ELT_ONLY
    assert eigen_verify(M("5^[1]"), S("3^[1]"), [S("0^[1]")]) is EigenStatus.NO
    with pytest.raises(ZeroVector):
        eigen_verify(SYM, S("3^[1]"), parse_vector("0^[0], 1^[0]"))
    with pytest.raises(DimensionMismatch):
        eigen_verify(SYM, S("3^[1]"), [S("0^[1]")])


def test_eigen_candidates_example():
    rd = eigen_candidates(SYM)
    assert [(c.tangible, c.layers.values) for c in rd.corners] == [
        (Fraction(1), (Fraction(0),)),
        (Fraction(3), (Fraction(0), Fraction(1))),
    ]
    first = rd.intervals[0]
    assert first.upper == Fraction(1) and first.layers.all_layers


def test_invertible_matrix_cannot_ghost_a_spread_vector():
    """If det(A) has a nonzero layer and v has no layer zero entry, A*v keeps
    at least one nonzero layer."""
    rng = random.Random(73)
    found = 0
    while found < 200:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n)
        d = det(a)
        if d is NEG_INF or d.layer == 0:
            continue
        found += 1
        v = random_vector(rng, n)
        image = a.apply(v)
        assert any(e is not NEG_INF and e.layer != 0 for e in image)


def test_simple_cycles_canonical_listing():
    cycles = simple_cycles(TRI)
    assert [(c.vertices, c.weight, c.mean) for c in cycles] == [
        ((0,), S("1^[1]"), Fraction(1)),
        ((0, 1, 2), S("3^[0]"), Fraction(1)),
        ((1,), S("3^[1]"), Fraction(3)),
        ((2,), S("2^[1]"), Fraction(2)),
    ]
    assert all(c.length == len(c.vertices) for c in cycles)


def test_simple_cycles_of_a_long_cycle():
    # one cycle through 1,100 vertices: longer than the default
    # recursion limit, so the path search may not recurse per vertex
    n = 1100
    a = ELTMatrix(
        [[S("1^[1]") if j == (i + 1) % n else NEG_INF for j in range(n)] for i in range(n)]
    )
    (cyc,) = simple_cycles(a)
    assert cyc.vertices == tuple(range(n))
    assert (cyc.weight, cyc.mean) == (ELTScalar(n, 1), Fraction(1))


def test_simple_cycles_of_an_acyclic_digraph_with_many_paths():
    # x_ij finite for i < j only: 2^59 paths from vertex 0, no cycle
    n = 60
    a = ELTMatrix([[S("1^[1]") if i < j else NEG_INF for j in range(n)] for i in range(n)])
    assert simple_cycles(a) == ()


def test_simple_cycles_work_budget(monkeypatch):
    # the complete 4x4 digraph: 4 loops and 20 longer cycles, each
    # closing one path extension
    a = ELTMatrix([[S("0^[1]")] * 4] * 4)
    monkeypatch.setattr(matrix, "CYCLES_MAX", 20)
    assert len(simple_cycles(a)) == 24
    monkeypatch.setattr(matrix, "CYCLES_MAX", 19)
    with pytest.raises(WorkBudgetExceeded) as info:
        simple_cycles(a)
    assert str(info.value) == "cycles of a 4x4 matrix: the search is limited to 19 paths"


def test_power_entries_match_best_paths():
    rng = random.Random(79)
    for _ in range(25):
        n = rng.randint(1, 3)
        a = random_matrix(rng, n)
        power = ELTMatrix.identity(n)
        for k in range(1, 4):
            power = power * a
            for i in range(n):
                for j in range(n):
                    assert power_entry_paths(a, k, i, j) == power.entry(i, j)


def test_essential_trace_of_nilpotent_example():
    rep = essential_trace(NILP)
    assert rep.trace == S("0^[2]")
    assert rep.status is MonomialStatus.INESSENTIAL
    assert rep.coefficients == {1: S("0^[-2]"), 2: S("1^[0]")}
    assert rep.mu == 2 and rep.l_set == frozenset({2})
    assert rep.dominant == S("1^[0]")
    assert rep.long_cycle_bound == Fraction(1, 2)
    assert rep.value == S("1/2^[0]")
    assert essential_trace_value(NILP) == S("1/2^[0]")


def test_essential_trace_of_triangular_sum():
    a = M("0^[1], 0^[1]\n-inf, 0^[1]")
    b = a.transpose()
    assert essential_trace_value(a) == S("0^[2]")
    assert essential_trace_value(b) == S("0^[2]")
    rep = essential_trace(a + b)
    assert charpoly(a + b) == P("0^[1]*L^2 + 0^[-4]*L + 0^[3]")
    assert rep.status is MonomialStatus.QUASI_ESSENTIAL
    assert rep.value == S("0^[0]")


def test_essential_trace_is_not_product_symmetric():
    """A layer tie can make etr(A*B) and etr(B*A) disagree even though their
    tangible parts always match; this pair is the smallest known witness.
    The trace monomial is essential for A*B but only quasi-essential for
    B*A, whose value collapses to layer zero."""
    a = M("0^[1], 0^[1]\n-inf, -inf")
    b = M("0^[1], -inf\n0^[1], -inf")
    assert essential_trace_value(a * b) == S("0^[2]")
    assert essential_trace_value(b * a) == S("0^[0]")
    assert essential_trace(a * b).status is MonomialStatus.ESSENTIAL
    assert essential_trace(b * a).status is MonomialStatus.QUASI_ESSENTIAL


def test_layer_zero_trace_gives_layer_zero_essential_trace():
    rng = random.Random(83)
    found = 0
    while found < 150:
        a = random_matrix(rng, rng.randint(1, 3))
        tr = trace(a)
        if tr is not NEG_INF and tr.layer != 0:
            continue
        found += 1
        etr = essential_trace_value(a)
        assert etr is NEG_INF or etr.layer == 0


def test_essential_trace_additivity_when_unbalanced():
    rng = random.Random(89)
    found = 0
    for _ in range(2000):
        n = rng.randint(1, 3)
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        combined = essential_trace_value(a + b)
        if combined is NEG_INF or combined.layer == 0:
            continue
        found += 1
        assert combined == essential_trace_value(a) + essential_trace_value(b)
    assert found > 100


def test_dominant_ratio_matches_best_cycle_mean():
    rng = random.Random(97)
    found = 0
    while found < 100:
        a = random_matrix(rng, rng.randint(1, 4))
        cycles = simple_cycles(a)
        if not cycles:
            continue
        found += 1
        rep = essential_trace(a)
        assert rep.dominant.tangible / rep.mu == max(c.mean for c in cycles)


@st.composite
def cycle_matrices(draw, max_n=6):
    """Square matrices for the long-cycle bound: tie-heavy or all-zero
    tangibles (a bound of exactly 0), some rows all -inf, and some
    matrices whose only finite entries are loops."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["mixed", "ties", "zeros", "loops"]))
    tangibles = {
        "mixed": st.fractions(-6, 6, max_denominator=4),
        "ties": st.sampled_from([Fraction(-1, 2), Fraction(0), Fraction(1, 2)]),
        "zeros": st.just(Fraction(0)),
        "loops": st.integers(-3, 3).map(Fraction),
    }[kind]
    entries = st.builds(ELTScalar, tangibles, st.sampled_from([-1, 1, 2])) | st.just(NEG_INF)
    dead = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    return ELTMatrix(
        [
            [
                NEG_INF if i in dead or (kind == "loops" and i != j) else draw(entries)
                for j in range(n)
            ]
            for i in range(n)
        ]
    )


@settings(deadline=None)
@given(cycle_matrices())
def test_long_cycle_bound_is_the_best_mean_of_a_long_simple_cycle(a):
    expected = max((c.mean for c in simple_cycles(a) if c.length >= 2), default=BOTTOM)
    bound = essential_trace(a).long_cycle_bound
    if expected is BOTTOM:
        assert bound is BOTTOM
    else:
        assert type(bound) is Fraction and bound == expected


def test_nilpotence_detection():
    assert is_nilpotent(NILP) == (True, 2)
    assert is_nilpotent(NILP, bound=1) == (False, None)
    assert is_nilpotent(M("0^[1]")) == (False, None)
    assert is_nilpotent(M("-inf")) == (True, 1)
    rng = random.Random(101)
    for _ in range(60):
        a = random_nilpotent_matrix(rng, rng.randint(2, 4))
        nilpotent, index = is_nilpotent(a)
        assert nilpotent and index >= 1
        etr = essential_trace_value(a)
        assert etr is NEG_INF or etr.layer == 0


def test_nilpotence_index_matches_powers_one_by_one():
    rng = random.Random(107)
    zero_rich = (S("0^[0]"), S("1^[0]"), S("-inf"), S("0^[1]"), S("-1^[2]"))
    for _ in range(300):
        n = rng.randint(1, 4)
        kind = rng.randrange(3)
        if kind == 0:
            a = random_matrix(rng, n)
        elif kind == 1:
            a = random_nilpotent_matrix(rng, n)
        else:
            a = ELTMatrix([[rng.choice(zero_rich) for _ in range(n)] for _ in range(n)])
        for bound in (None, 1, 2, 3, rng.randint(1, 40)):
            assert is_nilpotent(a, bound) == nilpotent_one_by_one(a, bound)


def test_text_round_trips():
    rng = random.Random(103)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert ELTMatrix.from_text(a.to_text()) == a
        assert ELTMatrix.from_text(a.to_text(structured=True)) == a
    assert TRI.to_text().splitlines()[0] == "1^[1], 2^[1], -inf"
    structured = TRI.to_text(structured=True)
    assert structured.splitlines()[0] == "rows: 3"
    assert structured.splitlines()[1] == "cols: 3"


def test_structured_header_validation():
    with pytest.raises(ParseError):
        M("rows: 2\ncols: 2\n1^[1], 2^[1]")
    with pytest.raises(ParseError):
        M("rows: 1\ncols: 3\n1^[1], 2^[1]")
    for text in ("rows: ²\ncols: 1\n1^[0]", "rows: 1\ncols: ١\n1^[0]"):
        with pytest.raises(ParseError):
            M(text)


def test_structured_rows_may_carry_their_labels():
    text = TRI.to_text(structured=True)
    assert text.splitlines()[2:] == [
        "row0: 1^[1], 2^[1], -inf",
        "row1: -inf, 3^[1], 0^[2]",
        "row2: 1^[0], -inf, 2^[1]",
    ]
    assert M(text) == TRI
    assert M("rows: 2\ncols: 1\n1^[1]\nrow1: 2^[1]") == M("1^[1]\n2^[1]")
    for bad in (
        "rows: 2\ncols: 1\nrow1: 1^[1]\nrow0: 2^[1]",
        "rows: 1\ncols: 1\nrow: 1^[1]",
        "rows: 1\ncols: 1\nrow00: 1^[1]",
        "rows: 1\ncols: 1\nrow١: 1^[1]",
        "rows: 1\ncols: 1\nline0: 1^[1]",
        "row0: 1^[1]",  # labels only in structured text
    ):
        with pytest.raises(ParseError):
            M(bad)


def test_vector_round_trip():
    v = parse_vector("1^[1], -inf, 2/3^[-1/2]")
    assert format_vector(v) == "1^[1], -inf, 2/3^[-1/2]"
    assert TRI.apply(v) == (
        TRI.entry(0, 0) * v[0] + TRI.entry(0, 1) * v[1] + TRI.entry(0, 2) * v[2],
        TRI.entry(1, 0) * v[0] + TRI.entry(1, 1) * v[1] + TRI.entry(1, 2) * v[2],
        TRI.entry(2, 0) * v[0] + TRI.entry(2, 1) * v[1] + TRI.entry(2, 2) * v[2],
    )
