"""Matrix arithmetic, determinants, characteristic polynomials, and traces."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eltlab import ELTMatrix, ELTScalar, NEG_INF, ONE, Q_RING, Z_RING, invert
from eltlab.core import BOTTOM, parse_scalar
from eltlab.errors import (
    DimensionMismatch,
    NotSquare,
    ParseError,
    SingularDeterminant,
    WorkBudgetExceeded,
    ZeroVector,
)
from eltlab import matrix, transfer
from eltlab.assign import hungarian_scaling, tropical_matrix
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
    format_vector,
    is_nilpotent,
    parse_vector,
    poly_at_matrix,
    quasi_identity_check,
    quasi_inverse,
    simple_cycles,
    tangible_matrix,
    trace,
)
from eltlab.poly import ELTPolynomial, format_polynomial, parse_polynomial
from eltlab.transfer import PolyExpression, expand, format_expression
from oracles import (
    adjoint_by_minors,
    adjugate_by_lift,
    adjugate_one_by_one,
    agrees_with_lift,
    charpoly_by_lift,
    charpoly_by_minors,
    charpoly_symbolic,
    det_by_tight_layers,
    det_one_by_one,
    essential_trace_value,
    nilpotent_one_by_one,
    permutation_terms_one_by_one,
    power_entry_paths,
    subset_terms_one_by_one,
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
    product = a * b
    assert product.rows == tuple(tuple(fold_dot(row, col) for col in cols) for row in a.rows)
    assert a.apply(v) == tuple(fold_dot(row, v) for row in a.rows)
    # a product skips the scalar constructor: its entries still hold
    # Fractions and hash and print as the constructor's
    for x in (x for row in product.rows for x in row if not x.is_neg_inf):
        y = ELTScalar(x.tangible, x.layer)
        assert (type(x.tangible), type(x.layer)) == (Fraction, Fraction)
        assert (hash(x), repr(x)) == (hash(y), repr(y))


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
def square_operands(draw, orders=st.integers(1, 6)):
    """Square matrices of order 1..6, or of ``orders``.  Tangibles are
    tie-heavy (0, 1 or 2) or rationals; layers are +-1, so that tied
    terms cancel to layer zero, or rationals including 0; none, a
    quarter or three quarters of the entries are -inf."""
    n = draw(orders)
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


@settings(max_examples=200, deadline=None)
@given(square_operands())
@example(M("-inf"))
@example(M("1^[1], -inf\n-inf, -inf"))
@example(M("1^[1], 1^[-1]\n1^[1], 1^[1]"))
@example(M("1^[0], 2^[1]\n2^[1], 3^[0]"))
def test_tight_layer_determinant_equals_det(a):
    """det(A) is the Hungarian value with the layer of the tight entries'
    determinant over Q, a route through neither the permutation walk nor
    the column-subset expansion."""
    assert repr(det_by_tight_layers(a)) == repr(det(a))


@st.composite
def walk_grids(draw, short=st.just(0)):
    """A grid of width n = 1..6 and n less ``short`` rows (a square one
    by default) with the zero and one of its carrier, and a function
    that shows an entry exactly: ELT scalars, whose rows are each
    generic, tie-heavy (tangibles 0 and 1, layers +-1), -inf-heavy or
    all -inf, so that products become -inf at every depth of the walk;
    polynomials in L; or symbolic expressions over x1..x4, 0 and 1."""
    n = draw(st.integers(1, 6))
    height = n - draw(short)
    carrier = draw(st.sampled_from(["elt", "poly", "expr"]))
    if carrier == "elt":
        generic = st.builds(
            ELTScalar,
            st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3)),
            st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2)),
        )
        tie = st.builds(ELTScalar, st.integers(0, 1), st.sampled_from([-1, 1]))
        holes = st.integers(0, 3).flatmap(lambda q: generic if q == 0 else st.just(NEG_INF))
        rows = []
        for _ in range(height):
            entry = draw(st.sampled_from([generic, tie, holes, st.just(NEG_INF)]))
            rows.append([draw(entry) for _ in range(n)])
        return rows, NEG_INF, ONE, repr
    if carrier == "poly":
        coeff = st.one_of(
            st.just(NEG_INF), st.builds(ELTScalar, st.integers(-2, 2), st.sampled_from([-1, 1, 2]))
        )
        entry = st.lists(coeff, min_size=1, max_size=3).map(
            lambda cs: ELTPolynomial({d: c for d, c in enumerate(cs) if not c.is_neg_inf})
        )
        rows = [[draw(entry) for _ in range(n)] for _ in range(height)]
        return rows, ELTPolynomial.zero(), ELTPolynomial.constant(ONE), repr
    entry = st.one_of(
        st.integers(1, 4).map(PolyExpression.var),
        st.sampled_from([PolyExpression.zero(), PolyExpression.one()]),
    )
    rows = [[draw(entry) for _ in range(n)] for _ in range(height)]
    return rows, PolyExpression.zero(), PolyExpression.one(), format_expression


@settings(max_examples=150, deadline=None)
@given(walk_grids())
@example(([], NEG_INF, ONE, repr))
@example(([[ONE]], NEG_INF, ONE, repr))
@example(([[NEG_INF]], NEG_INF, ONE, repr))
@example(([[ONE, NEG_INF, ONE], [NEG_INF, ONE, NEG_INF], [ONE, ONE, NEG_INF]], NEG_INF, ONE, repr))
def test_permutation_walk_yields_the_one_by_one_terms_in_order(grid):
    """The depth-first walk gives every term of the permutations one by
    one, the same (odd, product) in the same order: the same parities,
    products built in the same row order, and no term the one-by-one
    walk drops because a product became zero."""
    rows, zero, one, show = grid
    walked = [(odd, show(prod)) for odd, prod in matrix.permutation_terms(rows, zero, one)]
    one_by_one = [(odd, show(prod)) for odd, prod in permutation_terms_one_by_one(rows, zero, one)]
    assert walked == one_by_one


@settings(max_examples=100, deadline=None)
@given(walk_grids())
@example(([[ONE]], NEG_INF, ONE, repr))
@example(([[NEG_INF, ONE], [ONE, NEG_INF]], NEG_INF, ONE, repr))
def test_adjugate_equals_the_one_by_one_cofactor_walk(grid):
    """ELT scalars and polynomials are shown exactly.  An expression's
    tree follows the order its sums were formed in, which the subset
    expansion and the permutation walk do not share, so expressions are
    compared by their expansions: the same monomials with the same
    signs and counts."""
    rows, zero, one, show = grid
    if show is format_expression:
        show = expand
    walked = [[show(x) for x in row] for row in transfer.adjugate(rows, zero, one)]
    one_by_one = [[show(x) for x in row] for row in adjugate_one_by_one(rows, zero, one)]
    assert walked == one_by_one


@settings(max_examples=150, deadline=None)
@given(walk_grids(short=st.integers(0, 1)))
@example(([], NEG_INF, ONE, repr))
@example(([[NEG_INF, ONE, NEG_INF]] * 2, NEG_INF, ONE, repr))
@example(([[ONE, ONE, NEG_INF], [ONE, NEG_INF, NEG_INF]], NEG_INF, ONE, repr))
def test_subset_expansion_equals_one_determinant_per_column_set(grid):
    """On a square grid and on one row short of square, every column
    set the expansion reaches holds the signed permutation sum of the
    rows cut down to it, and every other set's terms are all dropped.
    Expressions are compared by their expansions, as above."""
    rows, zero, one, show = grid
    if show is format_expression:
        show = expand
    expanded = {cols: show(x) for cols, x in transfer.subset_terms(rows, zero, one).items()}
    one_by_one = {cols: show(x) for cols, x in subset_terms_one_by_one(rows, zero, one).items()}
    assert expanded == one_by_one


@settings(max_examples=150, deadline=None)
@given(square_operands(), st.sampled_from([Q_RING, Z_RING]))
@example(M("-inf, 1^[1]\n1^[1], -inf"), Q_RING)
@example(M("1^[1], 1^[-1]\n1^[1], 1^[1]"), Q_RING)
@example(M("1^[1], 1^[1]\n1^[1], 1^[1]"), Q_RING)
@example(M("1^[1], -inf\n-inf, 1^[2]"), Z_RING)
@example(M("1^[1], 2^[1]\n-inf, -inf"), Q_RING)
def test_quasi_inverse_takes_its_determinant_from_the_cofactor_walk(a, ring):
    """quasi_inverse takes det(A) from the column-subset expansion its
    cofactors come from and walks no permutation, neither for det(A)
    nor to certify its products: with
    ``permutation_terms`` made to fail, it refuses a singular
    determinant, naming the one-by-one value, and otherwise its inverse
    is the inverse of the one-by-one determinant times the one-by-one
    cofactor walk's adjoint."""
    def no_walk(*args):
        raise AssertionError("a permutation was walked")

    d = det_one_by_one(a)
    assert repr(det(a)) == repr(d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix, "permutation_terms", no_walk)
        if d.is_neg_inf or not ring.is_unit(d.layer):
            with pytest.raises(SingularDeterminant, match=re.escape(f"determinant {d} has no unit layer")):
                quasi_inverse(a, ring)
            return
        result = quasi_inverse(a, ring)
    inverse = ELTMatrix(adjugate_one_by_one(a.rows, NEG_INF, ONE)).scale(invert(d, ring))
    assert repr(result.inverse) == repr(inverse)


@pytest.mark.parametrize("text, ring, d", [
    ("1^[1], 1^[1]\n1^[1], 1^[1]", Q_RING, "2^[0]"),
    ("1^[1], -inf\n-inf, 1^[2]", Z_RING, "2^[2]"),
    ("1^[1], 2^[1]\n-inf, -inf", Q_RING, "-inf"),
])
def test_quasi_inverse_refuses_a_singular_matrix_before_any_cofactor(monkeypatch, text, ring, d):
    def no_cofactors(*args):
        raise AssertionError("a cofactor was formed")

    monkeypatch.setattr(matrix, "_cofactors", no_cofactors)
    with pytest.raises(SingularDeterminant, match=re.escape(f"determinant {d} has no unit layer")):
        quasi_inverse(M(text), ring)


@st.composite
def expansion_operands(draw):
    """Square matrices of order 1..6 for the int expansion.  Tangibles
    are tie-heavy (0 and 1) or have denominators 2 and 3; layers are
    +-1, so that tied terms cancel to layer zero, or have denominators 2
    and 3, so that neither denominator of the int form is 1; a fifth of
    the entries are -inf."""
    n = draw(st.integers(1, 6))
    tangibles = draw(st.sampled_from([
        st.sampled_from([Fraction(0), Fraction(1)]),
        st.builds(Fraction, st.integers(-6, 6), st.sampled_from([2, 3])),
    ]))
    layers = draw(st.sampled_from([
        st.sampled_from([Fraction(-1), Fraction(1)]),
        st.builds(Fraction, st.integers(-3, 3), st.sampled_from([2, 3])),
    ]))
    entry = st.integers(0, 4).flatmap(
        lambda q: st.just(NEG_INF) if q == 0 else st.builds(ELTScalar, tangibles, layers)
    )
    return ELTMatrix(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(expansion_operands(), st.sampled_from([Q_RING, Z_RING]))
@example(M("5^[2]"), Q_RING)
@example(M("-inf"), Q_RING)
@example(M("1^[1], 1^[-1]\n1^[1], 1^[1]"), Q_RING)
@example(M("1/2^[1/3], 0^[-1/2]\n1^[2/3], 1/3^[1]"), Q_RING)
@example(M("1^[1], -inf\n-inf, 1^[-1]"), Z_RING)
def test_int_expansion_equals_the_scalar_adjugate(a, ring):
    """adjoint and quasi_inverse run on the matrix's int form; the
    carrier-generic adjugate over ELT scalars, and the determinant at
    the full column set of subset_terms, are their reference."""
    reference = ELTMatrix(transfer.adjugate(a.rows, NEG_INF, ONE))
    assert repr(adjoint(a)) == repr(reference)
    d = transfer.subset_terms(a.rows, NEG_INF, ONE).get((1 << a.nrows) - 1, NEG_INF)
    if d.is_neg_inf or not ring.is_unit(d.layer):
        with pytest.raises(SingularDeterminant, match=re.escape(f"determinant {d} has no unit layer in {ring.name}")):
            quasi_inverse(a, ring)
        return
    assert repr(quasi_inverse(a, ring).inverse) == repr(reference.scale(invert(d, ring)))


def metamorphic_matrix(kind, n):
    """A seeded n x n matrix: dense (tangibles -10..10, layers +-1 and
    +-2), tie-heavy (tangibles 0 and 1, layers +-1), -inf-heavy (three
    fifths -inf, the rest dense) or rational (tangibles and layers with
    denominators up to 5 and 3)."""
    rng = random.Random(f"{kind}-{n}")

    def entry():
        if kind == "tie-heavy":
            return ELTScalar(rng.randint(0, 1), rng.choice([-1, 1]))
        if kind == "rational":
            return ELTScalar(
                Fraction(rng.randint(-12, 12), rng.randint(1, 5)),
                Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            )
        if kind == "-inf-heavy" and rng.randrange(5) < 3:
            return NEG_INF
        return ELTScalar(rng.randint(-10, 10), rng.choice([-2, -1, 1, 2]))

    return ELTMatrix([[entry() for _ in range(n)] for _ in range(n)])


@pytest.mark.parametrize("kind, n", [
    ("dense", 12), ("tie-heavy", 11), ("-inf-heavy", 12), ("rational", 10), ("dense", 9),
])
def test_adjoint_relations_above_the_oracles(kind, n):
    """Above the brute-force oracles' reach: each diagonal entry of
    A*adj(A) is det(A) (Laplace along its row), and so is (-)^n times
    the constant coefficient of charpoly(A); both share one expansion,
    so both are checked against the determinant from one assignment and
    exact elimination.  And adj(A^T) = adj(A)^T."""
    a = metamorphic_matrix(kind, n)
    adj = adjoint(a)
    d = det_by_tight_layers(a)
    assert not d.is_neg_inf
    laplace = a * adj
    assert [repr(laplace.entry(i, i)) for i in range(n)] == [repr(d)] * n
    c0 = charpoly(a).coeff(0)
    assert repr(-c0 if n % 2 else c0) == repr(d)
    assert repr(adjoint(a.transpose())) == repr(adj.transpose())


@pytest.mark.parametrize("kind, n", [
    ("dense", 13), ("tie-heavy", 12), ("-inf-heavy", 13), ("rational", 11), ("dense", 9),
])
def test_charpoly_relations_above_the_oracles(kind, n):
    """Above the brute-force oracles' reach: a principal minor of A^T is
    the transpose of one of A, and P*A*P^T permutes the principal
    minors, so charpoly(A^T) = charpoly(A) = charpoly(P*A*P^T) for a
    permutation matrix P."""
    a = metamorphic_matrix(kind, n)
    order = list(range(n))
    random.Random(f"perm-{kind}-{n}").shuffle(order)
    p = ELTMatrix([[ONE if j == order[i] else NEG_INF for j in range(n)] for i in range(n)])
    expected = repr(charpoly(a))
    assert repr(charpoly(a.transpose())) == expected
    assert repr(charpoly(p * a * p.transpose())) == expected


def charpoly_off_the_lift(a):
    """The powers of L whose ``charpoly`` coefficient is not the leading
    term of its classical lift (``charpoly_by_lift``)."""
    p, lifted = charpoly(a), charpoly_by_lift(a)
    return [m for m in range(a.nrows + 1) if not agrees_with_lift(p.coeff(m), lifted[m])]


def adjoint_off_the_lift(a):
    """The entries of ``adjoint`` that are not the leading term of their
    classical lift (``adjugate_by_lift``)."""
    adj, lifted = adjoint(a), adjugate_by_lift(a)
    n = a.nrows
    return [(i, j) for i in range(n) for j in range(n) if not agrees_with_lift(adj.entry(i, j), lifted[i][j])]


@settings(max_examples=150, deadline=None)
@given(square_operands(st.integers(1, 7)))
@example(M("-inf"))
@example(M("1^[1], 1^[-1]\n1^[1], 1^[1]"))
@example(M("1^[0], 2^[1]\n2^[1], 3^[0]"))
def test_charpoly_adjoint_and_det_are_the_leading_terms_of_the_lift(a):
    """The transfer principle as an oracle: lifting ``a^[l]`` to
    ``l*t^a`` turns every ELT sum of products into the leading term of a
    classical one, which Berkowitz's division-free determinant and
    Cayley-Hamilton compute on ints, sharing no code with the int
    kernel.  det(A) is (-)^n times the constant coefficient."""
    assert charpoly_off_the_lift(a) == []
    assert adjoint_off_the_lift(a) == []
    sign = -1 if a.nrows % 2 else 1
    assert agrees_with_lift(det(a), {t: sign * l for t, l in charpoly_by_lift(a)[0].items()})


@pytest.mark.parametrize("kind, n", [("dense", 16), ("tie-heavy", 14), ("-inf-heavy", 14), ("dense", 9)])
def test_charpoly_is_the_leading_term_of_the_lift_above_the_oracles(kind, n):
    assert charpoly_off_the_lift(metamorphic_matrix(kind, n)) == []


@pytest.mark.parametrize("kind, n", [("dense", 12), ("tie-heavy", 13), ("-inf-heavy", 13), ("dense", 9)])
def test_adjoint_is_the_leading_term_of_the_lift_above_the_oracles(kind, n):
    assert adjoint_off_the_lift(metamorphic_matrix(kind, n)) == []


@pytest.mark.parametrize("kind, n", [
    ("dense", 7), ("tie-heavy", 7), ("-inf-heavy", 7), ("rational", 7), ("dense", 8),
])
def test_det_relations_of_the_permutation_sum(kind, n):
    """Relations of the permutation sum that hold at every order: a
    permutation and its inverse have one parity, so det(A^T) = det(A);
    permuting the rows by P negates the layer of det(A) when P is odd
    and keeps it when P is even; and adding c to every finite tangible
    of one row multiplies each product by c^[1], so det(A) * c^[1]."""
    a = metamorphic_matrix(kind, n)
    d = det(a)
    assert not d.is_neg_inf
    assert repr(det(a.transpose())) == repr(d)
    rng = random.Random(f"rows-{kind}-{n}")
    order = list(range(n))
    rng.shuffle(order)
    # one transposition flips the parity
    for perm in (order, [order[1], order[0], *order[2:]]):
        odd = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2)) & 1
        permuted = det(ELTMatrix([a.rows[i] for i in perm]))
        assert repr(permuted) == repr(-d if odd else d)
    r = rng.randrange(n)
    c = Fraction(rng.randint(-20, 20), rng.randint(1, 4))
    shifted = ELTMatrix([
        [x if i != r or x.is_neg_inf else ELTScalar(x.tangible + c, x.layer) for x in row]
        for i, row in enumerate(a.rows)
    ])
    assert repr(det(shifted)) == repr(d * ELTScalar(c, 1))


@pytest.mark.parametrize("kind, n", [
    ("dense", 40), ("tie-heavy", 35), ("-inf-heavy", 30), ("rational", 32),
])
def test_hungarian_value_is_invariant_under_row_and_column_permutations(kind, n):
    """A permutation of the rows and columns maps each assignment to one
    of the permuted matrix with the same sum, so the best value stays."""
    t = tangible_matrix(metamorphic_matrix(kind, n))
    rng = random.Random(f"assignment-{kind}-{n}")
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    permuted = tropical_matrix([[t[i][j] for j in cols] for i in rows])
    assert hungarian_scaling(permuted).value == hungarian_scaling(t).value


def test_quasi_identity_check_of_a_failing_matrix_expands_its_determinant():
    """A matrix that fails a check takes its determinant from the
    expansion over column subsets, also above det's order limit, and is
    refused only above the expansion's."""
    n = 10
    m = ELTMatrix([[ONE if i == j else S("1^[0]") for j in range(n)] for i in range(n)])
    report = quasi_identity_check(m)
    assert (report.diagonal_ok, report.offdiagonal_ok, report.idempotent) == (True, True, False)
    full = transfer.subset_terms(m.rows, NEG_INF, ONE)[(1 << n) - 1]
    assert repr(report.determinant) == repr(full) == repr(S("10^[0]"))
    assert not report.nonsingular
    n = matrix.EXPANSION_MAX_ORDER + 1
    m = ELTMatrix([[ONE if i == j else S("1^[0]") for j in range(n)] for i in range(n)])
    with pytest.raises(WorkBudgetExceeded, match=re.escape(
        f"quasi_identity_check of a {n}x{n} matrix: the 2^n expansion is limited to {n - 1}x{n - 1}"
    )):
        quasi_identity_check(m)


@st.composite
def quasi_identity_shaped(draw):
    """Matrices of order 1..6 with a 0^[1] diagonal and layer-zero
    entries off it, tie-heavy (0 and -1) or rational, some -inf.  Most
    are idempotent: the max-plus closure of non-positive entries.  The
    others are not closed and may hold positive entries, so they pass
    every check but idempotence."""
    n = draw(st.integers(1, 6))
    closed = draw(st.booleans())
    top = 0 if closed else 2
    entry = st.one_of(
        st.none(),
        st.sampled_from([Fraction(0), Fraction(-1)]),
        st.builds(Fraction, st.integers(-6, top), st.integers(1, 3)),
    )
    t = [[Fraction(0) if i == j else draw(entry) for j in range(n)] for i in range(n)]
    if closed:  # Floyd-Warshall: the heaviest path between each pair
        for k, i, j in itertools.product(range(n), repeat=3):
            if t[i][k] is not None and t[k][j] is not None:
                path = t[i][k] + t[k][j]
                if t[i][j] is None or path > t[i][j]:
                    t[i][j] = path
    return ELTMatrix([
        [ONE if i == j else NEG_INF if x is None else ELTScalar(x, 0) for j, x in enumerate(row)]
        for i, row in enumerate(t)
    ])


@settings(max_examples=200, deadline=None)
@given(st.one_of(quasi_identity_shaped(), square_operands()))
@example(ELTMatrix.identity(3))
@example(M("0^[1], 1^[0]\n1^[0], 0^[1]"))
def test_quasi_identity_determinant_equals_the_one_by_one_walk(m):
    """A matrix that passes the diagonal, off-diagonal and idempotence
    checks has determinant 0^[1] without an expansion; every other
    matrix takes the expansion over column subsets."""
    assert repr(quasi_identity_check(m).determinant) == repr(det_one_by_one(m))


@settings(max_examples=200, deadline=None)
@given(st.one_of(quasi_identity_shaped(), square_operands()))
@example(M("0^[1/2], -1^[0]\n-1^[0], 0^[1/2]"))  # M*M has 0^[1/4] on its diagonal
def test_quasi_identity_checks_on_cells_are_the_scalar_checks(m):
    """The diagonal, off-diagonal and idempotence verdicts read off the
    int cells are those of the scalars: 0^[1] on the diagonal, layer 0
    off it, and ``m * m == m``."""
    n = m.nrows
    report = quasi_identity_check(m)
    assert report.diagonal_ok == all(m.entry(i, i) == ONE for i in range(n))
    assert report.offdiagonal_ok == all(
        m.entry(i, j).layer == 0 for i in range(n) for j in range(n) if i != j
    )
    assert report.idempotent == (m * m == m)


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


def test_nilpotency_charge_reads_each_product_over_its_least_layer_denominator(monkeypatch):
    """The squares of the 2x2 of 0^[1/2] entries are that matrix again,
    with layers 2/4 that the charge reads over their least denominator,
    as 1/2: each of the two products costs 2^3 * (3 + 3 + 2) = 64."""
    text = "0^[1/2], 0^[1/2]\n0^[1/2], 0^[1/2]"
    monkeypatch.setattr(matrix, "NILPOTENT_MAX_WORK", 128)
    assert is_nilpotent(M(text)) == (False, None)
    monkeypatch.setattr(matrix, "NILPOTENT_MAX_WORK", 127)
    with pytest.raises(WorkBudgetExceeded) as refused:
        is_nilpotent(M(text))
    assert str(refused.value) == (
        "nilpotency of a 2x2 matrix up to power 4: the search is limited to 127 "
        "for n^3 times the layer bits, summed over its matrix products"
    )


def test_kernels_convert_only_their_argument(monkeypatch):
    """A kernel's int form goes to the next kernel as it is, so a routine
    that chains kernels puts only its argument over common denominators:
    once for the tangibles and once for the layers."""
    grids = []
    convert = matrix.integer_grid

    def counted(grid):
        grids.append(grid)
        return convert(grid)

    monkeypatch.setattr(matrix, "integer_grid", counted)
    result = quasi_inverse(M("0^[2], -1^[1]\n-inf, 1^[1/2]"))
    assert result.left and result.right and len(grids) == 2
    grids.clear()
    assert is_nilpotent(M("0^[1/2], 0^[1/2]\n0^[1/2], 0^[1/2]")) == (False, None)
    assert len(grids) == 2
    grids.clear()
    assert not quasi_identity_check(M("1^[1], 0^[0]\n0^[0], 0^[1]"))
    assert len(grids) == 2


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
