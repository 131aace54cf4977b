"""Scalar arithmetic laws, the surpassing relation, the scalar text format
and the grid layout of matrix files."""

import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eltlab import (
    BOTTOM,
    ELTScalar,
    NEG_INF,
    ONE,
    Q_RING,
    TOP,
    Z_RING,
    invert,
    parse_scalar,
)
from eltlab.assign import format_tropical_matrix, parse_tropical_matrix, tropical_matrix
from eltlab.core import Bottom, Top, format_scalar
from eltlab.errors import NonInvertible, ParseError
from eltlab.matrix import ELTMatrix
from eltlab.poly import LayerSolutions, elt_roots, parse_polynomial
from eltlab.puiseux import PuiseuxSeries

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=8)
finite = st.builds(ELTScalar, rationals, rationals)
scalars = finite | st.just(NEG_INF)

S = parse_scalar


# 1. Addition is associative and commutative
@given(scalars, scalars, scalars)
def test_addition_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x


# 2. Multiplication is associative and commutative
@given(scalars, scalars, scalars)
def test_multiplication_laws(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


# 3. Multiplication distributes over addition
@given(scalars, scalars, scalars)
def test_distributivity(x, y, z):
    assert x * (y + z) == x * y + x * z


# 4. NEG_INF is the additive identity and multiplicative absorber, ONE is neutral
@given(scalars)
def test_identities(x):
    assert x + NEG_INF == x
    assert NEG_INF + x == x
    assert x * NEG_INF is NEG_INF
    assert x * ONE == x


# 5. Negation is an involution that commutes with both operations
@given(scalars, scalars)
def test_negation_laws(x, y):
    assert -(-x) == x
    assert -(x + y) == (-x) + (-y)
    assert -(x * y) == (-x) * y
    assert (-x).layer == -x.layer


# 6. x + (-x) always lands on layer zero
@given(scalars)
def test_self_balance(x):
    assert (x + (-x)).layer == 0
    assert x.nabla(x)


# 7. The tangible projection is a homomorphism onto max-plus
@given(finite, finite)
def test_tangible_projection(x, y):
    assert (x + y).tangible == max(x.tangible, y.tangible)
    assert (x * y).tangible == x.tangible + y.tangible
    assert (x * NEG_INF).tangible is BOTTOM


# 8. Powers agree with iterated products, and x**0 is ONE even for NEG_INF
@given(scalars, st.integers(min_value=0, max_value=5))
def test_powers(x, k):
    expected = ONE
    for _ in range(k):
        expected = expected * x
    assert x ** k == expected
    assert NEG_INF ** 0 == ONE


# 9. Surpassing is reflexive, antisymmetric, and transitive
@given(scalars, scalars, scalars)
def test_surpass_partial_order(x, y, z):
    assert x.surpasses(x)
    if x.surpasses(y) and y.surpasses(x):
        assert x == y
    if x.surpasses(y) and y.surpasses(z):
        assert x.surpasses(z)


# 10. Surpassing is compatible with addition and multiplication
@given(scalars, scalars, scalars)
def test_surpass_compatibility(x, y, z):
    if x.surpasses(y):
        assert (x + z).surpasses(y + z)
        assert (x * z).surpasses(y * z)


# 11. If x + (-y) has layer zero and x dominates tangibly, then x surpasses y
@given(scalars, scalars)
def test_balance_from_above_gives_surpass(x, y):
    dominates = y is NEG_INF or (x is not NEG_INF and x.tangible >= y.tangible)
    if (x + (-y)).layer == 0 and dominates:
        assert x.surpasses(y)


def test_balance_from_above_is_not_vacuous():
    assert (S("5^[0]") + (-S("3^[1]"))).layer == 0
    assert (S("3^[1]") + (-S("3^[1]"))).layer == 0


def test_addition_examples():
    assert S("2^[1]") + S("3^[1]") == S("3^[1]")
    assert S("3^[1]") + S("3^[1]") == S("3^[2]")
    assert S("3^[1]") + S("3^[-1]") == S("3^[0]")
    assert S("3^[2]") * S("4^[-1]") == S("7^[-2]")
    assert -S("3^[2]") == S("3^[-2]")
    assert S("2^[3]") ** 2 == S("4^[9]")


def test_surpass_examples():
    assert S("5^[0]").surpasses(S("3^[1]"))
    assert not S("3^[1]").surpasses(S("5^[0]"))
    assert S("5^[0]").surpasses(NEG_INF)
    assert not S("5^[1]").surpasses(NEG_INF)
    assert not NEG_INF.surpasses(S("3^[1]"))
    assert NEG_INF.surpasses(NEG_INF)


def test_nabla_examples():
    assert S("3^[1]").nabla(S("3^[1]"))
    assert S("5^[0]").nabla(S("3^[1]"))
    assert not S("2^[1]").nabla(S("3^[1]"))
    assert NEG_INF.nabla(NEG_INF)


@given(finite)
def test_inversion_cancels(x):
    if x.layer != 0:
        assert x * invert(x) == ONE


def test_inversion_examples():
    assert invert(S("0^[2]")) == S("0^[1/2]")
    assert invert(S("3^[2]")) == S("-3^[1/2]")
    assert invert(S("5^[1]"), Z_RING) == S("-5^[1]")
    assert invert(S("5^[-1]"), Z_RING) == S("-5^[-1]")


def test_inversion_failures():
    with pytest.raises(NonInvertible):
        invert(NEG_INF)
    with pytest.raises(NonInvertible):
        invert(S("3^[0]"))
    with pytest.raises(NonInvertible):
        invert(S("3^[2]"), Z_RING)


def test_integer_ring_inverse():
    for unit in (Fraction(1), Fraction(-1)):
        inverse = Z_RING.inverse(unit)
        assert inverse == unit and type(inverse) is Fraction
    with pytest.raises(NonInvertible, match="^2 is not a unit of Z$"):
        Z_RING.inverse(Fraction(2))


def test_layer_rings():
    assert Q_RING.contains(Fraction(7, 3))
    assert Fraction(7, 3) in Q_RING
    assert Fraction(2) in Z_RING
    assert Fraction(7, 3) not in Z_RING


@given(scalars)
def test_text_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_format_examples():
    assert format_scalar(S("-5/3^[1/2]")) == "-5/3^[1/2]"
    assert format_scalar(NEG_INF) == "-inf"
    assert str(ELTScalar(Fraction(4, 2), 1)) == "2^[1]"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "inf",
        "+3^[1]",
        "3^[1",
        "3^ [1]",
        "3^[1]x",
        "1.5^[1]",
        "2/4^[1]",
        "3/01^[1]",
        "03^[1]",
        "-0^[1]",
        "0/3^[1]",
        "3^[-0]",
        "3^[1/0]",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


def test_construction_normalises_and_hashes():
    assert ELTScalar(Fraction(4, 2), Fraction(3, 3)) == ELTScalar(2, 1)
    assert hash(ELTScalar(Fraction(4, 2), 1)) == hash(ELTScalar(2, 1))
    assert ELTScalar("5/3", -2) == ELTScalar(Fraction(5, 3), -2)
    with pytest.raises(TypeError):
        ELTScalar(1.5, 1)


# every constructor and query that takes a rational from the caller, each
# reduced to a value that shows the rational it read
RATIONAL_GATES = {
    "ELTScalar": lambda x: ELTScalar(x, x),
    "tropical_matrix": lambda x: tropical_matrix([[x, BOTTOM]]),
    "PuiseuxSeries": lambda x: PuiseuxSeries([(x, x), (1, 1)]).terms,
    "PuiseuxSeries.scale": lambda x: PuiseuxSeries([(0, 1)]).scale(x).terms,
    "LayerSolutions.__contains__": lambda x: x in LayerSolutions(False, (Fraction(3, 2),)),
    # one corner, at 3/2, and an interval on each side
    "RootDescription.layers_at": lambda x: elt_roots(
        parse_polynomial("0^[1]*L^2 + 3/2^[2]*L + 3^[1]")
    ).layers_at(x),
}


@pytest.mark.parametrize("gate", RATIONAL_GATES.values(), ids=RATIONAL_GATES)
def test_rationals_pass_one_exactness_gate(gate):
    for x in (0, 3, "3/2", "-7/4", Fraction(3, 2)):
        assert gate(x) == gate(Fraction(x))
    for x in (1.5, 0.1):
        with pytest.raises(TypeError, match="floating point"):
            gate(x)


def test_scalar_contract():
    one = ELTScalar(0, 1)
    assert one == ONE
    assert hash(one) == hash(ONE)
    assert NEG_INF + ONE == ONE
    assert NEG_INF * ONE is NEG_INF
    assert str(NEG_INF) == "-inf"
    with pytest.raises(ValueError):
        ONE ** -1


def test_neg_inf_projections():
    assert NEG_INF.tangible is BOTTOM
    assert NEG_INF.layer == 0
    assert -NEG_INF is NEG_INF


# the markers and some rationals, in increasing order: BOTTOM sits below
# every rational and TOP above
LINE = [BOTTOM, Fraction(-10**9), Fraction(0), Fraction(7, 3), TOP]
COMPARISONS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
}


@pytest.mark.parametrize("compare", COMPARISONS.values(), ids=COMPARISONS)
def test_order_markers_compare_as_the_ends_of_the_line(compare):
    # every pair with a marker in it, in both operand orders, compares
    # as its positions on LINE do
    for (i, x), (j, y) in itertools.product(enumerate(LINE), repeat=2):
        if not (isinstance(x, Fraction) and isinstance(y, Fraction)):
            assert compare(x, y) is compare(i, j), (x, y)


def test_order_markers_are_absorbing_singletons():
    assert Bottom() is BOTTOM
    assert Top() is TOP
    assert isinstance(BOTTOM, Bottom) and not isinstance(TOP, Bottom)
    assert hash(BOTTOM) == hash("eltlab.bottom")
    assert hash(TOP) == hash("eltlab.top")
    assert (repr(BOTTOM), repr(TOP)) == ("-inf", "+inf")
    for marker in (BOTTOM, TOP):
        assert not hasattr(marker, "__dict__")
        for x in (Fraction(-10**9), Fraction(0), Fraction(7, 3), 5):
            assert marker + x is marker
            assert x + marker is marker


# the grid layout of matrix files: every malformed layout, written with
# the entry {x}, and the message both readers give for it
MALFORMED_LAYOUTS = {
    "": "empty matrix text",
    " \n\t\n": "empty matrix text",
    "{x}, {x}\n{x}": "matrix rows have inconsistent lengths",
    "rows: 2\ncols: 1\n{x}, {x}\n{x}": "matrix rows have inconsistent lengths",
    "rows: 1\n{x}": "structured matrix header needs a cols: line",
    "rows: 0\ncols: 1\n{x}": "malformed rows: header 'rows: 0'",
    "rows: 1\ncols: ²\n{x}": "malformed cols: header 'cols: ²'",
    "rows: 2\ncols: 1\nrow1: {x}\nrow0: {x}": "row 0 is labelled 'row1', expected 'row0'",
    "rows: 1\ncols: 1\nrow00: {x}": "row 0 is labelled 'row00', expected 'row0'",
    "rows: 1\ncols: 1": "matrix text has no entry rows",
    "rows: 1\ncols: 2\n{x}": "matrix body is 1x1, header says 1x2",
    "rows: 1\ncols: 1\n{x}\n{x}": "matrix body is 2x1, header says 1x1",
}


@pytest.mark.parametrize("layout", MALFORMED_LAYOUTS)
def test_both_matrix_readers_refuse_a_layout_alike(layout):
    messages = []
    for read, entry in ((ELTMatrix.from_text, "0^[1]"), (parse_tropical_matrix, "0")):
        with pytest.raises(ParseError) as caught:
            read(layout.replace("{x}", entry))
        messages.append(str(caught.value))
    assert messages == [MALFORMED_LAYOUTS[layout]] * 2


@pytest.mark.parametrize("rows, message", [
    ([], "matrix must have at least one row and one column"),
    ([[]], "matrix must have at least one row and one column"),
    ([[1, 2], [3]], "matrix rows must all have the same length"),
])
def test_both_matrix_types_refuse_a_shape_alike(rows, message):
    for build, entry in ((ELTMatrix, ONE), (tropical_matrix, 0)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build([[entry] * len(row) for row in rows])


def test_a_structured_tropical_matrix_reads_as_its_plain_form():
    plain = "0, 9\n-inf, 1/2"
    for structured in (
        "rows: 2\ncols: 2\nrow0: 0, 9\nrow1: -inf, 1/2",
        "rows: 2\ncols: 2\n0, 9\n-inf, 1/2",
    ):
        assert parse_tropical_matrix(structured) == parse_tropical_matrix(plain)
    assert format_tropical_matrix(parse_tropical_matrix(plain)) == plain
