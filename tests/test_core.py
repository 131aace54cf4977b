"""Scalar arithmetic laws, the surpassing relation, and the scalar text format."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from eltlab import (
    BOTTOM,
    ELTScalar,
    NEG_INF,
    ONE,
    Q_RING,
    Z_RING,
    invert,
    parse_scalar,
)
from eltlab.assign import tropical_matrix
from eltlab.core import format_scalar
from eltlab.errors import NonInvertible, ParseError
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
