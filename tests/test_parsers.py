"""Properties of every text reader and writer: a reader fails only with
ParseError, whatever text it is given, and what a writer prints reads
back equal."""

import pytest
from hypothesis import given, settings, strategies as st

from eltlab.assign import format_tropical_matrix, parse_tropical_matrix
from eltlab.core import BOTTOM, NEG_INF, ELTScalar, format_scalar, parse_scalar
from eltlab.errors import ParseError
from eltlab.matrix import ELTMatrix, format_vector, parse_vector
from eltlab.poly import ELTPolynomial, format_polynomial, parse_polynomial
from eltlab.puiseux import PuiseuxSeries, format_series, parse_series
from eltlab.transfer import PolyExpression, format_expression, parse_expression

rationals = st.fractions()
scalars = st.builds(ELTScalar, rationals, rationals) | st.just(NEG_INF)
shapes = st.tuples(st.integers(1, 4), st.integers(1, 4))
matrices = shapes.flatmap(
    lambda s: st.lists(
        st.lists(scalars, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0]
    )
).map(ELTMatrix)
tropical = shapes.flatmap(
    lambda s: st.lists(
        st.lists(rationals | st.just(BOTTOM), min_size=s[1], max_size=s[1]),
        min_size=s[0],
        max_size=s[0],
    )
).map(lambda rows: tuple(map(tuple, rows)))
polynomials = st.lists(st.tuples(st.integers(0, 30), scalars), max_size=6).map(
    ELTPolynomial
)
series = st.lists(st.tuples(rationals, rationals), max_size=6).map(PuiseuxSeries)

leaves = st.sampled_from(
    [PolyExpression.zero(), PolyExpression.one()]
    + [PolyExpression.var(i) for i in range(1, 5)]
)


def _fold(e, steps):
    for kind, a, b in steps:
        if kind == "nest":
            e = a * (b + e)  # one more level of parentheses
        elif kind == "add":
            e = a + e
        elif kind == "mul":
            e = e * a
        else:
            e = e - a
    return e


# up to 100 steps, each adding at most one level of parentheses
expressions = st.builds(
    _fold,
    leaves,
    st.lists(
        st.tuples(st.sampled_from(["nest", "add", "mul", "sub"]), leaves, leaves),
        max_size=100,
    ),
)


ROUND_TRIPS = {
    "scalar": (scalars, format_scalar, parse_scalar),
    "vector": (st.lists(scalars, min_size=1).map(tuple), format_vector, parse_vector),
    "matrix": (matrices, ELTMatrix.to_text, ELTMatrix.from_text),
    "structured matrix": (
        matrices, lambda m: m.to_text(structured=True), ELTMatrix.from_text
    ),
    "tropical matrix": (tropical, format_tropical_matrix, parse_tropical_matrix),
    "polynomial": (polynomials, format_polynomial, parse_polynomial),
    "series": (series, format_series, parse_series),
    "expression": (expressions, format_expression, parse_expression),
}



# Pieces of the formats and characters from the Unicode classes of
# digits, numbers and spaces, which str.isdigit and str.split accept
# beyond ASCII.
FRAGMENTS = (
    "rows:", "cols:", "row0:", "row1:", "\n", ",", " ", "-inf", "^[", "]",
    "/", "-", "*L", "^", "*t^(", "(", ")", "+", "*", "x", "0", "1", "10",
)
pieces = (
    st.sampled_from(FRAGMENTS)
    | st.characters(categories=("Nd", "No", "Zs", "Zl", "Cc"))
    | st.characters()
)


# the two kinds of character beyond ASCII that str.isdigit accepts:
# decimal digits of other scripts, which int() reads, and superscripts,
# circled digits and the like, which it does not
_DIGITS = [c for c in map(chr, range(128, 0x20000)) if c.isdigit()]
digits = st.sampled_from([c for c in _DIGITS if c.isdecimal()]) | st.sampled_from(
    [c for c in _DIGITS if not c.isdecimal()]
)


def _mutate(text, at, cut, piece):
    at %= len(text) + 1
    return text[:at] + piece + text[at + cut:]


def _redigit(text, digit):
    return "".join(digit if c in "0123456789" else c for c in text)


def hostile(kind):
    """Any text, a soup of pieces, or a writer's output either with a
    span replaced by a piece or with every ASCII digit replaced by one
    non-ASCII digit."""
    values, write, _ = ROUND_TRIPS[kind]
    written = values.map(write)
    return (
        st.text()
        | st.lists(pieces, max_size=40).map("".join)
        | st.builds(_mutate, written, st.integers(0), st.integers(0, 2), pieces)
        | st.builds(_redigit, written, digits)
    )


@pytest.mark.parametrize("kind", ROUND_TRIPS)
@given(data=st.data())
def test_readers_raise_only_parse_errors(kind, data):
    text = data.draw(hostile(kind))
    try:
        ROUND_TRIPS[kind][2](text)
    except ParseError:
        pass


# Python's int() refuses strings of more than 4,300 digits
LONG = "1" * 5000


@pytest.mark.parametrize(
    "read, text",
    [
        (parse_scalar, f"{LONG}^[0]"),
        (parse_scalar, f"0^[1/{LONG}]"),
        (ELTMatrix.from_text, f"rows: {LONG}\ncols: 1\n0^[1]"),
        (ELTMatrix.from_text, f"rows: 1\ncols: {LONG}\n0^[1]"),
        (parse_tropical_matrix, f"{LONG}, -inf"),
        (parse_polynomial, f"0^[1]*L^{LONG}"),
        (parse_series, f"2*t^(-{LONG})"),
        (parse_expression, f"x1 + x{LONG}"),
    ],
    ids=["tangible", "layer", "rows", "cols", "tropical", "degree", "series", "variable"],
)
def test_readers_reject_numbers_past_the_digit_limit(read, text):
    with pytest.raises(ParseError, match="5000 digits"):
        read(text)


@pytest.mark.parametrize("kind", ROUND_TRIPS)
@given(data=st.data())
def test_writers_read_back_equal(kind, data):
    values, write, read = ROUND_TRIPS[kind]
    value = data.draw(values)
    text = write(value)
    assert read(text) == value
    assert write(read(text)) == text
