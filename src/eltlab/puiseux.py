"""Finite layered power series and their tropicalisation.

A series here is a finite formal sum ``sum c_i * t^(e_i)`` with
strictly increasing rational exponents and nonzero rational
coefficients.  The valuation is the least exponent (TOP for the zero
series) and satisfies v(xy) = v(x) + v(y) and
v(x + y) >= min(v(x), v(y)).

The bridge to scalars: a series with leading term ``l * t^(a)`` maps
to the scalar ``(-a)^[l]``, and the zero series to -inf.  Under this
map multiplication is carried exactly, addition is carried up to a
zero-layer correction (leading terms can cancel), and rescaling by a
nonzero constant multiplies the layer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple, Union

from .core import ELTScalar, NEG_INF, TOP, Top, exact_rational, parse_rational
from .errors import ParseError

Term = tuple[Fraction, Fraction]  # (exponent, coefficient)


class PuiseuxSeries:
    """Immutable finite series with exact rational terms."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[Tuple[object, object]] = ()):
        merged: dict[Fraction, Fraction] = {}
        for exp, coeff in terms:
            e = exact_rational(exp)
            c = exact_rational(coeff)
            if e in merged:
                merged[e] += c
            else:
                merged[e] = c
        self._terms: Tuple[Term, ...] = tuple(
            (e, merged[e]) for e in sorted(merged) if merged[e] != 0
        )

    @classmethod
    def zero(cls) -> "PuiseuxSeries":
        return cls()

    @classmethod
    def monomial(cls, coeff: object, exp: object) -> "PuiseuxSeries":
        return cls([(exp, coeff)])

    @property
    def terms(self) -> Tuple[Term, ...]:
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def valuation(self) -> Union[Fraction, Top]:
        """Least exponent; TOP for the zero series."""
        if not self._terms:
            return TOP
        return self._terms[0][0]

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._terms:
            raise ValueError("the zero series has no leading coefficient")
        return self._terms[0][1]

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return PuiseuxSeries(self._terms + other._terms)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self + other.scale(-1)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        prods = [
            (e1 + e2, c1 * c2)
            for e1, c1 in self._terms
            for e2, c2 in other._terms
        ]
        return PuiseuxSeries(prods)

    def scale(self, alpha: object) -> "PuiseuxSeries":
        """Multiply every coefficient by the constant alpha."""
        a = exact_rational(alpha)
        return PuiseuxSeries((e, a * c) for e, c in self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PuiseuxSeries):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"PuiseuxSeries({self})"


def eltrop(x: PuiseuxSeries) -> ELTScalar:
    """Tropicalise: leading term l*t^(a) maps to (-a)^[l], zero to -inf."""
    if x.is_zero:
        return NEG_INF
    return ELTScalar(-x.valuation, x.leading_coefficient)


# ---------------------------------------------------------------------------
# text format: "c1*t^(e1) + c2*t^(e2) + ...", "0" for the zero series.
# Whitespace-insensitive; the parser merges repeated exponents and
# drops cancelled terms, the printer emits increasing exponents.


def parse_series(text: str) -> PuiseuxSeries:
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty series literal")
    if compact == "0":
        return PuiseuxSeries.zero()
    terms = []
    offset = 0
    for chunk in compact.split("+"):
        if not chunk:
            raise ParseError("empty series term", offset)
        coeff_s, sep, rest = chunk.partition("*t^(")
        if not sep or not rest.endswith(")"):
            raise ParseError(
                f"malformed series term {chunk!r}: expected c*t^(e)", offset
            )
        coeff = parse_rational(coeff_s, position=offset)
        exp = parse_rational(rest[:-1], position=offset + len(coeff_s) + 4)
        terms.append((exp, coeff))
        offset += len(chunk) + 1
    return PuiseuxSeries(terms)


def format_series(x: PuiseuxSeries) -> str:
    if x.is_zero:
        return "0"
    return " + ".join(f"{c}*t^({e})" for e, c in x.terms)
