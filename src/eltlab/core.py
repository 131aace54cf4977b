"""Scalar algebra: the scalar type, layer rings, inversion, text format.

A scalar is a pair ``a^[l]``: a rational tangible value ``a`` and a
rational layer ``l``.  The arithmetic, written additively on the
tangible side, is

* addition: the larger tangible wins and keeps its layer; on a
  tangible tie the layers add,
* multiplication: tangibles add, layers multiply,
* negation: the layer flips sign, the tangible is untouched.

``-inf`` is adjoined as the additive identity and multiplicative
absorber; its layer reads as 0 and its tangible as the BOTTOM marker.
Layer zero is special throughout: ``x + (-x)`` lands on layer zero,
and the zero-layer elements form the ideal that replaces "equals 0"
in kernel-style statements.

Everything downstream (matrices, polynomials, the CLI) imports the
scalar type and the order markers BOTTOM and TOP from here, and the
modules' result types derive from ``Record``.  The grid layout of
matrix files, ELT and tropical alike, lives here too.

Layers live in a commutative ring, rationals by default.  The ring
only matters where division or unit checks happen (invert, matrix
quasi-inverse, root solving), so scalars store plain Fractions and
the ring is passed to those operations explicitly.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Any, Callable, Iterable, Sequence, Tuple, Union

from .errors import NonInvertible, ParseError

#: Names the scalar arithmetic, pure Python in this module; benchmark
#: reports print it.
BACKEND = "py"


# ---------------------------------------------------------------------------
# result records


class Record:
    """Base of the immutable result types: a frozen dataclass's
    contract, read off the subclass's ``__slots__``.

    A subclass lists its fields, in order, as ``__slots__`` and defines
    a plain ``__init__`` that sets each one with ``object.__setattr__``,
    as a frozen dataclass's does.  Instances compare equal only to an
    instance of the same class with equal fields, hash as the tuple of
    their fields, print as ``Name(field=value, ...)`` and refuse to set
    or delete an attribute.  Unlike ``@dataclass(frozen=True)``, which
    compiles six methods per class when its module loads, a subclass
    costs no compilation, and every command-line process imports the
    modules that define these types.  The five results that stay
    dataclasses live in ``reports``, which only the functions that
    build one of them load.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        # __eq__ is a closure made for each class: Python 3.11
        # specialises an attribute lookup for one class, and one method
        # shared by every record would miss those caches
        super().__init_subclass__(**kwargs)
        fields = operator.attrgetter(*cls.__slots__)

        def __eq__(self, other):
            if type(other) is not type(self):
                return NotImplemented
            return fields(self) == fields(other)

        cls.__eq__ = __eq__

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses
        return type(self), self._values()


# ---------------------------------------------------------------------------
# order markers
#
# BOTTOM sits strictly below every rational and TOP strictly above.
# Both absorb under + so they can ride along in max-plus style sums.
# They are plain singletons, not floats, so no floating point sneaks
# into exact computations.  ``_End`` holds all of their behaviour; a
# subclass names only its end of the line, its hash key and its text.


class _End:
    """A singleton end of the tangible line: ``_end`` is -1 below all
    rationals, +1 above them."""

    __slots__ = ()
    _instance = None
    _end = 0
    _hash_key = ""
    _text = ""

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def _above(self, other: object) -> int:
        """Positive, zero or negative as self sits above, at or below other."""
        return self._end - (other._end if isinstance(other, _End) else 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self))

    def __hash__(self) -> int:
        return hash(self._hash_key)

    def __lt__(self, other: object) -> bool:
        return self._above(other) < 0

    def __le__(self, other: object) -> bool:
        return self._above(other) <= 0

    def __gt__(self, other: object) -> bool:
        return self._above(other) > 0

    def __ge__(self, other: object) -> bool:
        return self._above(other) >= 0

    # max-plus product: an end absorbs
    def __add__(self, other: object) -> "_End":
        return self

    __radd__ = __add__

    def __repr__(self) -> str:
        return self._text


class Bottom(_End):
    """Singleton ordered below all rationals; -inf of the tangible line."""

    __slots__ = ()
    _end, _hash_key, _text = -1, "eltlab.bottom", "-inf"


class Top(_End):
    """Singleton ordered above all rationals; +inf used by valuations."""

    __slots__ = ()
    _end, _hash_key, _text = 1, "eltlab.top", "+inf"


BOTTOM = Bottom()
TOP = Top()


# ---------------------------------------------------------------------------
# the scalar type


RationalLike = Fraction | int | str

_ZERO = Fraction(0)


def exact_rational(value: RationalLike) -> Fraction:
    """Exact conversion to Fraction of every rational a caller passes
    in; floats are refused with TypeError, not rounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact scalars")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot build a rational from {type(value).__name__}")


class ELTScalar:
    """An exact layered scalar ``a^[l]``, or the adjoined ``-inf``.

    Instances are immutable and hashable.  Arithmetic is via the
    usual operators; the layered relations live on the methods
    ``surpasses`` and ``nabla``.
    """

    __slots__ = ("_t", "_l")

    def __init__(self, tangible: RationalLike, layer: RationalLike):
        self._t = exact_rational(tangible)
        self._l = exact_rational(layer)

    @staticmethod
    def _raw(t: Fraction | None, l: Fraction | None) -> "ELTScalar":
        s = object.__new__(ELTScalar)
        s._t = t
        s._l = l
        return s

    # -- projections ------------------------------------------------

    @property
    def is_neg_inf(self) -> bool:
        return self._t is None

    @property
    def tangible(self) -> Union[Fraction, Bottom]:
        """The tangible value; BOTTOM (below all rationals) for -inf."""
        return BOTTOM if self._t is None else self._t

    @property
    def layer(self) -> Fraction:
        """The layer; -inf reads as layer 0."""
        return _ZERO if self._t is None else self._l

    # -- arithmetic -------------------------------------------------

    def __add__(self, other: "ELTScalar") -> "ELTScalar":
        if not isinstance(other, ELTScalar):
            return NotImplemented
        if self._t is None:
            return other
        if other._t is None:
            return self
        if self._t > other._t:
            return self
        if self._t < other._t:
            return other
        return ELTScalar._raw(self._t, self._l + other._l)

    def __mul__(self, other: "ELTScalar") -> "ELTScalar":
        if not isinstance(other, ELTScalar):
            return NotImplemented
        if self._t is None or other._t is None:
            return NEG_INF
        return ELTScalar._raw(self._t + other._t, self._l * other._l)

    def __pow__(self, n: int) -> "ELTScalar":
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers: use core.invert explicitly")
        if n == 0:
            return ONE  # empty product, also for -inf
        if self._t is None:
            return NEG_INF
        return ELTScalar._raw(self._t * n, self._l ** n)

    def __neg__(self) -> "ELTScalar":
        if self._t is None:
            return self
        return ELTScalar._raw(self._t, -self._l)

    # -- layered relations ------------------------------------------

    def surpasses(self, other: "ELTScalar") -> bool:
        """True when self = other + z for some zero-layer z.

        Closed form: equality, or self has layer zero and either a
        strictly larger tangible than other or other is -inf.
        """
        if not isinstance(other, ELTScalar):
            raise TypeError("surpasses expects a scalar")
        if self == other:
            return True
        if self._t is None or self._l != 0:
            return False
        if other._t is None:
            return True
        return self._t > other._t

    def nabla(self, other: "ELTScalar") -> bool:
        """True when self + (-other) has layer zero."""
        if not isinstance(other, ELTScalar):
            raise TypeError("nabla expects a scalar")
        return (self + (-other)).layer == 0

    # -- protocol ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ELTScalar):
            return NotImplemented
        if self._t is None or other._t is None:
            return self._t is other._t
        return self._t == other._t and self._l == other._l

    def __hash__(self) -> int:
        if self._t is None:
            return hash("eltlab.neg_inf")
        return hash((self._t, self._l))

    def __str__(self) -> str:
        if self._t is None:
            return "-inf"
        return f"{self._t}^[{self._l}]"

    def __repr__(self) -> str:
        return f"ELTScalar({self})"


#: The adjoined additive identity / multiplicative absorber.
NEG_INF: ELTScalar = ELTScalar._raw(None, None)

#: The multiplicative identity 0^[1].
ONE: ELTScalar = ELTScalar(0, 1)


# ---------------------------------------------------------------------------
# integer grids

IntGrid = list[list[int | None]]


def integer_grid(
    grid: Sequence[Sequence[Union[Fraction, Bottom]]]
) -> Tuple[int, IntGrid]:
    """Put a grid of rationals over one common denominator.

    Returns ``(d, scaled)``: d is the least common multiple of the
    denominators of every rational in the grid (1 when there are none),
    and ``scaled`` is the grid with a rational x replaced by the int x*d
    and BOTTOM by None.  Loops over the scaled grid then run on exact
    ints and divide by d once at the end.
    """
    d = math.lcm(*{x.denominator for row in grid for x in row if x is not BOTTOM})
    scaled = [
        [None if x is BOTTOM else x.numerator * (d // x.denominator) for x in row]
        for row in grid
    ]
    return d, scaled


# ---------------------------------------------------------------------------
# layer rings


class LayerRing:
    """The rational layer ring (a field; every nonzero layer is a unit)."""

    name = "Q"

    def contains(self, a: Fraction) -> bool:
        return isinstance(a, Fraction)

    def __contains__(self, a: Fraction) -> bool:
        return self.contains(a)

    def is_unit(self, a: Fraction) -> bool:
        return a != 0

    def inverse(self, a: Fraction) -> Fraction:
        if not self.is_unit(a):
            raise NonInvertible(f"{a} is not a unit of {self.name}")
        return 1 / a

    def __repr__(self) -> str:
        return f"<layer ring {self.name}>"


class IntegerLayerRing(LayerRing):
    """Integer layers: same carrier representation, units only +-1.

    Useful for exercising the non-field case; values are still stored
    as Fractions with denominator 1.
    """

    name = "Z"

    def contains(self, a: Fraction) -> bool:
        return isinstance(a, Fraction) and a.denominator == 1

    def is_unit(self, a: Fraction) -> bool:
        return a == 1 or a == -1


Q_RING = LayerRing()
Z_RING = IntegerLayerRing()

_RINGS = {"Q": Q_RING, "Z": Z_RING}


def get_ring(name: str) -> LayerRing:
    try:
        return _RINGS[name.upper()]
    except KeyError:
        raise ValueError(f"unknown layer ring {name!r}: expected Q or Z") from None


def invert(x: ELTScalar, ring: LayerRing = Q_RING) -> ELTScalar:
    """Multiplicative inverse (-t(x))^[s(x)^-1].

    Exists exactly when x is finite and its layer is a unit of the
    layer ring; then x * invert(x) == 0^[1].
    """
    if x.is_neg_inf:
        raise NonInvertible("-inf has no multiplicative inverse")
    s = x.layer
    if not ring.contains(s) or not ring.is_unit(s):
        raise NonInvertible(f"layer {s} is not a unit of {ring.name}")
    return ELTScalar(-x.tangible, ring.inverse(s))


# ---------------------------------------------------------------------------
# text format
#
# Scalars print as <tangible>^[<layer>] with both rationals reduced
# ("p" or "p/q", q > 1), and -inf for the additive identity.  The
# parser accepts exactly the reduced forms (a redundant "/1" is
# tolerated) and rejects unreduced or zero-denominator input.

_RAT_RE = re.compile(r"(?:0|-?[1-9][0-9]*)(?:/[1-9][0-9]*)?\Z")


def parse_int(digits: str, position: int | None = None) -> int:
    """``int(digits)`` for a sign and ASCII digits the caller has
    checked.  Python refuses to convert more digits than
    ``sys.get_int_max_str_digits()`` (4,300 by default); that is a
    ParseError here, like any other number the readers cannot take."""
    try:
        return int(digits)
    except ValueError:
        size = len(digits.lstrip("-"))
        raise ParseError(f"number of {size} digits is too long", position) from None


def parse_rational(text: str, position: int | None = None) -> Fraction:
    """Parse a reduced rational literal like ``-3/2`` or ``7``."""
    t = text.strip()
    if not _RAT_RE.match(t):
        if re.match(r"-?[0-9]+/0+\Z", t):
            raise ParseError(f"zero denominator in {text!r}", position)
        raise ParseError(f"malformed rational {text!r}", position)
    if "/" in t:
        num_s, den_s = t.split("/")
        num = parse_int(num_s, position)
        den = parse_int(den_s, position)
        value = Fraction(num, den)
        if value.numerator != num or value.denominator != den:
            raise ParseError(f"rational {text!r} is not reduced", position)
        return value
    return Fraction(parse_int(t, position))


def parse_scalar(text: str) -> ELTScalar:
    """Parse the scalar format: ``3/2^[-1]``, ``0^[1]``, ``-inf``."""
    t = text.strip()
    if t == "-inf":
        return NEG_INF
    head, sep, tail = t.partition("^[")
    if not sep or not tail.endswith("]"):
        raise ParseError(f"malformed scalar {text!r}: expected t^[l] or -inf")
    tang = parse_rational(head, position=0)
    lay = parse_rational(tail[:-1], position=len(head) + 2)
    return ELTScalar(tang, lay)


def format_scalar(x: ELTScalar) -> str:
    return str(x)


# ---------------------------------------------------------------------------
# grid layout: every matrix file, ELT or tropical, has one row per line,
# entries separated by commas.  The structured variant prefixes "rows:"
# and "cols:" header lines and labels row i with "row<i>: ".  The caller
# reads and writes the entries.


def grid(rows: Iterable[Iterable[Any]], entry: Callable[[Any], Any]) -> Tuple[tuple, ...]:
    """The rows as a nonempty rectangle of tuples of ``entry(x)``."""
    out = tuple(tuple(map(entry, row)) for row in rows)
    if not out or not out[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(out[0])
    if any(len(row) != width for row in out):
        raise ValueError("matrix rows must all have the same length")
    return out


def parse_grid(text: str, entry: Callable[[str], Any]) -> list:
    """The rows of a matrix file, each comma-separated token read by
    ``entry``; the header, when there is one, must match the body."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix text")
    expected = None
    if lines[0].startswith("rows:"):
        if len(lines) < 2 or not lines[1].startswith("cols:"):
            raise ParseError("structured matrix header needs a cols: line")
        expected = (_parse_dim(lines[0], "rows"), _parse_dim(lines[1], "cols"))
        lines = [_unlabel(ln, i) for i, ln in enumerate(lines[2:])]
    rows = [[entry(tok) for tok in ln.split(",")] for ln in lines]
    if not rows:
        raise ParseError("matrix text has no entry rows")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ParseError("matrix rows have inconsistent lengths")
    if expected is not None and expected != (len(rows), width):
        raise ParseError(
            f"matrix body is {len(rows)}x{width}, header says {expected[0]}x{expected[1]}"
        )
    return rows


def format_grid(rows: Sequence[Sequence[str]], structured: bool = False) -> str:
    lines = [", ".join(row) for row in rows]
    if structured:
        head = [f"rows: {len(rows)}", f"cols: {len(rows[0])}"]
        lines = head + [f"row{i}: {ln}" for i, ln in enumerate(lines)]
    return "\n".join(lines)


def _parse_dim(line: str, label: str) -> int:
    value = line.partition(":")[2].strip()
    dim = parse_int(value) if value.isascii() and value.isdigit() else 0
    if dim <= 0:
        raise ParseError(f"malformed {label}: header {line!r}")
    return dim


def _unlabel(line: str, i: int) -> str:
    """Row i of a structured matrix without its optional "row<i>:" label."""
    label, sep, body = line.partition(":")
    if not sep:
        return line
    if label != f"row{i}":
        raise ParseError(f"row {i} is labelled {label!r}, expected 'row{i}'")
    return body
