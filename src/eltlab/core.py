"""Scalar algebra: kernel selection, layer rings, inversion, text format.

The scalar type itself lives in a kernel module.  Two kernels exist
with identical APIs: eltlab._kernel (Cython) and eltlab._pykernel
(pure Python).  The compiled one is used when it is importable (that
is, when it was built), the pure one otherwise; ``BACKEND`` names the
choice, "c" or "py".

Everything downstream (matrices, polynomials, the CLI) imports the
scalar type from here and never from a kernel directly.

Layers live in a commutative ring, rationals by default.  The ring
only matters where division or unit checks happen (invert, matrix
quasi-inverse, root solving), so scalars store plain Fractions and
the ring is passed to those operations explicitly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence, Tuple, Union

from ._markers import BOTTOM, TOP, Bottom, Top  # re-exported
from .errors import NonInvertible, ParseError


try:
    from . import _kernel as _backend
except ImportError:
    from . import _pykernel as _backend

ELTScalar = _backend.ELTScalar
NEG_INF = _backend.NEG_INF
ONE = _backend.ONE
BACKEND = _backend.BACKEND_NAME


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
