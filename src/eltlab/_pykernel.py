"""Pure-Python scalar kernel.

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

This module is the reference implementation; eltlab._kernel is a
compiled twin with the same API selected preferentially by
eltlab.core.  Keep the two in lockstep (tests/test_backends.py holds
the parity battery).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ._markers import BOTTOM, Bottom

RationalLike = Fraction | int | str

_ZERO = Fraction(0)


def _coerce(value: RationalLike) -> Fraction:
    """Exact conversion to Fraction; floats are refused, not rounded."""
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

    __slots__ = ("_t", "_l", "_fin")

    def __init__(self, tangible: RationalLike, layer: RationalLike):
        self._t = _coerce(tangible)
        self._l = _coerce(layer)
        self._fin = True

    @staticmethod
    def _raw(t: Fraction, l: Fraction) -> "ELTScalar":
        s = object.__new__(ELTScalar)
        s._t = t
        s._l = l
        s._fin = True
        return s

    # -- projections ------------------------------------------------

    @property
    def is_neg_inf(self) -> bool:
        return not self._fin

    @property
    def tangible(self) -> Union[Fraction, Bottom]:
        """The tangible value; BOTTOM (below all rationals) for -inf."""
        return self._t if self._fin else BOTTOM

    @property
    def layer(self) -> Fraction:
        """The layer; -inf reads as layer 0."""
        return self._l if self._fin else _ZERO

    # -- arithmetic -------------------------------------------------

    def __add__(self, other: "ELTScalar") -> "ELTScalar":
        if not isinstance(other, ELTScalar):
            return NotImplemented
        if not self._fin:
            return other
        if not other._fin:
            return self
        if self._t > other._t:
            return self
        if self._t < other._t:
            return other
        return ELTScalar._raw(self._t, self._l + other._l)

    def __mul__(self, other: "ELTScalar") -> "ELTScalar":
        if not isinstance(other, ELTScalar):
            return NotImplemented
        if not self._fin or not other._fin:
            return NEG_INF
        return ELTScalar._raw(self._t + other._t, self._l * other._l)

    def __pow__(self, n: int) -> "ELTScalar":
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers: use core.invert explicitly")
        if n == 0:
            return ONE  # empty product, also for -inf
        if not self._fin:
            return NEG_INF
        return ELTScalar._raw(self._t * n, self._l ** n)

    def __neg__(self) -> "ELTScalar":
        if not self._fin:
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
        if not self._fin or self._l != 0:
            return False
        if not other._fin:
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
        if self._fin != other._fin:
            return False
        if not self._fin:
            return True
        return self._t == other._t and self._l == other._l

    def __hash__(self) -> int:
        if not self._fin:
            return hash("eltlab.neg_inf")
        return hash((self._t, self._l))

    def __str__(self) -> str:
        if not self._fin:
            return "-inf"
        return f"{self._t}^[{self._l}]"

    def __repr__(self) -> str:
        return f"ELTScalar({self})"


def _make_neg_inf() -> ELTScalar:
    s = object.__new__(ELTScalar)
    s._t = None
    s._l = None
    s._fin = False
    return s


#: The adjoined additive identity / multiplicative absorber.
NEG_INF: ELTScalar = _make_neg_inf()

#: The multiplicative identity 0^[1].
ONE: ELTScalar = ELTScalar(0, 1)

BACKEND_NAME = "py"
