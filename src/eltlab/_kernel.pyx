# cython: language_level=3
# cython: binding=True
"""Compiled scalar kernel.

Same algebra and API as eltlab._pykernel, but tangible and layer are
stored as reduced integer pairs (num, den) and the arithmetic runs on
plain Python ints in compiled code, skipping Fraction's per-operation
dunder dispatch and re-normalisation.  Fractions only appear at the
API boundary (the tangible/layer properties and the constructor).

tests/test_backends.py drives both kernels through one battery; any
behavioural change here must land in _pykernel.py too.
"""

from fractions import Fraction
from math import gcd

from eltlab._markers import BOTTOM

BACKEND_NAME = "c"

cdef object _Fraction = Fraction


cdef inline object _num_of(object f):
    return f.numerator


cdef inline object _den_of(object f):
    return f.denominator


def _coerce(value):
    """Exact conversion to Fraction; floats are refused, not rounded."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("floating point is not allowed in exact scalars")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot build a rational from {type(value).__name__}")


cdef class ELTScalar:
    """An exact layered scalar ``a^[l]``, or the adjoined ``-inf``.

    See eltlab._pykernel.ELTScalar for the full contract.
    """

    cdef object tn, td, ln, ld   # reduced, td > 0, ld > 0
    cdef bint fin

    def __init__(self, tangible, layer):
        t = _coerce(tangible)
        l = _coerce(layer)
        self.tn = _num_of(t)
        self.td = _den_of(t)
        self.ln = _num_of(l)
        self.ld = _den_of(l)
        self.fin = True

    # -- projections ------------------------------------------------

    @property
    def is_neg_inf(self):
        return not self.fin

    @property
    def tangible(self):
        return _Fraction(self.tn, self.td) if self.fin else BOTTOM

    @property
    def layer(self):
        return _Fraction(self.ln, self.ld) if self.fin else _Fraction(0)

    # -- arithmetic -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ELTScalar):
            return NotImplemented
        cdef ELTScalar a = <ELTScalar>self
        cdef ELTScalar b = <ELTScalar>other
        if not a.fin:
            return b
        if not b.fin:
            return a
        lhs = a.tn * b.td
        rhs = b.tn * a.td
        if lhs > rhs:
            return a
        if lhs < rhs:
            return b
        num = a.ln * b.ld + b.ln * a.ld
        den = a.ld * b.ld
        return _raw(a.tn, a.td, num, den, True)

    def __mul__(self, other):
        if not isinstance(other, ELTScalar):
            return NotImplemented
        cdef ELTScalar a = <ELTScalar>self
        cdef ELTScalar b = <ELTScalar>other
        if not a.fin or not b.fin:
            return NEG_INF
        return _raw(a.tn * b.td + b.tn * a.td, a.td * b.td,
                    a.ln * b.ln, a.ld * b.ld, True)

    def __pow__(self, n, modulo):
        if modulo is not None:
            return NotImplemented
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            raise ValueError("negative powers: use core.invert explicitly")
        if n == 0:
            return ONE  # empty product, also for -inf
        cdef ELTScalar a = <ELTScalar>self
        if not a.fin:
            return NEG_INF
        # reduced pairs stay reduced under powers; only tn*n needs a gcd
        return _raw(a.tn * n, a.td, a.ln ** n, a.ld ** n, False)

    def __neg__(self):
        cdef ELTScalar a = <ELTScalar>self
        if not a.fin:
            return a
        return _raw(a.tn, a.td, -a.ln, a.ld, True)

    # -- layered relations ------------------------------------------

    def surpasses(self, other):
        """True when self = other + z for some zero-layer z."""
        if not isinstance(other, ELTScalar):
            raise TypeError("surpasses expects a scalar")
        cdef ELTScalar a = <ELTScalar>self
        cdef ELTScalar b = <ELTScalar>other
        if a == b:
            return True
        if not a.fin or a.ln != 0:
            return False
        if not b.fin:
            return True
        return a.tn * b.td > b.tn * a.td

    def nabla(self, other):
        """True when self + (-other) has layer zero."""
        if not isinstance(other, ELTScalar):
            raise TypeError("nabla expects a scalar")
        z = self + (-other)
        return (<ELTScalar>z).ln == 0 if (<ELTScalar>z).fin else True

    # -- protocol ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ELTScalar):
            return NotImplemented
        cdef ELTScalar a = <ELTScalar>self
        cdef ELTScalar b = <ELTScalar>other
        if a.fin != b.fin:
            return False
        if not a.fin:
            return True
        return a.tn == b.tn and a.td == b.td and a.ln == b.ln and a.ld == b.ld

    def __hash__(self):
        if not self.fin:
            return hash("eltlab.neg_inf")
        return hash((_Fraction(self.tn, self.td), _Fraction(self.ln, self.ld)))

    def __str__(self):
        if not self.fin:
            return "-inf"
        t = str(self.tn) if self.td == 1 else f"{self.tn}/{self.td}"
        l = str(self.ln) if self.ld == 1 else f"{self.ln}/{self.ld}"
        return f"{t}^[{l}]"

    def __repr__(self):
        return f"ELTScalar({self})"


cdef ELTScalar _raw(object tn, object td, object ln, object ld, bint reduce_layer):
    """Build a finite scalar from integer pairs, reducing as needed.

    The tangible pair is always reduced here (addition of fractions can
    introduce a common factor); the layer pair only when the caller says
    so, since products of reduced pairs with fresh numerators usually
    need it and powers never do.
    """
    cdef ELTScalar s = ELTScalar.__new__(ELTScalar)
    if tn == 0:
        td = 1
    else:
        g = gcd(tn, td)
        if g != 1:
            tn //= g
            td //= g
    if reduce_layer:
        if ln == 0:
            ld = 1
        else:
            g = gcd(ln, ld)
            if g != 1:
                ln //= g
                ld //= g
    s.tn = tn
    s.td = td
    s.ln = ln
    s.ld = ld
    s.fin = True
    return s


cdef ELTScalar _make_neg_inf():
    cdef ELTScalar s = ELTScalar.__new__(ELTScalar)
    s.tn = None
    s.td = None
    s.ln = None
    s.ld = None
    s.fin = False
    return s


#: The adjoined additive identity / multiplicative absorber.
NEG_INF = _make_neg_inf()

#: The multiplicative identity 0^[1].
ONE = ELTScalar(0, 1)
