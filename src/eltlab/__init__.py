"""Exact arithmetic for layered (exploded) tropical linear algebra.

Scalars are pairs tangible^[layer] over the rationals with an adjoined
-inf; on top of them the package provides matrices (determinant,
adjoint, quasi-inverse, characteristic polynomial, eigenvalue and
trace analysis), layered polynomials with their piecewise-linear
envelope and exact root description, finite layered power series with
the tropicalisation bridge, tropical assignment scaling, and a
symbolic transfer harness that checks layered identities against
their classical counterparts.  All arithmetic is exact; there is no
floating point anywhere.
"""

from .core import (
    BOTTOM,
    NEG_INF,
    ONE,
    TOP,
    ELTScalar,
    Q_RING,
    Z_RING,
    get_ring,
    invert,
    parse_scalar,
)
from .errors import ELTError, ParseError
from .matrix import ELTMatrix
from .poly import ELTPolynomial, MonomialStatus
from .puiseux import PuiseuxSeries, eltrop
from .transfer import PolyExpression, parse_expression

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "NEG_INF",
    "ONE",
    "TOP",
    "ELTMatrix",
    "ELTPolynomial",
    "ELTScalar",
    "ELTError",
    "MonomialStatus",
    "ParseError",
    "PolyExpression",
    "PuiseuxSeries",
    "Q_RING",
    "Z_RING",
    "eltrop",
    "get_ring",
    "invert",
    "parse_expression",
    "parse_scalar",
    "__version__",
]
