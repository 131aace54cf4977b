"""Polynomials over layered scalars in one variable L.

A polynomial is a finite map from degrees to finite scalars; degrees
whose coefficient is -inf are simply absent.  Evaluation follows the
scalar algebra, so the tangible value at a tangible point is the upper
envelope of the lines ``deg * x + t(coeff)`` and a point is a root
exactly when the evaluated layer is zero.

Two classification services are provided.  ``envelope`` grades each
monomial globally by the shape of its dominance region (a closed
interval of tangible points, possibly empty or a single point), and
``classify_at`` grades a monomial at one tangible point by comparing
the polynomial with and without it.  ``elt_roots`` turns the envelope
into a complete root description: corner points carry the layers that
solve a layer-ring polynomial equation, and between corners a single
monomial dominates so the root layers are constant along the interval.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from ._markers import BOTTOM, TOP, Bottom, Top
from .core import (
    ELTScalar,
    LayerRing,
    NEG_INF,
    ONE,
    Q_RING,
    format_scalar,
    parse_scalar,
)
from .errors import DegeneratePolynomial, ParseError

Bound = Union[Fraction, Bottom, Top]


class MonomialStatus(Enum):
    ESSENTIAL = "essential"
    QUASI_ESSENTIAL = "quasi-essential"
    INESSENTIAL = "inessential"

    def __str__(self) -> str:
        return self.value


class ELTPolynomial:
    """Immutable polynomial with exact scalar coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Union[Mapping[int, ELTScalar], Iterable[Tuple[int, ELTScalar]]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        table: Dict[int, ELTScalar] = {}
        for deg, c in items:
            if not isinstance(deg, int) or isinstance(deg, bool) or deg < 0:
                raise ValueError(f"degree must be a nonnegative integer, got {deg!r}")
            if not isinstance(c, ELTScalar):
                raise TypeError(f"coefficient must be a scalar, got {type(c).__name__}")
            if c.is_neg_inf:
                continue
            if deg in table:
                table[deg] = table[deg] + c
            else:
                table[deg] = c
        self._coeffs = {d: table[d] for d in sorted(table)}

    @classmethod
    def zero(cls) -> "ELTPolynomial":
        return cls()

    @classmethod
    def constant(cls, c: ELTScalar) -> "ELTPolynomial":
        return cls({0: c})

    @classmethod
    def monomial(cls, deg: int, c: ELTScalar) -> "ELTPolynomial":
        return cls({deg: c})

    @property
    def coefficients(self) -> Dict[int, ELTScalar]:
        return dict(self._coeffs)

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> Optional[int]:
        """Largest degree with a finite coefficient, None if there is none."""
        if not self._coeffs:
            return None
        return max(self._coeffs)

    def coeff(self, deg: int) -> ELTScalar:
        return self._coeffs.get(deg, NEG_INF)

    def without(self, deg: int) -> "ELTPolynomial":
        """Copy with the monomial of the given degree removed."""
        return ELTPolynomial({d: c for d, c in self._coeffs.items() if d != deg})

    def __add__(self, other: "ELTPolynomial") -> "ELTPolynomial":
        if not isinstance(other, ELTPolynomial):
            return NotImplemented
        out = dict(self._coeffs)
        for d, c in other._coeffs.items():
            out[d] = out[d] + c if d in out else c
        return ELTPolynomial(out)

    def __mul__(self, other: "ELTPolynomial") -> "ELTPolynomial":
        if not isinstance(other, ELTPolynomial):
            return NotImplemented
        out: Dict[int, ELTScalar] = {}
        for d1, c1 in self._coeffs.items():
            for d2, c2 in other._coeffs.items():
                d = d1 + d2
                p = c1 * c2
                out[d] = out[d] + p if d in out else p
        return ELTPolynomial(out)

    def scale(self, c: ELTScalar) -> "ELTPolynomial":
        """Multiply every coefficient by the scalar c."""
        return ELTPolynomial({d: c * v for d, v in self._coeffs.items()})

    def __neg__(self) -> "ELTPolynomial":
        return ELTPolynomial({d: -v for d, v in self._coeffs.items()})

    def evaluate(self, x: ELTScalar) -> ELTScalar:
        acc = NEG_INF
        for d, c in self._coeffs.items():
            acc = acc + c * x**d
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ELTPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(tuple(self._coeffs.items()))

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"ELTPolynomial({self})"


# ---------------------------------------------------------------------------
# envelope classification


@dataclass(frozen=True)
class EnvelopeReport:
    """Global status of every monomial of a polynomial.

    ``intervals`` maps each degree to the closed tangible interval on
    which its line attains the envelope (None when it never does), and
    ``corners`` lists the tangible points where at least two monomials
    attain it simultaneously.
    """

    statuses: Dict[int, MonomialStatus]
    intervals: Dict[int, Optional[Tuple[Bound, Bound]]]
    corners: Tuple[Fraction, ...]


def _require_nonzero(p: ELTPolynomial) -> None:
    if p.is_zero:
        raise DegeneratePolynomial("the zero polynomial has no envelope")


def envelope(p: ELTPolynomial) -> EnvelopeReport:
    """Grade every monomial by the shape of its dominance interval."""
    _require_nonzero(p)
    monos = [(d, c.tangible) for d, c in p.coefficients.items()]
    statuses: Dict[int, MonomialStatus] = {}
    intervals: Dict[int, Optional[Tuple[Bound, Bound]]] = {}
    for d, t in monos:
        lo: Bound = BOTTOM
        hi: Bound = TOP
        for e, u in monos:
            if e == d:
                continue
            # lines d*x + t and e*x + u cross at x = (u - t) / (d - e)
            x = Fraction(u - t, d - e)
            if e > d:
                hi = min(hi, x)
            else:
                lo = max(lo, x)
        if lo > hi:
            statuses[d] = MonomialStatus.INESSENTIAL
            intervals[d] = None
        elif lo == hi:
            statuses[d] = MonomialStatus.QUASI_ESSENTIAL
            intervals[d] = (lo, hi)
        else:
            statuses[d] = MonomialStatus.ESSENTIAL
            intervals[d] = (lo, hi)
    corner_set = set()
    for iv in intervals.values():
        if iv is None:
            continue
        for bound in iv:
            if isinstance(bound, Fraction) and len(dominant_degrees(p, bound)) >= 2:
                corner_set.add(bound)
    return EnvelopeReport(statuses, intervals, tuple(sorted(corner_set)))


def dominant_degrees(p: ELTPolynomial, x: Fraction) -> Tuple[int, ...]:
    """Degrees whose line attains the envelope at the tangible point x."""
    _require_nonzero(p)
    values = {d: d * x + c.tangible for d, c in p.coefficients.items()}
    top = max(values.values())
    return tuple(d for d in sorted(values) if values[d] == top)


def classify_at(p: ELTPolynomial, deg: int, a: Fraction) -> MonomialStatus:
    """Grade one monomial at one tangible point.

    The monomial is inessential at ``a`` when dropping it does not
    change the value there and it evaluates strictly below that value;
    essential when it alone already gives the full value and the rest
    falls strictly below; quasi-essential otherwise.
    """
    c = p.coeff(deg)
    if c.is_neg_inf:
        raise ValueError(f"polynomial has no monomial of degree {deg}")
    point = ELTScalar(a, 1)
    full = p.evaluate(point)
    alone = c * point**deg
    rest = p.without(deg).evaluate(point)
    if full == rest and alone.tangible < full.tangible:
        return MonomialStatus.INESSENTIAL
    if full == alone and rest.tangible < full.tangible:
        return MonomialStatus.ESSENTIAL
    return MonomialStatus.QUASI_ESSENTIAL


# ---------------------------------------------------------------------------
# roots


@dataclass(frozen=True)
class LayerSolutions:
    """Solution set of a layer equation: either all of the ring, or a
    finite tuple of ring elements."""

    all_layers: bool
    values: Tuple[Fraction, ...] = ()

    def __contains__(self, layer: object) -> bool:
        return self.all_layers or Fraction(layer) in self.values

    @property
    def is_empty(self) -> bool:
        return not self.all_layers and not self.values

    def __str__(self) -> str:
        if self.all_layers:
            return "all"
        return "{" + ", ".join(str(v) for v in self.values) + "}"


@dataclass(frozen=True)
class CornerRoot:
    """Tangible point where several monomials tie; its root layers are
    the solutions of ``sum s(c_i) * l^i = 0`` over the tied degrees i,
    with l^0 read as the constant 1."""

    tangible: Fraction
    degrees: Tuple[int, ...]
    layer_equation: Dict[int, Fraction]
    layers: LayerSolutions


@dataclass(frozen=True)
class IntervalRoot:
    """Open tangible interval dominated by a single monomial, together
    with the layers that make points there roots."""

    lower: Bound
    upper: Bound
    degree: int
    layers: LayerSolutions


@dataclass(frozen=True)
class RootDescription:
    corners: Tuple[CornerRoot, ...]
    intervals: Tuple[IntervalRoot, ...]
    neg_infinity_root: bool

    def layers_at(self, a: Fraction) -> LayerSolutions:
        """Root layers of the tangible point a."""
        a = Fraction(a)
        for corner in self.corners:
            if corner.tangible == a:
                return corner.layers
        for iv in self.intervals:
            if iv.lower < a < iv.upper:
                return iv.layers
        return LayerSolutions(False, ())


def _divisors(n: int) -> Tuple[int, ...]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return tuple(small + large[::-1])


def _rational_roots(int_coeffs: Dict[int, int], ring: LayerRing) -> Tuple[Fraction, ...]:
    """All ring roots of a nonzero integer polynomial, by the rational
    root bound plus exact verification."""
    roots = []
    degs = sorted(d for d, a in int_coeffs.items() if a != 0)
    low = degs[0]
    if low > 0 and Fraction(0) in ring:
        roots.append(Fraction(0))
    shifted = {d - low: int_coeffs[d] for d in degs}
    if max(shifted) == 0:
        return tuple(roots)
    lead = shifted[max(shifted)]
    const = shifted[0]
    seen = set(roots)
    for num in _divisors(const):
        for den in _divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * num, den)
                if cand in seen or cand not in ring:
                    continue
                value = sum(a * cand**d for d, a in shifted.items())
                if value == 0:
                    seen.add(cand)
                    roots.append(cand)
    return tuple(sorted(roots))


def _layer_solutions(equation: Dict[int, Fraction], ring: LayerRing) -> LayerSolutions:
    nonzero = {d: s for d, s in equation.items() if s != 0}
    if not nonzero:
        return LayerSolutions(True)
    if max(nonzero) == 0:
        return LayerSolutions(False, ())
    denom = math.lcm(*(s.denominator for s in nonzero.values()))
    int_coeffs = {d: int(s * denom) for d, s in nonzero.items()}
    return LayerSolutions(False, _rational_roots(int_coeffs, ring))


def _single_degree_layers(deg: int, coeff: ELTScalar, ring: LayerRing) -> LayerSolutions:
    # one dominant monomial: layer of c * a^[l]^deg is s(c) * l^deg,
    # so every layer works when s(c) = 0, only l = 0 works when the
    # degree is positive, and nothing works for a dominant constant.
    if coeff.layer == 0:
        return LayerSolutions(True)
    if deg >= 1 and Fraction(0) in ring:
        return LayerSolutions(False, (Fraction(0),))
    return LayerSolutions(False, ())


def elt_roots(p: ELTPolynomial, ring: LayerRing = Q_RING) -> RootDescription:
    """Complete description of the roots of p.

    Roots are the points where the evaluated layer vanishes.  They come
    in three kinds: corner points with layers solving the layer
    equation of the tied monomials, open intervals whose single
    dominant monomial admits layer 0 (positive degree) or every layer
    (layer-zero coefficient), and -inf when the constant term is absent
    or has layer zero.
    """
    _require_nonzero(p)
    report = envelope(p)
    corners = []
    for x in report.corners:
        degs = dominant_degrees(p, x)
        equation = {d: p.coeff(d).layer for d in degs}
        corners.append(CornerRoot(x, degs, equation, _layer_solutions(equation, ring)))
    cuts = list(report.corners)
    intervals = []
    bounds: list[Tuple[Bound, Bound]] = []
    if not cuts:
        bounds.append((BOTTOM, TOP))
    else:
        bounds.append((BOTTOM, cuts[0]))
        for left, right in itertools.pairwise(cuts):
            bounds.append((left, right))
        bounds.append((cuts[-1], TOP))
    for lo, hi in bounds:
        sample = _interior_point(lo, hi)
        degs = dominant_degrees(p, sample)
        deg = degs[0]
        layers = _single_degree_layers(deg, p.coeff(deg), ring)
        if not layers.is_empty:
            intervals.append(IntervalRoot(lo, hi, deg, layers))
    constant = p.coeff(0)
    at_bottom = constant.is_neg_inf or constant.layer == 0
    return RootDescription(tuple(corners), tuple(intervals), at_bottom)


def _interior_point(lo: Bound, hi: Bound) -> Fraction:
    if isinstance(lo, Bottom):
        return Fraction(0) if isinstance(hi, Top) else hi - 1
    if isinstance(hi, Top):
        return lo + 1
    return (lo + hi) / 2


def is_root(p: ELTPolynomial, x: ELTScalar) -> bool:
    return p.evaluate(x).layer == 0


# ---------------------------------------------------------------------------
# text format: "c_k*L^k + ... + c_1*L + c_0" with scalar coefficients,
# "-inf" for the polynomial with no terms.


def parse_polynomial(text: str) -> ELTPolynomial:
    compact = "".join(text.split())
    if not compact:
        raise ParseError("empty polynomial literal")
    if compact == "-inf":
        return ELTPolynomial.zero()
    terms = []
    offset = 0
    for chunk in compact.split("+"):
        if not chunk:
            raise ParseError("empty polynomial term", offset)
        coeff_s, sep, rest = chunk.partition("*L")
        if not sep:
            deg = 0
        elif rest == "":
            deg = 1
        elif rest.startswith("^"):
            exp_s = rest[1:]
            if not exp_s.isdigit() or (len(exp_s) > 1 and exp_s[0] == "0"):
                raise ParseError(f"malformed degree in {chunk!r}", offset)
            deg = int(exp_s)
        else:
            raise ParseError(f"malformed polynomial term {chunk!r}", offset)
        terms.append((deg, parse_scalar(coeff_s)))
        offset += len(chunk) + 1
    return ELTPolynomial(terms)


def format_polynomial(p: ELTPolynomial) -> str:
    if p.is_zero:
        return "-inf"
    parts = []
    for d in sorted(p.degrees, reverse=True):
        c = format_scalar(p.coeff(d))
        if d == 0:
            parts.append(c)
        elif d == 1:
            parts.append(f"{c}*L")
        else:
            parts.append(f"{c}*L^{d}")
    return " + ".join(parts)
