"""Polynomials over layered scalars in one variable L.

A polynomial is a finite map from degrees to finite scalars; degrees
whose coefficient is -inf are simply absent.  Evaluation follows the
scalar algebra, so the tangible value at a tangible point is the upper
envelope of the lines ``deg * x + t(coeff)`` and a point is a root
exactly when the evaluated layer is zero.

``envelope`` grades each monomial by the shape of its dominance region
(a closed interval of tangible points, possibly empty or a single
point), read off the upper convex hull of the points (d, t(c_d)).
``elt_roots`` turns the envelope into a complete root description:
corner points carry the layers that solve a layer-ring polynomial
equation, and between corners a single monomial dominates so the root
layers are constant along the interval.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from .core import (
    BOTTOM,
    Bottom,
    ELTScalar,
    LayerRing,
    NEG_INF,
    Q_RING,
    TOP,
    Top,
    exact_rational,
    format_scalar,
    parse_int,
    parse_scalar,
)
from .errors import DegeneratePolynomial, ParseError, WorkBudgetExceeded

Bound = Fraction | Bottom | Top


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
    """Grade every monomial by the shape of its dominance interval.

    The envelope is the upper convex hull of the points (d, t(c_d)),
    kept by one sweep in degree order that pops the last vertex while
    it lies on or below the chord to the next point.  Corner k, where
    the lines of hull vertices k and k + 1 meet, is
    ``(t_k - t_{k+1}) / (d_{k+1} - d_k)``; hull vertex k dominates from
    corner k - 1 to corner k.  A point strictly inside the span of an
    edge attains the envelope only at that edge's corner, and only when
    it lies on the edge.
    """
    _require_nonzero(p)
    points = [(d, c.tangible) for d, c in p.coefficients.items()]
    hull: List[Tuple[int, Fraction]] = []
    for d, t in points:
        while len(hull) >= 2:
            (d0, t0), (d1, t1) = hull[-2], hull[-1]
            if (t1 - t0) * (d - d0) > (t - t0) * (d1 - d0):
                break
            hull.pop()
        hull.append((d, t))
    corners = tuple(
        (t0 - t1) / (d1 - d0) for (d0, t0), (d1, t1) in itertools.pairwise(hull)
    )
    bounds = (BOTTOM, *corners, TOP)
    statuses: Dict[int, MonomialStatus] = {}
    intervals: Dict[int, Optional[Tuple[Bound, Bound]]] = {}
    k = 0  # index of the next hull vertex
    for d, t in points:
        if d == hull[k][0]:
            statuses[d] = MonomialStatus.ESSENTIAL
            intervals[d] = (bounds[k], bounds[k + 1])
            k += 1
            continue
        # strictly inside edge k - 1, whose lines meet at x
        x = corners[k - 1]
        d0, t0 = hull[k - 1]
        if d * x + t == d0 * x + t0:
            statuses[d] = MonomialStatus.QUASI_ESSENTIAL
            intervals[d] = (x, x)
        else:
            statuses[d] = MonomialStatus.INESSENTIAL
            intervals[d] = None
    return EnvelopeReport(statuses, intervals, corners)


# ---------------------------------------------------------------------------
# roots


@dataclass(frozen=True)
class LayerSolutions:
    """Solution set of a layer equation: either all of the ring, or a
    finite tuple of ring elements."""

    all_layers: bool
    values: Tuple[Fraction, ...] = ()

    def __contains__(self, layer: object) -> bool:
        return self.all_layers or exact_rational(layer) in self.values

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
        a = exact_rational(a)
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


# the most bits a root candidate's power may take: evaluating one such
# candidate, 255/254 at degree 2^19, takes about 0.5 s
ROOT_POWER_MAX_BITS = 2**22
# the most work one root search spends, in steps of trial division; an
# exactly evaluated candidate counts ROOT_CANDIDATE_WORK steps, about its
# cost (10 us against 45 ns on a 2-vCPU host).  So the budget allows
# about 0.2 s of trial division or 25,000 candidates: a layer of 10^14
# alone takes 10^7 steps
ROOTS_MAX_WORK = 5 * 10**6
ROOT_CANDIDATE_WORK = 200


def _roots_budget_exceeded(degree: int) -> WorkBudgetExceeded:
    return WorkBudgetExceeded(
        f"roots of a layer equation of degree {degree}: the search is limited "
        f"to {ROOTS_MAX_WORK} steps of trial division and candidate evaluation"
    )


def _rational_roots(int_coeffs: Dict[int, int], ring: LayerRing) -> Tuple[Fraction, ...]:
    """All ring roots of a nonzero integer polynomial, by the rational
    root bound plus exact verification.

    Only coprime divisor pairs p, q are tried, so each rational once,
    and only the q with 1/q in the ring: p/q in lowest terms lies in a
    subring of Q exactly when 1/q does.  A candidate p/q is tested on
    ints, as ``sum(a * p**d * q**(top - d))`` over the nonzero terms,
    its value times q**top; past 2,048 bits, where it is the cheaper,
    first mod the prime 2^61 - 1, where a root's value is 0 too (Loos
    1983).  When p**top or q**top would take more than
    ROOT_POWER_MAX_BITS bits the search raises WorkBudgetExceeded.  The
    candidates 1 and -1 stay exempt.  It raises the same when the steps
    of the trial division that lists the divisors of the constant and
    leading coefficients, plus ROOT_CANDIDATE_WORK for each candidate
    evaluated, would pass ROOTS_MAX_WORK.
    """
    roots = []
    degs = sorted(d for d, a in int_coeffs.items() if a != 0)
    low = degs[0]
    if low > 0 and Fraction(0) in ring:
        roots.append(Fraction(0))
    shifted = [(d - low, int_coeffs[d]) for d in degs]
    top, lead = shifted[-1]
    if top == 0:
        return tuple(roots)
    const = shifted[0][1]
    # _divisors(n) takes isqrt(|n|) steps
    work = math.isqrt(abs(const)) + math.isqrt(abs(lead))
    if work > ROOTS_MAX_WORK:
        raise _roots_budget_exceeded(top)
    dens = [den for den in _divisors(lead) if Fraction(1, den) in ring]
    for num in _divisors(const):
        for den in dens:
            if math.gcd(num, den) != 1:
                continue  # num/den in lowest terms is another pair's candidate
            # (m - 1).bit_length() is ceil(log2 m), 0 for 1 and -1
            bits = top * (max(num, den) - 1).bit_length()
            for p in (num, -num):
                work += ROOT_CANDIDATE_WORK
                if work > ROOTS_MAX_WORK:
                    raise _roots_budget_exceeded(top)
                if bits > ROOT_POWER_MAX_BITS:
                    raise WorkBudgetExceeded(
                        f"root candidate {Fraction(p, den)} at degree {top}: the search is "
                        f"limited to powers of {ROOT_POWER_MAX_BITS} bits"
                    )
                if bits > 2048 and sum(
                    a * pow(p, d, 2**61 - 1) * pow(den, top - d, 2**61 - 1) for d, a in shifted
                ) % (2**61 - 1):
                    continue
                if sum(a * p**d * den ** (top - d) for d, a in shifted) == 0:
                    roots.append(Fraction(p, den))
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


def elt_roots(p: ELTPolynomial, ring: LayerRing = Q_RING) -> RootDescription:
    """Complete description of the roots of p.

    Roots are the points where the evaluated layer vanishes.  They come
    in three kinds: corner points with layers solving the layer
    equation of the tied monomials, open intervals whose single
    dominant monomial admits layer 0 (positive degree) or every layer
    (layer-zero coefficient), and -inf when the constant term is absent
    or has layer zero.

    A monomial attains a corner exactly when the corner is an end of its
    closed interval in ``envelope``, so the tied degrees of every corner
    come from one pass over those intervals in degree order.  A corner
    and an open interval are solved alike: the layer equation of the
    monomials that attain the envelope there.
    """
    report = envelope(p)
    ties: Dict[Fraction, List[int]] = {x: [] for x in report.corners}
    intervals = []
    for d, bounds in report.intervals.items():
        if bounds is None:
            continue
        for x in set(bounds):
            if x in ties:
                ties[x].append(d)
        if report.statuses[d] is MonomialStatus.ESSENTIAL:
            layers = _layer_solutions({d: p.coeff(d).layer}, ring)
            if not layers.is_empty:
                intervals.append(IntervalRoot(*bounds, d, layers))
    corners = []
    for x, degs in ties.items():
        equation = {d: p.coeff(d).layer for d in degs}
        corners.append(CornerRoot(x, tuple(degs), equation, _layer_solutions(equation, ring)))
    constant = p.coeff(0)
    at_bottom = constant.is_neg_inf or constant.layer == 0
    return RootDescription(tuple(corners), tuple(intervals), at_bottom)


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
            if not re.fullmatch(r"0|[1-9][0-9]*", exp_s):
                raise ParseError(f"malformed degree in {chunk!r}", offset)
            deg = parse_int(exp_s, offset)
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
