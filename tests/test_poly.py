"""Polynomial envelopes, monomial classification, and exact root descriptions."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eltlab import ELTPolynomial, ELTScalar, MonomialStatus, NEG_INF, Q_RING, Z_RING
from eltlab.core import BOTTOM, TOP, parse_scalar
from eltlab.errors import DegeneratePolynomial, ParseError, WorkBudgetExceeded
from eltlab.poly import (
    ROOT_CANDIDATE_WORK,
    ROOTS_MAX_WORK,
    LayerSolutions,
    _rational_roots,
    elt_roots,
    envelope,
    format_polynomial,
    parse_polynomial,
)
from oracles import classify_at, dominant_degrees, is_root, rational_roots_by_fractions
from rand import random_scalar

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=4)
finite = st.builds(ELTScalar, rationals, rationals)
coeffs = finite | st.just(NEG_INF)
polys = st.lists(st.tuples(st.integers(min_value=0, max_value=4), coeffs), max_size=5).map(
    ELTPolynomial
)
points = st.builds(ELTScalar, rationals, rationals) | st.just(NEG_INF)

P = parse_polynomial
S = parse_scalar


# 1. Evaluation respects addition
@given(polys, polys, points)
def test_evaluation_of_sum(p, q, x):
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)


# 2. Evaluation respects multiplication
@given(polys, polys, points)
def test_evaluation_of_product(p, q, x):
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)


# 3. Evaluating at NEG_INF keeps only the constant term
@given(polys)
def test_evaluation_at_neg_inf(p):
    assert p.evaluate(NEG_INF) == p.coeff(0)


def test_construction_combines_and_drops():
    p = ELTPolynomial([(1, ELTScalar(1, 1)), (1, ELTScalar(1, 1)), (3, NEG_INF)])
    assert p.coeff(1) == ELTScalar(1, 2)
    assert sorted(p.degrees) == [1]
    assert p.coeff(3) is NEG_INF
    assert ELTPolynomial().is_zero
    assert ELTPolynomial().degree is None


def test_accessors():
    p = P("0^[1]*L^2 + 1^[1]*L + 2^[0]")
    assert p.degree == 2
    assert p.coeff(1) == S("1^[1]")
    assert p.without(1) == P("0^[1]*L^2 + 2^[0]")
    assert p.scale(S("1^[1]")) == P("1^[1]*L^2 + 2^[1]*L + 3^[0]")
    assert -p == P("0^[-1]*L^2 + 1^[-1]*L + 2^[0]")


def test_envelope_statuses_and_corners():
    rep = envelope(P("0^[1]*L^2 + 1^[1]*L + 2^[0]"))
    assert rep.statuses == {
        0: MonomialStatus.ESSENTIAL,
        1: MonomialStatus.QUASI_ESSENTIAL,
        2: MonomialStatus.ESSENTIAL,
    }
    assert rep.intervals[1] == (Fraction(1), Fraction(1))
    assert rep.intervals[0] == (BOTTOM, Fraction(1))
    assert rep.intervals[2] == (Fraction(1), TOP)
    assert rep.corners == (Fraction(1),)


def test_envelope_detects_inessential_monomials():
    rep = envelope(P("0^[1]*L^2 + -5^[1]*L + 0^[1]"))
    assert rep.statuses[1] is MonomialStatus.INESSENTIAL
    assert rep.statuses[0] is MonomialStatus.ESSENTIAL
    assert rep.statuses[2] is MonomialStatus.ESSENTIAL
    assert rep.corners == (Fraction(0),)


def test_dominant_degrees():
    p = P("0^[1]*L^2 + 1^[1]*L + 2^[0]")
    assert dominant_degrees(p, Fraction(0)) == (0,)
    assert dominant_degrees(p, Fraction(1)) == (0, 1, 2)
    assert dominant_degrees(p, Fraction(5)) == (2,)


def test_pointwise_classification():
    p = P("0^[1]*L^2 + 1^[1]*L + 2^[0]")
    # all three monomials meet at the corner, so each is quasi-essential there
    for d in (0, 1, 2):
        assert classify_at(p, d, Fraction(1)) is MonomialStatus.QUASI_ESSENTIAL
    assert classify_at(p, 0, Fraction(0)) is MonomialStatus.ESSENTIAL
    assert classify_at(p, 2, Fraction(0)) is MonomialStatus.INESSENTIAL
    assert classify_at(p, 2, Fraction(5)) is MonomialStatus.ESSENTIAL


@given(
    st.lists(st.tuples(st.integers(min_value=0, max_value=9), finite), min_size=1, max_size=8)
)
def test_envelope_agrees_with_pointwise_classification(terms):
    """At a corner the monomials on the envelope are quasi-essential and
    the rest inessential; inside each piece between corners exactly the
    monomial whose interval it is is essential."""
    p = ELTPolynomial(terms)
    rep = envelope(p)
    for x in rep.corners:
        for d, iv in rep.intervals.items():
            on = iv is not None and iv[0] <= x <= iv[1]
            want = MonomialStatus.QUASI_ESSENTIAL if on else MonomialStatus.INESSENTIAL
            assert classify_at(p, d, x) is want
    bounds = (BOTTOM, *rep.corners, TOP)
    pieces = list(zip(bounds, bounds[1:]))
    essential = [d for d, s in rep.statuses.items() if s is MonomialStatus.ESSENTIAL]
    assert [rep.intervals[d] for d in essential] == pieces
    for d, piece in zip(essential, pieces):
        x = _interior(*piece)
        for e in p.degrees:
            want = MonomialStatus.ESSENTIAL if e == d else MonomialStatus.INESSENTIAL
            assert classify_at(p, e, x) is want


# tangibles in -3..3 make many ties; layers include 0
tie_heavy = st.builds(
    ELTScalar,
    st.integers(min_value=-3, max_value=3).map(Fraction) | rationals,
    st.just(Fraction(0)) | st.fractions(min_value=-3, max_value=3, max_denominator=3),
)
tie_heavy_polys = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12), tie_heavy),
    min_size=1,
    max_size=10,
).map(ELTPolynomial)


def _single_monomial_layers(deg, layer):
    """Layers l making c * a^[l]^deg a root: its layer is s(c) * l^deg,
    zero for every l when s(c) = 0, for l = 0 alone when deg >= 1, and
    for no l when a constant with s(c) != 0 dominates."""
    if layer == 0:
        return LayerSolutions(True)
    if deg >= 1:
        return LayerSolutions(False, (Fraction(0),))
    return LayerSolutions(False, ())


@settings(deadline=None)
@given(tie_heavy_polys, st.sampled_from([Q_RING, Z_RING]))
def test_root_description_reads_ties_off_the_hull(p, ring):
    rd = elt_roots(p, ring)
    for c in rd.corners:
        assert c.degrees == dominant_degrees(p, c.tangible)
        assert c.layer_equation == {d: p.coeff(d).layer for d in c.degrees}
    report = envelope(p)
    expected = []
    for d, status in report.statuses.items():
        if status is MonomialStatus.ESSENTIAL:
            layers = _single_monomial_layers(d, p.coeff(d).layer)
            if not layers.is_empty:
                expected.append((*report.intervals[d], d, layers))
    assert [(iv.lower, iv.upper, iv.degree, iv.layers) for iv in rd.intervals] == expected


def test_root_description_of_quadratic():
    rd = elt_roots(P("0^[1]*L^2 + 3^[-1]*L + 4^[0]"))
    assert [(c.tangible, c.layers.values) for c in rd.corners] == [
        (Fraction(1), (Fraction(0),)),
        (Fraction(3), (Fraction(0), Fraction(1))),
    ]
    assert [(iv.lower, iv.upper, iv.degree) for iv in rd.intervals] == [
        (BOTTOM, Fraction(1), 0),
        (Fraction(1), Fraction(3), 1),
        (Fraction(3), TOP, 2),
    ]
    assert rd.intervals[0].layers.all_layers
    assert rd.intervals[1].layers.values == (Fraction(0),)
    assert rd.neg_infinity_root


def test_corner_layer_equation():
    rd = elt_roots(P("0^[1]*L^2 + 3^[-1]*L + 4^[0]"))
    assert rd.corners[1].layer_equation == {1: Fraction(-1), 2: Fraction(1)}
    assert rd.corners[1].degrees == (1, 2)


def test_layer_ring_filters_corner_solutions():
    p = P("0^[2]*L + 0^[-1]")
    assert elt_roots(p).corners[0].layers.values == (Fraction(1, 2),)
    z = elt_roots(p, Z_RING).corners[0].layers
    assert z.values == () and not z.all_layers
    assert z.is_empty


def test_all_layer_corner():
    rd = elt_roots(P("0^[0]*L + 1^[0]"))
    assert rd.corners[0].tangible == Fraction(1)
    assert rd.corners[0].layers.all_layers
    for l in (-2, 0, Fraction(1, 2)):
        assert is_root(P("0^[0]*L + 1^[0]"), ELTScalar(1, l))


def _sample_layers(solutions):
    if solutions.all_layers:
        return [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    return list(solutions.values)


def _interior(lo, hi):
    if lo is BOTTOM and hi is TOP:
        return Fraction(0)
    if lo is BOTTOM:
        return hi - 1
    if hi is TOP:
        return lo + 1
    return (lo + hi) / 2


def _candidate_tangibles(rd):
    out = {Fraction(k) for k in range(-6, 7)} | {Fraction(1, 2), Fraction(-1, 2)}
    for c in rd.corners:
        out.add(c.tangible)
    for iv in rd.intervals:
        out.add(_interior(iv.lower, iv.upper))
    return out


def test_root_description_is_sound_and_complete():
    """Described roots evaluate to layer zero, and a grid finds nothing extra."""
    rng = random.Random(4242)
    layers = [Fraction(v) for v in (-2, -1, 0, 1, 2)] + [Fraction(1, 2)]
    for _ in range(60):
        p = ELTPolynomial(
            (d, random_scalar(rng)) for d in range(rng.randint(1, 4) + 1)
        )
        if p.is_zero:
            continue
        rd = elt_roots(p)
        for c in rd.corners:
            for l in _sample_layers(c.layers):
                assert is_root(p, ELTScalar(c.tangible, l))
        for iv in rd.intervals:
            mid = _interior(iv.lower, iv.upper)
            for l in _sample_layers(iv.layers):
                assert is_root(p, ELTScalar(mid, l))
        assert rd.neg_infinity_root == is_root(p, NEG_INF)
        for a in _candidate_tangibles(rd):
            described = rd.layers_at(a)
            for l in layers:
                assert is_root(p, ELTScalar(a, l)) == (l in described)


def test_first_envelope_touch_matches_best_ratio():
    """Scanning down from the top, the first non-inessential monomial is the one
    whose coefficient maximises tangible size divided by distance from the top."""
    rng = random.Random(515)
    for _ in range(120):
        n = rng.randint(2, 5)
        coeffs_ = {n: ELTScalar(0, 1)}
        for k in range(1, n + 1):
            x = random_scalar(rng)
            if x is not NEG_INF:
                coeffs_[n - k] = x
        p = ELTPolynomial(coeffs_.items())
        finite_ks = [k for k in range(1, n + 1) if p.coeff(n - k) is not NEG_INF]
        if not finite_ks:
            continue
        best = max(p.coeff(n - k).tangible / k for k in finite_ks)
        mu = min(k for k in finite_ks if p.coeff(n - k).tangible / k == best)
        statuses = envelope(p).statuses
        first = min(
            k
            for k in finite_ks
            if statuses[n - k] is not MonomialStatus.INESSENTIAL
        )
        assert first == mu


def test_root_search_counts_candidates_against_its_budget():
    # 720720 = 2^4*3^2*5*7*11*13 has 240 divisors, but only 3,645 of the
    # 57,600 divisor pairs are coprime: 7,290 distinct candidates fit
    assert 2 * 3645 * ROOT_CANDIDATE_WORK < ROOTS_MAX_WORK < 2 * 240 * 240 * ROOT_CANDIDATE_WORK
    roots = elt_roots(P("0^[720720]*L^2 + 0^[1]*L + 0^[720720]"))
    # 720720*x^2 + x + 720720 has a negative discriminant
    assert len(roots.corners) == 1
    assert roots.corners[0].layers == LayerSolutions(False, ())
    # 435656388001 = 17*19*23*29*31*37*41*43 is coprime to 720720: all
    # 240 x 256 pairs are distinct candidates, 122,880 with their signs,
    # of up to 117,000 bits at degree 3000, so tested mod the prime
    # first: about twice the budget's time when it is lifted
    assert 2 * 240 * 256 * ROOT_CANDIDATE_WORK > 2 * ROOTS_MAX_WORK
    with pytest.raises(WorkBudgetExceeded, match="degree 3000"):
        elt_roots(P("0^[435656388001]*L^3000 + 0^[1]*L + 0^[720720]"))
    # 5040 has 60 divisors: 7,200 candidates fit.  (70x - 72)(72x - 70)
    roots = elt_roots(P("0^[5040]*L^2 + 0^[-10084]*L + 0^[5040]"))
    assert roots.corners[0].layers == LayerSolutions(False, (Fraction(35, 36), Fraction(36, 35)))


# nonzero layer-equation coefficients: small ones, and a few with many
# divisors or too large to list them within the budget
root_coeffs = st.integers(-40, 40).filter(bool) | st.sampled_from(
    (5040, -720720, 247110827, 2**50)
)
layer_equations = st.dictionaries(st.integers(0, 9), root_coeffs, min_size=1) | st.dictionaries(
    # so high a degree that every candidate but 1 and -1 is refused
    st.sampled_from((0, 1, 2**22 + 1)), st.integers(-6, 6).filter(bool), min_size=1
)


def _roots_or_refusal(search, int_coeffs, ring):
    try:
        return search(int_coeffs, ring)
    except WorkBudgetExceeded as e:
        return str(e)


@settings(max_examples=200, deadline=None)
@given(layer_equations, st.sampled_from((Q_RING, Z_RING)))
@example({0: -1, 2**22 + 1: 2}, Q_RING)  # 1/2 at a power of 2^22 + 1 bits
@example({41: 3, 40: -2, 1: 3, 0: -2}, Q_RING)  # (3x - 2)(x^40 + 1): 2/3 at 82 bits
@example({1101: 3, 1100: -2, 1: 3, 0: -2}, Q_RING)  # 2/3 at 2,202 bits, filtered mod a prime
@example({0: 720720, 2: 247110827}, Q_RING)  # 30,720 candidates
@example({0: 2**50, 1: 3}, Z_RING)  # 2^25 steps to list the divisors
@example({0: 720720, 1: 1, 2: 720720}, Z_RING)
@example({1: -2, 2: -3, 3: 2}, Z_RING)  # x(x - 2)(2x + 1)
@example({1: -2, 2: -3, 3: 2}, Q_RING)
def test_rational_roots_are_the_fraction_candidate_loops(int_coeffs, ring):
    """The int candidate test finds the roots, and refuses the
    equations, that the Fraction candidate loop does, with the same
    message."""
    assert _roots_or_refusal(_rational_roots, int_coeffs, ring) == _roots_or_refusal(
        rational_roots_by_fractions, int_coeffs, ring
    )


def test_degenerate_polynomial_is_rejected():
    with pytest.raises(DegeneratePolynomial):
        envelope(ELTPolynomial())
    with pytest.raises(DegeneratePolynomial):
        elt_roots(ELTPolynomial())


@given(polys)
def test_text_round_trip(p):
    assert parse_polynomial(format_polynomial(p)) == p


def test_format_examples():
    assert format_polynomial(ELTPolynomial()) == "-inf"
    assert parse_polynomial("-inf").is_zero
    p = P("2^[0] + 0^[1]*L^2")
    assert format_polynomial(p) == "0^[1]*L^2 + 2^[0]"
    assert format_polynomial(P("1^[1]*L + 1^[1]*L")) == "1^[2]*L"
    # an explicit L^0 is tolerated on input even though output never writes one
    assert P("5^[1]*L^0") == P("5^[1]")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "L^2",
        "0^[1]*L^-1",
        "2^[1]*l^2",
        "0^[1]*L^2 +",
        "0^[1]*L^2 + inf",
        "0^[1]*L^²",  # str.isdigit accepts it, int() does not
        "0^[1]*L^١",  # int() reads it as 1
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_polynomial(text)
