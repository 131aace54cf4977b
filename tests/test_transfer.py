"""Polynomial identity checking: symbolic over the integers, sampled in
the max-plus and layered models."""

import random
from fractions import Fraction

import pytest

from eltlab.core import BOTTOM, NEG_INF, ELTScalar, tangible
from eltlab.errors import ParseError, UnboundVariable
from eltlab.transfer import (
    ELT_MODEL,
    FAMILIES,
    MAXPLUS_MODEL,
    SUITE_FAMILIES,
    CheckReport,
    canned_identities,
    check_identity,
    corrupted_det_mult,
    det_expression,
    evaluate,
    expand,
    format_expression,
    matmul_expression,
    num_variables,
    parse_expression,
    ring_equal,
    run_identity,
    run_suite,
    symbolic_matrix,
)

E = parse_expression


def test_format_round_trip():
    for text in (
        "x1",
        "x1*x2 + x3",
        "x1*x1 + x2*x2 - x1*x2 + x1*x2",
        "(x1 + x2)*(x3 + x4)",
    ):
        e = E(text)
        assert E(format_expression(e)) == e


def test_redundant_parentheses_are_accepted():
    assert E("((x1))*(x2)") == E("x1*x2")
    assert num_variables(E("x2*x7")) == 7


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3",
        "2*x1",
        "x0",
        "x1 - x2 - x3",
        "x1 -",
        "(x1",
        "x1 + + x2",
        "x1 & x2",
    ],
)
def test_parse_rejects_malformed_input(text):
    with pytest.raises(ParseError):
        parse_expression(text)


def test_expansion_collects_signed_monomials():
    tab = expand(E("x1*x1 + x2*x2 - x1*x2 + x1*x2"))
    assert tab.nvars == 2
    assert dict(tab.entries) == {
        (2, 0): (1, 0),
        (0, 2): (1, 0),
        (1, 1): (0, 2),
    }
    assert tab.appears((2, 0)) and not tab.appears((3, 0))
    assert expand(E("x1*x1")).appears((2, 0))


def test_ring_equality_of_expressions():
    square = E("(x1 + x2)*(x1 + x2)")
    assert ring_equal(square, E("x1*x1 + x1*x2 + x1*x2 + x2*x2"))
    assert not ring_equal(square, E("x1*x1 + x2*x2"))
    assert ring_equal(E("x1 - x1"), E("x2 - x2"))


def test_disjoint_support():
    assert expand(det_expression(symbolic_matrix(2))).has_disjoint_support
    assert expand(det_expression(symbolic_matrix(3))).has_disjoint_support
    assert not expand(E("x1 - x1")).has_disjoint_support


def test_evaluation_in_each_model():
    e = E("x1*x2 + x3")
    assert evaluate(e, MAXPLUS_MODEL, [Fraction(3), Fraction(5), Fraction(4)]) == 8
    assert evaluate(e, MAXPLUS_MODEL, [BOTTOM, Fraction(5), Fraction(4)]) == 4
    elt = evaluate(e, ELT_MODEL, [ELTScalar(3, 1), ELTScalar(5, 1), ELTScalar(4, 2)])
    assert elt == ELTScalar(8, 1)


def test_evaluation_requires_enough_values():
    with pytest.raises(UnboundVariable):
        evaluate(E("x1*x3"), MAXPLUS_MODEL, [Fraction(1), Fraction(2)])


def test_tangible_projection_commutes_with_evaluation():
    rng = random.Random(151)
    for n in (2, 3):
        e = det_expression(symbolic_matrix(n))
        k = num_variables(e)
        for _ in range(60):
            xs = [ELT_MODEL.sample(rng) for _ in range(k)]
            lhs = tangible(evaluate(e, ELT_MODEL, xs))
            rhs = evaluate(e, MAXPLUS_MODEL, [tangible(x) for x in xs])
            assert lhs == rhs


def test_check_reports():
    good = check_identity(E("x1*(x2 + x3)"), E("x1*x2 + x1*x3"), "equal", trials=40, seed=3)
    assert good.ring_ok and good.maxplus_ok and good.elt_ok
    assert good.counterexamples == ()
    # failing reports pinned field by field, counterexamples included
    bad = [check_identity(E("x1 + x2"), E("x1*x2"), "equal", trials=40, seed=s) for s in (3, 11)]
    assert bad == [
        CheckReport("equal", False, False, False, None, 40, 3, (
            "maxplus trial 0: x1=8, x2=-6: lhs=8 rhs=2",
            "maxplus trial 1: x1=9, x2=10: lhs=10 rhs=19",
            "maxplus trial 2: x1=-8, x2=-10: lhs=-8 rhs=-18",
        )),
        CheckReport("equal", False, False, False, None, 40, 11, (
            "maxplus trial 0: x1=7, x2=4: lhs=7 rhs=11",
            "maxplus trial 1: x1=8, x2=-5: lhs=8 rhs=3",
            "maxplus trial 2: x1=5, x2=-5: lhs=5 rhs=0",
        )),
    ]
    assert not any(r.ok for r in bad)
    surpass = check_identity(E("x1*x2 - x3"), E("x3"), "surpass", trials=20, seed=5, strong=True)
    assert surpass == CheckReport("surpass", False, True, False, True, 20, 5, (
        "elt trial 0: x1=-8^[0], x2=-1^[-1], x3=10^[-1]: lhs=10^[1] rhs=10^[-1]",
        "elt trial 1: x1=5^[-1], x2=-inf, x3=9^[2]: lhs=9^[-2] rhs=9^[2]",
        "elt trial 2: x1=-9^[-1], x2=1^[0], x3=10^[1]: lhs=10^[-1] rhs=10^[1]",
    ))
    assert not surpass.ok


def test_strong_surpass_requires_disjoint_support():
    m2 = symbolic_matrix(2)
    b2 = symbolic_matrix(2, offset=4)
    prod = matmul_expression(m2, b2)
    lhs = det_expression(prod)
    rhs = det_expression(m2) * det_expression(b2)
    rep = check_identity(lhs, rhs, "surpass", trials=40, seed=5, strong=True)
    assert rep.elt_ok and rep.strong_ok
    overlapping = check_identity(E("x1 + x1"), E("x1 - x1"), "surpass", trials=10, seed=5, strong=True)
    assert overlapping.strong_ok is False
    # the strong-support message comes after the sampled counterexamples
    assert overlapping.counterexamples == (
        "elt trial 2: x1=2^[-1]: lhs=2^[-2] rhs=2^[0]",
        "elt trial 3: x1=-6^[2]: lhs=-6^[4] rhs=-6^[0]",
        "elt trial 4: x1=4^[-1]: lhs=4^[-2] rhs=4^[0]",
        "strong: right side has overlapping monomial support",
    )


def test_canned_identity_catalogue():
    names = [ci.name for ci in canned_identities((2, 3))]
    assert names == [
        "det-mult-n2",
        "a-adj-n2",
        "det-a-adj-n2",
        "a-adj-sq-n2",
        "cayley-hamilton-n2",
        "det-mult-n3",
        "a-adj-n3",
        "det-a-adj-n3",
        "a-adj-sq-n3",
        "cayley-hamilton-n3",
    ]


def test_suite_runs_every_family():
    records = run_suite(trials=8, seed=21)
    assert [r.name for r in records] == [
        "det-mult-n2",
        "a-adj-n2",
        "det-a-adj-n2",
        "a-adj-sq-n2",
        "cayley-hamilton-n2",
        "det-mult-n3",
        "a-adj-n3",
        "det-a-adj-n3",
        "a-adj-sq-n3",
        "cayley-hamilton-n3",
        "mutation-control",
    ]
    assert all(r.ok for r in records)
    assert records[0].line == "PASS det-mult-n2 21"
    assert SUITE_FAMILIES == (*FAMILIES, "mutation-control")
    assert SUITE_FAMILIES == (
        "det-mult", "a-adj", "det-a-adj", "a-adj-sq", "cayley-hamilton", "mutation-control",
    )


def test_suite_family_selection_is_exact():
    records = run_suite(names=["a-adj"], trials=5, seed=2)
    assert [r.name for r in records] == ["a-adj-n2", "a-adj-n3"]
    records = run_suite(["det-mult"], 5, 7, (3,))
    assert [r.name for r in records] == ["det-mult-n3"]
    records = run_suite(["mutation-control"], 5, 7)
    assert [r.name for r in records] == ["mutation-control"]
    assert records[0].ok and records[0].reports[0].trials == 10
    records = run_suite(["cayley-hamilton", "det-a-adj"], 5, 7)
    assert [r.name for r in records] == [
        "det-a-adj-n2", "cayley-hamilton-n2", "det-a-adj-n3", "cayley-hamilton-n3",
    ]
    assert run_suite([], 5, 7) == []


def test_mutated_identity_is_detected():
    broken = corrupted_det_mult()
    record = run_identity(broken, trials=12, seed=4)
    assert not record.ok
    assert record.line.startswith("FAIL mutated-det-mult")
    assert any(not rep.ring_ok for rep in record.reports)
