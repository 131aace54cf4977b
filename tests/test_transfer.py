"""Polynomial identity checking: symbolic over the integers, sampled in
the max-plus and layered models."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from eltlab.core import BOTTOM, NEG_INF, ELTScalar
from eltlab import transfer
from eltlab.errors import ParseError, UnboundVariable
from eltlab.transfer import (
    ELT_MODEL,
    FAMILIES,
    MAXPLUS_MODEL,
    SUITE_FAMILIES,
    Add,
    CannedIdentity,
    CheckReport,
    Const,
    Mul,
    PolyExpression,
    Var,
    _compile,
    _surpasses,
    check_identity,
    corrupted_det_mult,
    det_expression,
    evaluate,
    expand,
    format_expression,
    matmul_expression,
    parse_expression,
    run_identity,
    run_suite,
    symbolic_matrix,
)
from oracles import (
    FOLD_ELT,
    FOLD_MAXPLUS,
    appears,
    canned_identities,
    check_components_one_by_one,
    expand_by_tuples,
    fold_evaluate,
    num_variables,
    permutation_terms_one_by_one,
    reference_draw,
    ring_equal,
    scalar_surpasses,
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


@pytest.mark.parametrize("depth", [101, 400, 5000])
def test_parse_rejects_deep_nesting(depth):
    with pytest.raises(ParseError) as info:
        parse_expression("(" * depth + "x1" + ")" * depth)
    assert info.value.position == 100  # the 101st "("


def test_nesting_up_to_the_bound_round_trips():
    assert E("(" * 100 + "x1" + ")" * 100) == E("x1")
    text = "x1"
    for _ in range(100):
        text = f"x1*(x2 + {text})"
    e = E(text)
    assert E(format_expression(e)) == e
    assert num_variables(e) == 2


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
        "x²",
        "x1١ + x2",
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
    assert appears(tab, (2, 0)) and not appears(tab, (3, 0))
    assert appears(expand(E("x1*x1")), (2, 0))


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
    # max-plus values are ints, ELT values (tangible, layer) pairs of
    # ints, and None is -inf in both
    e = E("x1*x2 + x3")
    assert evaluate(e, MAXPLUS_MODEL, [3, 5, 4]) == 8
    assert evaluate(e, MAXPLUS_MODEL, [None, 5, 4]) == 4
    elt = evaluate(e, ELT_MODEL, [(3, 1), (5, 1), (4, 2)])
    assert elt == (8, 1)


def test_evaluation_requires_enough_values():
    with pytest.raises(UnboundVariable):
        evaluate(E("x1*x3"), MAXPLUS_MODEL, [1, 2])


def _tangible(pair):
    return None if pair is None else pair[0]


def test_tangible_projection_commutes_with_evaluation():
    rng = random.Random(151)
    for n in (2, 3):
        e = det_expression(symbolic_matrix(n))
        k = num_variables(e)
        for _ in range(60):
            xs = ELT_MODEL.sample(rng, k)
            lhs = _tangible(evaluate(e, ELT_MODEL, xs))
            rhs = evaluate(e, MAXPLUS_MODEL, [_tangible(x) for x in xs])
            assert lhs == rhs


@pytest.mark.parametrize("model", [MAXPLUS_MODEL, ELT_MODEL], ids=["maxplus", "elt"])
def test_sample_is_the_stdlib_draw(model):
    """A model's ``getrandbits`` draw gives the values that
    ``randrange``, ``randint`` and ``choice`` give, and leaves the
    generator in the same state after each call, over calls of every
    count 0-40 in a row on one generator."""
    for seed in range(60):
        ours, theirs = random.Random(seed), random.Random(seed)
        for count in range(41):
            assert model.sample(ours, count) == reference_draw(model, theirs, count)
            assert ours.getstate() == theirs.getstate()


@st.composite
def expression_dags(draw):
    """A random expression over x1..xm whose sums and products reuse
    earlier nodes, so subtrees are shared, plus an assignment in each
    model; -inf can make up most of the assignment."""
    m = draw(st.integers(1, 5))
    pool = [Const(0), Const(1)] + [Var(k) for k in range(1, m + 1)]
    for _ in range(draw(st.integers(0, 12))):
        args = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
        pool.append((Add if draw(st.booleans()) else Mul)(tuple(args)))
    e = PolyExpression(draw(st.sampled_from(pool)), draw(st.sampled_from(pool)))
    inf_weight = draw(st.integers(0, 4))
    pairs = []
    for _ in range(m):
        if draw(st.integers(1, 4)) <= inf_weight:
            pairs.append(None)
        else:
            pairs.append((draw(st.integers(-10, 10)), draw(st.integers(-3, 3))))
    return e, pairs


@settings(max_examples=200, deadline=None)
@given(expression_dags())
def test_int_evaluation_matches_the_scalar_fold(case):
    e, pairs = case
    got = evaluate(e, MAXPLUS_MODEL, [_tangible(x) for x in pairs])
    want = fold_evaluate(
        e, FOLD_MAXPLUS, [BOTTOM if x is None else Fraction(x[0]) for x in pairs]
    )
    assert (BOTTOM if got is None else Fraction(got)) == want
    assert got is None or type(got) is int
    got = evaluate(e, ELT_MODEL, pairs)
    want = fold_evaluate(
        e, FOLD_ELT, [NEG_INF if x is None else ELTScalar(*x) for x in pairs]
    )
    assert (NEG_INF if got is None else ELTScalar(*got)) == want
    assert got is None or (type(got[0]) is int and type(got[1]) is int)


@st.composite
def expression_families(draw):
    """Expressions over x1..xm drawn from one pool of subtrees, so they
    share subtrees, with sums and products of the same operands, each
    two-argument one also with its operands commuted, the constants 0
    and 1 inside and at the top, and x - x for some x; plus an
    assignment in each model."""
    m = draw(st.integers(1, 4))
    pool = [Const(0), Const(1)] + [Var(k) for k in range(1, m + 1)]
    for _ in range(draw(st.integers(0, 10))):
        args = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)))
        pool.append(Add(args))
        pool.append(Mul(args))
        if len(args) == 2:
            pool.append(Add(args[::-1]))
            pool.append(Mul(args[::-1]))
    exprs = []
    for _ in range(draw(st.integers(1, 5))):
        pos = draw(st.sampled_from(pool))
        neg = pos if draw(st.integers(0, 3)) == 0 else draw(st.sampled_from(pool))
        exprs.append(PolyExpression(pos, neg))
    pairs = [
        draw(st.none() | st.tuples(st.integers(-10, 10), st.integers(-3, 3))) for _ in range(m)
    ]
    return exprs, pairs


def _assert_joint_program_matches_each_alone(exprs, pairs):
    program = _compile(exprs)
    tangibles = [_tangible(x) for x in pairs]
    assert evaluate(program, MAXPLUS_MODEL, tangibles) == tuple(
        evaluate(e, MAXPLUS_MODEL, tangibles) for e in exprs
    )
    assert evaluate(program, ELT_MODEL, pairs) == tuple(
        evaluate(e, ELT_MODEL, pairs) for e in exprs
    )
    for e, got in zip(exprs, evaluate(program, ELT_MODEL, pairs)):
        want = fold_evaluate(
            e, FOLD_ELT, [NEG_INF if x is None else ELTScalar(*x) for x in pairs]
        )
        assert (NEG_INF if got is None else ELTScalar(*got)) == want
    assert expand(program) == tuple(expand(e, program.top) for e in exprs)


@settings(max_examples=200, deadline=None)
@given(expression_families())
def test_expressions_compiled_together_match_each_compiled_alone(case):
    _assert_joint_program_matches_each_alone(*case)


def _degree_bound(node, memo):
    """The largest total degree a monomial of the tree can have."""
    if isinstance(node, Const):
        return 0
    if isinstance(node, Var):
        return 1
    if id(node) not in memo:
        bounds = [_degree_bound(arg, memo) for arg in node.args]
        memo[id(node)] = sum(bounds) if isinstance(node, Mul) else max(bounds, default=0)
    return memo[id(node)]


def _power(k, d):
    """x_k^d for d >= 1, as a DAG of shared squares."""
    result, square = None, Var(k)
    while True:
        if d & 1:
            result = square if result is None else Mul((result, square))
        d >>= 1
        if not d:
            return result
        square = Mul((square, square))


@st.composite
def powered_families(draw):
    """The expressions of ``expression_families`` with x_k^D among
    them, D the largest degree bound of any of them, so one exponent
    of the program's output equals its degree bound; plus a number of
    variables to pad the tables with."""
    exprs, pairs = draw(expression_families())
    memo = {}
    top = max(_degree_bound(side, memo) for e in exprs for side in (e.pos, e.neg))
    power = PolyExpression(_power(draw(st.integers(1, len(pairs))), max(top, 1)))
    exprs.insert(draw(st.integers(0, len(exprs))), power)
    return exprs, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(powered_families())
# the degree bound is 7, and x1^7 has the digit 7
@example(([E("x1*x1*x1*x1*x1*x1*x1 + x2*x1*x1*x1 - x2*x2")], 1))
def test_packed_expansion_matches_the_tuple_expansion(case):
    exprs, pad = case
    program = _compile(exprs)
    for nvars in (None, program.top + pad):
        # repr, so the entries must also come in the same order
        assert repr(expand(program, nvars)) == repr(expand_by_tuples(program, nvars))
    for e in exprs:
        nvars = num_variables(e) + pad
        assert repr(expand(e)) == repr(expand_by_tuples(e))
        assert repr(expand(e, nvars)) == repr(expand_by_tuples(e, nvars))


ELT_PAIRS = st.none() | st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@settings(max_examples=500, deadline=None)
@given(ELT_PAIRS, ELT_PAIRS)
@example(None, None)
@example((1, 0), None)
@example((1, 2), None)
@example(None, (1, 0))
@example((1, 0), (1, 0))
@example((1, 0), (1, 2))
@example((1, 2), (1, 0))
@example((2, 0), (1, 2))
@example((1, 0), (2, 0))
def test_int_pair_surpassing_matches_the_scalars(x, y):
    assert _surpasses(x, y) == scalar_surpasses(x, y)


def test_value_numbering_shares_commuted_and_repeated_ops():
    x1, x2 = E("x1"), E("x2")
    # the parser and the operators drop 1 and 0 from products and sums
    one_and_zero = PolyExpression(Add((Mul((Var(1), Const(1))), Const(0))))
    exprs = [x1 * x2, x2 * x1, x1 + x2, x2 + x1, x1 * x2 - x1 * x2, one_and_zero, E("0"), E("1")]
    program = _compile(exprs)
    # one product and one sum of x1 and x2, then x1*1 and (x1*1) + 0
    assert program.ops == [(True, 2, 3), (False, 2, 3), (True, 1, 2), (False, 0, 6)]
    assert program.outputs == ((4, 0), (4, 0), (5, 0), (5, 0), (4, 4), (7, 0), (0, 0), (1, 0))
    for pairs in ([(1, 2), (3, -1)], [None, (0, 3)], [(2, 1), (2, -1)]):
        _assert_joint_program_matches_each_alone(exprs, pairs)
    assert evaluate(program, ELT_MODEL, [(1, 2), (3, -1)]) == (
        (4, -2), (4, -2), (3, -1), (3, -1), (4, 0), (1, 2), None, (0, 1),
    )
    assert [t.net() for t in expand(program)] == [
        {(1, 1): 1}, {(1, 1): 1}, {(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): 1},
        {}, {(1, 0): 1}, {}, {(0, 0): 1},
    ]


def test_deep_expressions_need_no_recursion():
    x1, x2, x3 = (PolyExpression.var(i) for i in (1, 2, 3))

    def chain(leaf):
        e = leaf
        for _ in range(1000):
            e = x1 * (x2 + e)
        return e

    e, same, other = chain(x1), chain(x1), chain(x3)
    assert e == same and hash(e) == hash(same)
    assert e != other and e != same - x3 and e != x2 * same
    assert format_expression(e) == "x1*(x2 + " * 1000 + "x1" + ")" * 1000
    # e = x1^1001 + sum of x1^j * x2 for j = 1..1000
    assert num_variables(e) == 2
    entries = expand(e).entries
    assert len(entries) == 1001
    assert entries[(1001, 0)] == (1, 0) and entries[(1000, 1)] == (1, 0)
    assert evaluate(e, MAXPLUS_MODEL, [1, 2]) == 1002
    assert evaluate(e, ELT_MODEL, [(1, 2), (2, 1)]) == (1002, 2**1000)


def test_expand_needs_every_variable():
    e = E("x1*x3 + x2")
    with pytest.raises(ValueError):
        expand(e, 2)
    assert expand(e, 3).entries == {(1, 0, 1): (1, 0), (0, 1, 0): (1, 0)}
    assert expand(e, 4).entries == {(1, 0, 1, 0): (1, 0), (0, 1, 0, 0): (1, 0)}


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
    # -inf in a max-plus counterexample, as the scalar models printed it
    assert check_identity(E("x1 + x2"), E("x1*x2"), "equal", trials=10, seed=0) == CheckReport(
        "equal", False, False, False, None, 10, 0, (
            "maxplus trial 0: x1=3, x2=-inf: lhs=3 rhs=-inf",
            "maxplus trial 1: x1=6, x2=2: lhs=6 rhs=8",
            "maxplus trial 2: x1=5, x2=8: lhs=8 rhs=13",
        ))
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


def test_suite_rejects_an_unknown_family():
    with pytest.raises(ValueError) as info:
        run_suite(["det-mul"], 5, 7)
    assert str(info.value) == (
        "not an identity family: det-mul; the families are det-mult, a-adj, "
        "det-a-adj, a-adj-sq, cayley-hamilton, mutation-control"
    )
    with pytest.raises(ValueError, match="not an identity family: det-mul, x; "):
        run_suite(["x", "a-adj", "det-mul"], 5, 7)


def test_mutated_identity_is_detected():
    broken = corrupted_det_mult()
    record = run_identity(broken, trials=12, seed=4)
    assert not record.ok
    assert record.line.startswith("FAIL mutated-det-mult")
    assert any(not rep.ring_ok for rep in record.reports)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mutated_identity_fails_the_ring_stage_at_every_size(n):
    """One Laplace term of det(B) has its sign flipped, so the ring
    stage rejects the corruption at every size, 1x1 included, which has
    no odd permutation whose sign could be flipped."""
    record = run_identity(corrupted_det_mult(n), 10, 1)
    assert record.line == f"FAIL mutated-det-mult-n{n} 1"
    assert [rep.ring_ok for rep in record.reports] == [False]


@pytest.mark.parametrize("n", range(6))
def test_det_expression_is_the_one_by_one_permutation_sum(n):
    """The column-subset determinant expands to the monomials of the
    signed sum over ``itertools.permutations``, and takes the same
    values in both models on seeded draws, -inf and layer-zero entries
    among them.  n = 0 is the empty grid, whose determinant is one."""
    m = symbolic_matrix(n)
    zero, one = PolyExpression.zero(), PolyExpression.one()
    reference = zero
    for odd, prod in permutation_terms_one_by_one(m, zero, one):
        reference = reference + (-prod if odd else prod)
    det = det_expression(m)
    assert expand(det).entries == expand(reference).entries
    rng = random.Random(n)
    for model in (MAXPLUS_MODEL, ELT_MODEL):
        draws = [model.sample(rng, n * n) for _ in range(300)]
        for values in draws:
            assert evaluate(det, model, values) == evaluate(reference, model, values)
        drawn = [v for values in draws for v in values]
        if n:
            assert None in drawn
            assert model is MAXPLUS_MODEL or any(v and v[1] == 0 for v in drawn)


# builders of every canned identity and the mutated one
CANNED = [
    pytest.param(lambda f=f, n=n: FAMILIES[f](n), id=f"{f}-n{n}") for n in (2, 3) for f in FAMILIES
] + [pytest.param(corrupted_det_mult, id="mutated-det-mult-n2")]

# x1 + x2 against x1*x2 twice, around a three-variable component: the
# relation fails in both models, on pairs in two groups
MIXED = (
    (E("x1 + x2"), E("x1*x2")),
    (E("x1"), E("x1 + x2 + x3")),
    (E("x2 + x1"), E("x1*x2")),
)


@pytest.mark.parametrize("build", CANNED)
def test_components_sharing_draws_report_as_if_alone(build):
    ident = build()
    for seed in (1, 4, 42):
        for trials in (1, 7, 30):
            assert run_identity(ident, trials, seed).reports == tuple(
                check_identity(p, q, ident.relation, trials, seed, ident.strong)
                for p, q in ident.components
            )


@pytest.mark.parametrize(
    "build", CANNED + [pytest.param(lambda: CannedIdentity("mixed", "surpass", MIXED), id="mixed")]
)
def test_one_program_per_group_reports_as_one_program_per_side(build):
    ident = build()
    for trials in (1, 30, 1000):
        for seed in range(1, 21):
            record = run_identity(ident, trials, seed)
            assert record.reports == check_components_one_by_one(
                ident.components, ident.relation, trials, seed, ident.strong
            )


def test_components_with_different_variable_counts():
    components = MIXED
    two = CheckReport("surpass", False, False, False, None, 8, 3, (
        "maxplus trial 1: x1=9, x2=10: lhs=10 rhs=19",
        "maxplus trial 4: x1=5, x2=7: lhs=7 rhs=12",
        "elt trial 0: x1=-10^[0], x2=9^[1]: lhs=9^[1] rhs=-1^[0]",
    ))
    three = CheckReport("surpass", False, False, False, None, 8, 3, (
        "maxplus trial 0: x1=8, x2=-6, x3=9: lhs=8 rhs=9",
        "maxplus trial 2: x1=-2, x2=-3, x3=5: lhs=-2 rhs=5",
        "maxplus trial 5: x1=-9, x2=-10, x3=5: lhs=-9 rhs=5",
    ))
    expected = dict(zip(components, (two, three, two)))
    for order in itertools.permutations(components):
        record = run_identity(CannedIdentity("mixed", "surpass", order), trials=8, seed=3)
        assert not record.ok
        assert record.reports == tuple(expected[c] for c in order)


# ---------------------------------------------------------------------------
# plans kept across run_suite calls

# (trials, seed) of repeated suites; the mutation control always runs 10
SUITE_CALLS = [(trials, seed) for seed in (1, 4, 42) for trials in (1, 5, 30)]
SUITE_SIZES = ((1, 2), (2, 3), (3,))


@pytest.fixture
def fresh_plans():
    """An empty plan cache, emptied again afterwards, so that plans
    built by a test's patched builders do not outlive it."""
    transfer._suite_plan.cache_clear()
    yield
    transfer._suite_plan.cache_clear()


def test_suite_builds_each_plan_once_per_process(fresh_plans, monkeypatch):
    built = []

    def counting(key, build):
        def wrapped(n=2):
            built.append((key, n))
            return build(n)
        return wrapped

    for family, build in FAMILIES.items():
        monkeypatch.setitem(FAMILIES, family, counting(family, build))
    monkeypatch.setattr(
        transfer, "corrupted_det_mult", counting("mutation-control", corrupted_det_mult)
    )
    for sizes in SUITE_SIZES:
        for trials, seed in SUITE_CALLS:
            assert all(r.ok for r in run_suite(None, trials, seed, sizes))
            run_suite(["a-adj", "mutation-control"], trials, seed + 1, sizes)
    assert sorted(built) == sorted(
        [(family, n) for family in FAMILIES for n in (1, 2, 3)] + [("mutation-control", 2)]
    )


def test_cached_reports_match_uncached_reports_and_the_oracle(fresh_plans):
    for sizes in SUITE_SIZES:
        for trials, seed in SUITE_CALLS:
            records = run_suite(None, trials, seed, sizes)
            idents = [FAMILIES[f](n) for n in sizes for f in FAMILIES] + [corrupted_det_mult()]
            for record, ident in zip(records, idents):
                trials_run = 10 if ident.name.startswith("mutated") else trials
                alone = run_identity(ident, trials_run, seed)
                assert repr(record.reports) == repr(alone.reports)
                assert record.reports == check_components_one_by_one(
                    ident.components, ident.relation, trials_run, seed, ident.strong
                )
            control = records[-1]
            assert control.name == "mutation-control" and control.ok
            assert not any(rep.ring_ok for rep in control.reports)
    # one plan per family and size, and one for the mutation control
    assert transfer._suite_plan.cache_info().misses == 3 * len(FAMILIES) + 1


def test_cached_plan_holds_only_programs_and_verdicts(fresh_plans):
    run_suite(trials=1, seed=1)
    for family in SUITE_FAMILIES:
        for n in (2, 3) if family in FAMILIES else (2,):
            stack = [transfer._suite_plan(family, n)]
            while stack:
                item = stack.pop()
                if isinstance(item, (tuple, list)):
                    stack.extend(item)
                else:
                    assert type(item) in (int, bool, str, type(None)), (family, n, item)
