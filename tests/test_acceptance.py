"""Acceptance gate: frozen regressions plus large seeded property sweeps.

Each test prints exactly one ``criterion NN PASS/FAIL`` line and then asserts,
so a verbose run shows the per-criterion verdicts at a glance.  Every check is
exact; no tolerances appear anywhere.
"""

import random
from collections import Counter
from fractions import Fraction

from eltlab import ELTMatrix, ELTScalar, NEG_INF
from eltlab.assign import (
    hungarian_scaling,
    critical_scaling_elt,
    is_critical,
    karp_max_mean_cycle,
    tangible_matrix,
)
from eltlab.core import BOTTOM, parse_scalar
from eltlab.errors import InfeasibleAssignment
from eltlab.matrix import (
    EigenStatus,
    MonomialStatus,
    adjoint,
    cayley_hamilton_check,
    charpoly,
    det,
    eigen_candidates,
    eigen_verify,
    essential_trace,
    essential_trace_value,
    is_nilpotent,
    parse_vector,
    quasi_identity_check,
    quasi_inverse,
    simple_cycles,
    trace,
)
from eltlab.poly import envelope, parse_polynomial
from eltlab.puiseux import eltrop
from eltlab.rand import (
    random_matrix,
    random_monomial_matrix,
    random_nilpotent_matrix,
    random_series,
)
from eltlab.transfer import (
    corrupted_det_mult,
    det_expression,
    expand,
    run_identity,
    run_suite,
    symbolic_matrix,
)
from oracles import charpoly_symbolic

SEED = 20250823

S = parse_scalar
M = ELTMatrix.from_text
P = parse_polynomial


def _criterion(num, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {verdict}: {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_determinants_of_gram_products():
    a = M("1^[1], 1^[1]\n2^[1], 3^[1]")
    ok = (
        det(a * a.transpose()) == S("8^[1]")
        and det(a.transpose() * a) == S("10^[0]")
    )
    _criterion(1, "det(A*At) = 8^[1] and det(At*A) = 10^[0]", ok)


def test_criterion_02_characteristic_polynomial_and_eigen_data():
    a = M("1^[1], 2^[1]\n2^[1], 3^[1]")
    ok = charpoly(a) == P("0^[1]*L^2 + 3^[-1]*L + 4^[0]")
    ok = ok and eigen_verify(a, S("3^[1]"), parse_vector("0^[1], 1^[1]")) is EigenStatus.STRICT
    rd = eigen_candidates(a)
    corners = {c.tangible: c.layers.values for c in rd.corners}
    ok = ok and corners == {
        Fraction(3): (Fraction(0), Fraction(1)),
        Fraction(1): (Fraction(0),),
    }
    below = [iv for iv in rd.intervals if iv.lower is BOTTOM]
    ok = ok and len(below) == 1 and below[0].upper == Fraction(1) and below[0].layers.all_layers
    _criterion(2, "charpoly example with strict eigenpair and root candidates", ok)


def test_criterion_03_nilpotent_example():
    a = M("0^[1], 1^[0]\n0^[0], 0^[1]")
    etr = essential_trace_value(a)
    ok = (
        trace(a) == S("0^[2]")
        and is_nilpotent(a) == (True, 2)
        and a * a == M("1^[0], 1^[0]\n0^[0], 1^[0]")
        and etr is not NEG_INF
        and etr.layer == 0
    )
    _criterion(3, "triangular pair is nilpotent of index 2 with layer zero etr", ok)


def test_criterion_04_essential_trace_of_sum():
    a = M("0^[1], 0^[1]\n-inf, 0^[1]")
    b = a.transpose()
    rep = essential_trace(a + b)
    ok = (
        essential_trace_value(a) == S("0^[2]")
        and essential_trace_value(b) == S("0^[2]")
        and charpoly(a + b) == P("0^[1]*L^2 + 0^[-4]*L + 0^[3]")
        and rep.status is MonomialStatus.QUASI_ESSENTIAL
        and rep.value == S("0^[0]")
    )
    _criterion(4, "etr of the sum collapses to 0^[0] through a quasi-essential tie", ok)


def test_criterion_05_cayley_hamilton_sweep():
    rng = random.Random(SEED)
    failures = sum(
        1
        for i in range(1000)
        if not cayley_hamilton_check(random_matrix(rng, 2 + i % 3))
    )
    _criterion(5, "1000 matrices satisfy their characteristic polynomial", failures == 0,
               f"failures={failures}")


def test_criterion_06_determinant_multiplicativity_sweep():
    rng = random.Random(SEED)
    surpass_failures = equality_failures = 0
    for i in range(1000):
        n = 2 + i % 2
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        dab = det(a * b)
        rhs = det(a) * det(b)
        if not dab.surpasses(rhs):
            surpass_failures += 1
        if dab is not NEG_INF and dab.layer != 0 and dab != rhs:
            equality_failures += 1
    monomial_failures = 0
    for i in range(200):
        n = 2 + i % 2
        a = random_matrix(rng, n)
        q = random_monomial_matrix(rng, n)
        if det(a * q) != det(a) * det(q):
            monomial_failures += 1
    ok = surpass_failures == equality_failures == monomial_failures == 0
    _criterion(6, "det(AB) surpasses det(A)det(B), equal when unbalanced or monomial", ok,
               f"surpass={surpass_failures} equality={equality_failures} monomial={monomial_failures}")


def test_criterion_07_adjoint_identity_sweep():
    rng = random.Random(SEED)
    failures = 0
    for i in range(500):
        n = 2 + i % 2
        a = random_matrix(rng, n)
        d = det(a)
        prod = a * adjoint(a)
        scaled_identity = ELTMatrix.identity(n).scale(d)
        entrywise = all(
            prod.entry(r, c).surpasses(scaled_identity.entry(r, c))
            for r in range(n)
            for c in range(n)
        )
        if not (entrywise and det(prod) == d ** n and prod * prod == prod.scale(d)):
            failures += 1
    _criterion(7, "500 adjoint products satisfy all three identities", failures == 0,
               f"failures={failures}")


def test_criterion_08_quasi_inverse_sweep():
    rng = random.Random(SEED)
    count = failures = 0
    while count < 200:
        n = 2 + count % 2
        a = random_matrix(rng, n)
        d = det(a)
        if d is NEG_INF or d.layer == 0:
            continue
        count += 1
        res = quasi_inverse(a)
        left = quasi_identity_check(res.inverse * a)
        right = quasi_identity_check(a * res.inverse)
        if not (res.left.ok and res.right.ok and left.ok and right.ok):
            failures += 1
    _criterion(8, "200 unit-layer determinants give two-sided quasi-inverses", failures == 0,
               f"failures={failures}")


def test_criterion_09_hungarian_criticality_sweep():
    rng = random.Random(SEED)
    count = failures = 0
    tried = 0
    while count < 200:
        tried += 1
        n = 2 + tried % 3
        a = random_matrix(rng, n)
        t = tangible_matrix(a)
        try:
            res = hungarian_scaling(t)
        except InfeasibleAssignment:
            continue
        count += 1
        d = critical_scaling_elt(a)
        invertible_diag = all(
            d.entry(i, i) is not NEG_INF and d.entry(i, i).layer == 1 for i in range(n)
        )
        critical, _ = is_critical(tangible_matrix(d * a))
        feasible = all(
            res.row_duals[i] + res.col_duals[j] >= t[i][j]
            for i in range(n)
            for j in range(n)
            if t[i][j] is not BOTTOM
        )
        tight = all(
            res.row_duals[i] + res.col_duals[res.sigma[i]] == t[i][res.sigma[i]]
            for i in range(n)
        )
        if not (invertible_diag and critical and feasible and tight):
            failures += 1
    _criterion(9, "200 feasible assignments scale to critical matrices with exact duals",
               failures == 0, f"failures={failures}")


def test_criterion_10_cycle_mean_oracle_sweep():
    rng = random.Random(SEED)
    count = failures = 0
    tried = 0
    while count < 200:
        tried += 1
        a = random_matrix(rng, 2 + tried % 4)
        cycles = simple_cycles(a)
        if not cycles:
            continue
        count += 1
        rep = essential_trace(a)
        ratio = rep.dominant.tangible / rep.mu
        karp = karp_max_mean_cycle(tangible_matrix(a))
        brute = max(c.mean for c in cycles)
        if not (ratio == karp == brute):
            failures += 1
    _criterion(10, "dominant ratio, Karp, and brute force cycle means agree three ways",
               failures == 0, f"failures={failures}")


def test_criterion_11_charpoly_route_agreement_sweep():
    rng = random.Random(SEED)
    failures = sum(
        1
        for i in range(500)
        if charpoly(a := random_matrix(rng, 2 + i % 3)) != charpoly_symbolic(a)
    )
    _criterion(11, "500 matrices give identical coefficients along both routes",
               failures == 0, f"failures={failures}")


def _product_etr_agreement(ab, ba):
    """Classify the etr reports of AB and BA against what etr promises.

    AB and BA share their trace, so their etr tangibles agree, but their
    simple cycles of length at least two can differ: the trace monomial may
    be essential on one side (value = the trace) and only quasi-essential on
    the other (value collapsed to layer zero).  Returns "equal", "collapse"
    for exactly that disagreement, or "failure" for anything else.
    """
    if ab.trace != ba.trace or ab.value.tangible != ba.value.tangible:
        return "failure"
    essential = MonomialStatus.ESSENTIAL
    if (ab.status is essential) == (ba.status is essential):
        return "equal" if ab.value == ba.value else "failure"
    if ab.value == ba.value:
        return "equal"
    ess, other = (ab, ba) if ab.status is essential else (ba, ab)
    collapse = (
        ess.value == ess.trace
        and other.status is MonomialStatus.QUASI_ESSENTIAL
        and other.value.layer == 0
    )
    return "collapse" if collapse else "failure"


def test_criterion_12_essential_trace_properties():
    rng = random.Random(SEED)
    counts = Counter()
    witnesses = {}
    for i in range(500):
        n = 2 + i % 2
        a = random_matrix(rng, n)
        b = random_matrix(rng, n)
        ab = essential_trace(a * b)
        ba = essential_trace(b * a)
        verdict = _product_etr_agreement(ab, ba)
        counts[verdict] += 1
        if verdict != "equal" and verdict not in witnesses:
            witnesses[verdict] = (
                "A="
                + a.to_text().replace("\n", " ; ")
                + " B="
                + b.to_text().replace("\n", " ; ")
                + f" gives {ab.value} vs {ba.value}"
            )
    product_failures = counts["failure"]
    balanced_failures = 0
    found = 0
    while found < 200:
        a = random_matrix(rng, rng.randint(1, 3))
        tr = trace(a)
        if tr is not NEG_INF and tr.layer != 0:
            continue
        found += 1
        etr = essential_trace_value(a)
        if not (etr is NEG_INF or etr.layer == 0):
            balanced_failures += 1
    nilpotent_failures = 0
    for i in range(100):
        a = random_nilpotent_matrix(rng, 2 + i % 3)
        etr = essential_trace_value(a)
        if not (etr is NEG_INF or etr.layer == 0):
            nilpotent_failures += 1
    ok = product_failures == balanced_failures == nilpotent_failures == 0
    detail = (
        f"etr(AB)=etr(BA) up to a quasi-essential layer collapse failed on "
        f"{product_failures}/500 pairs, collapsed on {counts['collapse']}/500, "
        f"layer-zero-trace failed on {balanced_failures}/200, "
        f"nilpotent failed on {nilpotent_failures}/100"
    )
    for verdict in ("failure", "collapse"):
        if verdict in witnesses:
            detail += f"; first {verdict} " + witnesses[verdict]
    _criterion(
        12,
        "essential trace product invariance up to a quasi-essential tie, "
        "and layer-zero properties",
        ok,
        detail,
    )


def test_criterion_13_leading_term_projection_sweep():
    rng = random.Random(SEED)
    failures = 0
    for _ in range(500):
        x = random_series(rng)
        y = random_series(rng)
        alpha = Fraction(rng.randint(1, 9), rng.randint(1, 3)) * rng.choice((-1, 1))
        good = (
            (eltrop(x) + eltrop(y)).surpasses(eltrop(x + y))
            and eltrop(x * y) == eltrop(x) * eltrop(y)
            and eltrop(x.scale(alpha)) == ELTScalar(0, alpha) * eltrop(x)
        )
        if not good:
            failures += 1
    _criterion(13, "500 series pairs satisfy the projection laws", failures == 0,
               f"failures={failures}")


def test_criterion_14_transfer_harness():
    records = run_suite(trials=120, seed=42)
    all_pass = len(records) == 11 and all(r.ok for r in records)
    mutation = run_identity(corrupted_det_mult(), trials=40, seed=42)
    disjoint = all(
        expand(det_expression(symbolic_matrix(n))).has_disjoint_support for n in (2, 3)
    )
    ok = all_pass and not mutation.ok and disjoint
    _criterion(14, "canned identity suites pass and the mutated sign is caught", ok,
               f"records={len(records)} mutation_detected={not mutation.ok}")
