"""Tests of the benchmark itself: smoke runs at tiny sizes, metric
names against BENCHMARK.json, and every check against a corrupted
result.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations

import pytest

from perfbench import gen, oracles, reference, run, spec
from perfbench.workloads import WORKLOADS

ROOT = run.ROOT


def tiny(name, seed=3):
    workload = WORKLOADS[name](ROOT, seed, tiny=True)
    workload.setup()
    return workload


def ops_of(workload, kind):
    return [op for op in workload.rounds[0] if op.kind == kind]


def shifted(lib, x, by=1):
    """The scalar with its layer moved by ``by``; -inf becomes 0^[1]."""
    if x.is_neg_inf:
        return lib.core.ONE
    return lib.core.ELTScalar(x.tangible, x.layer + by)


def shifted_matrix(lib, m):
    return lib.matrix.ELTMatrix([[shifted(lib, x) for x in row] for row in m.rows])


# ---------------------------------------------------------------------------
# the spec and the runs agree


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()
    assert [w["name"] for w in on_disk["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_untraced(name):
    metrics, attempted, failed, _ = run.measure(WORKLOADS[name](ROOT, 5, tiny=True), 0)
    assert attempted >= 1 and failed == 0
    assert list(metrics) == [m[0] for m in spec.END_TO_END]
    assert all(value > 0 for value, _, _ in metrics.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_traced(name):
    metrics, attempted, failed, path = run.trace(WORKLOADS[name](ROOT, 5, tiny=True), 0)
    assert attempted >= 1 and failed == 0
    assert list(metrics) == [m[0] for m in spec.per_layer()]
    assert all(metrics[f"{layer}.errors"][0] == 0 for layer in spec.LAYERS)
    assert metrics["trace.overhead_ratio"][0] > 0
    dumped = json.loads(path.read_text())
    assert dumped["spans"] and set(dumped["metrics"]) == set(metrics)
    fields = dumped["span_fields"]
    for span in dumped["spans"]:
        span = dict(zip(fields, span))
        assert (span["parent"] is None) == span["name"].startswith("op.")


def test_traced_layers_are_seen_where_they_run():
    metrics, _, _, _ = run.trace(WORKLOADS["spectral"](ROOT, 5, tiny=True), 0)
    assert metrics["matrix.det.calls"][0] > 0 and metrics["matrix.det.ms.n4"][0] > 0
    assert metrics["poly.elt_roots.self_s"][0] > 0
    assert metrics["core.scalar_ops"][0] > 0
    metrics, _, _, _ = run.trace(WORKLOADS["verify"](ROOT, 5, tiny=True), 0)
    assert metrics["transfer.evaluate.calls"][0] > 0 and metrics["matrix.det.calls"][0] == 0


def test_command_line_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "verify",
         "--seed", "2", "--seconds", "0.2", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and set(last["metrics"]) == {m[0] for m in spec.END_TO_END}


def test_command_line_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectral", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_inputs_depend_only_on_the_seed():
    one, two, other = (gen.matrix(random.Random(s), 6, "holes") for s in (7, 7, 8))
    assert one == two != other
    assert sum(x is None for row in one for x in row) == 2 * 36 // 5


# ---------------------------------------------------------------------------
# the reference unit


def test_reference_scale_of_short_and_long_operations():
    ref = reference.Reference()
    ref.samples = [1.0, 9.0, 2.0, 3.0, 4.0, 8.0]
    # no sample while it ran: median of two samples on either side
    assert ref.scale(2, 2) == statistics.median([9.0, 2.0, 3.0, 4.0])
    assert ref.scale(0, 0) == statistics.median([1.0, 9.0, 2.0])
    # sampled while it ran: harmonic mean of those and the two around
    assert ref.scale(1, 3) == pytest.approx(statistics.harmonic_mean([9.0, 2.0, 3.0, 4.0]))


def test_reference_timer_samples_and_is_undone():
    before = signal.getsignal(signal.SIGALRM)
    with reference.Reference(every_s=0.01, during_ops=True) as ref:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(ref.samples) >= 3 and 0 < ref.paused < 0.2


def test_run_rounds_takes_timer_samples_off_latencies():
    workload = tiny("verify")
    with reference.Reference(every_s=0.001, during_ops=True) as ref:
        latencies, walls, marks = run.run_rounds(workload.rounds, 0, run.Outcomes(), reference=ref)
    assert len(marks) == len(latencies) == len(workload.rounds[0])
    assert all(first <= last < len(ref.samples) - 1 for first, last in marks)
    assert any(last > first for first, last in marks)
    assert all(latency > 0 for latency in latencies) and sum(latencies) < walls[0]


# ---------------------------------------------------------------------------
# the oracles


def brute_det_pair(rows):
    plus = minus = None
    n = len(rows)
    for perm in permutations(range(n)):
        prod = oracles.ONE
        for i, j in enumerate(perm):
            prod = oracles.mul(prod, rows[i][j])
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) & 1
        if odd:
            minus = oracles.add(minus, prod)
        else:
            plus = oracles.add(plus, prod)
    return plus, minus


@pytest.mark.parametrize("entries", ["generic", "ties", "holes"])
def test_det_oracle_equals_the_permutation_sum(entries):
    rng = random.Random(entries)
    for n in range(1, 6):
        for _ in range(20):
            rows = gen.matrix(rng, n, entries)
            assert oracles.det_pair(rows) == brute_det_pair(rows)


def test_karp_oracle_on_a_known_cycle():
    t = [[None, Fraction(3), None], [None, None, Fraction(1)], [Fraction(-1), None, Fraction(0)]]
    assert oracles.karp(t) == 1
    assert oracles.karp(t, skip_diagonal=True) == 1
    assert oracles.karp([[None, Fraction(1)], [None, None]]) is None


def test_matching_oracle():
    assert oracles.has_perfect_matching([[True, True], [True, False]])
    assert not oracles.has_perfect_matching([[True, False], [True, False]])


# ---------------------------------------------------------------------------
# every check rejects a corrupted result


@pytest.fixture(scope="module")
def spectral():
    return tiny("spectral")


@pytest.mark.parametrize("kind", ["det", "adjoint", "charpoly", "essential_trace", "eigen_candidates", "quasi_inverse"])
def test_spectral_checks_accept_true_results(spectral, kind):
    for op in ops_of(spectral, kind):
        try:
            result, exc = op.call(), None
        except spectral.lib.errors.ELTError as err:
            result, exc = None, err
        assert spectral.check(op, result, exc)


def test_det_check_catches_a_layer_off_by_one(spectral):
    for op in ops_of(spectral, "det"):
        assert not spectral.check(op, shifted(spectral.lib, op.call()), None)


def test_adjoint_check_catches_a_corrupted_entry(spectral):
    for op in ops_of(spectral, "adjoint"):
        assert not spectral.check(op, shifted_matrix(spectral.lib, op.call()), None)


def test_charpoly_check_catches_a_corrupted_coefficient(spectral):
    poly = spectral.lib.poly
    for op in ops_of(spectral, "charpoly"):
        p = op.call()
        bad = poly.ELTPolynomial({d: shifted(spectral.lib, c) if d == 0 else c for d, c in p.coefficients.items()})
        if bad != p:
            assert not spectral.check(op, bad, None)


def test_etr_check_catches_a_corrupted_value(spectral):
    for op in ops_of(spectral, "essential_trace"):
        report = op.call()
        bad = dataclasses.replace(report, value=shifted(spectral.lib, report.value))
        assert not spectral.check(op, bad, None)


def test_eigen_check_catches_a_wrong_description(spectral):
    ops = ops_of(spectral, "eigen_candidates")
    results = [op.call() for op in ops]
    assert any(not spectral.check(op, results[(i + 1) % len(ops)], None) for i, op in enumerate(ops))


def test_quasi_inverse_check_catches_corruption(spectral):
    lib = spectral.lib
    checked = 0
    for op in ops_of(spectral, "quasi_inverse"):
        try:
            result = op.call()
        except lib.errors.SingularDeterminant as err:
            assert not spectral.check(op, None, None)
            assert not spectral.check(op, None, ValueError("other"))
            assert spectral.check(op, None, err)
            continue
        bad = dataclasses.replace(result, inverse=shifted_matrix(lib, result.inverse))
        assert not spectral.check(op, bad, None)
        failing = dataclasses.replace(result.left, idempotent=False)
        assert not spectral.check(op, dataclasses.replace(result, left=failing), None)
        checked += 1
    assert checked


@pytest.fixture(scope="module")
def dense():
    return tiny("dense")


def test_dense_checks(dense):
    lib = dense.lib
    for op in dense.rounds[0]:
        result = op.call()
        assert dense.check(op, result, None), op.kind
        if op.kind == "mul":
            bad = shifted_matrix(lib, result)
        elif op.kind == "apply":
            bad = tuple(shifted(lib, x) for x in result)
        elif op.kind == "hungarian_scaling":
            bad = dataclasses.replace(result, value=result.value + 1)
            assert not dense.check(op, dataclasses.replace(
                result, col_duals=tuple(v - 1 for v in result.col_duals)), None)
        elif op.kind == "karp_max_mean_cycle":
            bad = (result or 0) + 1
        else:
            bad = (not result[0], None if result[0] else tuple(range(len(op.data))))
        assert not dense.check(op, bad, None), op.kind
        assert not dense.check(op, result, RuntimeError("unexpected"))


def test_product_check_catches_a_single_wrong_column(dense):
    lib = dense.lib
    op = ops_of(dense, "mul")[0]
    result = op.call()
    n = result.nrows
    for j in range(n):
        rows = [[shifted(lib, x) if c == j else x for c, x in enumerate(row)] for row in result.rows]
        if not dense.check(op, lib.matrix.ELTMatrix(rows), None):
            return
    pytest.fail("no corrupted column was caught")


def test_verify_check_requires_pass_on_every_family():
    workload = tiny("verify")
    for op in workload.rounds[0]:
        records = op.call()
        assert workload.check(op, records, None)
        bad = [dataclasses.replace(records[0], ok=False)] + records[1:]
        assert not workload.check(op, bad, None)


def test_cli_check_needs_identical_stdout_and_exit_code():
    workload = tiny("cli-mix")
    codes = set()
    for op in workload.rounds[0]:
        code, out, err = op.call()
        codes.add(code)
        assert workload.check(op, (code, out, err), None), op.kind
        assert not workload.check(op, (code, out + b" ", err), None)
        assert not workload.check(op, (code + 1, out, err), None)
    assert codes == {0, 1, 2}


def test_cli_children_get_a_clean_environment(monkeypatch):
    for var in ("ELTLAB_BACKEND", "ELTLAB_SEED", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE"):
        monkeypatch.setenv(var, "1")
    env = WORKLOADS["cli-mix"](ROOT, 1).child_env()
    assert not {"ELTLAB_BACKEND", "ELTLAB_SEED", "PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE"} & set(env)
    assert env["PYTHONPATH"].split(":")[0] == str(ROOT / "src")


def test_a_corrupted_library_fails_the_run(monkeypatch):
    workload = WORKLOADS["spectral"](ROOT, 5, tiny=True)
    workload.setup()
    lib = workload.lib
    honest = lib.matrix.det
    monkeypatch.setattr(workload, "setup", lambda: None)
    monkeypatch.setattr(lib.matrix, "det", lambda a: shifted(lib, honest(a)))
    _, attempted, failed, _ = run.measure(workload, 0)
    assert attempted >= failed > 0
