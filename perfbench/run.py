"""Benchmark for eltlab: end-to-end metrics per workload, or per-layer
metrics from a traced run.

Usage, from the repository root::

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --write-spec      # regenerate BENCHMARK.json

The library is imported from ``src/`` next to this directory; there is
nothing to build.  The report goes to stdout, one metric per line with
its unit, and the last line is a JSON object with the keys correct,
attempted, failed and metrics.  With ``--trace 1`` the spans and the
per-layer metrics are also written to ``.perfbench/`` as JSON.

Untraced runs set up, run whole rounds of the workload until
``--seconds`` have passed (timing more set-ups on a spare copy between
rounds, and reporting their median), and check the outcomes afterwards.
Their timings are given in reference milliseconds, the time of a fixed
unit of Python work measured next to each operation (reference.py), so
that the speed of a shared host at the moment drops out; wall-clock
figures are printed beside them.  The process and its children stay on
one CPU.  Traced runs alternate untraced and traced passes over each
round, then count scalar operations over one round and time the scalar
primitives.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from perfbench import gen, spec  # noqa: E402
from perfbench.reference import Reference  # noqa: E402
from perfbench.tracing import SPAN_FIELDS, ScalarCounter, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, library_kept  # noqa: E402

SETUP_REPEATS = 9


def _bootstrap() -> None:
    """Put the library's sources on the path, or refuse to run."""
    if not (ROOT / "src" / "eltlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no eltlab sources under {ROOT / 'src'}")
    for var in ("ELTLAB_BACKEND", "ELTLAB_SEED"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))


class Outcomes:
    """The (op, result, exception) of the first run of each distinct
    input, and the number of later runs whose outcome differed.

    Keeping only first outcomes bounds the memory the benchmark itself
    holds, so peak RSS does not grow with the number of rounds.
    """

    def __init__(self):
        self.first = {}
        self.mismatches = 0

    def add(self, op, result, exc) -> None:
        key = (op.kind, op.key)
        first = self.first.get(key)
        if first is None:
            self.first[key] = (op, result, exc)
        elif first[1] != result or type(first[2]) is not type(exc):
            print(f"perfbench: {op.kind} {op.key} gave a different outcome on a repeat", file=sys.stderr)
            self.mismatches += 1

    def failures(self, workload) -> int:
        """Repeats that differed plus first outcomes that fail their check."""
        failed = self.mismatches
        for op, result, exc in self.first.values():
            try:
                ok = workload.check(op, result, exc)
            except Exception as err:  # a check that cannot run is a failure
                print(f"perfbench: check of {op.kind} {op.key} raised {err!r}", file=sys.stderr)
                ok = False
            if not ok:
                print(f"perfbench: {workload.name} {op.kind} {op.key} failed its check", file=sys.stderr)
                failed += 1
        return failed


def run_rounds(rounds, seconds, outcomes, max_rounds=None, tracer=None, reference=None,
               min_rounds=1, between=None):
    """Run whole rounds until the time is up and ``min_rounds`` are
    done (or until ``max_rounds``), calling ``between()`` after each
    round, recording into ``outcomes``.  Returns the latency of each operation
    and the wall time of each round.

    With a ``reference``, a reference sample is taken before an
    operation whenever one is due and after every round, time the
    reference spends sampling during an operation is not counted in its
    latency, and the third list returned holds, per operation, the
    indices of the last samples taken before and after it (the
    arguments of ``reference.scale``)."""
    latencies, walls, marks = [], [], []
    start = time.perf_counter()
    if reference is not None:
        reference.sample()
    while True:
        round_start = time.perf_counter()
        for op in rounds[len(walls) % len(rounds)]:
            if reference is not None:
                if reference.due():
                    reference.sample()
                first, paused = len(reference.samples) - 1, reference.paused
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = op.call()
                else:
                    result = tracer.call(f"op.{op.kind}", op.call)
                exc = None
            except Exception as err:  # judged by the workload's check
                result, exc = None, err
            latency = time.perf_counter() - t0
            if reference is not None:
                latency -= reference.paused - paused
                marks.append((first, len(reference.samples) - 1))
            latencies.append(latency)
            outcomes.add(op, result, exc)
        if reference is not None:
            reference.sample()
        walls.append(time.perf_counter() - round_start)
        if between is not None:
            between()
        if max_rounds is not None:
            if len(walls) >= max_rounds:
                break
        elif time.perf_counter() - start >= seconds and len(walls) >= min_rounds:
            break
    return latencies, walls, marks


def tail(values):
    """The highest percentile with at least ten samples beyond it: the
    11th largest value.  Returns (value, percentile, sample count)."""
    values = sorted(values)
    n = len(values)
    if n <= 10:
        return values[-1], 100.0, n
    return values[n - 11], 100.0 * (n - 10) / n, n


def timed_setup(workload, reference=None) -> float:
    """Seconds ``workload.setup()`` takes, less any reference sampling."""
    gc.collect()
    paused = 0.0 if reference is None else reference.paused
    t0 = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - t0
    return elapsed if reference is None else elapsed - (reference.paused - paused)


def measure(workload, seconds):
    """End-to-end metrics, with timings in reference milliseconds (see
    reference.py): each operation's latency over the reference unit's
    duration around it.  Throughput is the median over rounds of the
    operations per reference second within a round; every round holds
    the same mix.  Wall-clock figures are printed beside them.

    Set-up is timed once before the rounds and then on a spare copy of
    the workload between rounds, spread over the run, so the median
    set-up time does not hang on one moment's load on the host."""
    setups = [timed_setup(workload)]
    spare = type(workload)(workload.root, workload.seed, workload.tiny)
    start = time.perf_counter()

    def spare_setup(reference=None):
        with library_kept():
            setups.append(timed_setup(spare, reference))
        spare.rounds, spare.lib = [], None

    def between():
        if len(setups) < SETUP_REPEATS and time.perf_counter() - start >= seconds * len(setups) / SETUP_REPEATS:
            spare_setup(ref)

    outcomes = Outcomes()
    with Reference(during_ops=workload.sample_during_ops) as ref:
        latencies, walls, marks = run_rounds(workload.rounds, seconds, outcomes, reference=ref,
                                             min_rounds=workload.min_rounds, between=between)
    while len(setups) < SETUP_REPEATS:
        spare_setup()
    scaled = [lat / ref.scale(*mark) for lat, mark in zip(latencies, marks)]
    rss = workload.peak_rss_mb()
    failed = outcomes.failures(workload)
    tail_value, tail_pct, count = tail(scaled)
    per_round = len(workload.rounds[0])
    round_units = [sum(scaled[i:i + per_round]) for i in range(0, len(scaled), per_round)]
    metrics = {
        "ops_per_ref_s": (median(1e3 * per_round / u for u in round_units), "1/ref_s",
                          f"median of {len(walls)} rounds of {per_round} operations; wall clock "
                          f"{median(per_round / w for w in walls):.4g}/s over {sum(walls):.2f} s"),
        "op_p50_ref_ms": (median(scaled), "ref_ms",
                          f"{count} samples; wall clock {median(latencies) * 1e3:.4g} ms"),
        "op_tail_ref_ms": (tail_value, "ref_ms",
                           f"p{tail_pct:.1f} of {count} samples; wall clock {tail(latencies)[0] * 1e3:.4g} ms; "
                           f"1 ref_ms = one reference unit, median {median(ref.samples) * 1e3:.4g} ms "
                           f"over {len(ref.samples)} samples"),
        "setup_s": (median(setups), "s", f"median of {len(setups)} set-ups spread over the run"),
        "peak_rss_mb": (rss, "MB", workload.rss_of),
    }
    return metrics, len(latencies), failed, None


def scalar_microbench(workload, repeats=5):
    """ns per add, mul and neg on the operands of a dense matrix drawn
    from the seed, loop overhead included; median of the repeats."""
    size = 8 if workload.tiny else 60
    descs = [d for row in gen.matrix(random.Random(f"scalars:{workload.seed}"), size, "dense") for d in row]
    xs = gen.materialise(workload.lib.core, descs)
    pairs = list(zip(xs, xs[1:] + xs[:1]))

    def timed(body):
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            body()
            samples.append((time.perf_counter_ns() - t0) / len(pairs))
        return median(samples)

    def adds():
        for x, y in pairs:
            x + y

    def muls():
        for x, y in pairs:
            x * y

    def negs():
        for x in xs:
            -x

    return {"core.add_ns": timed(adds), "core.mul_ns": timed(muls), "core.neg_ns": timed(negs)}


def trace(workload, seconds):
    """Per-layer metrics.  An untraced and a traced pass over each round
    follow each other, in alternating order, until the time is up, so
    both see the same load on the host; their wall times give the
    tracing overhead."""
    workload.setup()
    lib = workload.lib
    rounds = workload.traced_rounds()
    tracer = Tracer(lib.errors.ELTError)
    outcomes = Outcomes()
    lat_plain, wall_plain, wall_traced, attempted, n_rounds = [], 0.0, 0.0, 0, 0
    start = time.perf_counter()
    while n_rounds == 0 or time.perf_counter() - start < seconds:
        one = [rounds[n_rounds % len(rounds)]]
        for traced in (n_rounds % 2 == 1, n_rounds % 2 == 0):  # alternate which goes first
            if not traced:
                lat, walls, _ = run_rounds(one, 0, outcomes, max_rounds=1)
                lat_plain += lat
                wall_plain += walls[0]
                continue
            tracer.install(lib)
            try:
                lat, walls, _ = run_rounds(one, 0, outcomes, max_rounds=1, tracer=tracer)
            finally:
                tracer.uninstall()
            wall_traced += walls[0]
        attempted += 2 * len(lat)
        n_rounds += 1
    with ScalarCounter(lib.core.ELTScalar) as counter:
        run_rounds(rounds, 0, Outcomes(), max_rounds=1)
    values = {"core.scalar_ops": counter.count, "trace.overhead_ratio": wall_traced / wall_plain}
    values.update(scalar_microbench(workload))
    values.update(workload.layer_extras(lat_plain))
    for name in spec.SELF_TIMES:
        values[f"{name}.self_s"] = tracer.self_ns.get(name, 0) / 1e9
    for name in spec.CALLS:
        values[f"{name}.calls"] = tracer.calls.get(name, 0)
    for k in spec.DET_LADDER:
        values[f"matrix.det.ms.n{k}"] = tracer.median_ms("matrix.det", k)
    for layer in spec.LAYERS:
        values[f"{layer}.errors"] = sum(v for name, v in tracer.errors.items() if name.startswith(layer + "."))
    failed = outcomes.failures(workload)
    metrics = {}
    for name, unit in spec.per_layer():
        note = ""
        if name == "trace.overhead_ratio":
            note = f"{n_rounds} rounds each way, {wall_traced:.2f} s traced / {wall_plain:.2f} s untraced"
        metrics[name] = (values.get(name, 0), unit, note)
    dump = {
        "workload": workload.name,
        "seed": workload.seed,
        "backend": lib.core.BACKEND,
        "python": platform.python_version(),
        "rounds": n_rounds,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
        "span_fields": SPAN_FIELDS,
        "spans": tracer.spans,
        "dropped_spans": tracer.dropped,
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-{workload.seed}.json"
    path.write_text(json.dumps(dump), encoding="utf-8")
    return metrics, attempted, failed, path


def pin_to_one_cpu() -> str:
    """Keep this process, and the children it starts, on one of the
    CPUs it may use, so operations and the reference samples next to
    them run on the same one: on a shared host the CPUs' speeds differ
    from moment to moment, and a child on the other CPU is not tracked
    by samples taken on this one."""
    if not hasattr(os, "sched_setaffinity"):
        return "not pinned"
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return f"pinned to CPU {cpu}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true", help="write BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(spec.render(), encoding="utf-8")
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    run = trace if args.trace else measure
    pinned = pin_to_one_cpu()
    metrics, attempted, failed, trace_path = run(workload, seconds)

    print(f"workload: {workload.name}  seed: {args.seed}  seconds: {seconds:g}  trace: {args.trace}")
    print(f"backend: {workload.lib.core.BACKEND}  python: {platform.python_version()}  {pinned}")
    print(f"inputs: {workload.sizes}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name}: {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"fail_ratio: {failed / attempted:.6g}  ({failed} of {attempted} operations)")
    if trace_path is not None:
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
