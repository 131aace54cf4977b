"""What the benchmark measures: workloads, metrics, units and bounds.

BENCHMARK.json at the repository root is generated from this module
(``python3 perfbench/run.py --write-spec``), so the metric names the
runs print and the names the file lists cannot drift apart.
"""

from __future__ import annotations

import json

RUN_SECONDS = 25

WORKLOADS = (
    ("cli-mix", "one python -m eltlab process per file-reading subcommand, errors included: "
                "what a batch script pays per call, mostly start-up and import"),
    ("spectral", "det, adjoint, quasi-inverse, charpoly, etr and eigen candidates for n=2..8: "
                 "the n! permutation sum in matrix.det dominates"),
    ("dense", "products, Hungarian scaling, Karp and criticality at n=30..50: scalar kernel "
              "and assign do the work, no factorial code runs"),
    ("verify", "transfer.run_suite per identity family and size over fresh seeds: "
               "transfer.evaluate dominates, no matrix code runs"),
)

# name, unit, better, bound (share of the parent's median)
# Timings are in reference milliseconds (reference.py): on a shared
# 2-vCPU host a fixed pure-Python loop ran up to 2x slower for seconds
# to minutes at a time, and wall-clock timings moved with it.
END_TO_END = (
    ("ops_per_ref_s", "1/ref_s", "higher", 0.25),
    ("op_p50_ref_ms", "ref_ms", "lower", 0.25),
    ("op_tail_ref_ms", "ref_ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

LAYERS = ("cli", "core", "matrix", "assign", "poly", "puiseux", "transfer")

SELF_TIMES = (
    "core.parse_scalar", "core.format_scalar",
    "matrix.det", "matrix.adjoint", "matrix.quasi_inverse", "matrix.charpoly",
    "matrix.essential_trace", "matrix.simple_cycles",
    "matrix.mul", "matrix.apply", "matrix.from_text",
    "assign.hungarian_scaling", "assign.karp_max_mean_cycle", "assign.is_critical",
    "poly.elt_roots", "poly.envelope", "poly.parse_polynomial",
    "puiseux.parse_series", "puiseux.eltrop",
    "transfer.evaluate", "transfer.expand",
)

CALLS = (
    "matrix.det",
    "assign.hungarian_scaling", "assign.karp_max_mean_cycle", "assign.is_critical",
    "transfer.evaluate",
)

DET_LADDER = tuple(range(2, 9))


def per_layer() -> tuple:
    """(name, unit) of every metric the traced run reports.  Lower is
    better for all of them: times, counts of work and errors."""
    out = [
        ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.main_ms", "ms"),
        ("core.add_ns", "ns"), ("core.mul_ns", "ns"), ("core.neg_ns", "ns"),
        ("core.scalar_ops", "count"),
    ]
    out += [(f"{name}.self_s", "s") for name in SELF_TIMES]
    out += [(f"{name}.calls", "count") for name in CALLS]
    out += [(f"matrix.det.ms.n{k}", "ms") for k in DET_LADDER]
    out += [(f"{layer}.errors", "count") for layer in LAYERS]
    out.append(("trace.overhead_ratio", "ratio"))
    return tuple(out)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": "lower"} for name, unit in per_layer()
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"
