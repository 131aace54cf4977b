"""The summary of tools/ab_pairs.py, fed canned result lines; no
benchmark runs here."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


def result_line(ops, p50, rss, failed=0, attempted=100):
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "ops_per_ref_s": {"value": ops, "unit": "1/ref_s"},
            "op_p50_ref_ms": {"value": p50, "unit": "ref_ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    })


def test_the_result_is_the_last_line_of_a_run():
    stdout = "workload: verify\nops_per_ref_s: 200 1/ref_s\n" + result_line(200.0, 3.0, 30.0) + "\n\n"
    result = ab_pairs.parse_result(stdout)
    assert result["metrics"]["ops_per_ref_s"]["value"] == 200.0
    assert result["failed"] == 0


def test_summary_of_canned_pairs():
    base = [ab_pairs.parse_result(result_line(ops, 3.0, 30.0)) for ops in (200, 210, 190, 205, 195)]
    change = [
        ab_pairs.parse_result(result_line(ops, p50, 31.5, failed, attempted))
        for ops, p50, failed, attempted in (
            (240, 2.0, 0, 120), (250, 2.5, 0, 125), (180, 3.5, 2, 90), (245, 2.0, 0, 122), (235, 3.0, 0, 117),
        )
    ]
    better = ab_pairs.directions(json.dumps({"end_to_end": [
        {"name": "ops_per_ref_s", "better": "higher"},
        {"name": "op_p50_ref_ms", "better": "lower"},
    ]}))
    assert ab_pairs.summarise(base, change, better) == [
        "5 pairs; median [quartiles], base -> change",
        "ops_per_ref_s [1/ref_s]: 200 [195, 205] -> 240 [235, 245] (+20.0%); "
        "change better in 4/5 (higher is better)",
        "op_p50_ref_ms [ref_ms]: 3 [3, 3] -> 2.5 [2, 3] (-16.7%); "
        "change better in 3/5 (lower is better)",
        "peak_rss_mb [MB]: 30 [30, 30] -> 31.5 [31.5, 31.5] (+5.0%); no direction; "
        "operations per run, median 100 -> 120",
        "failed operations, base: 0 of 500 (per run [0, 0, 0, 0, 0])",
        "failed operations, change: 2 of 574 (per run [0, 0, 2, 0, 0])",
    ]


def test_one_pair_has_degenerate_quartiles():
    lines = ab_pairs.summarise(
        [ab_pairs.parse_result(result_line(100.0, 2.0, 20.0))],
        [ab_pairs.parse_result(result_line(100.0, 2.0, 20.0))],
        {"ops_per_ref_s": "higher"},
    )
    assert lines[1] == "ops_per_ref_s [1/ref_s]: 100 [100, 100] -> 100 [100, 100] (+0.0%); change better in 0/1 (higher is better)"


def test_directions_come_from_the_benchmark_file():
    better = ab_pairs.directions((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert better["ops_per_ref_s"] == "higher"
    assert better["peak_rss_mb"] == "lower"
