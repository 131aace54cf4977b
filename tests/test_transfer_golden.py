"""Reports of the identity harness pinned byte for byte.

``golden/transfer_reports.json`` holds the ``repr`` of every
``SuiteRecord`` that ``run_suite`` returns over a fixed grid (seeds,
trial counts, sizes and names), and of two ``check_identity`` calls
that keep counterexamples.  It was written by an earlier version of
the harness, so a rewrite of the expansion, the models or the stages
must reproduce those reports exactly.  Each distinct record is stored
once and every run lists the indices of its records.

To write the file from the harness as it stands::

    PYTHONPATH=src python tests/test_transfer_golden.py
"""

import json
import sys
from pathlib import Path

from eltlab.transfer import SUITE_FAMILIES, check_identity, parse_expression, run_suite

GOLDEN = Path(__file__).resolve().parent / "golden" / "transfer_reports.json"

SEEDS = (3, 42, 2024)
TRIALS = (1, 30)
SIZES = ((2,), (3,), (2, 3))
NAMES = (None, *([name] for name in SUITE_FAMILIES))

# (lhs, rhs, relation, trials, seed, strong): the first holds in the
# max-plus model, fails in the ELT model and fails the strong stage; the
# second fails in both models
CHECKS = (
    ("x1*x2 - x3", "x3 + x3 - x3", "surpass", 200, 8, True),
    ("x1*(x2 + x3)", "x1*x2 + x3", "equal", 200, 8, False),
)


def grid():
    for seed in SEEDS:
        for trials in TRIALS:
            for sizes in SIZES:
                for names in NAMES:
                    yield names, trials, seed, sizes


def check(lhs, rhs, relation, trials, seed, strong):
    return check_identity(
        parse_expression(lhs), parse_expression(rhs), relation, trials, seed, strong
    )


def test_run_suite_reports_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    records = golden["records"]
    runs = golden["runs"]
    assert len(runs) == len(list(grid()))
    for (names, trials, seed, sizes), (g_names, g_trials, g_seed, g_sizes, indices) in zip(grid(), runs):
        assert (names, trials, seed, list(sizes)) == (g_names, g_trials, g_seed, g_sizes)
        got = [repr(r) for r in run_suite(names, trials, seed, sizes)]
        assert got == [records[i] for i in indices], (names, trials, seed, sizes)


def test_check_identity_reports_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    reports = [check(*args) for args in CHECKS]
    assert [repr(r) for r in reports] == golden["checks"]
    assert [len(r.counterexamples) for r in reports] == [4, 3]


def write() -> None:
    records = []
    index = {}
    runs = []
    for names, trials, seed, sizes in grid():
        indices = []
        for r in run_suite(names, trials, seed, sizes):
            text = repr(r)
            indices.append(index.setdefault(text, len(records)))
            if indices[-1] == len(records):
                records.append(text)
        runs.append([names, trials, seed, list(sizes), indices])
    checks = [repr(check(*args)) for args in CHECKS]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({"records": records, "runs": runs, "checks": checks}, indent=0) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    write()
    sys.exit(0)
