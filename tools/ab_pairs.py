"""Compare two revisions on one benchmark workload, in alternating pairs.

Usage, from the repository root::

    python3 tools/ab_pairs.py --base HEAD --change feature --workload verify \\
        --pairs 10 --seed 71

Each revision is exported with ``git archive`` into a fresh temporary
directory, removed at the end.  Pair i runs ``perfbench/run.py
--workload W --seed (seed + i)`` once in each copy, for the run length
the benchmark sets, base first in even pairs and change first in odd
ones, so a drift in the host's speed falls on both sides.  Every
``__pycache__`` in both copies is deleted before every run: a run that
leaves bytecode behind (``cli-mix`` children write it) would otherwise
speed up the later runs in that copy.  Without ``--change`` the change
is the working tree's tracked files and staged new files (``git stash
create``).

The summary gives, per metric, each side's median and quartiles over
the pairs, the change's relative difference of medians, and in how many
pairs the change was better, by the direction ``BENCHMARK.json`` gives
the metric; then the failed operations of each side.  It uses the
standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

Result = Dict  # the JSON object on the last line of a perfbench run


def export(repo: Path, rev: str, dest: Path) -> None:
    """The files of revision ``rev`` of ``repo``, written to ``dest``."""
    tar = subprocess.run(
        ["git", "-C", str(repo), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def working_tree_commit(repo: Path) -> str:
    """A commit of the working tree's tracked and staged files, or
    HEAD when there are no changes."""
    made = subprocess.run(
        ["git", "-C", str(repo), "stash", "create"], check=True, capture_output=True, text=True,
    ).stdout.strip()
    return made or "HEAD"


def clear_bytecode(copy: Path) -> None:
    for cache in list(copy.rglob("__pycache__")):
        shutil.rmtree(cache)


def run_once(copy: Path, workload: str, seed: int) -> Result:
    clear_bytecode(copy)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=copy, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"ab_pairs: run in {copy} failed:\n{proc.stderr}")
    return parse_result(proc.stdout)


def parse_result(stdout: str) -> Result:
    """The JSON object on the last non-empty line of a run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no result line")
    return json.loads(lines[-1])


def directions(benchmark_json: str) -> Dict[str, str]:
    """Metric name -> "higher" or "lower", for the end-to-end metrics."""
    spec = json.loads(benchmark_json)
    return {m["name"]: m["better"] for m in spec.get("end_to_end", [])}


def quartiles(values: Sequence[float]):
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(base: Sequence[Result], change: Sequence[Result], better: Dict[str, str]) -> List[str]:
    """The summary lines of paired results, base[i] against change[i]."""
    assert len(base) == len(change) and base
    n = len(base)
    lines = [f"{n} pairs; median [quartiles], base -> change"]
    names = [name for name in base[0]["metrics"] if all(name in r["metrics"] for r in (*base, *change))]
    for name in names:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bq, cq = quartiles(b), quartiles(c)
        unit = base[0]["metrics"][name].get("unit", "")
        rel = f"{(cq[1] - bq[1]) / bq[1]:+.1%}" if bq[1] else "n/a"
        way = better.get(name)
        if way is None:
            wins = "no direction"
        else:
            won = sum((y > x) if way == "higher" else (y < x) for x, y in zip(b, c))
            wins = f"change better in {won}/{n} ({way} is better)"
        lines.append(
            f"{name} [{unit}]: {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}] -> "
            f"{cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] ({rel}); {wins}"
        )
    for label, results in (("base", base), ("change", change)):
        failed = [r.get("failed", 0) for r in results]
        attempted = sum(r.get("attempted", 0) for r in results)
        lines.append(f"failed operations, {label}: {sum(failed)} of {attempted} (per run {failed})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--change", help="revision to compare (default: the working tree)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed + i")
    args = parser.parse_args(argv)
    repo = Path(__file__).resolve().parent.parent
    change = args.change or working_tree_commit(repo)
    results: Dict[str, List[Result]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as work:
        copies = {"base": Path(work) / "base", "change": Path(work) / "change"}
        for side, rev in (("base", args.base), ("change", change)):
            export(repo, rev, copies[side])
        better = directions((copies["base"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                results[side].append(run_once(copies[side], args.workload, seed))
            row = ", ".join(
                f"{side} {results[side][-1]['metrics'].get('ops_per_ref_s', {}).get('value', 0):.4g}"
                for side in order
            )
            print(f"pair {i + 1}/{args.pairs} seed {seed}: ops_per_ref_s {row}", flush=True)
    print(f"workload {args.workload}: base {args.base}, change {change}")
    for line in summarise(results["base"], results["change"], better):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
