"""Command line transcripts pinned byte for byte.

``golden/cli_fixtures.json`` holds the exit code, stdout and stderr of
``eltlab`` over a fixed grid of command lines: every file-reading
subcommand on every file in ``fixtures/`` and on a missing one, plain
and ``--machine``, parse and domain errors included; ``--layer-ring Z``
for the subcommands that take it; ``nilpotent --bound 1`` and
``--bound 7``; and ``verify all --seed 3 --trials 5``.  It was written
by an earlier version of the library, so a rewrite of any algorithm
behind the CLI must reproduce those transcripts exactly.  Paths are
relative to the repository root, where the commands run.

To write the file from the CLI as it stands::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from eltlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_fixtures.json"

PATHS = (*sorted(f"fixtures/{p.name}" for p in (ROOT / "fixtures").iterdir()), "fixtures/missing.mat")
SUBCOMMANDS = (
    "det", "adj", "qinv", "charpoly", "roots", "eig-verify", "trace", "etr",
    "nilpotent", "cycles", "hungarian", "eltrop",
)


def eigen_options(path):
    """``--value 0^[1]`` and a ``0^[1]`` vector with one entry per line of
    the file, so a square matrix gets a vector of its order."""
    file = ROOT / path
    rows = [ln for ln in file.read_text().splitlines() if ln.strip()] if file.exists() else [""]
    return ["--value", "0^[1]", "--vector", ", ".join(["0^[1]"] * len(rows))]


def command_lines():
    for command in SUBCOMMANDS:
        for path in PATHS:
            extra = eigen_options(path) if command == "eig-verify" else []
            variants = [[]]
            if command in ("qinv", "roots"):
                variants.append(["--layer-ring", "Z"])
            if command == "nilpotent":
                variants += [["--bound", "1"], ["--bound", "7"]]
            for variant in variants:
                for machine in ([], ["--machine"]):
                    yield [command, path, *extra, *variant, *machine]
    for machine in ([], ["--machine"]):
        yield ["verify", "all", "--seed", "3", "--trials", "5", *machine]


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def transcripts():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return [transcript(argv) for argv in command_lines()]
    finally:
        os.chdir(cwd)


def test_cli_transcripts_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = transcripts()
    assert [t["argv"] for t in got] == [g["argv"] for g in golden]
    for t, g in zip(got, golden):
        assert t == g, t["argv"]


def write() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(transcripts(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    write()
    sys.exit(0)
