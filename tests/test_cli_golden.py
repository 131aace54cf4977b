"""Command line transcripts pinned byte for byte.

``golden/cli_fixtures.json`` holds the exit code, stdout and stderr of
``eltlab`` over a fixed grid of command lines: every file-reading
subcommand on every file in ``fixtures/`` and on a missing one, plain
and ``--machine``, parse and domain errors included; ``--layer-ring Z``
for the subcommands that take it; ``nilpotent --bound 1`` and
``--bound 7``; ``verify all --seed 3 --trials 5``; the help text of
the program and of every subcommand; and five usage errors, with
``COLUMNS=80`` so argparse wraps them the same way in any terminal.
It was written by an earlier version of the library, so a rewrite of
any algorithm or of the parser behind the CLI must reproduce those
transcripts exactly.  Paths are relative to the repository root, where
the commands run.

To compare the CLI as it stands with the file, under any interpreter
and without pytest, and to rewrite the file::

    PYTHONPATH=src python tests/test_cli_golden.py
    PYTHONPATH=src python tests/test_cli_golden.py --write

The bare run exits 1 and names each command line whose transcript
differs.
"""

import argparse
import contextlib
import io
import itertools
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
USAGE_ERRORS = (
    ["bogus"], ["det"], ["verify", "--trials", "0", "det-mult"], ["verify", "nosuch"],
    ["nilpotent", "--bound", "-3", "x"],
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
    yield []
    yield ["--help"]
    for command in (*SUBCOMMANDS, "verify"):
        yield [command, "--help"]
    yield from USAGE_ERRORS


def transcript(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def transcripts():
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    try:
        return [transcript(argv) for argv in command_lines()]
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def differences(got, golden):
    """The command lines, as typed, whose transcripts differ from the
    golden ones, in the grid's order."""
    return [
        " ".join(["eltlab", *(t or g)["argv"]])
        for t, g in itertools.zip_longest(got, golden)
        if t != g
    ]


def test_cli_transcripts_match_the_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert differences(transcripts(), golden) == []


def write() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(transcripts(), indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Compare the CLI with the golden transcripts.")
    parser.add_argument("--write", action="store_true", help="rewrite the golden file instead")
    if parser.parse_args().write:
        write()
        sys.exit(0)
    differing = differences(transcripts(), json.loads(GOLDEN.read_text(encoding="utf-8")))
    for line in differing:
        print(f"differs: {line}")
    print(f"{len(differing)} transcripts differ" if differing else "all transcripts match")
    sys.exit(1 if differing else 0)
