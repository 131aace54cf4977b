"""A fresh import of the library frees the copy it replaces.

Anything process-wide that holds a class of the library (typing's
cache of subscripted aliases, say) keeps that copy's modules alive, so
a program that imports eltlab afresh would grow by a copy each time."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# imports eltlab, runs a suite, purges every eltlab module, imports and
# runs again, and prints which classes of the first copy are still alive
SCRIPT = """
import gc, importlib, sys, weakref

def load():
    for key in [k for k in sys.modules if k == "eltlab" or k.startswith("eltlab.")]:
        del sys.modules[key]
    lib = {name: importlib.import_module(f"eltlab.{name}") for name in (
        "cli", "core", "matrix", "assign", "poly", "puiseux", "transfer", "errors")}
    lib["transfer"].run_suite(trials=2, seed=1)
    return [
        weakref.ref(lib["core"].ELTScalar),
        weakref.ref(lib["matrix"].ELTMatrix),
        weakref.ref(lib["transfer"].PolyExpression),
    ]

first = load()
load()
gc.collect()
print(sum(ref() is not None for ref in first))
"""


def test_a_fresh_import_frees_the_first_copy():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
