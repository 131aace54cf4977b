"""The package is plain Python modules, each one in use, each keeping
its private names to itself.

A source file of another kind (an extension's ``.pyx``, a build's
``.c`` or ``.so``) or a module that no other module imports is code
that no import path runs, so it would drift from the rest unseen.  A
module that reaches for another's ``_``-prefixed name depends on what
that module is free to change, so what two modules share has a public
name."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "eltlab"


def imported_modules(path):
    """Names of the package modules that one module imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import a, b
                names.update(alias.name for alias in node.names)
            elif node.level == 1 or (node.module or "").startswith("eltlab."):
                names.add(node.module.rpartition(".")[2])
        elif isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[2] for alias in node.names
                         if alias.name.startswith("eltlab."))
    return names


def borrowed_private_names(path):
    """The ``_``-prefixed names one module takes from other package
    modules: imported by name, or read as an attribute of a package
    module it imported."""
    tree = ast.parse(path.read_text(), str(path))
    modules = set()  # local names bound to package modules
    borrowed = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level == 1 or (node.module or "").startswith("eltlab")
        ):
            package = node.module in (None, "eltlab")
            for alias in node.names:
                if alias.name.startswith("_"):
                    borrowed.append(f"{node.module or ''}.{alias.name}")
                elif package:
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
        ):
            borrowed.append(f"{node.value.id}.{node.attr}")
    return borrowed


def test_the_package_holds_only_python_modules():
    entries = [p for p in PACKAGE.iterdir() if p.name != "__pycache__"]
    assert sorted(p.name for p in entries if not (p.is_file() and p.suffix == ".py")) == []


def test_every_module_is_imported_by_another():
    modules = {p.stem: p for p in PACKAGE.glob("*.py")}
    unused = set(modules) - {"__init__", "__main__"}
    for name, path in modules.items():
        unused -= imported_modules(path) - {name}
    assert sorted(unused) == []


def test_no_module_takes_another_modules_private_names():
    borrowed = {p.stem: borrowed_private_names(p) for p in PACKAGE.glob("*.py")}
    assert {name: names for name, names in borrowed.items() if names} == {}
