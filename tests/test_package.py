"""The package is plain Python modules, each one in use, each keeping
its private names to itself and importing only the layers below it.

A source file of another kind (an extension's ``.pyx``, a build's
``.c`` or ``.so``) or a module that no other module imports is code
that no import path runs, so it would drift from the rest unseen.  A
module that reaches for another's ``_``-prefixed name depends on what
that module is free to change, so what two modules share has a public
name.  A module that imports one above it carries code that belongs
there."""

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


# the package modules each module imports, ``TYPE_CHECKING`` and
# function-level imports included: errors < core < reports < assign,
# poly, puiseux, transfer < matrix < cli, __init__.  The max-plus
# (assign), polynomial (poly, puiseux) and symbolic (transfer) layers
# see only the scalars and the dataclass results; matrix adapts ELT
# matrices to the max-plus layer and reads their polynomials.
LAYERS = {
    "errors": set(),
    "core": {"errors"},
    "reports": {"core"},
    "assign": {"core", "errors", "reports"},
    "poly": {"core", "errors"},
    "puiseux": {"core", "errors"},
    "transfer": {"core", "errors", "reports"},
    "matrix": {"core", "errors", "assign", "poly", "reports"},
    "cli": {"core", "errors", "assign", "poly", "puiseux", "transfer", "matrix"},
    "__init__": {"core", "errors", "poly", "puiseux", "transfer", "matrix"},
    "__main__": {"cli"},
}


def test_each_module_imports_only_the_layers_below_it():
    imports = {p.stem: imported_modules(p) for p in PACKAGE.glob("*.py")}
    assert imports == LAYERS


def test_no_module_takes_another_modules_private_names():
    borrowed = {p.stem: borrowed_private_names(p) for p in PACKAGE.glob("*.py")}
    assert {name: names for name, names in borrowed.items() if names} == {}


def one_by_one_walk_names(path):
    """Uses of ``itertools.permutations`` and definitions or uses of a
    ``_parity`` in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            found += [f"itertools.{a.name}" for a in node.names if a.name == "permutations"]
        elif isinstance(node, ast.Attribute) and node.attr == "permutations":
            found.append(f"{getattr(node.value, 'id', '?')}.permutations")
        elif isinstance(node, (ast.FunctionDef, ast.Name, ast.alias)):
            name = getattr(node, "name", None) or getattr(node, "id", None)
            if name == "_parity":
                found.append(name)
    return found


def test_the_permutations_are_walked_one_by_one_only_in_the_tests():
    """The library walks the permutations depth-first, carrying the
    parity; the walk that takes each permutation on its own and counts
    its inversions is the tests' oracle (``tests/oracles.py``)."""
    found = {p.stem: one_by_one_walk_names(p) for p in PACKAGE.glob("*.py")}
    assert {name: names for name, names in found.items() if names} == {}


def names_in(path):
    """Every name one module defines, imports, reads or reads as an
    attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_only_matrix_walks_the_permutations():
    """``matrix.det_pair`` is the one caller of the permutation walk;
    the symbolic identities take their determinants and cofactors from
    the column-subset expansion, so they do not drift back onto the n!
    walk."""
    naming = [p.stem for p in PACKAGE.glob("*.py") if "permutation_terms" in names_in(p)]
    assert sorted(set(naming) - {"matrix"}) == []


PER_VALUE_DRAWS = {"randrange", "randint", "choice"}


def per_value_draws(path):
    """Calls of ``randrange``, ``randint`` or ``choice`` in one module,
    as a method or a bare name, and imports of them from ``random``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PER_VALUE_DRAWS:
                found.append(f"line {node.lineno}: {name}")
        elif isinstance(node, ast.ImportFrom) and node.module == "random":
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name in PER_VALUE_DRAWS]
    return found


def test_the_library_draws_only_through_getrandbits():
    """``transfer``'s models draw a trial's values from ``getrandbits``
    with the rejection loops of ``random``.  The value-by-value draw
    through the stdlib methods is the tests' reference
    (``oracles.reference_draw``), so it does not come back beside the
    library's."""
    found = {p.stem: per_value_draws(p) for p in PACKAGE.glob("*.py")}
    assert {name: calls for name, calls in found.items() if calls} == {}


# the result types that ``perfbench/tests`` hands to
# ``dataclasses.replace``; every other result type is a ``core.Record``
DATACLASSES = {
    "reports.EtrReport",
    "reports.HungarianResult",
    "reports.QuasiIdentityReport",
    "reports.QuasiInverseResult",
    "reports.SuiteRecord",
}


def dataclass_names(path):
    """The classes of one module decorated with ``dataclass``, bare,
    called or as ``dataclasses.dataclass``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if (getattr(target, "id", None) or getattr(target, "attr", None)) == "dataclass":
                    found.append(f"{path.stem}.{node.name}")
    return found


def test_only_the_results_the_benchmark_replaces_are_dataclasses():
    found = {name for p in PACKAGE.glob("*.py") for name in dataclass_names(p)}
    assert found == DATACLASSES, (
        "a @dataclass compiles six methods when its module loads, about 0.66 ms per "
        "class, and its module imports dataclasses and inspect; derive a new result "
        "type from core.Record unless perfbench/tests hands it to dataclasses.replace, "
        "and then define it in reports, which only the functions that build one load"
    )


def imports_dataclasses(path):
    """Whether one module imports ``dataclasses``, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.partition(".")[0] == "dataclasses":
                return True
        elif isinstance(node, ast.Import):
            if any(alias.name.partition(".")[0] == "dataclasses" for alias in node.names):
                return True
    return False


def test_only_reports_imports_dataclasses():
    """``dataclasses`` imports ``inspect`` and with it ``ast``, ``dis``
    and ``tokenize``: about 10 ms of a command-line process's start-up.
    Only ``reports`` imports it, and only the functions that build one
    of its results load ``reports``."""
    importing = [p.stem for p in PACKAGE.glob("*.py") if imports_dataclasses(p)]
    assert importing == ["reports"]


# the grid layout's header keywords and the messages of its shape checks
LAYOUT_TEXTS = (
    "rows:", "cols:",
    "empty matrix text",
    "matrix rows have inconsistent lengths",
    "matrix must have at least one row and one column",
    "matrix rows must all have the same length",
)


def string_constants(path):
    """The string literals of one module, f-strings' literal parts and
    docstrings included."""
    return [node.value for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)]


def test_only_core_knows_the_matrix_layout():
    """ELT and tropical matrix files share one reader, one writer and one
    shape check in ``core``, so the layout cannot drift between them."""
    found = {
        p.stem: [text for text in LAYOUT_TEXTS if any(text in s for s in string_constants(p))]
        for p in PACKAGE.glob("*.py")
    }
    assert {name: texts for name, texts in found.items() if texts} == {"core": list(LAYOUT_TEXTS)}
