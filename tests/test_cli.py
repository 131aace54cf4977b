"""End to end command line behaviour: output text, exit codes, determinism."""

import argparse
import dataclasses
import os
import pathlib
import resource
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eltlab import transfer
from eltlab.assign import hungarian_scaling, parse_tropical_matrix
from eltlab.cli import main
from eltlab.matrix import (
    CYCLES_MAX,
    DET_MAX_ORDER,
    EXPANSION_MAX_ORDER,
    NILPOTENT_MAX_BOUND,
    NILPOTENT_MAX_WORK,
    ELTMatrix,
    adjoint,
    essential_trace,
    quasi_inverse,
)
from eltlab.poly import ROOT_POWER_MAX_BITS, ROOTS_MAX_WORK
from eltlab.reports import SuiteRecord

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def fixture(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_determinant(capsys):
    code, out, _ = run(capsys, "det", fixture("ata.mat"))
    assert (code, out) == (0, "10^[0]\n")
    code, out, _ = run(capsys, "det", fixture("aat.mat"), "--machine")
    assert (code, out) == (0, "det: 8^[1]\n")


def test_adjoint(capsys):
    code, out, _ = run(capsys, "adj", fixture("a.mat"))
    assert code == 0
    assert out == "3^[1], 1^[-1]\n2^[-1], 1^[1]\n"
    code, out, _ = run(capsys, "adj", fixture("a.mat"), "--machine")
    assert out == "rows: 2\ncols: 2\nrow0: 3^[1], 1^[-1]\nrow1: 2^[-1], 1^[1]\n"


def test_quasi_inverse(capsys, tmp_path):
    path = tmp_path / "diag.mat"
    path.write_text("3^[2], -inf\n-inf, -1^[1]\n")
    code, out, _ = run(capsys, "qinv", str(path))
    assert (code, out) == (0, "-3^[1/2], -inf\n-inf, 1^[1]\n")
    code, _, err = run(capsys, "qinv", str(path), "--layer-ring", "Z")
    assert code == 2
    assert "SingularDeterminant" in err


def test_characteristic_polynomial(capsys):
    code, out, _ = run(capsys, "charpoly", fixture("sym.mat"))
    assert (code, out) == (0, "0^[1]*L^2 + 3^[-1]*L + 4^[0]\n")


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", fixture("char.poly"), "--machine")
    assert code == 0
    assert out == (
        "corner 1: layers {0}\n"
        "corner 3: layers {0, 1}\n"
        "interval (-inf, 1): layers all\n"
        "interval (1, 3): layers {0}\n"
        "interval (3, +inf): layers {0}\n"
        "neg-inf: root\n"
    )


def test_eigen_verification(capsys):
    code, out, _ = run(
        capsys, "eig-verify", fixture("sym.mat"), "--value", "3^[1]", "--vector", "0^[1], 1^[1]"
    )
    assert (code, out) == (0, "strict\n")
    code, out, _ = run(
        capsys, "eig-verify", fixture("sym.mat"), "--value", "9^[1]", "--vector", "0^[1], 1^[1]"
    )
    assert (code, out) == (0, "no\n")
    code, _, err = run(
        capsys, "eig-verify", fixture("sym.mat"), "--value", "3^[1]", "--vector", "0^[0], 1^[0]"
    )
    assert code == 2 and "ZeroVector" in err


# stdout of "etr --machine" for every fixture that holds a scalar matrix
ETR_MACHINE = {
    "a.mat": "etr: 3^[1]\nstatus: essential\ntrace: 3^[1]\nmu: 1\n",
    "aat.mat": "etr: 6^[1]\nstatus: essential\ntrace: 6^[1]\nmu: 1\n",
    "apb.mat": "etr: 0^[0]\nstatus: quasi-essential\ntrace: 0^[4]\nmu: 1\n",
    "ata.mat": "etr: 6^[1]\nstatus: essential\ntrace: 6^[1]\nmu: 1\n",
    "mixed.mat": "etr: 3/2^[-1/3]\nstatus: essential\ntrace: 3/2^[-1/3]\nmu: 1\n",
    "nilp.mat": "etr: 1/2^[0]\nstatus: inessential\ntrace: 0^[2]\nmu: 2\n",
    "sym.mat": "etr: 3^[1]\nstatus: essential\ntrace: 3^[1]\nmu: 1\n",
    "tri.mat": "etr: 3^[1]\nstatus: essential\ntrace: 3^[1]\nmu: 1\n",
}


def test_trace_and_essential_trace(capsys):
    code, out, _ = run(capsys, "trace", fixture("nilp.mat"))
    assert (code, out) == (0, "0^[2]\n")
    assert sorted(ETR_MACHINE) == sorted(
        p.name for p in FIXTURES.glob("*.mat") if p.name != "trop.mat"
    )
    for name, expected in ETR_MACHINE.items():
        code, out, _ = run(capsys, "etr", fixture(name), "--machine")
        assert (code, out) == (0, expected), name


def test_nilpotence(capsys):
    code, out, _ = run(capsys, "nilpotent", fixture("nilp.mat"), "--machine")
    assert (code, out) == (0, "nilpotent: yes\nindex: 2\n")


def test_cycles(capsys):
    code, out, _ = run(capsys, "cycles", fixture("tri.mat"))
    assert code == 0
    assert out == (
        "cycle 0: weight 1^[1] mean 1\n"
        "cycle 0->1->2: weight 3^[0] mean 1\n"
        "cycle 1: weight 3^[1] mean 3\n"
        "cycle 2: weight 2^[1] mean 2\n"
    )


def test_cycles_of_a_long_cycle(capsys, tmp_path):
    n = 1100
    path = tmp_path / "ring.mat"
    path.write_text(
        "\n".join(
            ", ".join("1^[1]" if j == (i + 1) % n else "-inf" for j in range(n))
            for i in range(n)
        )
    )
    code, out, _ = run(capsys, "cycles", str(path))
    assert code == 0
    route = "->".join(str(v) for v in range(n))
    assert out == f"cycle {route}: weight {n}^[1] mean 1\n"


def test_assignment_scaling(capsys):
    code, out, _ = run(capsys, "hungarian", fixture("trop.mat"))
    assert code == 0
    assert out == "alphas: 0, -1\nsigma: 0->1, 1->0\nvalue: 10\n"
    # layered matrices are detected and projected onto their tangible parts
    code, out, _ = run(capsys, "hungarian", fixture("apb.mat"))
    assert code == 0
    assert out.endswith("value: 0\n")


def test_assignment_scaling_reads_the_structured_layout(capsys, tmp_path):
    _, plain, _ = run(capsys, "hungarian", fixture("trop.mat"), "--machine")
    path = tmp_path / "trop.mat"
    for text in ("rows: 2\ncols: 2\n0, 9\n1, 10\n", "rows: 2\ncols: 2\nrow0: 0, 9\nrow1: 1, 10\n"):
        path.write_text(text)
        assert run(capsys, "hungarian", str(path), "--machine") == (0, plain, "")


def test_mixed_denominator_outputs_are_pinned(capsys):
    # denominators 2, 3 and 7, tangible ties and -inf entries; two
    # permutations reach the assignment value, so sigma and the duals
    # pin the Hungarian tie-break as well
    code, out, _ = run(capsys, "hungarian", fixture("mixed.mat"), "--machine")
    assert code == 0
    assert out == (
        "alphas: -1/2, 13/42, -4/3, -4/3\n"
        "sigma: 0->1, 1->2, 2->3, 3->0\n"
        "value: 47/14\n"
        "u: 1/2, -13/42, 4/3, 4/3\n"
        "v: 1/6, 0, 1/6, 1/6\n"
    )
    code, out, _ = run(capsys, "qinv", fixture("mixed.mat"))
    assert code == 0
    assert out == (
        "-4/3^[3], -11/21^[54/17], -13/6^[-9/17], -3/2^[1/3]\n"
        "-1/2^[-3], 13/42^[-54/17], -4/3^[9/17], -4/3^[-1/3]\n"
        "-4/3^[9/34], 1/7^[-18/17], -3/2^[3/17], -13/6^[1/34]\n"
        "-4/3^[9/17], 1/7^[-2/17], -3/2^[6/17], -13/6^[1/17]\n"
    )
    code, out, _ = run(capsys, "nilpotent", fixture("mixed.mat"))
    assert (code, out) == (0, "no\n")


def test_leading_term(capsys):
    code, out, _ = run(capsys, "eltrop", fixture("lead.ser"))
    assert (code, out) == (0, "3/2^[2]\n")


def test_verify_and_seed_precedence(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--trials", "2", "--seed", "13", "det-mult")
    assert code == 0
    assert out == "PASS det-mult-n2 13\nPASS det-mult-n3 13\n"
    monkeypatch.setenv("ELTLAB_SEED", "7")
    code, out, _ = run(capsys, "verify", "--trials", "2", "det-mult")
    assert out == "PASS det-mult-n2 7\nPASS det-mult-n3 7\n"
    code, out, _ = run(capsys, "verify", "--trials", "2", "--seed", "13", "det-mult")
    assert out == "PASS det-mult-n2 13\nPASS det-mult-n3 13\n"


@pytest.mark.parametrize("text", ["١٠", "1_0", "+7", " 7", "7\n"])
def test_integer_options_take_ascii_digits_only(capsys, text):
    # int() takes all of these; the file readers take none of them
    code, out, err = run(capsys, "nilpotent", fixture("nilp.mat"), "--bound", text)
    assert (code, out) == (1, "")
    assert err.endswith(f"eltlab nilpotent: error: argument --bound: not an integer: {text!r}\n")
    code, out, err = run(capsys, "verify", "--trials", "1", "--seed", text, "det-mult")
    assert (code, out) == (1, "")
    assert err.endswith(f"eltlab verify: error: argument --seed: not an integer: {text!r}\n")


@pytest.mark.parametrize("text", ["٣", "1_0", "+7"])
def test_seed_variable_takes_ascii_digits_only(capsys, monkeypatch, text):
    monkeypatch.setenv("ELTLAB_SEED", text)
    code, out, err = run(capsys, "verify", "--trials", "1", "det-mult")
    assert (code, out) == (1, "")
    assert err == f"eltlab: parse error: ELTLAB_SEED is not an integer: {text!r}\n"


def test_integer_options_keep_leading_zeros_and_refuse_non_positive(capsys, monkeypatch):
    assert run(capsys, "nilpotent", fixture("nilp.mat"), "--bound", "07") == (
        run(capsys, "nilpotent", fixture("nilp.mat"), "--bound", "7"))
    monkeypatch.setenv("ELTLAB_SEED", "07")
    code, out, _ = run(capsys, "verify", "--trials", "1", "det-mult")
    assert (code, out) == (0, "PASS det-mult-n2 7\nPASS det-mult-n3 7\n")
    monkeypatch.setenv("ELTLAB_SEED", "-3")
    assert run(capsys, "verify", "--trials", "1", "det-mult") == (
        1, "", "eltlab: parse error: ELTLAB_SEED must be positive\n")


def test_verify_runs_the_full_catalogue(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "2", "--seed", "5", "all")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines)
    assert lines[-1] == "PASS mutation-control 5"


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify", "--trials", "3", "--seed", "42", "all")
    second = run(capsys, "verify", "--trials", "3", "--seed", "42", "all")
    assert first == second
    third = run(capsys, "roots", fixture("char.poly"))
    fourth = run(capsys, "roots", fixture("char.poly"))
    assert third == fourth


def test_verify_reports_failures_with_exit_three(capsys, monkeypatch):
    def broken(names, trials, seed):
        return [SuiteRecord(name="det-mult-n2", ok=False, seed=seed, reports=())]

    monkeypatch.setattr(transfer, "run_suite", broken)
    code, out, _ = run(capsys, "verify", "--trials", "2", "--seed", "1", "det-mult")
    assert code == 3
    assert out == "FAIL det-mult-n2 1\n"


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "bogus")[0] == 1
    assert run(capsys, "det", "/nonexistent/x.mat")[0] == 1
    assert run(capsys, "verify", "--trials", "0", "det-mult")[0] == 1
    assert run(capsys, "verify", "--trials", "2", "nosuch")[0] == 1


def test_malformed_input_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.mat"
    bad.write_text("rows: 2\ncols: 2\n1^[1], 2^[1]\n")
    code, _, err = run(capsys, "det", str(bad))
    assert code == 1 and "parse error" in err
    long = "1" * 5000  # past the 4,300 digits Python's int() converts
    for command, text in (
        # non-ASCII digits, which str.isdigit accepts
        ("det", "rows: ²\ncols: 1\n1^[0]\n"),
        ("roots", "0^[1]*L^²\n"),
        ("roots", "0^[1]*L^١\n"),
        ("det", f"{long}^[0]\n"),
        ("det", f"1/{long}^[0]\n"),
        ("det", f"rows: {long}\ncols: 1\n0^[1]\n"),
        ("roots", f"0^[1]*L^{long}\n"),
        ("eltrop", f"{long}*t^(1)\n"),
        ("hungarian", f"{long}, -inf\n-inf, 0\n"),
    ):
        bad.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, command, str(bad))
        assert (code, out) == (1, "") and "parse error" in err


# every subcommand that reads a file, with the options it requires
FILE_COMMANDS = {
    "det": (),
    "adj": (),
    "qinv": (),
    "charpoly": (),
    "roots": (),
    "eig-verify": ("--value", "0^[1]", "--vector", "0^[1], 0^[1]"),
    "trace": (),
    "etr": (),
    "nilpotent": (),
    "cycles": (),
    "hungarian": (),
    "eltrop": (),
}


def test_file_commands_are_every_subcommand_but_verify():
    from eltlab.cli import _build_parser

    (sub,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(FILE_COMMANDS) == set(sub.choices) - {"verify"}


def test_usage_lists_every_subcommand_as_python_3_10_to_3_12_wrap_it():
    """The top-level usage is fixed text, so Python 3.13, which would
    keep it on one line, prints what 3.10-3.12 print; its subcommands
    are the parser's, in order, and each subcommand's prog is
    unaffected."""
    from eltlab.cli import _build_parser

    parser = _build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    names = ",".join(sub.choices)
    assert parser.format_usage() == (
        f"usage: eltlab [-h]\n{'':14}{{{names}}}\n{'':14}...\n"
    )
    assert list(sub.choices) == [*FILE_COMMANDS, "verify"]
    assert [p.prog for p in sub.choices.values()] == [f"eltlab {name}" for name in sub.choices]


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_non_utf8_input_is_a_parse_error(capsys, tmp_path, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0^[1], \xff\xfe1^[1]\n")
    code, out, err = run(capsys, command, str(bad), *FILE_COMMANDS[command])
    assert (code, out) == (1, "")
    assert err == "eltlab: parse error: not UTF-8 text: invalid start byte at byte 7\n"


def test_line_ends_read_as_in_text_mode(capsys, tmp_path):
    text = (FIXTURES / "sym.mat").read_text()
    path = tmp_path / "crlf.mat"
    for newline in ("\r\n", "\r"):
        path.write_bytes(text.replace("\n", newline).encode())
        assert run(capsys, "charpoly", str(path)) == run(capsys, "charpoly", fixture("sym.mat"))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(sorted(FILE_COMMANDS)), st.binary(max_size=40))
def test_arbitrary_bytes_never_end_in_a_traceback(capsys, tmp_path, command, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    code, _, err = run(capsys, command, str(path), *FILE_COMMANDS[command])
    # main returns instead of raising, and a failure is one line of
    # its own, not a traceback
    assert code in (0, 1, 2)
    assert (err == "") if code == 0 else (err.startswith("eltlab: ") and err.count("\n") == 1)


def test_numbers_too_long_to_print_are_a_domain_error(capsys, tmp_path):
    layer = "1" * 3000  # parses; a product of two such layers has 6,000 digits
    path = tmp_path / "big.mat"
    for command, n in (("det", 2), ("adj", 3)):
        path.write_text("\n".join(
            ", ".join(f"0^[{layer}]" if i == j else "-inf" for j in range(n)) for i in range(n)
        ) + "\n")
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == "eltlab: result has a number of more than 4300 digits, the most Python prints\n"


def test_machine_matrix_output_reads_back(capsys):
    for path in sorted(FIXTURES.glob("*.mat")):
        if path.name == "trop.mat":
            continue
        code, out, _ = run(capsys, "adj", str(path), "--machine")
        assert code == 0
        assert ELTMatrix.from_text(out) == adjoint(ELTMatrix.from_text(path.read_text()))


def test_fixture_files_round_trip():
    from eltlab.matrix import ELTMatrix
    from eltlab.poly import format_polynomial, parse_polynomial
    from eltlab.puiseux import format_series, parse_series
    from eltlab.assign import format_tropical_matrix, parse_tropical_matrix

    for name in ("a.mat", "aat.mat", "apb.mat", "ata.mat", "mixed.mat", "nilp.mat", "sym.mat", "tri.mat"):
        text = (FIXTURES / name).read_text()
        assert ELTMatrix.from_text(text).to_text() + "\n" == text
    poly_text = (FIXTURES / "char.poly").read_text()
    assert format_polynomial(parse_polynomial(poly_text)) + "\n" == poly_text
    series_text = (FIXTURES / "lead.ser").read_text()
    assert format_series(parse_series(series_text)) + "\n" == series_text
    trop_text = (FIXTURES / "trop.mat").read_text()
    assert format_tropical_matrix(parse_tropical_matrix(trop_text)) + "\n" == trop_text


def run_process(*argv, timeout):
    """One ``python -m eltlab`` process on the sources of this checkout."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "eltlab", *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def run_within_cpu_seconds(limit, *argv):
    """``run_process`` held to ``limit`` seconds of the child's CPU time,
    which a busy host does not inflate as it does wall-clock time; the
    60 s wall-clock timeout only stops a hang."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = run_process(*argv, timeout=60)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    used = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    assert used < limit, f"{argv[0]} took {used:.2f} s of CPU time, over {limit} s"
    return proc


def modules_imported(*argv):
    """The exit code of one ``python -X importtime -m eltlab`` process
    and the modules it imported, read off its import-time log."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "eltlab", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=60,
    )
    names = {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    return proc.returncode, names


# children that build none of the results in eltlab.reports, with their
# exit codes: the last two are a malformed file and a singular matrix
CHILDREN_WITHOUT_REPORTS = [
    (("det", "a.mat"), 0),
    (("adj", "a.mat"), 0),
    (("charpoly", "a.mat"), 0),
    (("trace", "a.mat"), 0),
    (("cycles", "tri.mat"), 0),
    (("nilpotent", "nilp.mat"), 0),
    (("eig-verify", "sym.mat", "--value", "3^[1]", "--vector", "0^[1], 1^[1]"), 0),
    (("roots", "char.poly"), 0),
    (("eltrop", "lead.ser"), 0),
    (("det", "char.poly"), 1),
    (("qinv", "sym.mat"), 2),
]


def test_only_the_commands_that_build_a_dataclass_result_import_dataclasses():
    """``dataclasses`` and the ``inspect`` it imports cost a child about
    10 ms; only ``etr``, ``qinv`` and ``hungarian`` build one of the
    frozen dataclasses that the benchmark's tests hand to
    ``dataclasses.replace``.  It takes a child process, because pytest
    imports both modules itself."""
    heavy = {"dataclasses", "inspect", "eltlab.reports"}
    for (command, name, *options), code in CHILDREN_WITHOUT_REPORTS:
        returncode, names = modules_imported(command, fixture(name), *options)
        assert (returncode, sorted(names & heavy)) == (code, []), (command, name)
    a = ELTMatrix.from_text((FIXTURES / "a.mat").read_text())
    trop = parse_tropical_matrix((FIXTURES / "trop.mat").read_text())
    for command, name, result in [
        ("etr", "a.mat", essential_trace(a)),
        ("qinv", "a.mat", quasi_inverse(a)),
        ("hungarian", "trop.mat", hungarian_scaling(trop)),
    ]:
        assert dataclasses.is_dataclass(result), command
        returncode, names = modules_imported(command, fixture(name))
        assert (returncode, sorted(heavy - names)) == (0, []), command


def test_roots_of_a_long_concave_polynomial_are_fast(tmp_path):
    # every point (d, -d^2) is a hull vertex: 4,001 terms, 4,000 corners
    n = 4000
    path = tmp_path / "concave.poly"
    path.write_text(
        " + ".join(f"{-d * d}^[1]*L^{d}" for d in range(n, 1, -1)) + " + -1^[1]*L + 0^[1]\n"
    )
    proc = run_process("roots", str(path), timeout=30)
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("corner ") for line in lines) == n
    assert lines[0] == "corner 1: layers {-1}"
    assert lines[n - 1] == f"corner {2 * n - 1}: layers {{-1, 0}}"
    assert lines[-1] == "neg-inf: not-a-root"


def test_nilpotent_on_a_32x32_matrix_is_fast(tmp_path):
    n = 32
    path = tmp_path / "ones.mat"
    path.write_text("\n".join(", ".join(["0^[1]"] * n) for _ in range(n)) + "\n")
    proc = run_process("nilpotent", str(path), timeout=8)
    assert (proc.returncode, proc.stdout) == (0, "no\n")


def test_a_huge_nilpotent_bound_stops_at_the_work_budget(capsys, tmp_path):
    # the layers of A^m are 2^(m-1) here, so the squares up to 2^28 take 6 s
    path = tmp_path / "ones.mat"
    path.write_text("0^[1], 0^[1]\n0^[1], 0^[1]\n")
    code, out, _ = run(capsys, "nilpotent", str(path), "--bound", str(NILPOTENT_MAX_BOUND))
    assert (code, out) == (0, "no\n")
    bound = 10**18
    proc = run_process("nilpotent", str(path), "--bound", str(bound), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"eltlab: WorkBudgetExceeded: nilpotency up to power {bound}: "
        f"the search is limited to powers up to {NILPOTENT_MAX_BOUND}\n"
    )


def test_nilpotent_on_a_64x64_matrix_stops_at_the_work_budget(tmp_path):
    # the squares up to A^4096 alone take 7 s: n^3 times their layer bits
    # sum to 1.3e10
    n = 64
    path = tmp_path / "ones.mat"
    path.write_text("\n".join(", ".join(["0^[1]"] * n) for _ in range(n)) + "\n")
    for bound, argv in ((n * n, ()), (16384, ("--bound", "16384"))):
        proc = run_process("nilpotent", str(path), *argv, timeout=15)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            f"eltlab: WorkBudgetExceeded: nilpotency of a 64x64 matrix up to power {bound}: "
            f"the search is limited to {NILPOTENT_MAX_WORK} for n^3 times the layer bits, "
            f"summed over its matrix products\n"
        )


def test_roots_with_a_huge_degree_gap_stop_at_the_work_budget(capsys, tmp_path):
    # the corner at 0 solves 2*x^d = 1; its candidate 1/2 takes d bits at degree d
    path = tmp_path / "gap.poly"
    path.write_text(f"0^[2]*L^{ROOT_POWER_MAX_BITS} + 0^[-1]\n")
    code, out, _ = run(capsys, "roots", str(path))
    assert (code, out) == (0, "corner 0: layers {}\ninterval (0, +inf): layers {0}\nneg-inf: not-a-root\n")
    degree = 10**12
    path.write_text(f"0^[2]*L^{degree} + 0^[-1]\n")
    proc = run_process("roots", str(path), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"eltlab: WorkBudgetExceeded: root candidate 1/2 at degree {degree}: "
        f"the search is limited to powers of {ROOT_POWER_MAX_BITS} bits\n"
    )


def test_roots_with_wide_candidate_powers_are_fast(tmp_path):
    # the corner solves 48*x^12 + 19381941*x^135923 = 0: 320 candidates,
    # each of powers up to 3.4e6 bits, took 23 s when each was evaluated
    # exactly; mod 2^61 - 1 none of the wide ones is 0
    path = tmp_path / "wide.poly"
    path.write_text("9^[48/53]*L^12 + 3^[365697]*L^135923\n")
    proc = run_within_cpu_seconds(2, "roots", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        "corner 6/135911: layers {0}\n"
        "interval (-inf, 6/135911): layers {0}\n"
        "interval (6/135911, +inf): layers {0}\n"
        "neg-inf: root\n"
    )


def test_roots_within_the_work_budget_are_not_refused(tmp_path):
    # 247110827 = 17*19*23*29*31*37 is coprime to 720720: all 240 x 64
    # divisor pairs are distinct candidates, 30,720 with their signs.  At
    # 200 steps a candidate they passed the budget, yet take about 30 ms
    path = tmp_path / "coprime.poly"
    path.write_text("0^[247110827]*L^2 + 0^[1]*L + 0^[720720]\n")
    proc = run_within_cpu_seconds(2, "roots", str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "corner 0: layers {}\ninterval (0, +inf): layers {0}\nneg-inf: not-a-root\n"


@pytest.mark.parametrize("text", [
    # a corner solving 10^14*x^2 + x + 10^14: 225 x 225 x 2 candidates, and
    # the leading coefficient's 10^7 trial divisions were redone for each of
    # the 225 numerators
    "0^[100000000000000]*L^2 + 0^[1]*L + 0^[100000000000000]",
    # x^2 + 10^14: trial division of 10^14 alone takes 10^7 steps
    "0^[1]*L^2 + 0^[100000000000000]",
], ids=["three-terms", "two-terms"])
def test_roots_with_huge_layers_stop_at_the_work_budget(tmp_path, text):
    path = tmp_path / "huge.poly"
    path.write_text(text + "\n")
    proc = run_process("roots", str(path), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "eltlab: WorkBudgetExceeded: roots of a layer equation of degree 2: "
        f"the search is limited to {ROOTS_MAX_WORK} steps of trial division "
        "and candidate evaluation\n"
    )


def dense_matrix_text(n, diagonal=0):
    """An n x n matrix of finite entries, tangibles 0..4 and layers 1..3,
    with diagonal added to the tangibles on the diagonal."""
    return "\n".join(
        ", ".join(
            f"{(i * j + i) % 5 + (diagonal if i == j else 0)}^[{1 + (i + 2 * j) % 3}]"
            for j in range(n)
        )
        for i in range(n)
    ) + "\n"


def check_spectral_command_on_a_dense_matrix(tmp_path, command, n):
    path = tmp_path / "dense.mat"
    path.write_text(dense_matrix_text(n))
    proc = run_within_cpu_seconds(10, command, str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count("\n") == 1
    if command == "charpoly":
        assert proc.stdout.startswith(f"0^[1]*L^{n} + ")


@pytest.mark.parametrize("command", ["charpoly", "etr"])
def test_spectral_commands_on_a_12x12_matrix_are_fast(tmp_path, command):
    check_spectral_command_on_a_dense_matrix(tmp_path, command, 12)


@pytest.mark.parametrize("command", ["charpoly", "etr"])
def test_spectral_commands_on_a_16x16_matrix_answer(tmp_path, command):
    # one int expansion at the top of the 2^n budget: about 3.4e5 keys
    # (a column set and a power of L) and 2.7e6 placements
    check_spectral_command_on_a_dense_matrix(tmp_path, command, 16)


def test_cycles_of_a_dense_9x9_matrix_are_fast(tmp_path):
    # the complete 9x9 digraph with loops has 125,673 simple cycles
    path = tmp_path / "dense.mat"
    path.write_text(dense_matrix_text(9))
    proc = run_process("cycles", str(path), timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.count("\n") == 125_673


def test_cycles_of_a_dense_12x12_matrix_stop_at_the_work_budget(tmp_path):
    # 119,481,296 simple cycles: listing them would take about 40 minutes
    path = tmp_path / "dense.mat"
    path.write_text(dense_matrix_text(12))
    proc = run_process("cycles", str(path), timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "eltlab: WorkBudgetExceeded: cycles of a 12x12 matrix: "
        f"the search is limited to {CYCLES_MAX} paths\n"
    )


def test_charpoly_work_budget_is_a_domain_error(capsys, tmp_path):
    n = EXPANSION_MAX_ORDER
    path = tmp_path / "dense.mat"
    path.write_text(dense_matrix_text(n))
    code, out, err = run(capsys, "charpoly", str(path))
    assert (code, err) == (0, "")
    assert out.startswith(f"0^[1]*L^{n} + ")
    path.write_text(dense_matrix_text(n + 1))
    for command in ("charpoly", "etr"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"eltlab: WorkBudgetExceeded: charpoly of a {n + 1}x{n + 1} matrix: "
            f"the 2^n expansion is limited to {n}x{n}\n"
        )


def identity_matrix_text(n):
    return "\n".join(
        ", ".join("0^[1]" if i == j else "-inf" for j in range(n)) for i in range(n)
    ) + "\n"


# (command, library function, largest order) of the n! permutation sums
PERMUTATION_SUMS = [
    ("det", "det", DET_MAX_ORDER),
]


@pytest.mark.parametrize("command, function, limit", PERMUTATION_SUMS)
def test_permutation_sums_stop_at_the_work_budget(capsys, tmp_path, command, function, limit):
    # at the limit the identity answers at once: every other permutation
    # meets -inf in its first rows
    path = tmp_path / "identity.mat"
    path.write_text(identity_matrix_text(limit))
    code, out, err = run(capsys, command, str(path))
    assert (code, err) == (0, "")
    assert out.count("\n") == 1
    path.write_text(identity_matrix_text(limit + 1))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"eltlab: WorkBudgetExceeded: {function} of a {limit + 1}x{limit + 1} matrix: "
        f"the permutation sum is limited to {limit}x{limit}\n"
    )


@pytest.mark.parametrize("command, function, limit", PERMUTATION_SUMS)
def test_permutation_sums_of_a_dense_11x11_matrix_stop_at_the_work_budget(tmp_path, command, function, limit):
    # det would sum 11! = 39,916,800 permutations
    path = tmp_path / "dense.mat"
    path.write_text(dense_matrix_text(11))
    proc = run_process(command, str(path), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"eltlab: WorkBudgetExceeded: {function} of a 11x11 matrix: "
        f"the permutation sum is limited to {limit}x{limit}\n"
    )


def check_subset_expansion_budget(capsys, tmp_path, command, function):
    limit = EXPANSION_MAX_ORDER
    path = tmp_path / "identity.mat"
    path.write_text(identity_matrix_text(limit))
    code, out, err = run(capsys, command, str(path))
    assert (code, err) == (0, "")
    assert out.count("\n") == limit
    path.write_text(identity_matrix_text(limit + 1))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err == (
        f"eltlab: WorkBudgetExceeded: {function} of a {limit + 1}x{limit + 1} matrix: "
        f"the 2^n expansion is limited to {limit}x{limit}\n"
    )


def test_adjoint_stops_at_the_work_budget(capsys, tmp_path):
    check_subset_expansion_budget(capsys, tmp_path, "adj", "adjoint")


def test_quasi_inverse_stops_at_the_work_budget(capsys, tmp_path):
    check_subset_expansion_budget(capsys, tmp_path, "qinv", "quasi_inverse")


def check_dense_16x16_answers(tmp_path, command, diagonal=0):
    path = tmp_path / "dense.mat"
    path.write_text(dense_matrix_text(16, diagonal))
    proc = run_within_cpu_seconds(10, command, str(path))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [line.count(",") for line in proc.stdout.splitlines()] == [15] * 16


def test_adjoint_of_a_dense_16x16_matrix_answers(tmp_path):
    # 16 int expansions of about 2^15 * 15 products each, where a walk
    # of the permutations would take 16 * 16!, about 3.3e14
    check_dense_16x16_answers(tmp_path, "adj")


def test_quasi_inverse_of_a_dense_16x16_matrix_answers(tmp_path):
    # the adjoint's expansions and one for det(A), then two checked
    # 16x16 products whose determinants the quasi-identity checks read
    # off without an expansion.  A heavier diagonal makes the identity
    # the one heaviest permutation, so det(A) has a unit layer
    check_dense_16x16_answers(tmp_path, "qinv", diagonal=5)
