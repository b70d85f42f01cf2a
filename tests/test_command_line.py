"""The command line: ``resflat.cli`` reads argv from one table, without
argparse.

Every form that the README, the CI workflow, the tests and the benchmark
use reads the same fields and defaults as the argparse parser the CLI
used to build, which is kept here as the reference.  A malformed command
line exits 2 with one ``error:`` line, ``-h`` prints the usage and exits 0,
and any mutation of a command line exits 0, 1 or 2, never with a
traceback, in this process and in a fresh one.
"""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import resflat
from resflat.cli import _SUBCOMMANDS, _parse_command_line, _usage, main
from resflat.core import CYLINDER_BUDGET


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``resflat.cli`` built for every command line
    before it read argv from a table."""
    parser = argparse.ArgumentParser(prog="resflat")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, needs_input: bool = True):
        cmd = sub.add_parser(name)
        if needs_input:
            cmd.add_argument("input")
        else:
            cmd.add_argument("input", nargs="?", default=None)
        cmd.add_argument("-o", "--output", default=None)
        return cmd

    add("decide")
    add("witness").add_argument("--svg", default=None)
    add("verify")
    t = add("table", needs_input=False)
    t.add_argument("--s-min", type=int, default=2)
    t.add_argument("--s-max", type=int, default=6)
    t.add_argument("--max-zero", type=int, default=None)
    o = add("oracle-check", needs_input=False)
    o.add_argument("--s-max", type=int, default=7)
    o.add_argument("--entry-bound", type=int, default=5)
    # Its None meant the search's own default budget, which the table now names.
    add("cylinders").add_argument("--budget", type=int, default=CYLINDER_BUDGET)
    return parser


def reference_fields(argv: list[str]) -> dict | None:
    """The command and fields argparse read, or None where it exited."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(reference_parser().parse_args(argv))
    except SystemExit:
        return None


def fields(argv: list[str]) -> dict:
    handler, args = _parse_command_line(argv)
    assert handler is _SUBCOMMANDS[argv[0]][0]
    return {"command": argv[0], **vars(args)}


FORMS = [
    # README
    ["decide", "-"],
    ["witness", "-", "-o", "cert.json"],
    ["verify", "cert.json"],
    ["table", "--s-min", "2", "--s-max", "6"],
    ["oracle-check", "--s-max", "12", "--entry-bound", "5"],
    ["cylinders", "-"],
    ["witness", "request.json", "-o", "cert.json", "--svg", "pieces.svg"],
    # .github/workflows/tier1.yml
    ["witness", "-"],
    ["verify", "-"],
    ["witness", "-", "-o", "/dev/null", "--svg", "drawing.svg"],
    # the tests
    ["decide", "in.json", "-o", "out.json"],
    ["decide", "in.json"],
    ["table", "--s-min", "2", "--s-max", "6", "-o", "out.json"],
    ["table", "--s-max", "7", "-o", "out.json"],
    ["table", "in.json", "-o", "out.json"],
    ["oracle-check", "--s-max", "5", "--entry-bound", "3", "-o", "out.json"],
    ["oracle-check", "in.json", "-o", "out.json"],
    ["cylinders", "req.json", "--budget", "1", "-o", "o.json"],
    ["cylinders", "--budget", "-5", "in.json", "-o", "out.json"],
    ["cylinders", "-", "--budget", "1"],
    # bench/execute.py
    ["table", "--s-min", "2", "--s-max", "4", "-o", "out.json"],
    ["verify", "cert.json", "-o", "out.json"],
    ["decide", "request.json", "-o", "out.json"],
    ["witness", "request.json", "-o", "cert.json"],
    # defaults, both spellings of the output, the = form, and --
    ["table"],
    ["oracle-check"],
    ["witness", "--output=cert.json", "--svg=pieces.svg", "request.json"],
    ["table", "--max-zero=3", "--s-max=5", "--s-min=3"],
    ["oracle-check", "in.json", "--output", "out.json", "--entry-bound=2"],
    ["table", "--s-max=-3"],
    ["decide", "-o", "out.json", "--", "in.json"],
    ["decide", "-o", "", "in.json"],
]


@pytest.mark.parametrize("argv", FORMS, ids=[" ".join(argv) for argv in FORMS])
def test_every_documented_form_reads_what_argparse_read(argv):
    assert fields(argv) == reference_fields(argv)


# (argv, the error line); a well-formed line's own errors keep their words.
REJECTED = [
    ([], "no command; expected one of decide, witness, verify, table, oracle-check, cylinders"),
    (["resolve", "-"], "unknown command 'resolve'; expected one of decide, witness, "
     "verify, table, oracle-check, cylinders"),
    (["-o", "out.json", "decide", "-"], "unknown command '-o'; expected one of decide, "
     "witness, verify, table, oracle-check, cylinders"),
    (["decide"], "decide: expected an input document, a path or -"),
    (["cylinders", "--budget", "3"], "cylinders: expected an input document, a path or -"),
    (["decide", "a.json", "b.json"], "decide: unexpected argument 'b.json'"),
    (["decide", "-", "--svg", "x.svg"], "decide: unknown option '--svg'"),
    (["decide", "-", "--out", "x.json"], "decide: unknown option '--out'"),
    (["witness", "-", "-ox.json"], "witness: unknown option '-ox.json'"),
    (["decide", "-", "-o"], "-o: expected a value"),
    (["witness", "-", "--svg", "-o", "x.json"], "--svg: expected a value"),
    (["table", "--s-max", "six"], "--s-max: expected an integer, got 'six'"),
    (["cylinders", "-", "--budget=1e3"], "--budget: expected an integer, got '1e3'"),
    (["table", "--s-min", "-3", "--s-max", "2"], "$.s_min: expected an integer of at least 2"),
]


@pytest.mark.parametrize("argv, line", REJECTED, ids=[" ".join(a) or "empty" for a, _ in REJECTED])
def test_a_malformed_command_line_is_status_two_with_one_error_line(argv, line, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["--help"], ["witness", "-h"], ["table", "--s-max", "3", "--help"]],
    ids=["-h", "--help", "witness -h", "table --help"],
)
def test_help_prints_the_usage_and_exits_zero(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (_usage(), "")
    assert out.startswith("usage: resflat COMMAND")
    assert all(f"  resflat {name} " in out for name in _SUBCOMMANDS)


# The fuzz runs each mutated line for real, in a directory of its own, on a
# request and its certificate; every form is cheap at any of its mutations.
REQUEST = {
    "stratum": {"genus": 0, "zeros": [2], "poles": [], "simple_poles": 4},
    "residues": [1, {"im": 1}, -1, {"im": -1}],
}
FUZZ_FORMS = [
    ["decide", "request.json", "-o", "out.json"],
    ["witness", "request.json", "-o", "witness.json", "--svg", "drawing.svg"],
    ["verify", "cert.json", "-o", "out.json"],
    ["table", "--s-min", "2", "--s-max", "4", "-o", "out.json"],
    ["oracle-check", "--s-max", "4", "--entry-bound", "3", "-o", "out.json"],
    ["cylinders", "-", "--budget", "100"],
    ["decide", "-"],
]
ODD_TOKENS = [
    "frobnicate", "--bogus", "-x", "-o", "--output", "--svg", "--s-min", "--s-max",
    "--max-zero", "--entry-bound", "--budget", "--s-max=x", "--budget=2.5",
    "--s-max=3", "-o=out.json", "x", "1.5", "", "-1", "0", "3", "-", "=", "-h",
    "--help", *_SUBCOMMANDS,
]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("command-line")
    (path / "request.json").write_text(json.dumps(REQUEST))
    assert main(["witness", str(path / "request.json"), "-o", str(path / "pristine.json")]) == 0
    return path


def reset(workdir: Path) -> None:
    """Put back the inputs a previous mutated line may have overwritten."""
    (workdir / "request.json").write_text(json.dumps(REQUEST))
    (workdir / "cert.json").write_text((workdir / "pristine.json").read_text())


def mutate(rng, argv: list[str], count: int) -> list[str]:
    """``argv`` with ``count`` tokens dropped, duplicated, swapped, replaced
    by an odd token or joined by one."""
    argv = list(argv)
    for _ in range(count):
        kind = rng.choice(("drop", "duplicate", "swap", "replace", "insert"))
        if not argv:
            kind = "insert"
        i, j = rng.randrange(len(argv) + 1), rng.randrange(len(argv) + 1)
        if kind == "insert":
            argv.insert(i, rng.choice(ODD_TOKENS))
            continue
        i, j = min(i, len(argv) - 1), min(j, len(argv) - 1)
        if kind == "drop":
            del argv[i]
        elif kind == "duplicate":
            argv.insert(j, argv[i])
        elif kind == "swap":
            argv[i], argv[j] = argv[j], argv[i]
        else:
            argv[i] = rng.choice(ODD_TOKENS)
    return argv


def run_in(workdir: Path, argv: list[str]) -> tuple[int, str]:
    """The exit status and the stderr of ``main(argv)`` run in ``workdir``,
    with the request on stdin."""
    reset(workdir)
    err = io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with mock.patch("sys.stdin", io.StringIO(json.dumps(REQUEST))):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
    finally:
        os.chdir(previous)
    return code, err.getvalue()


def assert_the_exit_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "internal error" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


@given(st.randoms(use_true_random=False), st.sampled_from(FUZZ_FORMS), st.integers(1, 3))
@settings(max_examples=300, deadline=None)
def test_mutated_command_lines_keep_the_exit_contract(workdir, rng, form, count):
    argv = mutate(rng, form, count)
    assert_the_exit_contract(*run_in(workdir, argv))
    # Where argparse read a mutated line, the table reads the same fields.
    reference = reference_fields(argv)
    if reference is not None:
        assert fields(argv) == reference


def test_mutated_command_lines_keep_the_exit_contract_in_a_fresh_process(workdir):
    """``python -m resflat.cli`` answers a mutated line as main() does."""
    rng = random.Random(0)
    lines = [mutate(rng, form, 2) for form in FUZZ_FORMS]
    env = {**os.environ, "PYTHONPATH": str(Path(resflat.__file__).parents[1])}
    for argv in lines:
        in_process = run_in(workdir, argv)
        reset(workdir)
        done = subprocess.run(
            [sys.executable, "-m", "resflat.cli", *argv],
            input=json.dumps(REQUEST),
            capture_output=True,
            text=True,
            env=env,
            cwd=workdir,
        )
        assert_the_exit_contract(done.returncode, done.stderr)
        assert (done.returncode, done.stderr) == in_process, argv
