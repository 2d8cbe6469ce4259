import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tensorlang import cli

SRC = Path(__file__).resolve().parent.parent / "src"

RUNAWAY_RECURSION = "(define $f (lambda [$x] (f x)))\n(f 1)\n"
DEEP_NESTING = "(" * 3000 + "1" + ")" * 3000 + "\n"


def run_cli(tmp_path, program):
    f = tmp_path / "prog.tl"
    f.write_text(program, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "tensorlang.cli", "run", str(f)],
                          capture_output=True, text=True, env=env, timeout=60)


def test_run_file_prints_results(tmp_path, capsys):
    f = tmp_path / "prog.tl"
    f.write_text("(+ 1 2)\n(define $x 5)\n(* x 2)\n", encoding="utf-8")
    assert cli.run_file(str(f)) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["3", "10"]


def test_run_file_reports_errors(tmp_path, capsys):
    f = tmp_path / "bad.tl"
    f.write_text("(+ [|1 2|]_i [|1 2 3|]_i)\n", encoding="utf-8")
    assert cli.run_file(str(f)) == 1
    assert "DimensionMismatch" in capsys.readouterr().err


def test_run_file_reports_division_by_zero(tmp_path, capsys):
    f = tmp_path / "div.tl"
    f.write_text("(/ 1 0)\n", encoding="utf-8")
    assert cli.run_file(str(f)) == 1
    assert capsys.readouterr().err.startswith("error: DivisionByZeroError: ")


def test_run_missing_file(capsys):
    assert cli.run_file("/no/such/file.tl") == 1


def test_torus_script_defines_curvature(tmp_path, capsys):
    assert cli.run_file(str(cli.TORUS_PROGRAM)) == 0


def test_test_subcommand(capsys):
    assert cli.main(["test"]) == 0
    out = capsys.readouterr().out
    assert "golden cases passed" in out
    assert "FAIL" not in out


def test_test_subcommand_filter(capsys):
    assert cli.main(["test", "--filter", "supersubscript"]) == 0
    out = capsys.readouterr().out
    assert "supersubscript-merge" in out


def test_demo_subcommand_small(capsys):
    assert cli.main(["demo-torus", "--samples", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "demo PASSED" in out


def test_repl_session():
    out = io.StringIO()
    src = "(+ 1\n   2)\n(+ 1))\n(* 2 3)\n"
    code = cli.repl(out=out, err=out, in_=io.StringIO(src))
    assert code == 0
    text = out.getvalue()
    assert "3" in text
    assert "error" in text  # the stray ')' is reported and the prompt continues
    assert "6" in text


@pytest.mark.parametrize("program, line", [(RUNAWAY_RECURSION, 2), (DEEP_NESTING, 1)],
                         ids=["runaway-recursion", "deep-nesting"])
def test_run_reports_depth_without_traceback(tmp_path, program, line):
    done = run_cli(tmp_path, program)
    assert done.returncode == 1
    assert done.stderr.startswith("error: DepthError: ")
    assert f"line {line}" in done.stderr
    assert "Traceback" not in done.stderr


def test_run_prints_values_before_a_later_error(tmp_path):
    done = run_cli(tmp_path, "(+ 1 2)\n" + RUNAWAY_RECURSION)
    assert done.stdout == "3\n"
    assert done.stderr.startswith("error: DepthError: ")
    assert done.returncode == 1


def test_run_reads_unicode_whitespace(tmp_path):
    done = run_cli(tmp_path, "(+ 1\u00a02)\n")
    assert (done.stdout, done.stderr, done.returncode) == ("3\n", "", 0)


def test_repl_continues_after_depth_error():
    out = io.StringIO()
    src = RUNAWAY_RECURSION + DEEP_NESTING + "(* 2 3)\n"
    assert cli.repl(out=out, err=out, in_=io.StringIO(src)) == 0
    text = out.getvalue()
    assert text.count("error: DepthError: ") == 2
    assert text.endswith("> 6\n> \n")
