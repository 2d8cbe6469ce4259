import io

import pytest

from tensorlang import cli


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
