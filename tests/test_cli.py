import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tensorlang import cli, oracle

SRC = Path(__file__).resolve().parent.parent / "src"

RUNAWAY_RECURSION = "(define $f (lambda [$x] (f x)))\n(f 1)\n"
DEEP_NESTING = "(" * 3000 + "1" + ")" * 3000 + "\n"


def run_cli(tmp_path, program, **env):
    f = tmp_path / "prog.tl"
    f.write_text(program, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
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


BUMPED_DEMO = """\
torus demo: 12 random bindings (seed 1234)
  worst relative gap vs oracle: 1.000e+00 (tolerance 1e-4)
  k=l curvature components bounded by 0.000e+00 (tolerance 1e-6)
  four structurally nonzero components present: yes
  MISMATCH trial 0: R_1212 symbolic=2.937679995223047 oracle=np.float64(3.937686550010697)
  MISMATCH trial 0: R_2121 symbolic=0.33965102557747756 oracle=np.float64(1.3396517834458825)
  MISMATCH trial 1: R_1212 symbolic=-0.7964236750056923 oracle=np.float64(0.2035782229506844)
  MISMATCH trial 1: R_2121 symbolic=-0.2810620452664051 oracle=np.float64(0.7189386244991887)
  MISMATCH trial 2: R_1212 symbolic=2.6986933871348264 oracle=np.float64(3.6986972097439543)
  MISMATCH trial 2: R_2121 symbolic=0.356832358192877 oracle=np.float64(1.3568328636456857)
  MISMATCH trial 3: R_1212 symbolic=-1.730554287209035 oracle=np.float64(-0.7305544884989676)
  MISMATCH trial 3: R_2121 symbolic=-0.3221965746827476 oracle=np.float64(0.6778033878332872)
  MISMATCH trial 4: R_1212 symbolic=3.0498270977106703 oracle=np.float64(4.049824296844577)
  MISMATCH trial 4: R_2121 symbolic=0.3251288632292818 oracle=np.float64(1.3251285646514108)
demo FAILED
"""


def test_demo_reports_oracle_disagreement(monkeypatch):
    # Nothing inside the oracle calls riemann, so only R moves: by 1 at R~1_2_1_2
    # and R~2_1_2_1 in every trial.  The first ten of 24 mismatches are printed,
    # trial by trial, then tensor by tensor and position by position.
    real = oracle.riemann

    def bumped(*args, **kw):
        r = real(*args, **kw)
        r[..., 0, 1, 0, 1] += 1
        r[..., 1, 0, 1, 0] += 1
        return r

    monkeypatch.setattr(oracle, "riemann", bumped)
    out = io.StringIO()
    assert cli.demo_torus(samples=12, out=out) == 1
    assert out.getvalue() == BUMPED_DEMO


def test_demo_counts_a_nan_as_a_mismatch(monkeypatch):
    real = oracle.riemann

    def nan_at_r1111(*args, **kw):
        r = real(*args, **kw)
        r[..., 0, 0, 0, 0] = float("nan")
        return r

    monkeypatch.setattr(oracle, "riemann", nan_at_r1111)
    out = io.StringIO()
    assert cli.demo_torus(samples=3, out=out) == 1
    lines = out.getvalue().splitlines()
    assert [line for line in lines if "MISMATCH" in line] == [
        f"  MISMATCH trial {n}: R_1111 symbolic=0.0 oracle=np.float64(nan)" for n in range(3)]
    assert lines[1] == "  worst relative gap vs oracle: 2.231e-06 (tolerance 1e-4)"


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


def test_run_prints_values_before_a_later_parse_error(tmp_path):
    done = run_cli(tmp_path, "(+ 1 2)\n(+ 1\n")
    assert done.stdout == "3\n"
    assert done.stderr == "error: ParseError: line 2, col 1: unbalanced '('\n"
    assert done.returncode == 1


def test_run_prints_values_before_a_later_stray_bar(tmp_path):
    done = run_cli(tmp_path, "(+ 1 2)\n(+ 1 | 2)\n")
    assert done.stdout == "3\n"
    assert done.stderr == "error: ParseError: line 2, col 6: stray '|'\n"
    assert done.returncode == 1


def test_run_reads_unicode_whitespace(tmp_path):
    done = run_cli(tmp_path, "(+ 1\u00a02)\n")
    assert (done.stdout, done.stderr, done.returncode) == ("3\n", "", 0)


def test_run_output_does_not_depend_on_the_hash_seed(tmp_path):
    # the local symbols that escape a with-symbols scope are numbered in
    # declaration order, not in the order of a set of their names
    program = "(with-symbols {i j k} (- i (* 2 j) (* 3 k)))\n(with-symbols {i} [|i (* 2 i)|])\n"
    a, b = (run_cli(tmp_path, program, PYTHONHASHSEED=seed) for seed in ("0", "1"))
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_repl_continues_after_depth_error():
    out = io.StringIO()
    src = RUNAWAY_RECURSION + DEEP_NESTING + "(* 2 3)\n"
    assert cli.repl(out=out, err=out, in_=io.StringIO(src)) == 0
    text = out.getvalue()
    assert text.count("error: DepthError: ") == 2
    assert text.endswith("> 6\n> \n")
