"""Command-line front end: run script files, an interactive prompt, the
golden-suite runner, and the torus curvature demo checked against the
numeric oracle."""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

import numpy as np

from . import golden, oracle
from .errors import LangError
from .lang import Interpreter, tokenize
from .symbolic import ZERO, eval_numeric_many, expand_and_simplify
from .symbolic import eval_numeric  # noqa: F401  read as cli.eval_numeric by perfbench's tests
from .tensor import positions
from .values import format_value

TORUS_PROGRAM = golden.CORPUS_DIR / "torus.tl"


def run_file(path, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: {e}", file=err)
        return 1
    return 0 if _print_forms(Interpreter(), text, out, err) else 1


def _print_forms(interp, text, out, err):
    """Print each form's value as the form finishes, and report the first
    LangError on `err`.  True when every form evaluated."""
    try:
        for _, value in interp.iter_source(text):
            if value is not None:
                print(format_value(value), file=out, flush=True)
    except LangError as e:
        print(f"error: {type(e).__name__}: {e}", file=err)
        return False
    return True


def _balanced(text):
    depth = 0
    for tok in tokenize(text):
        if tok.kind in ("(", "[", "{", "[|"):
            depth += 1
        elif tok.kind in (")", "]", "}", "|]"):
            depth -= 1
    return depth <= 0


def repl(out=None, err=None, in_=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    in_ = in_ if in_ is not None else sys.stdin
    interp = Interpreter()
    buffer = ""
    prompt = "> "
    print("tensorlang — blank line clears, Ctrl-D exits", file=out)
    while True:
        print(prompt, end="", file=out, flush=True)
        line = in_.readline()
        if not line:
            print(file=out)
            return 0
        if not line.strip() and not buffer:
            continue
        if not line.strip():
            buffer = ""
            prompt = "> "
            continue
        buffer += line
        if not _balanced(buffer):
            prompt = "… "
            continue
        _print_forms(interp, buffer, out, err)
        buffer = ""
        prompt = "> "


def run_golden(name_filter=None, out=None):
    out = out if out is not None else sys.stdout
    results = golden.run_suite(name_filter=name_filter)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.case.name} ({r.checks} checks)", file=out)
        for f in r.failures:
            print(f"     {f}", file=out)
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} golden cases passed", file=out)
    return 1 if failed else 0


# --- torus demo -----------------------------------------------------------------


# The four R~i_j_k_l positions the torus's curvature leaves nonzero.
_NONZERO_R = ((1, 2, 1, 2), (1, 2, 2, 1), (2, 1, 1, 2), (2, 1, 2, 1))


def demo_torus(seed=1234, samples=20, out=None):
    out = out if out is not None else sys.stdout
    interp = Interpreter()
    interp.run_source(TORUS_PROGRAM.read_text(encoding="utf-8"))
    # (label, tensor, oracle) for the metric, both connections and the curvature
    checks = [(label, interp.eval_source(ref), reference) for label, ref, reference in (
        ("g", "g_i_j", oracle.metric), ("Γ1", "Γ_i_j_k", oracle.christoffel_first),
        ("Γ2", "Γ~i_j_k", oracle.christoffel_second), ("R", "R~i_j_k_l", oracle.riemann))]
    riemann = checks[-1][1]

    rng = random.Random(seed)
    envs = []
    for _ in range(samples):
        a = rng.uniform(0.5, 1.5)  # then b - a, θ, φ: drawn as the dict is built
        envs.append({"a": a, "b": a + rng.uniform(0.5, 2.5),
                     "θ": rng.uniform(0.0, 2 * math.pi), "φ": rng.uniform(0.0, 2 * math.pi)})
    # one column per component, tensor after tensor: its value at each binding
    names = [f"{label}_{''.join(map(str, p))}"
             for label, t, _ in checks for p in positions(t.shape)]
    columns = eval_numeric_many([c for _, t, _ in checks for c in t.components], envs)
    sym = np.array(columns).T  # bindings × components
    args = [np.array([env[x] for env in envs]) for x in ("a", "b", "θ", "φ")]
    orc = np.hstack([reference(*args).reshape(len(envs), len(t.components))
                     for _, t, reference in checks])
    gap, scale = np.abs(sym - orc), np.fmax(1.0, np.fmax(np.abs(sym), np.abs(orc)))
    worst = np.fmax.reduce(gap / scale, axis=None, initial=0.0)  # skips NaN, as max() does
    failures = [f"trial {n}: {names[c]} symbolic={columns[c][n]!r} oracle={orc[n, c]!r}"
                for n, c in np.argwhere(~(gap <= 1e-4 * scale))]  # a NaN gap is a mismatch
    peak = dict(zip(positions(riemann.shape),  # largest |R| seen per position
                    np.fmax.reduce(np.abs(sym[:, -len(riemann.components):]), initial=0.0)))

    zero_bound = max(v for (i, j, k, l), v in peak.items() if k == l)
    r_at = dict(zip(positions(riemann.shape), riemann.components))
    structurally_nonzero = all(expand_and_simplify(r_at[pos]) != ZERO and peak[pos] > 1e-4
                               for pos in _NONZERO_R)
    zeros_ok = zero_bound <= 1e-6

    print(f"torus demo: {samples} random bindings (seed {seed})", file=out)
    print(f"  worst relative gap vs oracle: {worst:.3e} (tolerance 1e-4)", file=out)
    print(f"  k=l curvature components bounded by {zero_bound:.3e} (tolerance 1e-6)",
          file=out)
    print(f"  four structurally nonzero components present: "
          f"{'yes' if structurally_nonzero else 'NO'}", file=out)
    for f in failures[:10]:
        print(f"  MISMATCH {f}", file=out)
    ok = not failures and zeros_ok and structurally_nonzero
    print("demo " + ("PASSED" if ok else "FAILED"), file=out)
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(prog="tensorlang")
    sub = ap.add_subparsers(dest="mode", required=True)

    p_run = sub.add_parser("run", help="evaluate a script, printing each result")
    p_run.add_argument("path")

    sub.add_parser("repl", help="interactive prompt")

    p_test = sub.add_parser("test", help="run the pinned golden cases")
    p_test.add_argument("--filter", dest="name_filter", default=None)

    p_demo = sub.add_parser("demo-torus",
                            help="curvature of a torus vs the numeric oracle")
    p_demo.add_argument("--seed", type=int, default=1234)
    p_demo.add_argument("--samples", type=int, default=20)

    args = ap.parse_args(argv)
    if args.mode == "run":
        return run_file(args.path)
    if args.mode == "repl":
        return repl()
    if args.mode == "test":
        return run_golden(args.name_filter)
    return demo_torus(seed=args.seed, samples=args.samples)


if __name__ == "__main__":
    sys.exit(main())
