"""Golden-case corpus: small source files whose printed results are pinned.

A case file holds ordinary top-level forms.  A comment directly after a
form pins its value:

    ;=>  expected     token-level comparison (whitespace-insensitive and,
                      because dummies print as '#', dummy-renaming-safe)
    ;==> expected     exact printed string
    ;~>  1.5 @1e-9    numeric comparison with optional absolute tolerance

Files without expectations simply must evaluate without error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import LangError
from .lang import Interpreter, tokenize
from .symbolic import ScalarExpr, eval_numeric
from .values import format_value

CORPUS_DIR = Path(__file__).parent / "corpus"
GOLDEN_DIR = CORPUS_DIR / "golden"

_EXPECT_RE = re.compile(r"^\s*;(==>|=>|~>)\s*(.*?)\s*$")


@dataclass
class Expectation:
    mode: str  # "tokens" | "exact" | "numeric"
    text: str
    tolerance: float
    line: int


@dataclass
class GoldenCase:
    name: str
    source: str
    expectations: list = field(default_factory=list)


@dataclass
class CaseResult:
    case: GoldenCase
    passed: bool
    checks: int
    failures: list


def _parse_expectations(source):
    out = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        m = _EXPECT_RE.match(line)
        if not m:
            continue
        marker, text = m.group(1), m.group(2)
        mode = {"=>": "tokens", "==>": "exact", "~>": "numeric"}[marker]
        tol = 1e-9
        if mode == "numeric" and "@" in text:
            text, tol_text = text.rsplit("@", 1)
            text = text.strip()
            tol = float(tol_text)
        out.append(Expectation(mode, text, tol, lineno))
    return out


def load_case(path):
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return GoldenCase(path.stem, source, _parse_expectations(source))


def load_cases(directory=None):
    directory = Path(directory) if directory else GOLDEN_DIR
    return [load_case(p) for p in sorted(directory.glob("*.tl"))]


def _token_texts(s):
    """Token texts; a glued atom or head joins the one before it, as in
    `x_i` and `2#x`, so a detached `x _i` or `2# x` does not match."""
    texts, prev = [], None
    for t in tokenize(s):
        if t.glued and {t.kind, prev} <= {"atom", "head"}:
            texts[-1] += t.text
        else:
            texts.append(t.text)
        prev = t.kind
    return texts


def _check(value, exp):
    printed = format_value(value) if value is not None else ""
    if exp.mode == "exact":
        return printed == exp.text, printed
    if exp.mode == "tokens":
        return _token_texts(printed) == _token_texts(exp.text), printed
    if isinstance(value, ScalarExpr):
        got = eval_numeric(value, {})
        return abs(got - float(exp.text)) <= exp.tolerance, repr(got)
    return False, printed


def run_case(case):
    failures = []
    try:
        evaluated = Interpreter().run_source(case.source)
    except LangError as e:
        return CaseResult(case, False, len(case.expectations),
                          [f"{type(e).__name__}: {e}"])
    for exp in case.expectations:
        target = None
        for (_, end), value in evaluated:
            if end < exp.line:
                target = value
        ok, got = _check(target, exp)
        if not ok:
            failures.append(
                f"line {exp.line}: expected {exp.text!r}, got {got!r}")
    return CaseResult(case, not failures, len(case.expectations), failures)


def run_suite(directory=None, name_filter=None):
    cases = load_cases(directory)
    if name_filter:
        cases = [c for c in cases if name_filter in c.name]
    return [run_case(c) for c in cases]
