"""The four workloads.  Each is a closed loop: one caller submits one
request, waits for it, then submits the next.

A workload object is driven by run.py: `setup()`, which imports
tensorlang afresh, then passes.  A pass is `start_pass()`, which returns
the pass's requests as zero-argument callables, the timed calls
themselves, and `end_pass(outputs)`, which keeps what the checks need,
outside the timed region.  `check()` runs after the last pass.

A request is one top-level form on index-algebra, the whole program on
torus and schwarzschild, and one demo call on torus-sampling.
"""

from __future__ import annotations

import importlib
import io
import random
import sys
from pathlib import Path

import checks
import indexgen

HERE = Path(__file__).resolve().parent

# Values the checks and node counts read back from a curvature program:
# printed name -> reference that evaluates to the tensor.
CURVATURE_REFS = {"g": "g_i_j", "g~~": "g~i~j", "Γ1": "Γ_i_j_k",
                  "Γ2": "Γ~i_j_k", "R": "R~i_j_k_l"}


def fresh_import(*names):
    """Import tensorlang modules from scratch, as a new process would."""
    for mod in [m for m in sys.modules if m == "tensorlang" or m.startswith("tensorlang.")]:
        del sys.modules[mod]
    return [importlib.import_module(n) for n in names]


def split_forms(text):
    """Top-level forms of a program that starts each form on a new line:
    lines are joined until their brackets balance, comments dropped."""
    forms, lines, depth = [], [], 0
    for line in text.splitlines(keepends=True):
        code = line.split(";", 1)[0]
        depth += sum(code.count(c) for c in "([{") - sum(code.count(c) for c in ")]}")
        if code.strip() or lines:
            lines.append(code)
        if lines and depth == 0:
            forms.append("".join(lines))
            lines = []
    return forms


def _printed_components(tensorlang, interp, ref):
    value = interp.eval_source(ref)
    return [tensorlang.format_value(c) for c in value.components]


class Curvature:
    """A curvature program: one request evaluates the whole program on a
    fresh interpreter."""

    def __init__(self, seed, program):
        self.seed = seed
        self.program = program
        self.first = None
        self.differing = 0
        self.passes = 0

    def setup(self):
        (self.tl,) = fresh_import("tensorlang")
        self.tl.Interpreter()
        self.source = self.program.read_text(encoding="utf-8")
        self.samples_per_pass = len(split_forms(self.source))

    def start_pass(self):
        self.interp = interp = self.tl.Interpreter()
        return [lambda: interp.run_source(self.source)]

    def end_pass(self, outputs):
        printed = {k: _printed_components(self.tl, self.interp, ref)
                   for k, ref in CURVATURE_REFS.items()}
        self.interp = None
        self.passes += 1
        if self.first is None:
            self.first = printed
        else:
            self.differing += sum(a != b for k in printed
                                  for a, b in zip(printed[k], self.first[k]))

    def later_components(self):
        """Components of every pass after the first, each compared with
        the first pass's."""
        return (self.passes - 1) * sum(len(v) for v in self.first.values())

    def result_trees(self):
        return [checks.parse_sexpr(c) for comps in self.first.values() for c in comps]


class Torus(Curvature):
    name = "torus"
    BINDINGS = 4

    def __init__(self, seed):
        super().__init__(seed, HERE.parent / "src" / "tensorlang" / "corpus" / "torus.tl")

    def check(self):
        bindings = checks.torus_bindings(random.Random(self.seed), self.BINDINGS)
        printed = {k: self.first[k] for k in ("g", "Γ1", "Γ2", "R")}
        attempted, failed = checks.check_torus(printed, bindings)
        return attempted + self.later_components(), failed + self.differing


class Schwarzschild(Curvature):
    name = "schwarzschild"
    POINTS = 4

    def __init__(self, seed):
        super().__init__(seed, HERE / "schwarzschild.tl")

    def check(self):
        points = checks.schwarzschild_points(random.Random(self.seed), self.POINTS)
        attempted, failed = checks.check_schwarzschild(self.first["R"], points)
        return attempted + self.later_components(), failed + self.differing


class IndexAlgebra:
    """Generated forms, each evaluated and printed as `tensorlang run` would."""

    name = "index-algebra"

    def __init__(self, seed):
        self.seed = seed
        self.first = None
        self.differing = 0
        self.passes = 0

    def setup(self):
        (self.tl,) = fresh_import("tensorlang")
        self.tl.Interpreter()
        self.forms = indexgen.generate(self.seed)
        self.sources = split_forms(indexgen.program_source(self.forms))
        self.samples_per_pass = len(self.sources)

    def start_pass(self):
        interp = self.tl.Interpreter()
        tl = self.tl

        def request(text):
            return [tl.format_value(v) for _, v in interp.run_source(text) if v is not None]

        return [lambda text=text: request(text) for text in self.sources]

    def end_pass(self, outputs):
        self.passes += 1
        if self.first is None:
            self.first = outputs
        else:
            self.differing += sum(a != b for a, b in zip(outputs, self.first))

    def check(self):
        failed = self.differing
        for form, out in zip(self.forms, self.first):
            ok = out is not None and len(out) == 1 and checks.check_index_form(
                form, out[0], indexgen.expected_value(form))
            failed += not ok
        return len(self.forms) * self.passes, failed

    def result_trees(self):
        return [c for out in self.first if out
                for c in checks.flatten(checks.parse_printed(out[0])[0])]


class TorusSampling:
    """`cli.demo_torus`: build the torus once per call, then check many
    random bindings through small `eval_source` reads against the oracle."""

    name = "torus-sampling"
    SAMPLES = 400

    def __init__(self, seed):
        self.seed = seed
        self.calls = 0
        self.results = []

    def setup(self):
        (self.tl, self.cli) = fresh_import("tensorlang", "tensorlang.cli")
        self.tl.Interpreter()
        self.samples_per_pass = self.SAMPLES

    def start_pass(self):
        self.calls += 1
        demo_seed = self.seed * 1000 + self.calls
        out = io.StringIO()

        def request():
            return self.cli.demo_torus(seed=demo_seed, samples=self.SAMPLES, out=out), out

        return [request]

    def end_pass(self, outputs):
        for result in outputs:
            self.results.append(result is not None and result[0] == 0
                                and "demo PASSED" in result[1].getvalue())

    def check(self):
        return len(self.results), self.results.count(False)

    def result_trees(self):
        return []


WORKLOADS = {w.name: w for w in (Torus, Schwarzschild, IndexAlgebra, TorusSampling)}
