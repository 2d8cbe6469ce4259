"""Tests of the benchmark itself: seeded inputs, checkers that catch a
corrupted result, and tracing that only a traced run installs."""

import io
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import indexgen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def own_tensorlang_modules():
    """Workload set-up re-imports tensorlang; give other tests back theirs."""
    def ours():
        return {k: v for k, v in sys.modules.items()
                if k == "tensorlang" or k.startswith("tensorlang.")}

    saved = ours()
    yield
    for name in ours():
        del sys.modules[name]
    sys.modules.update(saved)


def test_generator_is_deterministic_for_a_seed():
    a, b, c = indexgen.generate(7), indexgen.generate(7), indexgen.generate(8)
    assert a == b
    assert indexgen.program_source(a) != indexgen.program_source(c)
    # every seed draws the same multiset of shapes, so the same work
    assert sorted(f.work for f in a) == sorted(f.work for f in c)
    assert len(workloads.split_forms(indexgen.program_source(a))) == len(a)


def test_index_checker_accepts_engine_output_and_catches_corruption():
    from tensorlang import Interpreter, format_value

    interp = Interpreter()
    forms = {f.template: f for f in indexgen.generate(3)}
    for form in forms.values():
        printed = format_value(interp.eval_source(form.source))
        expected = indexgen.expected_value(form)
        assert checks.check_index_form(form, printed, expected), form.source
        assert not checks.check_index_form(form, printed, expected + 1)
        assert not checks.check_index_form(form, printed + "_z", expected)


def test_torus_checker_catches_a_corrupted_component():
    from tensorlang import Interpreter, format_value

    interp = Interpreter()
    interp.run_source((HERE.parent / "src/tensorlang/corpus/torus.tl").read_text())
    printed = {k: [format_value(c) for c in interp.eval_source(workloads.CURVATURE_REFS[k]).components]
               for k in ("g", "Γ1", "Γ2", "R")}
    bindings = checks.torus_bindings(random.Random(5), 2)
    assert checks.check_torus(printed, bindings) == (72, 0)
    for key in printed:
        bad = dict(printed)
        bad[key] = [f"(+ 1 {c})" if i == 1 else c
                    for i, c in enumerate(printed[key])]
        assert checks.check_torus(bad, bindings)[1] > 0, key


def test_schwarzschild_checker_catches_a_corrupted_component():
    riemann = (HERE / "testdata" / "schwarzschild_riemann.txt").read_text().splitlines()
    points = checks.schwarzschild_points(random.Random(5), 3)
    assert checks.check_schwarzschild(riemann, points) == (51, 0)
    nonzero = next(i for i, c in enumerate(riemann) if c != "0")
    for corrupt in (f"(* 2 {riemann[nonzero]})", "0"):
        bad = list(riemann)
        bad[nonzero] = corrupt
        assert checks.check_schwarzschild(bad, points)[1] > 0


def test_sampling_checker_counts_a_failed_demo():
    wl = workloads.TorusSampling(1)
    wl.end_pass([(0, io.StringIO("demo PASSED\n"))])
    wl.end_pass([(1, io.StringIO("demo FAILED\n")), None])
    assert wl.check() == (3, 2)


def test_a_pass_that_differs_from_the_first_is_a_failure():
    wl = workloads.IndexAlgebra(1)
    wl.end_pass([["1"], ["[|1 2|]_i"]])
    wl.end_pass([["1"], ["[|1 3|]_i"]])
    assert (wl.passes, wl.differing) == (2, 1)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([1.0] * 18 + [9.0]) == (100, 9.0)
    p, value = run.tail([float(i) for i in range(1, 201)])
    assert p == 95 and value == 190.0


def _wrapped(module_names):
    """Functions of the tensorlang modules that are not the package's own."""
    out = []
    for name in module_names:
        for attr, value in vars(sys.modules[name]).items():
            module = getattr(value, "__module__", None) or ""
            if callable(value) and module in ("tracer", "run"):
                out.append(f"{name}.{attr}")
    return out


def test_untraced_run_executes_unwrapped_functions(own_tensorlang_modules, monkeypatch):
    def refuse(*args):
        raise AssertionError("a wrapper was installed in an untraced run")

    monkeypatch.setattr(tracer.Tracer, "patch", refuse)
    result, _ = run.run("torus", seed=2, seconds=0, trace=False)
    assert result["correct"]
    names = [m for m in sys.modules if m.startswith("tensorlang")]
    assert names and _wrapped(names) == []


def test_tracer_counts_and_then_restores_every_function(own_tensorlang_modules):
    from tensorlang import Interpreter, cli, lang, symbolic, tensor

    originals = (symbolic.add, tensor.scalar_apply, lang.Evaluator.eval, cli.eval_numeric)
    t = tracer.Tracer()
    tracer.install_layers(t)
    try:
        names = [m for m in sys.modules if m.startswith("tensorlang")]
        assert "tensorlang.stdlib.add" in _wrapped(names)
        with t.paused():
            assert _wrapped(names) == []
        assert Interpreter().eval_source("(. [|1 2 3|]~i [|4 5 6|]_i)") == symbolic.Integer(32)
    finally:
        t.remove()
    assert (symbolic.add, tensor.scalar_apply, lang.Evaluator.eval, cli.eval_numeric) == originals
    assert _wrapped(names) == []
    assert t.stat("tensor.contract").extra["folds"] == 2
    assert t.stat("tensor.scalar_apply").extra["leaf_calls"] >= 9
    assert t.stat("lang.parse").calls >= 1 and t.stat("lang.parse").extra["tokens"] > 0


def test_benchmark_json_names_what_the_runner_reports():
    import json

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in bench["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [m[:3] for m in tracer.LAYER_METRICS]
