"""Layering read from the import statements: the engine in src/tensorlang
imports nothing from the benchmark, and the numeric oracle imports
nothing from the engine, so the checks that compare the two stay
independent of what they check."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tensorlang"
BENCHMARK_MODULES = {"perfbench", "checks", "indexgen", "workloads", "tracer", "run"}


def imports(path):
    """(module, level) of every import in the file; `from . import x`
    reads as ("x", 1)."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out += [(alias.name, 0) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                out.append((node.module, node.level))
            else:
                out += [(alias.name, node.level) for alias in node.names]
    return out


def test_import_reader_sees_absolute_and_relative_imports():
    found = imports(SRC / "cli.py")
    assert ("argparse", 0) in found
    assert ("oracle", 1) in found
    assert ("lang", 1) in found


def test_engine_does_not_import_the_benchmark():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        for module, level in imports(path):
            if level == 0:
                assert module.split(".")[0] not in BENCHMARK_MODULES, (path.name, module)


def test_oracle_imports_nothing_from_the_engine():
    for module, level in imports(SRC / "oracle.py"):
        assert level == 0 and module.split(".")[0] != "tensorlang", module


def test_only_the_oracle_and_the_cli_import_numpy():
    # the language core stays numpy-free, so a program run loads no numpy
    users = {path.name for path in SRC.glob("*.py")
             if any(module.split(".")[0] == "numpy" for module, _ in imports(path))}
    assert users == {"oracle.py", "cli.py"}


def mentions(path, name):
    """Qualified name of the def or class around each mention of `name` in
    the file (as a name, an attribute or an import), and the qualified name
    of each def of `name` itself."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child.name == name:
                    found.append(".".join(scope + [name]))
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.alias) and child.name == name):
                found.append(".".join(scope))
            visit(child, scope)
    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_only_evaluator_call_broadcasts():
    # The paper's parameter rule is decided in one place: a builtin that
    # maps over components goes through a call with a scalar-kind parameter.
    found = {(path.name, where) for path in SRC.glob("*.py")
             for where in mentions(path, "scalar_apply")}
    assert found == {("tensor.py", "scalar_apply"), ("lang.py", "Evaluator.call")}
