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
