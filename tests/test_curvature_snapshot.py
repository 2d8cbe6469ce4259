"""The printed metric, connection and curvature tensors of torus.tl and
perfbench/schwarzschild.tl, and the expansion of every component, match a
committed snapshot byte for byte.

Regenerate the snapshot only when a change of printed output is intended:
    PYTHONPATH=src python tests/test_curvature_snapshot.py > tests/data/curvature.txt
"""

import itertools
from pathlib import Path

from tensorlang import Interpreter, cli
from tensorlang.symbolic import expand_and_simplify, format_scalar
from tensorlang.values import format_value

ROOT = Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "tests" / "data" / "curvature.txt"
PROGRAMS = (("torus.tl", cli.TORUS_PROGRAM),
            ("schwarzschild.tl", ROOT / "perfbench" / "schwarzschild.tl"))
REFERENCES = ("g_i_j", "g~i~j", "Γ_i_j_k", "Γ~i_j_k", "R~i_j_k_l")


def render():
    lines = []
    for name, path in PROGRAMS:
        interp = Interpreter()
        interp.run_source(path.read_text(encoding="utf-8"))
        for ref in REFERENCES:
            t = interp.eval_source(ref)
            lines.append(f"== {name} {ref}")
            lines.append(format_value(t))
            positions = itertools.product(*[range(1, d + 1) for d in t.shape])
            for pos, c in zip(positions, t.components):
                lines.append(f"{''.join(map(str, pos))} {format_scalar(expand_and_simplify(c))}")
    return "\n".join(lines) + "\n"


def test_curvature_tensors_print_as_the_snapshot():
    assert render() == SNAPSHOT.read_text(encoding="utf-8")


if __name__ == "__main__":
    print(render(), end="")
