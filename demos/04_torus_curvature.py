"""The flagship pipeline: the curvature of a torus, symbolically.

The program below (shipped with the package) builds, with no loops at all,
the metric of a torus from its embedding, both kinds of connection
coefficients, and the full rank-4 curvature tensor.  Every derivative and
contraction is carried by index notation.

At the end, each component is evaluated at random parameter values and
checked against an independent numpy oracle that knows nothing about the
symbolic engine: it differentiates the closed-form metric with
second-order jets, which carry a value, a gradient and a Hessian.

Run with:  python3 demos/04_torus_curvature.py
"""

import math
import random

from tensorlang import Interpreter, format_value, oracle
from tensorlang.golden import CORPUS_DIR
from tensorlang.symbolic import eval_numeric

program = (CORPUS_DIR / "torus.tl").read_text(encoding="utf-8")
print(program)

it = Interpreter()
it.run_source(program)

print("Metric of the torus (tube radius a, center radius b):")
for i in (1, 2):
    for j in (1, 2):
        print(f"  g_{i}{j} = {format_value(it.eval_source(f'g_{i}_{j}'))}")
print()
print("Inverse metric:")
for i in (1, 2):
    print(f"  g^{i}{i} = {format_value(it.eval_source(f'g~{i}~{i}'))}")
print()

print("The four structurally nonzero curvature components:")
for idx in ((1, 2, 1, 2), (1, 2, 2, 1), (2, 1, 1, 2), (2, 1, 2, 1)):
    i, j, k, l = idx
    comp = it.eval_source(f"R~{i}_{j}_{k}_{l}")
    print(f"  R^{i}_{j}{k}{l} = {format_value(comp)[:100]}...")
print()

rng = random.Random(8)
a = rng.uniform(0.5, 1.5)
b = a + rng.uniform(0.5, 2.5)
theta = rng.uniform(0, 2 * math.pi)
phi = rng.uniform(0, 2 * math.pi)
env = {"a": a, "b": b, "θ": theta, "φ": phi}
print(f"Numeric check at a={a:.4f}, b={b:.4f}, θ={theta:.4f}, φ={phi:.4f}:")
orr = oracle.riemann(a, b, theta, phi)
print(f"  {'component':<12}{'symbolic':>16}{'jet oracle':>16}")
for i in (1, 2):
    for j in (1, 2):
        for k in (1, 2):
            for l in (1, 2):
                sym_val = eval_numeric(it.eval_source(f"R~{i}_{j}_{k}_{l}"), env)
                orc_val = orr[i - 1, j - 1, k - 1, l - 1]
                print(f"  R^{i}_{j}{k}{l}      {sym_val:16.10f}{orc_val:16.10f}")

known = math.cos(theta) * (b + a * math.cos(theta)) / a
print(f"\nClosed form cosθ(b + a cosθ)/a for R^1_212: {known:.10f}")
