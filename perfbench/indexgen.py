"""Seeded generator for the `index-algebra` workload.

Each form combines small integer tensors (dimensions 3 to 5, ranks 1 to
3) written as literals, and exercises one index-notation feature: `.`,
`mat-mul`, `inner-product`, outer products under `+`, `-` and `min`,
repeated-index diagonals, dummies, and a product followed by `contract`.
The expected value of every form is a numpy expression over the same
integers, usually `numpy.einsum`, so it shares no code with the engine.

A program has one round per dimension triple (a, b, c) in DIMS^3.  Every
template appears once per round, so each template meets every triple
exactly once.  The seed picks which triple each round gives each
template, the order of forms within a round, and every integer.  Every
seed therefore yields the same multiset of tensor shapes: the cost of a
program, and its slowest forms, stay the same from seed to seed while
the forms themselves change.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

DIMS = (3, 4, 5)


@dataclass(frozen=True)
class Form:
    """One generated top-level form and how to compute its expected value."""
    template: str
    source: str
    operands: tuple  # nested lists of ints, one per literal operand
    expect: str  # recipe name understood by expected_value
    suffix: str  # index suffix the printed result must end with
    work: int  # scalar components broadcast before any index reduction


def _values(rng, shape):
    if len(shape) == 1:
        return [rng.randint(-9, 9) for _ in range(shape[0])]
    return [_values(rng, shape[1:]) for _ in range(shape[0])]


def _literal(values):
    if isinstance(values, int):
        return str(values)
    return "[|" + " ".join(_literal(v) for v in values) + "|]"


# Each template: (source pattern, operand shapes from dims a/b/c,
# expected-value recipe, printed index suffix, broadcast work).
# {0}, {1} in the pattern are the literal operands.
TEMPLATES = {
    "dot": ("(. {0}~i {1}_i)",
            lambda a, b, c: ((a,), (a,)), "dot", "", lambda a, b, c: a * a),
    "inner-product": ("(inner-product {0} {1})",
                      lambda a, b, c: ((a,), (a,)), "dot", "", lambda a, b, c: a * a),
    "matvec": ("(. {0}~i_j {1}_i)",
               lambda a, b, c: ((a, b), (a,)), "ij,i->j", "_j",
               lambda a, b, c: a * b * a),
    "mat-mul": ("(mat-mul {0} {1})",
                lambda a, b, c: ((a, b), (b, c)), "ij,jk->ik", "~#_#",
                lambda a, b, c: a * b * b * c),
    "contract-product": ("(contract + (* {0}~i_j {1}_i_k))",
                         lambda a, b, c: ((a, b), (a, c)), "ij,ik->jk", "_j_k",
                         lambda a, b, c: a * b * a * c),
    "rank3-dot": ("(. {0}~i_j_k {1}_i_l)",
                  lambda a, b, c: ((a, b, c), (a, b)), "ijk,il->jkl", "_j_k_l",
                  lambda a, b, c: a * b * c * a * b),
    "contract-min": ("(contract min (* {0}~i {1}_i))",
                     lambda a, b, c: ((a,), (a,)), "min-of-product", "",
                     lambda a, b, c: a * a),
    "outer-plus": ("(+ {0}_i {1}_j)",
                   lambda a, b, c: ((a,), (b,)), "outer-add", "_i_j",
                   lambda a, b, c: a * b),
    "outer-minus": ("(- {0}_i_j {1}_k)",
                    lambda a, b, c: ((a, b), (c,)), "outer-sub", "_i_j_k",
                    lambda a, b, c: a * b * c),
    "outer-min": ("(min {0}_i {1}_j)",
                  lambda a, b, c: ((a,), (b,)), "outer-min", "_i_j",
                  lambda a, b, c: a * b),
    "outer3-min": ("(min {0}_i_j {1}_k)",
                   lambda a, b, c: ((a, b), (c,)), "outer-min", "_i_j_k",
                   lambda a, b, c: a * b * c),
    "broadcast-plus": ("(+ {0}_i_j {1}_j)",
                       lambda a, b, c: ((a, b), (b,)), "row-add", "_i_j",
                       lambda a, b, c: a * b * b),
    "times-diag": ("(* {0}_i {1}_i_j)",
                   lambda a, b, c: ((a,), (a, b)), "i,ij->ij", "_i_j",
                   lambda a, b, c: a * a * b),
    "diagonal": ("{0}_i_i",
                 lambda a, b, c: ((a, a),), "ii->i", "_i",
                 lambda a, b, c: a * a),
    "diagonal3": ("{0}_i_j_i",
                  lambda a, b, c: ((a, b, a),), "iji->ij", "_i_j",
                  lambda a, b, c: a * b * a),
    "dummy-outer": ("(+ {0}_# {1}_#)",
                    lambda a, b, c: ((a,), (b,)), "outer-add", "_#_#",
                    lambda a, b, c: a * b),
}


def generate(seed):
    """The forms of the program for `seed`, in evaluation order."""
    rng = random.Random(seed)
    names = sorted(TEMPLATES)
    triples = list(itertools.product(DIMS, repeat=3))
    plan = {name: rng.sample(triples, len(triples)) for name in names}
    forms = []
    for round_ in range(len(triples)):
        rng.shuffle(names)
        for name in names:
            pattern, shapes, expect, suffix, cost = TEMPLATES[name]
            dims = plan[name][round_]
            operands = tuple(_values(rng, s) for s in shapes(*dims))
            source = pattern.format(*(_literal(v) for v in operands))
            forms.append(Form(name, source, operands, expect, suffix, cost(*dims)))
    return forms


def program_source(forms):
    """The program the interpreter receives: one top-level form per line."""
    return "".join(f.source + "\n" for f in forms)


def expected_value(form):
    """The form's value computed by numpy from the same integers."""
    import numpy as np

    ops = [np.array(v, dtype=np.int64) for v in form.operands]
    recipe = form.expect
    if recipe == "dot":
        return np.dot(ops[0], ops[1])
    if recipe == "min-of-product":
        return (ops[0] * ops[1]).min()
    if recipe == "outer-add":
        return np.add.outer(ops[0], ops[1])
    if recipe == "outer-sub":
        return np.subtract.outer(ops[0], ops[1])
    if recipe == "outer-min":
        return np.minimum.outer(ops[0], ops[1])
    if recipe == "row-add":
        return ops[0] + ops[1][np.newaxis, :]
    return np.einsum(recipe, *ops)
