"""Output checks that share no code with the engine under test.

The checks read only what a user sees: the printed form of a value
(`tensorlang.format_value`), parsed here by a reader of our own.  Scalars
print as prefix S-expressions such as `(* -1 r (sin θ))`, and tensors as
nested `[|...|]` followed by their index suffix.  Numbers come from our
own evaluator of those S-expressions, and expected values from numpy or
from closed forms.
"""

from __future__ import annotations

import math
import re

_TOKEN = re.compile(r"\[\||\|\]|\(|\)|[^\s()\[|\]]+")


def parse_sexpr(text):
    """`(op arg ...)` as nested tuples, atoms as strings."""
    tokens = _TOKEN.findall(text)
    tree, end = _read(tokens, 0)
    if end != len(tokens):
        raise ValueError(f"trailing text after S-expression: {text!r}")
    return tree


def _read(tokens, i):
    tok = tokens[i]
    if tok != "(":
        return tok, i + 1
    items = []
    i += 1
    while tokens[i] != ")":
        item, i = _read(tokens, i)
        items.append(item)
    return tuple(items), i + 1


def sexpr_value(tree, env):
    """Float value of a parsed scalar S-expression; symbols come from `env`."""
    if isinstance(tree, str):
        if re.fullmatch(r"-?[0-9]+", tree):
            return float(int(tree))
        return float(env[tree])
    op, args = tree[0], [sexpr_value(a, env) for a in tree[1:]]
    if op == "+":
        return math.fsum(args)
    if op == "*":
        return math.prod(args)
    if op == "/":
        return args[0] / args[1]
    if op == "^":
        return args[0] ** args[1]
    if op == "sin":
        return math.sin(args[0])
    if op == "cos":
        return math.cos(args[0])
    raise ValueError(f"unknown operator in printed scalar: {op}")


def parse_printed(text):
    """(nested lists of components, index suffix) of a printed value.

    Components are parsed S-expressions; a printed scalar has suffix ''.
    """
    text = text.strip()
    if not text.startswith("[|"):
        return parse_sexpr(text), ""
    end = text.rindex("|]") + 2
    tokens = _TOKEN.findall(text[:end])
    value, i = _read_tensor(tokens, 0)
    if i != len(tokens):
        raise ValueError(f"malformed tensor text: {text!r}")
    return value, text[end:]


def _read_tensor(tokens, i):
    if tokens[i] != "[|":
        return _read(tokens, i)
    items = []
    i += 1
    while tokens[i] != "|]":
        item, i = _read_tensor(tokens, i)
        items.append(item)
    return items, i + 1


def flatten(nested):
    if isinstance(nested, list):
        return [x for item in nested for x in flatten(item)]
    return [nested]


def node_counts(trees):
    """(nodes counted as trees, distinct subtrees) over parsed S-expressions.

    A node is an operator application or an operand atom; operator names
    are not nodes.
    """
    distinct = set()
    total = 0
    stack = list(trees)
    while stack:
        tree = stack.pop()
        total += 1
        distinct.add(tree)
        if isinstance(tree, tuple):
            stack.extend(tree[1:])
    return total, len(distinct)


def close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# --- torus --------------------------------------------------------------------

TORUS_TOLERANCE = 1e-4  # the finite-difference oracle's own accuracy bound


def torus_bindings(rng, count):
    """Random torus parameters and a point, as the demo draws them."""
    out = []
    for _ in range(count):
        a = rng.uniform(0.5, 1.5)
        b = a + rng.uniform(0.5, 2.5)
        out.append({"a": a, "b": b,
                    "θ": rng.uniform(0.0, 2 * math.pi),
                    "φ": rng.uniform(0.0, 2 * math.pi)})
    return out


def check_torus(printed, bindings):
    """Compare every printed g, Γ¹, Γ², R component with the numeric oracle.

    `printed` maps "g", "Γ1", "Γ2", "R" to lists of printed components in
    row-major order.  Returns (attempted, failed).
    """
    import numpy as np

    from tensorlang import oracle

    trees = {k: [parse_sexpr(c) for c in comps] for k, comps in printed.items()}
    attempted = failed = 0
    for env in bindings:
        args = (env["a"], env["b"], env["θ"], env["φ"])
        expected = {"g": oracle.metric(*args), "Γ1": oracle.christoffel_first(*args),
                    "Γ2": oracle.christoffel_second(*args), "R": oracle.riemann(*args)}
        for key, want in expected.items():
            want = np.asarray(want).ravel()
            got = trees[key]
            attempted += len(want)
            if len(got) != len(want):
                failed += len(want)
                continue
            failed += sum(not close(sexpr_value(t, env), w, TORUS_TOLERANCE)
                          for t, w in zip(got, want))
    return attempted, failed


# --- Schwarzschild --------------------------------------------------------------

SCHWARZSCHILD_TOLERANCE = 1e-9


def schwarzschild_points(rng, count):
    """Points outside the horizon, away from the coordinate poles."""
    out = []
    for _ in range(count):
        m = rng.uniform(0.5, 2.0)
        out.append({"M": m, "r": m * rng.uniform(3.0, 10.0),
                    "θ": rng.uniform(0.3, math.pi - 0.3),
                    "t": rng.uniform(0.0, 10.0), "φ": rng.uniform(0.0, 2 * math.pi)})
    return out


def check_schwarzschild(printed_riemann, points):
    """Vacuum checks on the printed R~i_j_k_l (4x4x4x4, row-major).

    The Ricci contraction R~i_j_i_l must vanish and the Kretschmann scalar
    R_abcd R^abcd must equal 48 M^2 / r^6.  The metric used to raise and
    lower indices is written out here, not taken from the program.
    Returns (attempted, failed).
    """
    trees = [parse_sexpr(c) for c in printed_riemann]
    if len(trees) != 256:
        return 1, 1
    attempted = failed = 0
    for env in points:
        m, r, th = env["M"], env["r"], env["θ"]
        f = 1 - 2 * m / r
        g = [-f, 1 / f, r * r, (r * math.sin(th)) ** 2]
        R = [sexpr_value(t, env) for t in trees]

        def at(i, j, k, l):
            return R[((i * 4 + j) * 4 + k) * 4 + l]

        scale = max(abs(x) for x in R)
        for j in range(4):
            for l in range(4):
                ricci = math.fsum(at(i, j, i, l) for i in range(4))
                attempted += 1
                failed += abs(ricci) > SCHWARZSCHILD_TOLERANCE * scale
        kretschmann = math.fsum(
            g[a] / (g[b] * g[c] * g[d]) * at(a, b, c, d) ** 2
            for a in range(4) for b in range(4) for c in range(4) for d in range(4))
        attempted += 1
        failed += not close(kretschmann, 48 * m * m / r ** 6, SCHWARZSCHILD_TOLERANCE)
    return attempted, failed


# --- index algebra ----------------------------------------------------------------


def check_index_form(form, printed, expected):
    """True when `printed` shows exactly `expected` (a numpy value) with
    the form's index suffix."""
    import numpy as np

    try:
        value, suffix = parse_printed(printed)
        got = np.array(_ints(value), dtype=np.int64)
    except (ValueError, IndexError):
        return False
    return suffix == form.suffix and got.shape == np.shape(expected) \
        and bool(np.array_equal(got, expected))


def _ints(value):
    if isinstance(value, list):
        return [_ints(v) for v in value]
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    raise ValueError(f"not an integer component: {value!r}")
