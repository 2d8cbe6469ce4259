"""Independent oracles shared by the test modules: a brute-force index
reducer that enumerates multi-indices, the nested broadcast rule, and
small utilities for random expressions and tensors."""

import itertools
import math
import random

from tensorlang import symbolic, tensor
from tensorlang.errors import BroadcastError
from tensorlang.symbolic import Integer
from tensorlang.tensor import Index, SymbolLabel, Tensor


def merge_variance(left, right):
    """Keep-left merge rule for clashing index variances."""
    if left == right:
        return left
    if left == 0 or right == 0:
        return left
    return 0


def brute_reduce(shape, components, labeled):
    """Reduce by enumerating every multi-index and keeping the positions
    where all axes sharing a label agree.

    `labeled` is a per-axis list of (label, variance); an axis labelled
    None carries no index and never merges.  Returns
    (shape, components, [(label, variance)]).  Raises ValueError when two
    axes with one label have different dimensions.
    """
    order = []  # (label, variance, dim) by first occurrence
    group = []  # per axis, its entry in `order`
    for axis, (lab, var) in enumerate(labeled):
        for pos, entry in enumerate(order):
            if lab is not None and entry[0] == lab:
                if entry[2] != shape[axis]:
                    raise ValueError("dimension mismatch for label")
                entry[1] = merge_variance(entry[1], var)
                group.append(pos)
                break
        else:
            group.append(len(order))
            order.append([lab, var, shape[axis]])
    out_shape = tuple(e[2] for e in order)
    comps = []
    for multi in itertools.product(*[range(1, d + 1) for d in out_shape]):
        old = tuple(multi[pos] for pos in group)
        off = 0
        stride = 1
        for axis in range(len(shape) - 1, -1, -1):
            off += (old[axis] - 1) * stride
            stride *= shape[axis]
        comps.append(components[off])
    return out_shape, tuple(comps), [(e[0], e[1]) for e in order]


def random_labeled_tensor(rng, labels=("i", "j"), max_rank=4, max_dim=3):
    """A random integer tensor plus a per-axis (label, variance) assignment;
    axes sharing a label share a dimension.  A None among `labels` makes
    some axes (None, None): no index, and a dimension of their own."""
    rank = rng.randint(1, max_rank)
    dim_of = {lab: rng.randint(1, max_dim) for lab in labels if lab is not None}
    axes = []
    for _ in range(rank):
        lab = rng.choice(labels)
        axes.append((lab, None if lab is None else rng.choice((1, -1, 0))))
    shape = tuple(rng.randint(1, max_dim) if lab is None else dim_of[lab]
                  for lab, _ in axes)
    n = 1
    for d in shape:
        n *= d
    comps = tuple(Integer(rng.randint(-9, 9)) for _ in range(n))
    return shape, comps, axes


def as_engine_tensor(shape, comps, axes):
    idx = tuple(None if lab is None else Index(var, SymbolLabel(lab))
                for lab, var in axes)
    return tensor.make_tensor(shape, comps, idx)


def engine_summary(t):
    """(shape, components, [(label, variance)]) for reduced engine output;
    an axis without an index reads (None, None)."""
    labs = []
    for ix in t.indices:
        if ix is None:
            labs.append((None, None))
        else:
            labs.append((ix.label.name if isinstance(ix.label, SymbolLabel) else ix.label,
                         ix.variance))
    return t.shape, t.components, labs


def random_scalar_expr(rng, names=("x", "y", "z"), depth=3):
    """Random expression over +, *, integer powers, sin, cos."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return symbolic.Symbol(rng.choice(names))
        return Integer(rng.randint(-3, 3))
    op = rng.choice(("add", "mul", "pow", "sin", "cos"))
    if op == "add":
        return symbolic.add(random_scalar_expr(rng, names, depth - 1),
                            random_scalar_expr(rng, names, depth - 1))
    if op == "mul":
        return symbolic.mul(random_scalar_expr(rng, names, depth - 1),
                            random_scalar_expr(rng, names, depth - 1))
    if op == "pow":
        base = random_scalar_expr(rng, names, depth - 1)
        if base == symbolic.ZERO:
            base = symbolic.Symbol(rng.choice(names))
        return symbolic.powi(base, rng.choice((2, 3, -1, -2)))
    if op == "sin":
        return symbolic.sin(random_scalar_expr(rng, names, depth - 1))
    return symbolic.cos(random_scalar_expr(rng, names, depth - 1))


def reference_sort_key(e):
    """The recursive sort key the engine computed on every call before
    nodes cached theirs; cached keys must order expressions the same way."""
    if isinstance(e, Integer):
        return (0, e.value)
    if isinstance(e, symbolic.Rational):
        return (1, (e.numerator, e.denominator))
    if isinstance(e, symbolic.Symbol):
        return (2, e.name)
    if isinstance(e, symbolic.Power):
        return (3, reference_sort_key(e.base), e.exponent)
    if isinstance(e, symbolic.Apply):
        return (4, e.fn, reference_sort_key(e.arg))
    if isinstance(e, symbolic.Sum):
        return (5, tuple(reference_sort_key(t) for t in e.terms))
    if isinstance(e, symbolic.Product):
        return (6, tuple(reference_sort_key(f) for f in e.factors))
    raise TypeError(f"not a scalar expression: {e!r}")


def subterms(e):
    """`e` and every node below it, parents first."""
    out = [e]
    for child in getattr(e, "terms", ()) + getattr(e, "factors", ()):
        out += subterms(child)
    for attr in ("base", "arg"):
        if hasattr(e, attr):
            out += subterms(getattr(e, attr))
    return out


def random_binding(rng, names=("x", "y", "z")):
    """Bindings kept away from zero so negative powers stay well-behaved."""
    return {n: rng.choice((-1, 1)) * rng.uniform(0.4, 1.8) for n in names}


def reference_eval_numeric(e, env):
    """Float value of e at one binding by plain recursion, with the float
    operations the engine uses per node: fsum, prod from 1.0, ** n, sin, cos."""
    if isinstance(e, (Integer, symbolic.Rational)):
        return float(symbolic.as_fraction(e))
    if isinstance(e, symbolic.Symbol):
        return float(env[e.name])
    if isinstance(e, symbolic.Sum):
        return math.fsum(reference_eval_numeric(t, env) for t in e.terms)
    if isinstance(e, symbolic.Product):
        return math.prod((reference_eval_numeric(f, env) for f in e.factors), start=1.0)
    if isinstance(e, symbolic.Power):
        return reference_eval_numeric(e.base, env) ** e.exponent
    return (math.sin if e.fn == "sin" else math.cos)(reference_eval_numeric(e.arg, env))


def values_close(e1, e2, rng, names=("x", "y", "z"), trials=100, tol=1e-9):
    for _ in range(trials):
        env = random_binding(rng, names)
        try:
            v1 = symbolic.eval_numeric(e1, env)
            v2 = symbolic.eval_numeric(e2, env)
        except (ZeroDivisionError, OverflowError):
            continue
        if not (abs(v1 - v2) <= tol * (1 + max(abs(v1), abs(v2)))):
            return False
    return True


def reference_pythagoras(e):
    """The dict-based Pythagorean rewrite the engine ran before it merged
    canonical terms: each term becomes (coefficient, {base: exponent}), a
    frozenset index finds partners, like terms are re-collected by hand
    after each merge, and the sum is rebuilt at the end.  The engine's
    rewrite must return the very same node."""
    if not isinstance(e, symbolic.Sum):
        return e
    terms = [[coeff, _reference_monomial(mono)]
             for coeff, mono in map(symbolic._split_term, e.terms)]
    while _reference_merge_one_pair(terms):
        collected = {}
        for c, m in terms:
            key = frozenset(m.items())
            if key in collected:
                collected[key][0] += c
            else:
                collected[key] = [c, m]
        terms = [[c, m] for c, m in collected.values() if c != 0]
    return symbolic.add(*[
        symbolic.mul(symbolic.from_fraction(c), *[symbolic.powi(b, x) for b, x in m.items()])
        for c, m in terms])


def _reference_monomial(mono):
    out = {}
    if mono is None:
        return out
    for f in mono.factors if isinstance(mono, symbolic.Product) else (mono,):
        if isinstance(f, symbolic.Power):
            out[f.base] = f.exponent
        else:
            out[f] = 1
    return out


def _reference_merge_one_pair(terms):
    index = {}
    for i, (c, m) in enumerate(terms):
        index.setdefault(frozenset(m.items()), []).append(i)
    for i, (c1, m1) in enumerate(terms):
        for base, exp in m1.items():
            if not (isinstance(base, symbolic.Apply) and base.fn == "sin" and exp >= 2):
                continue
            merged = dict(m1)
            merged[base] = exp - 2
            if exp == 2:
                del merged[base]
            partner = dict(merged)
            cosb = symbolic.cos(base.arg)
            partner[cosb] = partner.get(cosb, 0) + 2
            for j in index.get(frozenset(partner.items()), []):
                c2 = terms[j][0]
                if j == i or c1 * c2 <= 0:
                    continue
                amount = c1 if abs(c1) <= abs(c2) else c2
                terms[i][0] -= amount
                terms[j][0] -= amount
                terms.append([amount, merged])
                return True
    return False


def _reference_tensor_map(call1, t):
    if not isinstance(t, Tensor):
        return call1(t)
    results = [call1(c) for c in t.components]
    if not any(isinstance(r, Tensor) for r in results):
        return tensor.reduce_indices(tensor.make_tensor(t.shape, results, t.indices))
    first = results[0]
    for r in results:
        if not isinstance(r, Tensor) or r.shape != getattr(first, "shape", None) \
                or r.indices != first.indices:
            raise BroadcastError(
                "componentwise results do not share one shape and index list")
    comps = []
    for r in results:
        comps.extend(r.components)
    combined = tensor.make_tensor(t.shape + first.shape, comps, t.indices + first.indices)
    return tensor.reduce_indices(combined)


def reference_scalar_apply(call, kinds, args):
    """The paper's broadcast rule written as nesting: one componentwise map
    per scalar-kind tensor argument, each level index-reduced together
    with the (already reduced) result of the levels inside it."""
    prepared = [tensor.flip_indices(a) if kind == tensor.KIND_INVERTED else a
                for kind, a in zip(kinds, args)]

    def go(i, acc):
        if i == len(prepared):
            return call(acc)
        a = prepared[i]
        if kinds[i] == tensor.KIND_TENSOR or not isinstance(a, Tensor):
            return go(i + 1, acc + [a])
        return _reference_tensor_map(lambda c: go(i + 1, acc + [c]), a)

    return tensor.reduce_indices(go(0, []))
