"""Tensor values with per-axis index slots, the diagonal-merge index
reduction engine, and the primitive tensor operations.

Variance codes follow the 1 / -1 / 0 convention for superscript,
subscript, and supersubscript.  An axis may also carry no index at all
(slot None); such axes never merge with anything, which is exactly how
omitted indices behave.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import (BoundsError, BroadcastError, DimensionMismatchError,
                     EvalError, RankError, ShapeError)

SUP, SUB, SUPSUB = 1, -1, 0
VARIANCE_MARK = {SUP: "~", SUB: "_", SUPSUB: "~_"}  # as written in source

KIND_SCALAR = "scalar"
KIND_TENSOR = "tensor"
KIND_INVERTED = "inverted-scalar"


@dataclass(frozen=True)
class SymbolLabel:
    name: str


@dataclass(frozen=True)
class NumberLabel:
    value: int


@dataclass(frozen=True)
class DummyLabel:
    ident: int


@dataclass(frozen=True)
class Index:
    variance: int  # SUP, SUB or SUPSUB
    label: object


_dummy_ids = itertools.count(1)


def fresh_dummy(variance=SUB):
    """A dummy index whose label is distinct from every earlier one."""
    return Index(variance, DummyLabel(next(_dummy_ids)))


@dataclass(frozen=True)
class Tensor:
    shape: tuple  # positive dimensions, length = rank
    components: tuple  # row-major, length = product of shape
    indices: tuple  # per-axis Index or None, length = rank

    @property
    def rank(self):
        return len(self.shape)


def _strides(shape):
    out = [1] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        out[i] = out[i + 1] * shape[i + 1]
    return out


def _offset(strides, multi):
    off = 0
    for s, i in zip(strides, multi):
        off += s * (i - 1)
    return off


def positions(shape):
    """All 1-based multi-indices of `shape` in row-major order."""
    return itertools.product(*[range(1, d + 1) for d in shape])


def component_at(t, multi):
    return t.components[_offset(_strides(t.shape), multi)]


def make_tensor(shape, components, indices=None):
    shape = tuple(shape)
    components = tuple(components)
    if indices is None:
        indices = (None,) * len(shape)
    n = 1
    for d in shape:
        if not isinstance(d, int) or d < 1:
            raise ShapeError(f"dimensions must be positive integers, got {shape}")
        n *= d
    if len(components) != n:
        raise ShapeError(f"{len(components)} components for shape {shape}")
    if len(indices) != len(shape):
        raise ShapeError("one index slot per axis required")
    return Tensor(shape, components, tuple(indices))


def tensor_from_nested(elements):
    """Stack already-evaluated element values one level deep.

    Scalars make a vector; equal-shape index-free tensors stack into a
    higher-rank tensor.  Ragged or mixed nesting is an error.
    """
    elements = list(elements)
    if not elements:
        raise ShapeError("empty tensor literal")
    if all(isinstance(e, Tensor) for e in elements):
        first = elements[0]
        for e in elements:
            if e.shape != first.shape:
                raise ShapeError(
                    f"ragged tensor literal: {e.shape} next to {first.shape}")
            if any(ix is not None for ix in e.indices):
                raise ShapeError("tensor literal elements must not carry indices")
        comps = []
        for e in elements:
            comps.extend(e.components)
        return make_tensor((len(elements), *first.shape), comps)
    if any(isinstance(e, Tensor) for e in elements):
        raise ShapeError("tensor literal mixes scalars and tensors")
    return make_tensor((len(elements),), elements)


def _gather(t, shape, axis_of, base=0):
    """Row-major components of a tensor of `shape` read out of `t`.

    Input axis a follows output axis axis_of[a], or stays fixed when that
    entry is None, its offset already counted in `base`.  Several input
    axes following one output axis read its diagonal.
    """
    if base == 0 and axis_of == list(range(len(shape))):
        return t.components  # the identity plan reads every component in order
    steps = [0] * len(shape)
    for stride, out in zip(_strides(t.shape), axis_of):
        if out is not None:
            steps[out] += stride
    offsets = [base]
    for d, step in zip(shape, steps):
        offsets = [off + step * i for off in offsets for i in range(d)]
    comps = t.components
    return [comps[off] for off in offsets]


def _mismatch(k, j, dk, dj):
    return DimensionMismatchError(
        f"axes {k} and {j} have different dimensions ({dk} vs {dj})")


# --- the reduction engine ----------------------------------------------------


def diag(k, j, t):
    """Diagonal along 1-based axes k < j: drop axis j, tie its coordinate
    to axis k's."""
    if not (1 <= k < j <= t.rank):
        raise EvalError(f"diag positions out of range: {k}, {j}")
    if t.shape[k - 1] != t.shape[j - 1]:
        raise _mismatch(k, j, t.shape[k - 1], t.shape[j - 1])
    axis_of = [a if a < j - 1 else a - 1 for a in range(t.rank)]
    axis_of[j - 1] = k - 1
    shape = t.shape[:j - 1] + t.shape[j:]
    return make_tensor(shape, _gather(t, shape, axis_of), t.indices[:j - 1] + t.indices[j:])


def reduce_indices(t):
    """Merge same-label index positions into diagonals.

    Each label keeps the slot of its first occurrence; slots without an
    index never merge.  The kept slot becomes a supersubscript when its
    group holds both a superscript and a subscript, and is otherwise
    unchanged.
    """
    if not isinstance(t, Tensor):
        return t
    out_of = {}  # label -> output axis
    members = []  # per output axis, the input axes it keeps the diagonal of
    axis_of = []
    for a, ix in enumerate(t.indices):
        if ix is not None and isinstance(ix.label, NumberLabel):
            raise EvalError("numeric indices must be selected before reduction")
        out = out_of.get(ix.label) if ix is not None else None
        if out is None:
            out = len(members)
            members.append([])
            if ix is not None:
                out_of[ix.label] = out
        members[out].append(a)
        axis_of.append(out)
    if len(members) == t.rank:
        return t
    # A mismatch names its axes as merging one pair at a time, leftmost
    # label first, would number them.
    merged = []
    for first, *rest in members:
        for a in rest:
            if t.shape[a] != t.shape[first]:
                k, j = (x + 1 - sum(m < x for m in merged) for x in (first, a))
                raise _mismatch(k, j, t.shape[first], t.shape[a])
            merged.append(a)
    indices = []
    for first, *rest in members:
        ix = t.indices[first]
        if rest and {t.indices[a].variance for a in (first, *rest)} >= {SUP, SUB}:
            ix = Index(SUPSUB, ix.label)
        indices.append(ix)
    shape = tuple(t.shape[first] for first, *_ in members)
    return make_tensor(shape, _gather(t, shape, axis_of), indices)


def append_indices(value, indices):
    """Attach evaluated indices to a tensor.

    Slots are overwritten from the left (a stored tensor referenced with
    fresh indices takes the new ones); numeric labels select components
    immediately; the result is index-reduced.  A scalar comes back when
    every axis has been selected away.
    """
    if not isinstance(value, Tensor):
        if indices:
            raise EvalError("cannot index a scalar value")
        return value
    if len(indices) > value.rank:
        raise RankError(
            f"{len(indices)} indices on a rank-{value.rank} tensor")
    slots = list(value.indices)
    slots[:len(indices)] = list(indices)
    base = 0
    keep = []
    axis_of = []
    for a, (ix, d, stride) in enumerate(zip(slots, value.shape, _strides(value.shape))):
        if ix is not None and isinstance(ix.label, NumberLabel):
            v = ix.label.value
            if not (1 <= v <= d):
                raise BoundsError(f"index {v} out of bounds for axis of dimension {d}")
            base += stride * (v - 1)
            axis_of.append(None)
        else:
            axis_of.append(len(keep))
            keep.append(a)
    shape = tuple(value.shape[a] for a in keep)
    comps = _gather(value, shape, axis_of, base)
    if not keep:
        return comps[0]
    return reduce_indices(make_tensor(shape, comps, [slots[a] for a in keep]))


# --- primitive operations ----------------------------------------------------


def contract(fold2, value):
    """Fold every supersubscript axis away, leftmost first, using the
    binary callable `fold2`; scalars and supersubscript-free tensors pass
    through unchanged."""
    if not isinstance(value, Tensor):
        return value
    t = value
    while True:
        axis = next((a for a, ix in enumerate(t.indices)
                     if ix is not None and ix.variance == SUPSUB), None)
        if axis is None:
            return t
        shape = t.shape[:axis] + t.shape[axis + 1:]
        axis_of = [a if a < axis else a - 1 for a in range(t.rank)]
        axis_of[axis] = None
        stride = _strides(t.shape)[axis]
        slices = [_gather(t, shape, axis_of, stride * i) for i in range(t.shape[axis])]
        comps = [functools.reduce(fold2, column) for column in zip(*slices)]
        if not shape:
            return comps[0]
        t = make_tensor(shape, comps, t.indices[:axis] + t.indices[axis + 1:])


def flip_indices(value):
    """Swap superscripts and subscripts; supersubscripts stay put."""
    if not isinstance(value, Tensor):
        return value
    flipped = tuple(
        None if ix is None else Index(-ix.variance, ix.label)
        for ix in value.indices)
    return make_tensor(value.shape, value.components, flipped)


def transpose(order_labels, t):
    """Permute axes so the index labels appear in the order given."""
    if not isinstance(t, Tensor):
        raise EvalError("transpose expects a tensor")
    labels = [ix.label if ix is not None else None for ix in t.indices]
    if len(order_labels) != t.rank or None in labels:
        raise EvalError("transpose order must cover every indexed axis")
    perm = []
    axis_of = [None] * t.rank
    for pos, want in enumerate(order_labels):
        a = next((a for a, lab in enumerate(labels)
                  if lab == want and axis_of[a] is None), None)
        if a is None:
            raise EvalError("transpose order is not a permutation of the index labels")
        perm.append(a)
        axis_of[a] = pos
    shape = tuple(t.shape[a] for a in perm)
    return make_tensor(shape, _gather(t, shape, axis_of), [t.indices[a] for a in perm])


def _layout(value):
    return (value.shape, value.indices) if isinstance(value, Tensor) else None


def scalar_apply(call, kinds, args):
    """Componentwise mapping over the scalar-kind tensor arguments (the
    levels), then index reduction.

    Tensor-kind arguments and plain scalars pass through whole; an
    inverted-scalar argument has its indices flipped first.  `call`
    receives the unwrapped argument list at each position of the levels'
    outer product, in row-major order.  Tensor-valued results must share
    one shape and index list, and their axes form the innermost level.
    The last level's axes reduce together with the results' axes, then
    each earlier level's axes together with that reduced result.
    """
    xs = [flip_indices(a) if kind == KIND_INVERTED else a for kind, a in zip(kinds, args)]
    at = [i for i, a in enumerate(xs) if kinds[i] != KIND_TENSOR and isinstance(a, Tensor)]
    levels = [xs[i] for i in at]
    results = []
    for comps in itertools.product(*[t.components for t in levels]):
        for i, c in zip(at, comps):
            xs[i] = c
        results.append(call(list(xs)))
    if not levels:
        return reduce_indices(results[0])
    inner = _layout(results[0])
    if any(_layout(r) != inner for r in results):
        raise BroadcastError("componentwise results do not share one shape and index list")
    # The reductions run on a plan whose components are offsets into the
    # flat outer product; the kept offsets are read once at the end.
    flat = results if inner is None else [c for r in results for c in r.components]
    block = len(flat) // len(results)
    shape, indices = inner or ((), ())
    plan = Tensor(shape, tuple(range(block)), indices)
    for t in reversed(levels):
        comps = [c * block + off for c in range(len(t.components)) for off in plan.components]
        plan = reduce_indices(make_tensor(t.shape + plan.shape, comps, t.indices + plan.indices))
        block *= len(t.components)
    return make_tensor(plan.shape, [flat[off] for off in plan.components], plan.indices)


def generate_tensor(call, dims):
    """Build a tensor of the given dimensions; the component at each 1-based
    position is `call(position)`."""
    dims = tuple(dims)
    comps = [call(multi) for multi in positions(dims)]
    return make_tensor(dims, comps)
