"""Tensor values with per-axis index slots, the diagonal-merge index
reduction engine, and the primitive tensor operations.

Variance codes follow the 1 / -1 / 0 convention for superscript,
subscript, and supersubscript.  An axis may also carry no index at all
(slot None); such axes never merge with anything, which is exactly how
omitted indices behave.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .errors import (BoundsError, BroadcastError, DimensionMismatchError,
                     EvalError, RankError, ShapeError)

SUP, SUB, SUPSUB = 1, -1, 0

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


def _positions(shape):
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


# --- assoc-list helpers mirroring the reduction pseudo-code ------------------


def clashing_pairs(entries):
    """Pairs of 1-based positions carrying the same label, ordered."""
    pairs = []
    for k in range(len(entries)):
        for j in range(k + 1, len(entries)):
            lk, lj = entries[k][0], entries[j][0]
            if lk is not None and lk == lj:
                pairs.append((k + 1, j + 1))
    pairs.sort()
    return pairs


def entry_code(k, entries):
    return entries[k - 1][1]


def remove_entry(k, entries):
    return entries[:k - 1] + entries[k:]


def update_entry(k, code, entries):
    return entries[:k - 1] + [(entries[k - 1][0], code)] + entries[k:]


# --- the reduction engine ----------------------------------------------------


def diag(k, j, t):
    """Diagonal along 1-based axes k < j: drop axis j, tie its coordinate
    to axis k's."""
    if not (1 <= k < j <= t.rank):
        raise EvalError(f"diag positions out of range: {k}, {j}")
    if t.shape[k - 1] != t.shape[j - 1]:
        raise DimensionMismatchError(
            f"axes {k} and {j} have different dimensions "
            f"({t.shape[k - 1]} vs {t.shape[j - 1]})")
    new_shape = t.shape[:j - 1] + t.shape[j:]
    strides = _strides(t.shape)
    comps = []
    for multi in _positions(new_shape):
        old = multi[:j - 1] + (multi[k - 1],) + multi[j - 1:]
        comps.append(t.components[_offset(strides, old)])
    new_indices = t.indices[:j - 1] + t.indices[j:]
    return make_tensor(new_shape, comps, new_indices)


def reduce_indices(t):
    """Merge same-label index positions into diagonals until none clash.

    Equal variances (or a supersubscript against anything) keep the left
    slot unchanged; a superscript against a subscript turns the surviving
    left slot into a supersubscript.
    """
    if not isinstance(t, Tensor):
        return t
    while True:
        entries = [(ix.label if ix else None, ix.variance if ix else None)
                   for ix in t.indices]
        for label, _ in entries:
            if isinstance(label, NumberLabel):
                raise EvalError("numeric indices must be selected before reduction")
        pairs = clashing_pairs(entries)
        if not pairs:
            return t
        k, j = pairs[0]
        ck, cj = entry_code(k, entries), entry_code(j, entries)
        t = diag(k, j, t)
        if ck != cj and 0 not in (ck, cj):
            new = list(t.indices)
            new[k - 1] = replace(new[k - 1], variance=SUPSUB)
            t = make_tensor(t.shape, t.components, new)


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
    t = make_tensor(value.shape, value.components, slots)

    picked = {}
    for axis, ix in enumerate(t.indices):
        if ix is not None and isinstance(ix.label, NumberLabel):
            v = ix.label.value
            if not (1 <= v <= t.shape[axis]):
                raise BoundsError(
                    f"index {v} out of bounds for axis of dimension {t.shape[axis]}")
            picked[axis] = v
    if picked:
        keep = [a for a in range(t.rank) if a not in picked]
        if not keep:
            return component_at(t, tuple(picked[a] for a in range(t.rank)))
        new_shape = tuple(t.shape[a] for a in keep)
        new_indices = tuple(t.indices[a] for a in keep)
        strides = _strides(t.shape)
        comps = []
        for multi in _positions(new_shape):
            old = []
            it = iter(multi)
            for a in range(t.rank):
                old.append(picked[a] if a in picked else next(it))
            comps.append(t.components[_offset(strides, old)])
        t = make_tensor(new_shape, comps, new_indices)
    return reduce_indices(t)


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
        new_shape = t.shape[:axis] + t.shape[axis + 1:]
        new_indices = t.indices[:axis] + t.indices[axis + 1:]
        if not new_shape:
            acc = t.components[0]
            for i in range(1, t.shape[0]):
                acc = fold2(acc, t.components[i])
            return acc
        strides = _strides(t.shape)
        comps = []
        for multi in _positions(new_shape):
            def at(i):
                return t.components[_offset(strides, multi[:axis] + (i,) + multi[axis:])]
            acc = at(1)
            for i in range(2, t.shape[axis] + 1):
                acc = fold2(acc, at(i))
            comps.append(acc)
        t = make_tensor(new_shape, comps, new_indices)


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
    used = set()
    for want in order_labels:
        for a, lab in enumerate(labels):
            if a not in used and lab == want:
                perm.append(a)
                used.add(a)
                break
        else:
            raise EvalError("transpose order is not a permutation of the index labels")
    new_shape = tuple(t.shape[a] for a in perm)
    new_indices = tuple(t.indices[a] for a in perm)
    strides = _strides(t.shape)
    comps = []
    for multi in _positions(new_shape):
        old = [0] * t.rank
        for pos, a in enumerate(perm):
            old[a] = multi[pos]
        comps.append(t.components[_offset(strides, old)])
    return make_tensor(new_shape, comps, new_indices)


def tensor_map(call1, t):
    """Apply `call1` to every component.  Tensor-valued results must agree
    in shape and indices; their axes are hoisted to the end and the result
    is index-reduced."""
    if not isinstance(t, Tensor):
        return call1(t)
    results = [call1(c) for c in t.components]
    if not any(isinstance(r, Tensor) for r in results):
        return reduce_indices(make_tensor(t.shape, results, t.indices))
    first = results[0]
    for r in results:
        if not isinstance(r, Tensor) or r.shape != getattr(first, "shape", None) \
                or r.indices != first.indices:
            raise BroadcastError(
                "componentwise results do not share one shape and index list")
    comps = []
    for r in results:
        comps.extend(r.components)
    combined = make_tensor(t.shape + first.shape, comps, t.indices + first.indices)
    return reduce_indices(combined)


def scalar_apply(call, kinds, args):
    """Nested componentwise mapping over the scalar-kind arguments.

    Tensor-kind arguments and plain scalars pass through whole; an
    inverted-scalar argument has its indices flipped first.  `call`
    receives the fully unwrapped argument list.
    """
    prepared = [flip_indices(a) if kind == KIND_INVERTED else a
                for kind, a in zip(kinds, args)]

    def go(i, acc):
        if i == len(prepared):
            return call(acc)
        a = prepared[i]
        if kinds[i] == KIND_TENSOR or not isinstance(a, Tensor):
            return go(i + 1, acc + [a])
        return tensor_map(lambda c: go(i + 1, acc + [c]), a)

    return reduce_indices(go(0, []))


def generate_tensor(call, dims):
    """Build a tensor of the given dimensions; the component at each 1-based
    position is `call(position)`."""
    dims = tuple(dims)
    comps = [call(multi) for multi in _positions(dims)]
    return make_tensor(dims, comps)
