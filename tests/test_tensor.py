import itertools
import math
import random

import pytest

from tensorlang import tensor as T
from tensorlang.errors import (BoundsError, BroadcastError,
                               DimensionMismatchError, EvalError, LangError,
                               RankError, ShapeError)
from tensorlang.symbolic import Integer, add, mul
from tensorlang.tensor import (SUB, SUP, SUPSUB, Index, NumberLabel,
                               SymbolLabel, Tensor, fresh_dummy)

from helpers import (as_engine_tensor, brute_reduce, engine_summary,
                     random_labeled_tensor, reference_scalar_apply)


def vec(*xs):
    return T.make_tensor((len(xs),), [Integer(v) for v in xs])


def mat(rows):
    return T.tensor_from_nested([vec(*row) for row in rows])


def ints(t):
    return [c.value for c in t.components]


def sym(name, var=SUB):
    return Index(var, SymbolLabel(name))


def tensor_map(call1, t):
    return T.scalar_apply(lambda xs: call1(xs[0]), (T.KIND_SCALAR,), [t])


def num(n, var=SUB):
    return Index(var, NumberLabel(n))


M3 = [[11, 12, 13], [21, 22, 23], [31, 32, 33]]


def cube():
    return T.tensor_from_nested([mat([[1, 2], [3, 4]]), mat([[5, 6], [7, 8]])])


class TestFromNested:
    def test_matrix_layout(self):
        m = mat([[11, 12], [21, 22]])
        assert m.shape == (2, 2)
        assert ints(m) == [11, 12, 21, 22]

    def test_vector(self):
        assert vec(1, 2, 3).shape == (3,)

    def test_ragged(self):
        with pytest.raises(ShapeError):
            T.tensor_from_nested([vec(1, 2), vec(3)])

    def test_mixed_scalars_and_tensors(self):
        with pytest.raises(ShapeError):
            T.tensor_from_nested([Integer(1), vec(1, 2)])


class TestAppendIndices:
    def test_numeric_selects_slice(self):
        r = T.append_indices(mat(M3), [num(2)])
        assert ints(r) == [21, 22, 23]

    def test_numeric_selects_component(self):
        assert T.append_indices(mat(M3), [num(2), num(1)]) == Integer(21)

    def test_over_indexing(self):
        with pytest.raises(RankError):
            T.append_indices(vec(1, 2, 3), [num(1), num(2)])

    def test_out_of_bounds(self):
        with pytest.raises(BoundsError):
            T.append_indices(vec(1, 2, 3), [num(4)])

    def test_overwrites_existing_indices(self):
        t = T.append_indices(mat(M3), [sym("i"), sym("j")])
        r = T.append_indices(t, [sym("k", SUP), sym("k")])
        assert ints(r) == [11, 22, 33]
        assert r.indices[0].variance == SUPSUB


def _select_then_reduce(shape, comps, labeled):
    """Reference for `append_indices`: `labeled` gives each axis's
    (label, variance) after the new indices are written over the old
    ones, an int label being a numeric index.  Select by enumerating
    every position, then reduce with `brute_reduce`."""
    for (lab, _), d in zip(labeled, shape):
        if isinstance(lab, int) and not 1 <= lab <= d:
            raise BoundsError("out of bounds")
    keep = [a for a, (lab, _) in enumerate(labeled) if not isinstance(lab, int)]
    selected = tuple(c for multi, c in zip(T.positions(shape), comps)
                     if all(m == lab for m, (lab, _) in zip(multi, labeled)
                            if isinstance(lab, int)))
    if not keep:
        return selected[0]
    try:
        return brute_reduce(tuple(shape[a] for a in keep), selected,
                            [labeled[a] for a in keep])
    except ValueError:
        raise DimensionMismatchError("mismatch") from None


def _labeled(ix):
    if ix is None:
        return None, None
    lab = ix.label
    return lab.value if isinstance(lab, NumberLabel) else lab.name, ix.variance


class TestAppendIndicesDifferential:
    def test_matches_selection_then_brute_reduce(self):
        rng = random.Random(4404)
        outcomes = {}
        for _ in range(600):
            rank = rng.randint(1, 4)
            shape = tuple(rng.randint(1, 3) for _ in range(rank))
            comps = [Integer(k) for k in range(math.prod(shape))]
            old = [rng.choice((None, sym("i", SUP), sym("k"))) for _ in range(rank)]
            new = [num(rng.randint(1, 3)) if rng.random() < 0.4
                   else sym(rng.choice("ij"), rng.choice((SUP, SUB, SUPSUB)))
                   for _ in range(rng.randint(0, rank))]
            t = T.make_tensor(shape, comps, old)
            labeled = [_labeled(ix) for ix in new + old[len(new):]]
            try:
                want = _select_then_reduce(shape, comps, labeled)
            except LangError as e:
                want = type(e)
            try:
                got = T.append_indices(t, new)
            except LangError as e:
                got = type(e)
            if isinstance(got, Tensor):
                got = engine_summary(got)
            assert got == want, (shape, old, new)
            kind = want if isinstance(want, type) else type(want).__name__
            outcomes[kind] = outcomes.get(kind, 0) + 1
        assert min(outcomes[k] for k in (BoundsError, DimensionMismatchError,
                                          "tuple", "Integer")) >= 20, outcomes

    def test_mismatch_is_numbered_after_the_selection(self):
        # A_i_2_i on 2x3x3: the numeric axis goes first, so the i axes are 1 and 2
        a = T.make_tensor((2, 3, 3), [Integer(k) for k in range(18)])
        with pytest.raises(DimensionMismatchError) as err:
            T.append_indices(a, [sym("i"), num(2), sym("i")])
        assert str(err.value) == "axes 1 and 2 have different dimensions (2 vs 3)"


class TestOneReadPerCall:
    """Selection and every level's reduction are planned on the index
    lists, so a call reads the components once and makes one tensor."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Run fn(*args) and count the calls it makes to three tensor functions."""
        def run(fn, *args):
            counts = dict.fromkeys(("make_tensor", "_gather", "reduce_indices"), 0)
            with monkeypatch.context() as m:
                for name in counts:
                    def count(*a, _name=name, _real=getattr(T, name)):
                        counts[_name] += 1
                        return _real(*a)
                    m.setattr(T, name, count)
                return fn(*args), counts
        return run

    def test_scalar_apply_with_levels(self, counted):
        a = T.make_tensor((2, 3), [Integer(k) for k in range(6)], (sym("i"), sym("j")))
        b = T.make_tensor((3, 2), [Integer(k) for k in range(6)], (sym("j", SUP), sym("k")))
        inner = T.make_tensor((2,), [Integer(1), Integer(2)], (sym("k"),))
        for call in (lambda xs: mul(*xs), lambda xs: inner):
            r, counts = counted(T.scalar_apply, call, (T.KIND_SCALAR,) * 2, [a, b])
            assert r.shape == (2, 3, 2)
            assert counts == {"make_tensor": 1, "_gather": 1, "reduce_indices": 0}

    def test_append_indices_with_a_selection_and_a_merge(self, counted):
        r, counts = counted(T.append_indices, cube(), [sym("i"), num(2), sym("i")])
        assert ints(r) == [3, 8]
        assert counts == {"make_tensor": 1, "_gather": 1, "reduce_indices": 0}


class TestReduce:
    def test_double_subscript(self):
        r = T.append_indices(mat(M3), [sym("i"), sym("i")])
        assert ints(r) == [11, 22, 33]
        assert r.indices[0] == sym("i")

    def test_opposed_pair_becomes_supersub(self):
        r = T.append_indices(mat(M3), [sym("i", SUP), sym("i")])
        assert r.indices[0].variance == SUPSUB

    def test_triple_pairwise_leftmost(self):
        r = T.append_indices(cube(), [sym("i"), sym("i"), sym("i")])
        assert ints(r) == [1, 8]
        r = T.append_indices(cube(), [sym("i", SUP), sym("i", SUP), sym("i")])
        assert ints(r) == [1, 8]
        assert r.indices[0].variance == SUPSUB

    def test_outer_pair_with_bystander(self):
        r = T.append_indices(cube(), [sym("i", SUP), sym("j", SUP), sym("i")])
        assert ints(r) == [1, 3, 6, 8]
        assert [ix.variance for ix in r.indices] == [SUPSUB, SUP]

    def test_dimension_mismatch(self):
        t = T.make_tensor((2, 3), [Integer(k) for k in range(6)],
                          (sym("i"), sym("i")))
        with pytest.raises(DimensionMismatchError):
            T.reduce_indices(t)

    def test_fixpoint(self):
        rng = random.Random(2)
        for _ in range(100):
            shape, comps, axes = random_labeled_tensor(rng)
            t = T.reduce_indices(as_engine_tensor(shape, comps, axes))
            assert T.reduce_indices(t) == t

    def test_matches_brute_force(self):
        rng = random.Random(9)
        for _ in range(200):
            shape, comps, axes = random_labeled_tensor(rng)
            got = engine_summary(T.reduce_indices(as_engine_tensor(shape, comps, axes)))
            want = brute_reduce(shape, comps, axes)
            assert got == want

    def test_matches_brute_force_with_unindexed_axes(self):
        rng = random.Random(23)
        unindexed = 0
        for _ in range(500):
            shape, comps, axes = random_labeled_tensor(
                rng, labels=("i", "j", "k", None), max_rank=5)
            unindexed += sum(lab is None for lab, _ in axes)
            got = engine_summary(T.reduce_indices(as_engine_tensor(shape, comps, axes)))
            assert got == brute_reduce(shape, comps, axes)
        assert unindexed > 100

    def test_mismatch_counts_axes_after_earlier_merges(self):
        # A_i_j_i_j on shape {2 2 2 3}: once the i pair has merged, the
        # clashing j axes sit at positions 2 and 3.
        a = T.make_tensor((2, 2, 2, 3), [Integer(k) for k in range(24)])
        with pytest.raises(DimensionMismatchError) as err:
            T.append_indices(a, [sym("i"), sym("j"), sym("i"), sym("j")])
        assert str(err.value) == "axes 2 and 3 have different dimensions (2 vs 3)"


class TestDiag:
    def test_matrix_diagonal(self):
        assert ints(T.diag(1, 2, mat([[11, 12], [21, 22]]))) == [11, 22]

    def test_identity_like(self):
        assert ints(T.diag(1, 2, mat([[1, 0], [0, 1]]))) == [1, 1]

    def test_shape_bookkeeping(self):
        t = T.make_tensor((2, 3, 2), [Integer(k) for k in range(12)])
        assert T.diag(1, 3, t).shape == (2, 3)

    def test_component_property_exhaustive(self):
        t = T.make_tensor((2, 3, 2), [Integer(k) for k in range(12)])
        d = T.diag(1, 3, t)
        for i in (1, 2):
            for j in (1, 2, 3):
                assert T.component_at(d, (i, j)) == T.component_at(t, (i, j, i))


def fold_add(a, b):
    return add(a, b)


class TestContract:
    def test_folds_supersub(self):
        v = T.make_tensor((3,), [Integer(v) for v in (11, 22, 33)],
                          (Index(SUPSUB, SymbolLabel("i")),))
        assert T.contract(fold_add, v) == Integer(66)

    def test_no_supersub_passthrough(self):
        v = T.append_indices(vec(1, 2, 3), [sym("i")])
        assert T.contract(fold_add, v) == v

    def test_scalar_passthrough(self):
        assert T.contract(fold_add, Integer(5)) == Integer(5)

    def test_einstein_summation_matches_loop(self):
        rng = random.Random(17)
        for _ in range(50):
            n = rng.randint(1, 4)
            xs = [rng.randint(-9, 9) for _ in range(n)]
            ys = [rng.randint(-9, 9) for _ in range(n)]
            xv = T.append_indices(vec(*xs), [sym("i", SUP)])
            yv = T.append_indices(vec(*ys), [sym("i")])
            prod = T.scalar_apply(lambda args: mul(*args),
                                  (T.KIND_SCALAR, T.KIND_SCALAR), [xv, yv])
            got = T.contract(fold_add, prod)
            assert got == Integer(sum(a * b for a, b in zip(xs, ys)))


class TestFlipIndices:
    def test_swaps_variance(self):
        t = T.append_indices(vec(1, 2), [sym("l", SUP)])
        assert T.flip_indices(t).indices[0].variance == SUB

    def test_involution(self):
        t = T.append_indices(mat(M3), [sym("i", SUP), sym("j")])
        assert T.flip_indices(T.flip_indices(t)) == t

    def test_supersub_fixed(self):
        t = T.make_tensor((2,), [Integer(1), Integer(2)],
                          (Index(SUPSUB, SymbolLabel("i")),))
        assert T.flip_indices(t) == t


class TestTranspose:
    def test_matrix_transpose(self):
        t = T.append_indices(mat([[1, 2], [3, 4]]), [sym("i"), sym("j")])
        r = T.transpose([SymbolLabel("j"), SymbolLabel("i")], t)
        assert ints(r) == [1, 3, 2, 4]

    def test_identity_permutation(self):
        t = T.append_indices(mat([[1, 2], [3, 4]]), [sym("i"), sym("j")])
        assert T.transpose([SymbolLabel("i"), SymbolLabel("j")], t) == t

    def test_rank3_rotation_matches_enumeration(self):
        t = T.make_tensor((2, 3, 4), [Integer(k) for k in range(24)],
                          (sym("i"), sym("j"), sym("k")))
        r = T.transpose([SymbolLabel("k"), SymbolLabel("i"), SymbolLabel("j")], t)
        assert r.shape == (4, 2, 3)
        for i in (1, 2):
            for j in (1, 2, 3):
                for k in (1, 2, 3, 4):
                    assert T.component_at(r, (k, i, j)) == T.component_at(t, (i, j, k))

    def test_bad_permutation(self):
        t = T.append_indices(mat([[1, 2], [3, 4]]), [sym("i"), sym("j")])
        with pytest.raises(EvalError):
            T.transpose([SymbolLabel("i"), SymbolLabel("z")], t)


class TestTensorMap:
    """`tensor-map` is `scalar_apply` over one scalar-kind argument."""

    def test_scalar_results(self):
        t = T.append_indices(vec(1, 2, 3), [sym("i")])
        r = tensor_map(lambda c: add(c, Integer(1)), t)
        assert ints(r) == [2, 3, 4]
        assert r.indices == t.indices

    def test_index_hoisting_merges(self):
        inner = T.append_indices(vec(10, 20, 30), [sym("i")])
        outer = T.append_indices(vec(1, 2, 3), [sym("i")])
        r = tensor_map(lambda c: tensor_map(lambda d: add(c, d), inner), outer)
        assert ints(r) == [11, 22, 33]

    def test_inconsistent_inner_shapes(self):
        outer = vec(1, 2)
        with pytest.raises(BroadcastError):
            tensor_map(
                lambda c: vec(1, 2) if c == Integer(1) else vec(1, 2, 3), outer)


class TestScalarApply:
    def test_distinct_indices_is_tensor_product(self):
        rng = random.Random(31)
        for _ in range(30):
            n, m = rng.randint(1, 3), rng.randint(1, 3)
            xs = [rng.randint(-5, 5) for _ in range(n)]
            ys = [rng.randint(-5, 5) for _ in range(m)]
            a = T.append_indices(vec(*xs), [sym("i")])
            b = T.append_indices(vec(*ys), [sym("j")])
            r = T.scalar_apply(lambda args: add(*args),
                               (T.KIND_SCALAR, T.KIND_SCALAR), [a, b])
            for i in range(1, n + 1):
                for j in range(1, m + 1):
                    assert T.component_at(r, (i, j)) == Integer(xs[i - 1] + ys[j - 1])

    def test_equals_the_nested_reference(self):
        rng = random.Random(1702)
        outcomes = set()
        for _ in range(400):
            kinds, args, make_call = _random_broadcast(rng)
            want = _outcome(reference_scalar_apply, kinds, args, make_call)
            assert _outcome(T.scalar_apply, kinds, args, make_call) == want
            outcomes.add(want[0])
        assert outcomes >= {Tensor, BroadcastError, DimensionMismatchError}

    def test_no_level_is_an_eval_error(self):
        calls = []
        for kinds, args in (((T.KIND_SCALAR,), [Integer(1)]), ((T.KIND_TENSOR,), [vec(1, 2)]),
                            ((), [])):
            with pytest.raises(EvalError, match="needs a scalar-kind tensor argument"):
                T.scalar_apply(calls.append, kinds, args)
        assert calls == []

    def test_levels_reduce_nested_not_flat(self):
        vs = [T.append_indices(vec(a, b), [sym("i", var)])
              for (a, b), var in (((1, 2), SUP), ((3, 4), SUP), ((5, 6), SUB))]
        r = T.scalar_apply(lambda xs: mul(*xs), (T.KIND_SCALAR,) * 3, vs)
        assert ints(r) == [15, 48]
        assert r.indices == (sym("i", SUP),)

    def test_every_call_runs_before_any_reduction(self):
        # the j axes of the last two arguments mismatch, but a call in the
        # second row fails first
        x = T.append_indices(vec(1, 0), [sym("i")])
        y = T.append_indices(vec(1, 2), [sym("j")])
        z = T.append_indices(vec(1, 2, 3), [sym("j")])
        with pytest.raises(ZeroDivisionError):
            T.scalar_apply(lambda xs: Integer(1 // xs[0].value),
                           (T.KIND_SCALAR,) * 3, [x, y, z])

    def test_inverted_kind_flips_first(self):
        b = T.append_indices(vec(1, 2), [sym("j", SUP)])
        r = T.scalar_apply(lambda args: args[0], (T.KIND_INVERTED,), [b])
        assert r.indices[0].variance == SUB


def _random_axes(rng, dim_of, rank, labels):
    """Shape and index slots over `labels`; a labelled axis occasionally
    takes the other dimension, so reductions can mismatch."""
    shape, indices = [], []
    for _ in range(rank):
        lab = rng.choice(labels)
        if lab is None:
            shape.append(rng.choice((2, 3)))
            indices.append(None)
        else:
            shape.append(dim_of[lab] if rng.random() > 0.1 else 5 - dim_of[lab])
            indices.append(Index(rng.choice((SUP, SUB, SUPSUB)), lab))
    return tuple(shape), tuple(indices)


def _tensor_of(values, layout):
    shape, indices = layout
    return T.make_tensor(shape, [Integer(v) for v in values(math.prod(shape))], indices)


def _random_broadcast(rng):
    """Kinds, arguments and a call factory for one seeded broadcast.

    Each call returns a scalar that encodes its arguments, or a tensor of
    one fixed layout built from that scalar.  In the inconsistent mode one
    call in the first row (the first pass over the last level) returns
    something else, so the nested reference meets it before any of its
    reductions.  There is at least one level, as `scalar_apply` needs,
    and every level has at least two components.
    """
    dim_of = {SymbolLabel("i"): 2, SymbolLabel("j"): rng.choice((2, 3))}
    kinds = [T.KIND_SCALAR] * rng.randint(1, 3)
    extra = rng.choice((None, T.KIND_TENSOR, T.KIND_INVERTED))
    if extra:
        kinds.insert(rng.randint(0, len(kinds)), extra)
    # the scalar-kind argument that is always a tensor, so always a level
    anchor = rng.choice([a for a, kind in enumerate(kinds) if kind == T.KIND_SCALAR])
    args = [Integer(rng.randint(-9, 9)) if a != anchor and rng.random() < 0.15 else _tensor_of(
                lambda n: [rng.randint(-9, 9) for _ in range(n)],
                _random_axes(rng, dim_of, rng.randint(1, 2), (*dim_of, None)))
            for a in range(len(kinds))]
    dim_of[fresh_dummy().label] = 2
    layouts = [_random_axes(rng, dim_of, rng.randint(1, 2), (*dim_of, None))
               for _ in range(2)]
    mode = rng.choice(("scalar", "tensor", "inconsistent"))
    odd = rng.choice(("scalar", "tensor"))
    levels = [a for k, a in zip(kinds, args) if k != T.KIND_TENSOR and isinstance(a, Tensor)]
    odd_call = rng.randrange(len(levels[-1].components))

    def make_call():
        calls = itertools.count()

        def call(xs):
            s = sum(x.value * 1000 ** k for k, x in enumerate(xs) if not isinstance(x, Tensor))
            layout = layouts[0]
            if mode == "inconsistent" and next(calls) == odd_call:
                if odd == "scalar":
                    return Integer(s)
                layout = layouts[1]
            if mode == "scalar":
                return Integer(s)
            return _tensor_of(lambda n: [s + 100 * k for k in range(n)], layout)
        return call

    return kinds, args, make_call


def _outcome(apply, kinds, args, make_call):
    try:
        r = apply(make_call(), kinds, list(args))
    except LangError as e:
        return type(e), str(e)
    return type(r), r


class TestGenerateTensor:
    def test_unit_matrix(self):
        r = T.generate_tensor(
            lambda multi: Integer(1 if multi[0] == multi[1] else 0), (4, 4))
        assert ints(r) == [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]

    def test_identity_vector(self):
        r = T.generate_tensor(lambda multi: Integer(multi[0]), (2,))
        assert ints(r) == [1, 2]

    @pytest.mark.parametrize("dims", [(10 ** 30,), (2 ** 32, 2 ** 32)],
                             ids=["one-axis", "product"])
    def test_more_components_than_a_sequence_holds_is_a_shape_error(self, dims):
        calls = []
        with pytest.raises(ShapeError, match="more components than a tensor can hold"):
            T.generate_tensor(calls.append, dims)
        assert calls == []


class TestFreshDummy:
    def test_distinct(self):
        a, b = fresh_dummy(), fresh_dummy()
        assert a.label != b.label

    def test_never_merges(self):
        a = T.make_tensor((2, 2), [Integer(k) for k in range(4)],
                          (fresh_dummy(), fresh_dummy()))
        assert T.reduce_indices(a) == a
