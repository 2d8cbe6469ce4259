import io
import itertools
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tensorlang import Interpreter, format_value
from tensorlang import cli, golden, lang, stdlib, symbolic, tensor
from tensorlang.errors import (ArityError, BroadcastError, ComparisonError, DepthError,
                               DivisionByZeroError, EvalError, LangError, ParseError)
from tensorlang.lang import (BraceList, Indexed, ListForm, NumberLit,
                             ShorthandLambda, TensorLit, Var, parse_forms)
from tensorlang.symbolic import Integer, Symbol
from tensorlang.tensor import (KIND_INVERTED, KIND_SCALAR, KIND_TENSOR, SUB, SUP,
                               SUPSUB, Index, SymbolLabel, Tensor, make_tensor)
from tensorlang.values import FunctionValue

from helpers import reference_scalar_apply


def run(src):
    return Interpreter().eval_source(src)


def show(src):
    return format_value(run(src))


class TestTokenizer:
    def test_basic(self):
        kinds = [t.kind for t in lang.tokenize("(+ x [|1 2|]_i)")]
        assert kinds == ["(", "atom", "atom", "[|", "atom", "atom", "|]", "atom", ")"]

    def test_comments_stripped(self):
        assert [t.text for t in lang.tokenize("1 ; rest\n2")] == ["1", "2"]

    def test_positions(self):
        tok = lang.tokenize("\n  foo")[0]
        assert (tok.line, tok.col) == (2, 3)

    def test_glued_flag(self):
        toks = lang.tokenize("[|1|]_i [|2|] _j")
        assert toks[3].glued is True  # _i hugs |]
        assert toks[-1].glued is False


# whitespace the reader once looped forever on: form feed, vertical tab,
# no-break space, line separator
ODD_SPACES = ["\f", "\v", "\u00a0", "\u2028"]

# source text heavy in whitespace, delimiters and the index-notation marks
READER_TEXT = st.text(alphabet="()[]{}'|;~_#%$*-0129xyΓ \t\r\n\f\v\u00a0\u2003\u2028\x85",
                      max_size=40)


class TestReaderTermination:
    @pytest.mark.parametrize("space", ODD_SPACES, ids=["ff", "vt", "nbsp", "ls"])
    def test_tokenize_and_parse_treat_it_as_whitespace(self, space):
        toks = lang.tokenize(f"(+ 1{space}2)")
        assert [t.text for t in toks] == ["(", "+", "1", "2", ")"]
        assert toks[3].glued is False
        (node,) = parse_forms(f"(+{space}1 2){space}")
        assert [getattr(n, "value", None) for n in node.items] == [None, 1, 2]

    @pytest.mark.parametrize("space", ODD_SPACES, ids=["ff", "vt", "nbsp", "ls"])
    def test_repl_evaluates_it(self, space):
        out = io.StringIO()
        assert cli.repl(out=out, err=out, in_=io.StringIO(f"(+ 1{space}2)\n")) == 0
        assert out.getvalue().endswith("> 3\n> \n")

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(READER_TEXT)
    def test_any_text_tokenizes_and_parses_or_raises(self, text):
        lang.tokenize(text)
        try:
            lang.parse_program(text)
        except (ParseError, DepthError):
            pass

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(READER_TEXT)
    def test_every_token_sits_at_its_position(self, text):
        lines = text.split("\n")
        for tok in lang.tokenize(text):
            assert lines[tok.line - 1][tok.col - 1:].startswith(tok.text)

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(READER_TEXT)
    def test_tokens_spell_the_source_without_comments_and_whitespace(self, text):
        toks = lang.tokenize(text)
        assert "".join(t.text for t in toks) == re.sub(r";[^\n]*|\s", "", text)


class TestParser:
    def test_application(self):
        (node,) = parse_forms("(+ x y)")
        assert isinstance(node, ListForm)
        assert [getattr(n, "name", None) for n in node.items] == ["+", "x", "y"]

    def test_tensor_literal_with_index(self):
        (node,) = parse_forms("[|1 2 3|]_i")
        assert isinstance(node, Indexed)
        assert isinstance(node.base, TensorLit)
        assert node.specs[0].variance == SUB
        assert node.specs[0].text == "i"

    def test_lambda_params(self):
        (node,) = parse_forms("(lambda [$x $y] (+ x y))")
        assert isinstance(node, ListForm)

    def test_bad_marker_has_position(self):
        with pytest.raises(ParseError) as ei:
            parse_forms("(lambda [x] x)")
        assert ei.value.line == 1

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_forms("(+ 1 2")

    def test_supersub_chain(self):
        (node,) = parse_forms("t~_i")
        assert node.specs[0].variance == SUPSUB

    def test_bare_markers_make_empty_labels(self):
        (node,) = parse_forms("(define $g~__ 1)")
        target = node.items[1]
        assert [sp.variance for sp in target.specs] == [SUP, SUB, SUB]
        assert all(sp.kind == "empty" for sp in target.specs)

    def test_mixed_chain(self):
        (node,) = parse_forms("Γ~i_m_k")
        assert [sp.variance for sp in node.specs] == [SUP, SUB, SUB]
        assert [sp.text for sp in node.specs] == ["i", "m", "k"]

    def test_shorthand_with_paren_body(self):
        (node,) = parse_forms("2#(+ %1 %2)")
        assert isinstance(node, ShorthandLambda)
        assert node.arity == 2

    def test_shorthand_with_atom_body(self):
        (node,) = parse_forms("1#%1")
        assert isinstance(node, ShorthandLambda)
        assert isinstance(node.body, Var)

    def test_suffix_after_paren(self):
        (node,) = parse_forms("(f x)_i")
        assert isinstance(node, Indexed)

    def test_stray_suffix(self):
        with pytest.raises(ParseError):
            parse_forms("_i")


class TestEval:
    def test_unbound_variable_is_symbol(self):
        assert run("x") == Symbol("x")

    def test_numeric_selection(self):
        assert show("[|[|11 12 13|] [|21 22 23|] [|31 32 33|]|]_2_1") == "21"

    def test_if(self):
        assert show("(if (less-than? 1 2) 1 2)") == "1"

    def test_if_requires_boolean(self):
        with pytest.raises(EvalError):
            run("(if 1 2 3)")

    def test_quote_is_transparent(self):
        assert run("'(+ 1 2)") == Integer(3)
        assert show("(* '(+ x 1) 2)") == show("(* (+ x 1) 2)")
        assert show("(* '(+ a b) c)") == "(* c (+ a b))"
        assert parse_forms("'x") == [Var("x", (1, 2))]
        assert run("(('lambda [$x] (* 2 x)) 5)") == Integer(10)

    def test_indexing_scalar_fails(self):
        with pytest.raises(EvalError):
            run("(define $v 5) v_i")

    def test_not_a_function(self):
        with pytest.raises(EvalError):
            run("(1 2 3)")


class TestApplyFunction:
    def test_tensor_params_keep_indices(self):
        assert show("(. [|1 2 3|]~i [|10 20 30|]_i)") == "140"

    def test_dot_identical_subscripts(self):
        assert show("(. [|1 2 3|]_i [|10 20 30|]_i)") == "[|10 40 90|]_i"

    def test_flip_partial_builds_local_basis(self):
        out = run("""
            (define $x [|r θ|])
            (define $X [|(* r (sin θ)) (* r (cos θ)) r|])
            ((flip ∂/∂) x~# X_#)
        """)
        assert out.shape == (2, 3)  # coordinates × embedding components

    def test_higher_order(self):
        assert show("((flip -) 2 5)") == "3"
        assert show("(flip (flip -))") .startswith("#<")
        assert run("((flip (flip -)) 2 5)") == Integer(-3)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            run("((lambda [$x $y] x) 1)")


class TestCallPath:
    """Builtins and closures share one application path: the same arity
    rule, the same `flip`, the same function checks."""

    @pytest.mark.parametrize("src, error, message", [
        ("(+)", ArityError, "+ expects at least 1 arguments, got 0"),
        ("(/ 1)", ArityError, "/ expects 2 arguments, got 1"),
        ("((lambda [$x] x) 1 2)", ArityError, "function expects 1 arguments, got 2"),
        ("(flip sin)", ArityError, "flip needs a two-argument function"),
        ("(flip (lambda [$x] x))", ArityError, "flip needs a two-argument function"),
        ("(flip 3)", EvalError, "flip expects a function"),
        ("((flip +) 1 2 3)", ArityError, "(flip +) expects 2 arguments, got 3"),
        ("((flip (lambda [$x $y] x)) 1)", ArityError, "function expects 2 arguments, got 1"),
        ("(contract 3 [|1 2|]~_i)", EvalError, "expected a function argument"),
    ])
    def test_errors(self, src, error, message):
        with pytest.raises(error) as info:
            run(src)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("src, printed", [
        ("+", "#<builtin:+>"),
        ("(flip -)", "#<builtin:(flip -)>"),
        ("(flip (lambda [$x $y] x))", "#<function>"),
        ("(lambda [$x] x)", "#<function>"),
        ("1#%1", "#<function>"),
        ("((flip (lambda [$x $y] (- x y))) 1 5)", "4"),
        ("((flip -) [|1 2|]_i [|10 20|]_j)", "[|[|9 19|] [|8 18|]|]_i_j"),
        ("((flip ∂/∂) [|x y|]_i (* x y))", "[|y x|]~i"),
        ("((lambda [*$x $y %z] (+ x y)) [|1 2|]~i [|10 20|]_i [|0|])", "[|11 22|]_i"),
    ])
    def test_values(self, src, printed):
        assert show(src) == printed


class TestBroadcastOncePerTuple:
    """A builtin broadcast over scalar parameters runs once per distinct
    tuple of component objects; a closure runs at every position."""

    @staticmethod
    def counting(interp, name):
        calls = []
        f = interp.globals.lookup(name)

        def impl(ev, xs):
            calls.append(xs)
            return f.impl(ev, xs)
        interp.globals.define(name, FunctionValue(name, f.kinds, impl, f.variadic))
        return calls

    @pytest.mark.parametrize("src, printed, n", [
        ("(+ [|0 0 0|]_i [|0 0 0|]_j [|0 0 0|]_k)",
         "[|[|[|0 0 0|] [|0 0 0|] [|0 0 0|]|] [|[|0 0 0|] [|0 0 0|] [|0 0 0|]|] "
         "[|[|0 0 0|] [|0 0 0|] [|0 0 0|]|]|]_i_j_k", 1),
        ("(+ [|1 2 1|]_i [|5 5|]_j)", "[|[|6 6|] [|7 7|] [|6 6|]|]_i_j", 2),
        ("(+ [|1 2 1|]~i [|1 2 1|]_i)", "[|2 4 2|]~_i", 4),
        ("((flip +) [|1 1|]_i 3)", "[|4 4|]_i", 1),
        ("(+ 1 2)", "3", 1),
    ])
    def test_a_builtin_runs_once_per_distinct_tuple(self, src, printed, n):
        interp = Interpreter()
        calls = self.counting(interp, "+")
        assert format_value(interp.eval_source(src)) == printed
        assert len(calls) == n

    def test_no_builtin_mixes_tensor_and_scalar_kinds(self):
        # so a builtin's tensor argument is always a level of its broadcast
        for b in stdlib.BUILTINS:
            assert len({k == KIND_TENSOR for k in b.kinds}) == 1, b.name

    def test_a_closure_runs_at_every_position(self):
        out = run("""
            (define $h (lambda [$x] (with-symbols {j} (* x j))))
            (h [|1 1|]_i)
        """)
        a, b = out.components
        assert a is not b and a.name.startswith("#") and b.name.startswith("#")

    def test_a_closure_making_a_dummy_at_each_position_cannot_broadcast(self):
        with pytest.raises(BroadcastError):
            run("((lambda [$x] (* x [|1 2|]_#)) [|1 1|]_i)")

    def test_a_failing_tuple_raises_at_its_first_position(self):
        interp = Interpreter()
        calls = self.counting(interp, "/")
        with pytest.raises(DivisionByZeroError) as info:
            interp.eval_source("(/ [|1 1|]_i [|0 0|]_j)")
        assert str(info.value) == "division by zero"
        assert len(calls) == 1

    @pytest.mark.parametrize("src, message", [
        ("(+ [|1 2|]_i +)", "+ expects scalar arguments, got FunctionValue"),
        ("(* [|1 2|]_i {1 2})", "* expects scalar arguments, got BraceValue"),
        ("(+ [|1 2|]_i [|+ -|]_j)", "+ expects scalar arguments, got FunctionValue"),
        ("(+ (generate-tensor 1#[|%1 %1|] {2})_i 1)", "+ expects scalar arguments, got Tensor"),
    ])
    def test_every_value_is_a_memo_key(self, src, message):
        # the memo is keyed by the argument tuple, so a value that did not
        # hash would fail there, before the builtin could reject it
        with pytest.raises(EvalError) as info:
            run(src)
        assert type(info.value) is EvalError
        assert str(info.value) == message

    def test_equal_function_values_are_two_keys(self):
        seen = []

        def impl(ev, xs):
            seen.append(xs)
            return Integer(0)
        f, g = (FunctionValue(None, (KIND_SCALAR,), impl) for _ in range(2))
        fs = make_tensor((3,), [f, g, f], [Index(SUB, SymbolLabel("i"))])
        Interpreter().evaluator.call(FunctionValue("first", (KIND_SCALAR,), impl), [fs])
        assert seen == [(f,), (g,)]

    def test_calls_follow_the_outer_product_in_row_major_order(self):
        # A builtin sees the distinct tuples in order of first position, a
        # closure every position's tuple: which failing tuple raises first
        # rests on this.
        rng = random.Random(1907)
        evaluator = Interpreter().evaluator
        pool = [Integer(0), Integer(1), Symbol("x")]
        repeated = 0
        for _ in range(60):
            kinds = tuple(rng.choice((KIND_SCALAR, KIND_INVERTED)) for _ in range(rng.randint(1, 3)))
            args = [self.random_arg(rng, {"i": 2, "j": 3}, pool) for _ in kinds]
            if not any(isinstance(a, Tensor) for a in args):
                continue
            positions = list(itertools.product(
                *[a.components if isinstance(a, Tensor) else (a,) for a in args]))
            distinct = list(dict.fromkeys(positions))
            repeated += len(distinct) < len(positions)
            for name, want in (("rec", distinct), (None, positions)):
                seen = []

                def impl(ev, xs):
                    seen.append(xs)
                    return Integer(0)
                evaluator.call(FunctionValue(name, kinds, impl), list(args))
                assert seen == want, (name, args)
        assert repeated > 10

    def test_equals_the_nested_reference_on_the_raw_builtin(self):
        # Each label has one dimension throughout: the reference reduces
        # between levels, so a dimension mismatch could meet it before a
        # failing call that the engine meets first.
        rng = random.Random(1406)
        interp = Interpreter()
        x, y = Symbol("x"), Symbol("y")
        values = [Integer(-1), Integer(0), Integer(1), x]
        outcomes = set()
        for _ in range(400):
            name = rng.choice(("+", "-", "*", "/", "∂/∂", "(flip -)"))
            fv = interp.eval_source(name)
            n = rng.randint(1, 3) if fv.variadic else len(fv.kinds)
            kinds = fv.kinds * n if fv.variadic else fv.kinds
            dims = {"i": rng.randint(1, 3), "j": rng.randint(1, 3)}
            args = [self.random_arg(rng, dims, [y, x, x, Integer(1)] if k != kinds[0]
                                    else values + [symbolic.mul(x, y)])
                    for k in kinds]
            want = self.outcome(
                lambda: reference_scalar_apply(lambda xs: fv.impl(interp.evaluator, xs),
                                               kinds, args))
            got = self.outcome(lambda: interp.evaluator.call(fv, list(args)))
            assert got == want, (name, args)
            outcomes.add(want[0])
        assert outcomes >= {Tensor, DivisionByZeroError, EvalError}

    @staticmethod
    def random_arg(rng, dims, values):
        if rng.random() < 0.2:
            return rng.choice(values)
        axes = [rng.choice(("i", "j", None)) for _ in range(rng.randint(1, 3))]
        shape = tuple(dims[a] if a else rng.randint(1, 2) for a in axes)
        indices = [Index(rng.choice((SUP, SUB)), SymbolLabel(a)) if a else None for a in axes]
        return make_tensor(shape, [rng.choice(values) for _ in range(math.prod(shape))], indices)

    @staticmethod
    def outcome(apply):
        """(type, value) or (type, message) of an error; scalars, so also
        the components of a tensor, compare by identity."""
        try:
            r = apply()
        except LangError as e:
            return type(e), str(e)
        return type(r), r


class TestBroadcastFrames:
    """A deterministic guard on the cost of broadcasting: it counts the
    Python frames a call enters, not its time."""

    @classmethod
    def frames(cls, function, n, distinct=False):
        """Frames entered by calling `function` (source, or a function
        value) on Z_i and Z_j, Z a vector of n zeros or of 0 to n - 1."""
        interp = Interpreter()
        zs = range(n) if distinct else [0] * n
        interp.eval_source(f"(define $Z [|{' '.join(map(str, zs))}|])")
        fv = interp.eval_source(function) if isinstance(function, str) else function
        args = [interp.eval_source("Z_i"), interp.eval_source("Z_j")]
        interp.evaluator.call(fv, args)  # the first call interns the results
        return cls.entered(interp.evaluator.call, fv, args)

    @staticmethod
    def entered(fn, *args):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            fn(*args)
        finally:
            sys.setprofile(previous)
        return count

    def test_a_repeated_tuple_enters_no_python_frame(self):
        # (+ Z_i Z_j) over a zero vector has one distinct tuple at any size
        assert len({self.frames("+", n) for n in (4, 8, 16)}) == 1

    def test_a_closure_enters_python_at_every_position(self):
        small, middle, large = (self.frames("(lambda [$x $y] (+ x y))", n) for n in (4, 8, 16))
        assert small < middle < large

    def test_a_distinct_tuple_enters_only_the_builtins_own_frames(self):
        # n x n distinct tuples: each enters the frames of one direct impl
        # call, and the builtin's memo adds none
        def impl(ev, xs):
            return xs[0]
        first = FunctionValue("first", (KIND_SCALAR, KIND_SCALAR), impl)
        small, large = (self.frames(first, n, distinct=True) for n in (4, 8))
        per_call = self.entered(impl, None, (Integer(0), Integer(1)))
        assert large - small == (8 * 8 - 4 * 4) * per_call


class TestParameterRule:
    """A tensor passed for a scalar-kind parameter is a level to map over;
    in every other case the function is called as is."""

    @pytest.mark.parametrize("src, printed, broadcasts", [
        ("(+ 1 2)", "3", 0),
        ("(contract + (* [|1 2 3|]~i [|4 5 6|]_i))", "32", 1),
        ("(tensor-map (lambda [$x] (* x x)) [|1 2 3|]_i)", "[|1 4 9|]_i", 1),
    ])
    def test_only_a_call_with_a_level_broadcasts(self, monkeypatch, src, printed, broadcasts):
        calls = []
        real = tensor.scalar_apply

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(tensor, "scalar_apply", counting)
        assert show(src) == printed
        assert len(calls) == broadcasts

    def test_markers_give_kinds(self):
        assert run("(lambda [*$a $b %c] a)").kinds == (KIND_INVERTED, KIND_SCALAR, KIND_TENSOR)

    def test_every_value_is_already_index_reduced(self, monkeypatch):
        # Evaluator.call skips reduce_indices on a call with no level.
        seen = {}
        real_eval, real_call = lang.Evaluator.eval, lang.Evaluator.call

        def keep(v):
            if isinstance(v, Tensor) and id(v) not in seen:
                seen[id(v)] = v
                for c in v.components:
                    keep(c)
            return v
        monkeypatch.setattr(lang.Evaluator, "eval", lambda ev, *a: keep(real_eval(ev, *a)))
        monkeypatch.setattr(lang.Evaluator, "call", lambda ev, *a: keep(real_call(ev, *a)))
        sources = [c.source for c in golden.load_cases()]
        sources.append((golden.CORPUS_DIR / "torus.tl").read_text(encoding="utf-8"))
        for source in sources:
            Interpreter().run_source(source)
        assert len(seen) > 200
        assert [v for v in seen.values() if tensor.reduce_indices(v) is not v] == []


class TestWithSymbols:
    def test_contract(self):
        assert show("(with-symbols {i} (contract + (* [|1 2 3|]~i [|10 20 30|]_i)))") == "140"

    def test_locals_become_dummies(self):
        assert show("(with-symbols {i} (+ [|1 2 3|]_i [|10 20 30|]_i))") == "[|11 22 33|]_#"

    def test_body_without_symbol(self):
        assert show("(with-symbols {i} 42)") == "42"

    def test_hygiene_in_printed_output(self):
        out = show("(with-symbols {i} (+ [|1 2 3|]_i [|10 20 30|]_i))")
        assert "%" not in out

    def test_scalar_positions_renamed(self):
        out = run("(with-symbols {i} (+ i 1))")
        assert isinstance(out, object)
        assert "%" not in format_value(out)

    def test_escaping_local_is_one_symbol_per_scope(self):
        out = show("(with-symbols {i} [|i (* 2 i)|])")
        (name,) = set(re.findall(r"#[0-9]+", out))
        assert out == f"[|{name} (* 2 {name})|]"

    @pytest.mark.parametrize("body", ["[|(* 2 j) (* 2 j x)|]_i",
                                      "[|(sin (* 2 j)) (cos (* 2 j)) (* 2 j)|]"])
    def test_one_symbol_when_components_share_subtrees(self, body):
        # a local is one symbol for the whole scope
        out = show(f"(with-symbols {{j}} {body})")
        assert len(set(re.findall(r"#[0-9]+", out))) == 1 and "%" not in out

    def test_nested_scopes_rename_only_their_own_locals(self):
        # each scope names only its own locals
        out = show("(with-symbols {i} (with-symbols {j} [|i j (* i j)|]))")
        assert "%" not in out and len(set(re.findall(r"#[0-9]+", out))) == 2

    def test_escaping_locals_numbered_in_declaration_order(self):
        out = show("(with-symbols {k i j} [|i j k|])")
        i, j, k = (int(n) for n in re.findall(r"#([0-9]+)", out))
        assert k < i < j

    def test_a_closure_sees_the_name_the_scope_keeps(self):
        out = show("(define $f (with-symbols {i} (lambda [$x] (+ x i))))\n(f 1)")
        assert re.fullmatch(r"\(\+ 1 #[0-9]+\)", out), out

    def test_an_error_names_the_local_as_the_result_would(self):
        with pytest.raises(ComparisonError) as err:
            run("(with-symbols {i} (less-than? i 1))")
        assert re.fullmatch(r"cannot order symbolic values: #[0-9]+ vs 1", str(err.value))

    def test_torus_substitutes_nothing(self, monkeypatch):
        # a local is named once, when its scope opens: no walk renames it
        calls = []
        real = symbolic.substitute
        monkeypatch.setattr(symbolic, "substitute", lambda *a: calls.append(a) or real(*a))
        Interpreter().run_source((golden.CORPUS_DIR / "torus.tl").read_text(encoding="utf-8"))
        assert calls == []

    def test_runs_twice_equally_up_to_dummies(self):
        src = "(with-symbols {i} (+ [|1 2|]_i [|3 4|]_i))"
        it = Interpreter()
        a = format_value(it.eval_source(src))
        b = format_value(it.eval_source(src))
        assert a == b  # dummies print without their ids


class TestRememberedDerivatives:
    def test_fresh_interpreter_remembers_nothing(self):
        assert Interpreter().evaluator.derivatives == {}

    def test_torus_differentiates_each_node_once(self):
        torus = (golden.CORPUS_DIR / "torus.tl").read_text(encoding="utf-8")
        first, second = Interpreter(), Interpreter()
        first.run_source(torus)
        memo = first.evaluator.derivatives
        assert set(memo) == {"θ", "φ"}
        assert 0 < sum(map(len, memo.values())) <= 94
        assert second.evaluator.derivatives == {}


class TestDefine:
    def test_plain(self):
        assert run("(define $x 5) x") == Integer(5)

    def test_signatures_coexist(self):
        out = run("""
            (define $g__ [|[|1 2|] [|3 4|]|])
            (define $g~~ [|[|5 6|] [|7 8|]|])
            (+ g_1_1 g~1~1)
        """)
        assert out == Integer(6)

    def test_symbolic_indices_desugar_to_transpose(self):
        # defining with indices j i stores the transposed layout
        out = run("""
            (define $m_j_i [|[|1 2|] [|3 4|]|]_i_j)
            m_1_2
        """)
        assert out == Integer(3)

    @pytest.mark.parametrize("src, printed", [
        ("(define $transpose (lambda [%a %b] 0))\n"
         "(define $A_i_j [|[|1 2|] [|3 4|]|]_j_i)\nA_i_j", "[|[|1 3|] [|2 4|]|]_i_j"),
        ("(define $transpose 5)\n(define $B_i [|1 2|]_i)\nB_i", "[|1 2|]_i"),
    ])
    def test_indexed_definition_ignores_a_user_transpose(self, src, printed):
        assert show(src) == printed

    @pytest.mark.parametrize("src, message", [
        ("(define $C_i 5)", "indexed definition C_i (line 1) needs a tensor value"),
        ("(+ 1 2)\n(define $C_i_i [|[|1 2|] [|3 4|]|]_i_j)",
         "indexed definition C_i_i (line 2) repeats an index name"),
        ("(define $C~i_j\n  [|1 2|]_i)",
         "indexed definition C~i_j (line 1): the value's indices are not i j in some order"),
    ])
    def test_indexed_definition_errors_name_the_definition(self, src, message):
        with pytest.raises(EvalError) as err:
            run(src)
        assert str(err.value) == message

    def test_unindexed_reference_to_signed_variable(self):
        with pytest.raises(EvalError):
            run("(define $g__ [|[|1 2|] [|3 4|]|]) g")

    def test_wrong_signature(self):
        with pytest.raises(EvalError):
            run("(define $g__ [|[|1 2|] [|3 4|]|]) g~i~j")

    def test_rebinding_shadows(self):
        assert run("(define $x 1) (define $x 2) x") == Integer(2)

    def test_dollar_optional(self):
        assert run("(define y 7) y") == Integer(7)


class TestShorthandLambda:
    def test_identity(self):
        assert run("(1#%1 9)") == Integer(9)

    def test_binary_sum(self):
        assert run("(2#(+ %1 %2) 3 4)") == Integer(7)

    def test_placeholder_out_of_range(self):
        with pytest.raises(EvalError):
            run("(1#(+ %1 %2) 3)")

    @pytest.mark.parametrize("src, excess", [
        ("(1#(+ %2 %3) 5)", "%2 exceeds shorthand arity 1"),
        ("(1#(f %1 2#(g %2 %2) %5 %3) 1)", "%5 exceeds shorthand arity 1"),
        ("(define $e [|[|1 2 3|] [|4 5 6|]|])\n"
         "(generate-tensor 2#(inner-product e_%1 e_%3) {2 2})", "%3 exceeds shorthand arity 2"),
    ])
    def test_first_excess_placeholder_in_reading_order(self, src, excess):
        with pytest.raises(EvalError) as err:
            run(src)
        assert str(err.value) == f"placeholder {excess}"

    def test_excess_placeholder_raises_only_when_evaluated(self):
        assert run("(if (eq? 1 1) 1 2#%3)") == Integer(1)

    def test_row_selection(self):
        out = run("""
            (define $e [|[|1 2 3|] [|4 5 6|]|])
            (generate-tensor 2#(inner-product e_%1 e_%2) {2 2})
        """)
        assert [c.value for c in out.components] == [14, 32, 32, 77]


class TestDesugaringEquivalence:
    def test_scalar_params_equal_nested_tensor_map(self):
        rng = random.Random(41)
        it = Interpreter()
        it.run_source("""
            (define $f (lambda [$x $y] (+ (* 2 x) y)))
            (define $g (lambda [%x %y]
              (tensor-map (lambda [%x2] (tensor-map (lambda [%y2] (f x2 y2)) y)) x)))
        """)
        cases = [
            "[|1 2 3|]_i [|10 20 30|]_i",
            "[|1 2 3|]_i [|10 20 30|]_j",
            "[|1 2 3|]_# [|10 20 30|]_#",
            "[|[|1 2|] [|3 4|]|]_i_j [|5 6|]_i",
            "[|1 2|] [|3 4|]",
            "5 [|1 2|]_i",
        ]
        for args in cases:
            a = format_value(it.eval_source(f"(f {args})"))
            b = format_value(it.eval_source(f"(g {args})"))
            assert a == b, args

    def test_omitted_indices_behave_as_dummies(self):
        a = run("(+ [|1 2 3|] [|10 20 30|])")
        b = run("(+ [|1 2 3|]_# [|10 20 30|]_#)")
        assert a.components == b.components
        assert a.shape == b.shape


class TestReplEquivalence:
    def test_repl_matches_run_file(self, tmp_path, capsys):
        from tensorlang import cli
        src = "(+ [|1 2 3|]_i [|10 20 30|]_i)\n"
        f = tmp_path / "one.tl"
        f.write_text(src, encoding="utf-8")
        assert cli.run_file(str(f)) == 0
        file_out = capsys.readouterr().out

        import io
        out = io.StringIO()
        cli.repl(out=out, err=out, in_=io.StringIO(src))
        # prompts print without a newline, so strip them before comparing
        repl_lines = [l.lstrip("> …").strip() for l in out.getvalue().splitlines()]
        assert file_out.strip() in repl_lines


MATRIX = "[|[|1 2|] [|3 4|]|]"
NOT_AN_INTEGER = "is not an integer: numbers are exact, so write a rational as (/ -5 2)"

# Each row pins one path through the evaluator and its builtins to the
# value it prints, or to the error class and message it raises.
PINNED = [
    ("transpose", f"(transpose {{j i}} {MATRIX}_i_j)", "[|[|1 3|] [|2 4|]|]_j_i"),
    ("transpose-order-not-a-brace", f"(transpose [|1 2|] {MATRIX}_i_j)",
     (EvalError, "transpose expects a {…} list of index symbols")),
    ("transpose-order-entry-not-a-symbol", f"(transpose {{1 2}} {MATRIX}_i_j)",
     (EvalError, "transpose order entries must be symbols")),
    ("transpose-of-a-scalar", "(transpose {i} 5)", (EvalError, "transpose expects a tensor")),
    ("transpose-order-too-short", f"(transpose {{i}} {MATRIX}_i_j)",
     (EvalError, "transpose order must cover every indexed axis")),
    ("transpose-order-not-a-permutation", f"(transpose {{i k}} {MATRIX}_i_j)",
     (EvalError, "transpose order is not a permutation of the index labels")),
    ("depth-nesting", "(" * 3000 + ")" * 3000, (DepthError, "line 1: form nests too deeply")),
    ("depth-recursion", "(define $f (lambda [$n] (f n)))\n(f 1)",
     (DepthError, "line 2: form recurses too deeply")),
    ("eq-booleans-true", "(eq? (less-than? 1 2) (less-than? 3 4))", "#t"),
    ("eq-booleans-false", "(eq? (less-than? 1 2) (less-than? 4 3))", "#f"),
    ("less-than-equal", "(less-than? 1 1)", "#f"),
    ("less-than-greater", "(less-than? 2 1)", "#f"),
    ("pow-non-integer", "(^ 2 (/ 1 2))", (EvalError, "^ expects a literal integer exponent")),
    ("lambda-shape", "(lambda [$x])",
     (ParseError, "line 1, col 1: lambda expects [parameters] and a body")),
    ("with-symbols-shape", "(with-symbols {1} 1)",
     (ParseError, "line 1, col 1: with-symbols expects {names} and a body")),
    ("if-shape", "(if 1 2)",
     (ParseError, "line 1, col 1: if expects a condition and two branches")),
    ("define-shape", "(define $x)",
     (ParseError, "line 1, col 1: define expects a name and a body")),
    ("empty-tensor-literal", "[| |]", (ParseError, "line 1, col 1: empty tensor literal")),
    ("reader-hash-name", "(with-symbols {i} (eq? i #1))",
     (ParseError, "line 1, col 26: '#1' is not a name: only #t and #f start with '#'")),
    ("reader-decimal", "(+ 1.5 1)", (ParseError, f"line 1, col 4: '1.5' {NOT_AN_INTEGER}")),
    ("reader-exponent", "(+ 1e3 0)", (ParseError, f"line 1, col 4: '1e3' {NOT_AN_INTEGER}")),
    ("reader-slash", "(* 2 -5/2)", (ParseError, f"line 1, col 6: '-5/2' {NOT_AN_INTEGER}")),
    ("reader-still-names", "{- -x #t #f}", "{#<builtin:-> -x #t #f}"),
    ("index-unbound", "q_1", (EvalError, "cannot index the unbound symbol q (line 1)")),
    ("index-without-label", "[|1 2|]_",
     (EvalError, "index without a label at line 1, col 8")),
    ("index-label-a-tensor", "(define $k [|1|])\n[|1 2|]_k",
     (EvalError, "invalid index label k (line 2)")),
    ("empty-application", "()", (EvalError, "empty application at line 1")),
    ("define-mixed-index-kinds", "(define $A_i_1 [|1 2|]_i)",
     (EvalError, "define target must use all-symbolic or all-bare indices (line 1)")),
    ("generate-dims-not-a-brace", "(generate-tensor 1#%1 3)",
     (EvalError, "generate-tensor expects a {…} list of dimensions")),
    ("generate-dim-not-positive", "(generate-tensor 1#%1 {0})",
     (EvalError, "generate-tensor dimensions must be positive integers")),
    ("generate-no-dims", "(generate-tensor 1#%1 {})",
     (EvalError, "generate-tensor needs at least one dimension")),
    ("generate-arity", "(generate-tensor 2#%1 {3})",
     (ArityError, "generator takes 2 arguments but 1 dimensions given")),
    ("brace", "{1 x (less-than? 1 2)}", "{1 x #t}"),
]


@pytest.mark.parametrize("src, expected", [row[1:] for row in PINNED],
                         ids=[row[0] for row in PINNED])
def test_pinned_value_or_error(src, expected):
    if isinstance(expected, str):
        assert show(src) == expected
        return
    cls, message = expected
    with pytest.raises(cls) as err:
        run(src)
    assert (type(err.value), str(err.value)) == (cls, message)
