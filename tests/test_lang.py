import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from tensorlang import Interpreter, format_value
from tensorlang import cli, lang
from tensorlang.errors import ArityError, DepthError, EvalError, ParseError
from tensorlang.lang import (BraceList, Indexed, ListForm, NumberLit,
                             ShorthandLambda, TensorLit, Var, parse_forms)
from tensorlang.symbolic import Integer, Symbol
from tensorlang.tensor import SUB, SUP, SUPSUB


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
    ])
    def test_values(self, src, printed):
        assert show(src) == printed


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

    def test_escaping_locals_numbered_in_declaration_order(self):
        out = show("(with-symbols {k i j} [|i j k|])")
        i, j, k = (int(n) for n in re.findall(r"#([0-9]+)", out))
        assert k < i < j

    def test_runs_twice_equally_up_to_dummies(self):
        src = "(with-symbols {i} (+ [|1 2|]_i [|3 4|]_i))"
        it = Interpreter()
        a = format_value(it.eval_source(src))
        b = format_value(it.eval_source(src))
        assert a == b  # dummies print without their ids


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
