import random

import pytest

from tensorlang import Interpreter, format_value, lang, symbolic
from tensorlang.errors import (ArityError, ComparisonError,
                               DimensionMismatchError, EvalError,
                               SingularMatrixError)
from tensorlang.symbolic import (Integer, Symbol, eval_numeric,
                                 expand_and_simplify)

from helpers import random_binding


@pytest.fixture(scope="module")
def it():
    return Interpreter()


def show(it, src):
    return format_value(it.eval_source(src))


class TestMin:
    def test_numbers(self, it):
        assert show(it, "(min 1 10)") == "1"

    def test_broadcast_grid(self, it):
        assert show(it, "(min [|1 2 3|]_i [|10 20 30|]_j)") == \
            "[|[|1 1 1|] [|2 2 2|] [|3 3 3|]|]_i_j"

    def test_identical_indices(self, it):
        assert show(it, "(min [|1 2 3|]_i [|10 20 30|]_i)") == "[|1 2 3|]_i"

    def test_symbolic_rejected(self, it):
        with pytest.raises(ComparisonError):
            it.eval_source("(min x 1)")


class TestPrelude:
    def test_a_redefinition_stays_in_its_interpreter(self):
        first, second = Interpreter(), Interpreter()
        first.eval_source("(define $min (lambda [$x $y] y))")
        assert show(first, "(min 1 10)") == "10"
        assert show(second, "(min 1 10)") == "1"
        assert show(Interpreter(), "(min 1 10)") == "1"

    def test_a_second_interpreter_parses_nothing(self, monkeypatch):
        Interpreter()
        calls = []
        monkeypatch.setattr(lang, "parse_program", calls.append)
        Interpreter()
        assert calls == []


class TestDot:
    def test_inner(self, it):
        assert show(it, "(. [|1 2 3|]~i [|10 20 30|]_i)") == "140"

    def test_product_without_contractible_pair(self, it):
        assert show(it, "(. [|1 2 3|]_i [|10 20 30|]_j)") == \
            "[|[|10 20 30|] [|20 40 60|] [|30 60 90|]|]_i_j"

    def test_identical_subscripts(self, it):
        assert show(it, "(. [|1 2 3|]_i [|10 20 30|]_i)") == "[|10 40 90|]_i"

    def test_agrees_with_inner_product_numerically(self, it):
        rng = random.Random(4)
        for _ in range(30):
            xs = [rng.randint(-9, 9) for _ in range(3)]
            ys = [rng.randint(-9, 9) for _ in range(3)]
            lit = lambda vals: "[|" + " ".join(map(str, vals)) + "|]"
            a = it.eval_source(f"(. {lit(xs)}~i {lit(ys)}_i)")
            b = it.eval_source(f"(inner-product {lit(xs)} {lit(ys)})")
            assert a == b


class TestPartialDerivative:
    def test_tensor_by_tensor(self, it):
        assert show(it, "(∂/∂ [|(* r (sin θ)) (* r (cos θ))|]_i [|r θ|]_j)") == \
            "[|[|(sin θ) (* r (cos θ))|] [|(cos θ) (* -1 r (sin θ))|]|]_i~j"

    def test_identical_index_contracts_to_supersub(self, it):
        assert show(it, "(∂/∂ [|(* r (sin θ)) (* r (cos θ))|]_i [|r θ|]_i)") == \
            "[|(sin θ) (* -1 r (sin θ))|]~_i"

    def test_constant(self, it):
        assert show(it, "(∂/∂ 5 x)") == "0"

    def test_non_symbol_denominator(self, it):
        with pytest.raises(EvalError):
            it.eval_source("(∂/∂ x 5)")

    def test_linearity_and_product_rule(self, it):
        rng = random.Random(8)
        f = it.eval_source("(∂/∂ (* x (sin x)) x)")
        g = it.eval_source("(+ (sin x) (* x (cos x)))")
        for _ in range(20):
            env = random_binding(rng, ("x",))
            assert abs(eval_numeric(f, env) - eval_numeric(g, env)) < 1e-9


class TestInnerProduct:
    def test_basic(self, it):
        assert show(it, "(inner-product [|1 2 3|] [|10 20 30|])") == "140"

    def test_orthogonal(self, it):
        assert show(it, "(inner-product [|1 0|] [|0 1|])") == "0"

    def test_dimension_mismatch(self, it):
        with pytest.raises(DimensionMismatchError):
            it.eval_source("(inner-product [|1 2|] [|1 2 3|])")

    def test_overwrites_argument_indices(self, it):
        assert show(it, "(inner-product [|1 2 3|]_k [|10 20 30|]~k)") == "140"


class TestMatMul:
    def test_identity(self, it):
        out = it.eval_source(
            "(mat-mul [|[|1 0|] [|0 1|]|] [|[|5 6|] [|7 8|]|])")
        assert [c.value for c in out.components] == [5, 6, 7, 8]

    def test_known_product(self, it):
        out = it.eval_source(
            "(mat-mul [|[|1 2|] [|3 4|]|] [|[|5 6|] [|7 8|]|])")
        assert [c.value for c in out.components] == [19, 22, 43, 50]

    def test_rectangular_shapes(self, it):
        out = it.eval_source(
            "(mat-mul [|[|1 2 3|] [|4 5 6|]|] [|[|1 2|] [|3 4|] [|5 6|]|])")
        assert out.shape == (2, 2)

    def test_against_triple_loop(self, it):
        rng = random.Random(12)
        for _ in range(25):
            n, m, p = (rng.randint(1, 4) for _ in range(3))
            A = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)]
            B = [[rng.randint(-9, 9) for _ in range(p)] for _ in range(m)]
            want = [[sum(A[i][k] * B[k][j] for k in range(m)) for j in range(p)]
                    for i in range(n)]
            lit = lambda M: "[|" + " ".join(
                "[|" + " ".join(map(str, row)) + "|]" for row in M) + "|]"
            out = it.eval_source(f"(mat-mul {lit(A)} {lit(B)})")
            got = [c.value for c in out.components]
            assert got == [v for row in want for v in row]


class TestFlip:
    def test_swaps(self, it):
        assert show(it, "((flip -) 2 5)") == "3"

    def test_involution_behavior(self, it):
        rng = random.Random(2)
        for _ in range(10):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
            assert it.eval_source(f"((flip (flip -)) {a} {b})") == \
                it.eval_source(f"(- {a} {b})")

    def test_non_binary(self, it):
        with pytest.raises(ArityError):
            it.eval_source("(flip sin)")

    def test_contract_needs_binary_function(self, it):
        with pytest.raises(ArityError):
            it.eval_source("(contract sin [|1 2|]~_i)")


class TestVecDot:
    def test_alias(self, it):
        assert show(it, "(V.* [|1 2|] [|3 4|])") == "11"

    def test_orthogonal_rows(self, it):
        it2 = Interpreter()
        it2.run_source("(define $e [|[|1 0 0|] [|0 2 0|]|])")
        assert show(it2, "(V.* e_1 e_2)") == "0"


class TestMatInverse:
    def test_identity(self, it):
        out = it.eval_source("(M.inverse [|[|1 0|] [|0 1|]|])")
        assert [c.value for c in out.components] == [1, 0, 0, 1]

    def test_singular(self, it):
        with pytest.raises(SingularMatrixError):
            it.eval_source("(M.inverse [|[|1 2|] [|2 4|]|])")

    def test_symbolic_diagonal(self, it):
        it2 = Interpreter()
        it2.run_source("""
            (define $m [|[|(* a a) 0|]
                         [|0 (^ (+ (* a (cos θ)) b) 2)|]|])
            (define $im (M.inverse m))
        """)
        rng = random.Random(6)
        for _ in range(20):
            env = {"a": rng.uniform(0.5, 1.5), "b": rng.uniform(2.0, 4.0),
                   "θ": rng.uniform(0, 6.28)}
            prod = it2.eval_source("(mat-mul m im)")
            vals = [eval_numeric(c, env) for c in prod.components]
            assert abs(vals[0] - 1) < 1e-9 and abs(vals[3] - 1) < 1e-9
            assert abs(vals[1]) < 1e-9 and abs(vals[2]) < 1e-9

    def test_numeric_inverse_identity_random(self, it):
        rng = random.Random(14)
        checked = 0
        while checked < 20:
            n = rng.randint(1, 4)
            M = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            lit = "[|" + " ".join(
                "[|" + " ".join(map(str, row)) + "|]" for row in M) + "|]"
            try:
                out = Interpreter().eval_source(f"(mat-mul {lit} (M.inverse {lit}))")
            except SingularMatrixError:
                continue
            vals = [eval_numeric(c, {}) for c in out.components]
            for i in range(n):
                for j in range(n):
                    want = 1.0 if i == j else 0.0
                    assert abs(vals[i * n + j] - want) < 1e-9
            checked += 1


class TestScalarBuiltins:
    def test_scalar_times_tensor(self, it):
        assert show(it, "(* 2 [|1 2|]_i)") == "[|2 4|]_i"

    def test_subtraction(self, it):
        assert show(it, "(- 5 3)") == "2"

    def test_dummy_plus_makes_grid(self, it):
        out = it.eval_source("(+ [|1 2 3|]_# [|10 20 30|]_#)")
        assert out.shape == (3, 3)

    def test_power_builtin(self, it):
        assert show(it, "(^ x 2)") == "(^ x 2)"
        assert show(it, "(^ 3 2)") == "9"

    def test_incomparable(self, it):
        with pytest.raises(ComparisonError):
            it.eval_source("(less-than? x 1)")


class TestEqDecidesIdentities:
    @pytest.mark.parametrize("src, printed", [
        ("(eq? (* x (+ x 1)) (+ (^ x 2) x))", "#t"),
        ("(eq? x y)", "#f"),
        ("(eq? x 1)", "#f"),
        ("(eq? (cos (- θ φ)) (+ (* (cos θ) (cos φ)) (* (sin θ) (sin φ))))", "#t"),
        ("(eq? [|(* (sin x) (sin x)) x|]_i [|(- 1 (* (cos x) (cos x))) y|]_i)", "[|#t #f|]_i"),
        ("(with-symbols {i j} (eq? i j))", "#f"),
        ("(generate-tensor (lambda [$i $j] (if (eq? (sin (* i θ)) (sin (* j θ))) 1 0)) {2 2})",
         "[|[|1 0|] [|0 1|]|]"),
    ])
    def test_symbolic_operands(self, it, src, printed):
        assert show(it, src) == printed

    def test_an_argument_outside_the_class_raises(self, it):
        with pytest.raises(ComparisonError):
            it.eval_source("(eq? (sin (* x x)) 1)")

    def test_numbers_and_one_node_take_the_fast_path(self, it, monkeypatch):
        monkeypatch.setattr(symbolic, "is_zero", lambda e: pytest.fail("is_zero called"))
        assert [show(it, f"(eq? {a} {b})") for a, b in [(1, 1), (1, 2), ("x", "x")]] == \
            ["#t", "#f", "#t"]
