import gc
import operator
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from tensorlang import Interpreter, cli, symbolic as s
from tensorlang.errors import ComparisonError, DivisionByZeroError, EvalError
from tensorlang.symbolic import (Apply, Integer, Power, Product, Rational,
                                 Sum, Symbol)
from tensorlang.tensor import positions

from helpers import (random_binding, random_scalar_expr, reference_eval_numeric,
                     reference_pythagoras, reference_sort_key, subterms, values_close)

x, y, r, th = Symbol("x"), Symbol("y"), Symbol("r"), Symbol("θ")


def fmt(e):
    return s.format_scalar(e)


class TestCanonicalize:
    def test_flatten_and_sort(self):
        e = Sum((x, Sum((y, Integer(1)))))
        assert s.canonicalize(e) == Sum((Integer(1), x, y))

    def test_numeric_folding(self):
        e = Product((Integer(2), x, Rational(1, 2)))
        assert s.canonicalize(e) == x

    def test_power_one(self):
        assert s.canonicalize(Power(x, 1)) == x

    def test_power_zero_becomes_one(self):
        assert s.canonicalize(Power(x, 0)) == Integer(1)

    def test_rational_reduced(self):
        assert s.canonicalize(Rational(6, 4)) == Rational(3, 2)
        assert s.canonicalize(Rational(4, 2)) == Integer(2)
        assert s.canonicalize(Rational(3, -6)) == Rational(-1, 2)

    def test_idempotent_on_random_exprs(self):
        rng = random.Random(7)
        for _ in range(200):
            e = random_scalar_expr(rng)
            c = s.canonicalize(e)
            assert s.canonicalize(c) == c

    def test_repeated_factors_merge(self):
        assert s.mul(x, x) == Power(x, 2)
        assert s.mul(x, s.powi(x, -1)) == Integer(1)

    def test_like_terms_collect(self):
        assert s.add(x, x) == Product((Integer(2), x))
        assert s.add(x, s.neg(x)) == Integer(0)
        big = s.add(x, y, s.mul(Integer(3), x))
        assert big == Sum((y, Product((Integer(4), x))))


class TestArithmetic:
    def test_add(self):
        assert s.add(Integer(1), Integer(2)) == Integer(3)

    def test_mul_annihilator(self):
        assert s.mul(x, Integer(0)) == Integer(0)

    def test_div_rational(self):
        assert s.div(Integer(3), Integer(2)) == Rational(3, 2)

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            s.div(x, Integer(0))
        with pytest.raises(ZeroDivisionError):
            s.div(x, s.add(x, s.neg(x)))

    def test_field_axioms_numeric(self):
        rng = random.Random(3)
        for _ in range(50):
            a = random_scalar_expr(rng, depth=2)
            b = random_scalar_expr(rng, depth=2)
            assert values_close(s.add(a, b), s.add(b, a), rng, trials=20)
            assert values_close(s.mul(a, b), s.mul(b, a), rng, trials=20)

    def test_neg_prints_like_source(self):
        assert fmt(s.mul(Integer(-1), r, s.sin(th))) == "(* -1 r (sin θ))"


class TestDifferentiate:
    def test_product_with_sin(self):
        assert s.differentiate(s.mul(r, s.sin(th)), "θ") == s.mul(r, s.cos(th))
        assert fmt(s.differentiate(s.mul(r, s.sin(th)), "r")) == "(sin θ)"

    def test_cos_gives_negative_sin(self):
        d = s.differentiate(s.mul(r, s.cos(th)), "θ")
        assert d == Product((Integer(-1), r, Apply("sin", th)))
        assert fmt(d) == "(* -1 r (sin θ))"

    def test_constant(self):
        assert s.differentiate(Integer(5), "x") == Integer(0)

    def test_chain_rule(self):
        e = s.sin(s.mul(Integer(2), x))
        assert s.differentiate(e, "x") == s.mul(Integer(2), s.cos(s.mul(Integer(2), x)))

    def test_power_rule(self):
        assert s.differentiate(s.powi(x, 3), "x") == s.mul(Integer(3), s.powi(x, 2))
        assert s.differentiate(s.powi(x, -1), "x") == s.mul(Integer(-1), s.powi(x, -2))

    def test_matches_central_differences(self):
        rng = random.Random(11)
        h = 1e-5
        checked = 0
        while checked < 100:
            e = random_scalar_expr(rng)
            name = rng.choice(("x", "y", "z"))
            d = s.differentiate(e, name)
            env = random_binding(rng)
            try:
                lo = dict(env, **{name: env[name] - h})
                hi = dict(env, **{name: env[name] + h})
                fd = (s.eval_numeric(e, hi) - s.eval_numeric(e, lo)) / (2 * h)
                exact = s.eval_numeric(d, env)
            except (ZeroDivisionError, OverflowError):
                continue
            if max(abs(fd), abs(exact)) > 1e6:
                continue  # ill-conditioned draw, use another
            assert abs(exact - fd) <= 1e-6 * (1 + abs(fd)), fmt(e)
            checked += 1

    def test_shared_memo_gives_the_same_nodes(self):
        # one memo per symbol outlives each call, as an evaluator's does
        rng = random.Random(16)
        memos = {name: {} for name in ("x", "y", "z")}
        for _ in range(4000):
            e = random_scalar_expr(rng)
            name = rng.choice(("x", "y", "z"))
            assert s.differentiate(e, name, memos[name]) is s.differentiate(e, name), fmt(e)
        assert all(memos.values())


class TestExpandAndSimplify:
    def test_pythagorean_with_common_factor(self):
        a = Symbol("a")
        e = s.add(s.mul(s.powi(a, 2), s.powi(s.sin(th), 2)),
                  s.mul(s.powi(a, 2), s.powi(s.cos(th), 2)))
        assert s.expand_and_simplify(e) == s.powi(a, 2)

    def test_distributes(self):
        e = s.mul(s.add(x, Integer(1)), s.add(x, Integer(-1)))
        assert s.expand_and_simplify(e) == Sum((Integer(-1), Power(x, 2)))

    def test_fixed_point(self):
        assert s.expand_and_simplify(x) == x

    def test_double_collapse(self):
        # a² sin²θ cos²φ + a² sin²θ sin²φ + a² cos²θ  ->  a²
        a, ph = Symbol("a"), Symbol("φ")
        a2 = s.powi(a, 2)
        e = s.add(s.mul(a2, s.powi(s.sin(th), 2), s.powi(s.cos(ph), 2)),
                  s.mul(a2, s.powi(s.sin(th), 2), s.powi(s.sin(ph), 2)),
                  s.mul(a2, s.powi(s.cos(th), 2)))
        assert s.expand_and_simplify(e) == a2

    def test_preserves_value(self):
        rng = random.Random(23)
        for _ in range(40):
            e = random_scalar_expr(rng)
            assert values_close(e, s.expand_and_simplify(e), rng, trials=25)

    def test_no_pair_when_the_partner_would_lose_its_cosine(self):
        # a·sin²θ·cos⁻²θ + a: the partner a has no cos θ to pair on
        a = Symbol("a")
        e = s.add(s.mul(a, s.powi(s.sin(th), 2), s.powi(s.cos(th), -2)), a)
        assert s.expand_and_simplify(e) is e

    def test_a_merged_term_is_scanned_after_the_surviving_terms(self):
        # the first merge makes x·sin²θ·cos²θ; it sorts before x·sin⁴θ, but
        # the reference scans it last, so x·sin⁴θ pairs with it first
        sn, cs = s.sin(th), s.cos(th)
        e = s.add(s.mul(x, s.powi(sn, 4), s.powi(cs, 2)), s.mul(x, s.powi(sn, 2), s.powi(cs, 4)),
                  s.mul(x, s.powi(cs, 4)), s.mul(x, s.powi(sn, 4)))
        assert s._pythagoras(e) is reference_pythagoras(e)
        assert s._pythagoras(e) is s.add(s.mul(x, s.powi(cs, 4)), s.mul(x, s.powi(sn, 2)))

    def test_rewrite_is_the_reference_rewrite_on_merge_chains(self):
        # 3-6 same-sign terms x·sin(θ)^(2i)·cos(θ)^(2j): merges chain, and
        # each merged term may sort before terms the reference scans first
        rng = random.Random(1702)
        for _ in range(2000):
            sign = rng.choice((1, -1))
            e = s.add(*[s.mul(s.from_fraction(Fraction(sign * rng.choice((1, 1, 2, 3)))), x,
                              s.powi(s.sin(th), 2 * rng.randint(0, 3)),
                              s.powi(s.cos(th), 2 * rng.randint(0, 2)))
                        for _ in range(rng.randint(3, 6))])
            assert s._pythagoras(e) is reference_pythagoras(e)

    def test_partner_lookups_make_no_nodes(self):
        a = Symbol("pythagoras_fresh")  # not interned by any other test
        e = s.add(s.mul(a, s.powi(s.sin(th), 4)), s.mul(a, s.powi(s.cos(th), 2)))
        before = len(s._interned)
        assert s._pythagoras(e) is e
        assert s.expand_and_simplify(e) is e
        assert len(s._interned) == before

    def test_rewrite_is_the_reference_rewrite_on_seeded_pairs(self):
        for e in seeded_pair_sums(3000):
            merged = s._pythagoras(e)
            assert merged is not e
            assert merged is reference_pythagoras(e)
            assert s.expand_and_simplify(merged) is merged

    @pytest.mark.parametrize("terms", [
        # (c, i, j) for c·x·sin(θ)^i·cos(θ)^j: one merge zeroes a monomial
        # and a later one makes it again, so it is scanned last
        [(2, 2, 4), (3, 4, 2), (1, 0, 4), (1, 4, 0), (1, 6, 0)],
        [(2, 2, 2), (2, 4, 2), (3, 0, 4), (1, 2, 4), (1, 4, 0)],
        [(2, 4, 2), (2, 4, 4), (3, 2, 4), (3, 6, 0), (1, 6, 2)],
        [(3, 2, 4), (1, 4, 2), (1, 6, 2), (1, 4, 4), (1, 6, 0)],
        [(2, 4, 2), (2, 0, 4), (2, 4, 0), (2, 6, 0), (3, 2, 2)],
    ])
    def test_a_monomial_zeroed_and_made_again_is_scanned_last(self, terms):
        e = s.add(*[s.mul(Integer(c), x, s.powi(s.sin(th), i), s.powi(s.cos(th), j))
                    for c, i, j in terms])
        assert s._pythagoras(e) is reference_pythagoras(e)

    def test_a_shared_memo_gives_the_same_nodes(self):
        for exprs in (seeded_pair_sums(300), torus_riemann()):
            alone = [s.expand_and_simplify(e) for e in exprs]
            for step in (1, -1):  # forward, then reversed
                memo = {}
                shared = [s.expand_and_simplify(e, memo) for e in exprs[::step]]
                assert all(map(operator.is_, shared, alone[::step]))
                assert memo

    def test_expanding_the_torus_curvature_makes_few_nodes_and_splits(self):
        # a fresh process, so no earlier test has interned the results
        script = """if True:
            from tensorlang import Interpreter, cli, symbolic as s
            interp = Interpreter()
            interp.run_source(cli.TORUS_PROGRAM.read_text(encoding="utf-8"))
            R = interp.eval_source("R~i_j_k_l").components
            split, calls = s._split_term, []
            s._split_term = lambda t: calls.append(t) or split(t)
            before = len(s._interned)
            for c in R:
                s.expand_and_simplify(c)
            print(len(s._interned) - before, len(calls))
        """
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, check=True, timeout=60).stdout
        nodes, splits = map(int, out.split())
        assert nodes <= 258  # 315 when each merge collected the whole sum again
        assert splits <= 1000  # 2,892 then


class TestIsZero:
    def test_an_expansion_is_zero_against_its_input(self):
        rng = random.Random(23)  # the draws of test_preserves_value
        drawn = [random_scalar_expr(rng) for _ in range(40)]
        for e in [*drawn, *seeded_pair_sums(300), *torus_riemann()]:
            assert s.is_zero(s.sub(e, s.expand_and_simplify(e)))

    @pytest.mark.parametrize("a, b", [
        (s.add(s.powi(s.sin(x), 2), s.powi(s.cos(x), 2)), Integer(1)),
        (s.sin(s.mul(Integer(2), th)), s.mul(Integer(2), s.sin(th), s.cos(th))),
        (s.cos(s.sub(th, x)), s.add(s.mul(s.cos(th), s.cos(x)), s.mul(s.sin(th), s.sin(x)))),
        (s.cos(s.mul(Integer(-3), th)),
         s.sub(s.mul(Integer(4), s.powi(s.cos(th), 3)), s.mul(Integer(3), s.cos(th)))),
        (s.div(Integer(1), s.cos(th)), s.div(s.cos(th), s.sub(Integer(1), s.powi(s.sin(th), 2)))),
        (s.mul(th, s.add(s.powi(s.sin(th), 2), s.powi(s.cos(th), 2))), th),
        (s.cos(Integer(0)), Integer(1)),
    ], ids=["pythagoras", "double-angle", "angle-difference", "triple-angle", "reciprocal",
            "polynomial-and-trig-theta", "cos-0"])
    def test_identities_are_zero_and_their_perturbations_are_not(self, a, b):
        assert s.is_zero(s.sub(a, b))
        assert not s.is_zero(s.sub(a, b, Integer(1)))
        assert not s.is_zero(s.sub(a, s.mul(b, x, y)))

    def test_a_symbol_is_not_its_sine(self):
        assert not s.is_zero(s.sub(th, s.sin(th)))

    def test_the_torus_curvature_is_nonzero_exactly_at_the_four_positions(self):
        R = torus_riemann()
        nonzero = [p for p, c in zip(positions((2, 2, 2, 2)), R) if not s.is_zero(c)]
        assert nonzero == list(cli._NONZERO_R)
        assert not any(s.is_zero(s.add(c, Integer(1))) for c in R)

    @pytest.mark.parametrize("arg", [
        s.mul(x, x), s.add(x, Integer(1)), s.mul(Rational(1, 2), x), s.sin(x), Integer(3)])
    def test_an_argument_outside_the_class_raises(self, arg):
        with pytest.raises(ComparisonError):
            s.is_zero(s.sub(s.sin(arg), y))

    def test_a_pole_at_the_first_point_is_drawn_again(self, monkeypatch):
        monkeypatch.setattr(s, "_SEED", 7)
        v = Integer(random.Random(7).randrange(s._P))  # x's value at the first point
        poles, residue = [], s._residue

        def spy(*args):
            try:
                return residue(*args)
            except s._Pole:
                poles.append(args[0])
                raise
        monkeypatch.setattr(s, "_residue", spy)
        pole = s.powi(s.sub(x, v), -1)
        # (x² - v²)/(x - v) - (x + v) is 0 and 1/(x - v) is not; both have a pole at x = v
        assert s.is_zero(s.sub(s.mul(pole, s.sub(s.powi(x, 2), s.powi(v, 2))), s.add(x, v)))
        assert not s.is_zero(pole)
        assert poles == [pole, pole]

    def test_a_denominator_that_is_always_zero_raises(self):
        with pytest.raises(DivisionByZeroError):
            s.is_zero(s.powi(s.sin(Integer(0)), -1))

    def test_two_calls_give_the_same_answer(self):
        exprs = [s.add(c, Integer(k)) for c in torus_riemann()[:4] for k in (0, 1)]
        assert [s.is_zero(e) for e in exprs] == [s.is_zero(e) for e in exprs]

    def test_the_first_point_does_not_depend_on_string_hashing(self):
        # CI runs this under two PYTHONHASHSEEDs: the pin holds under any
        e = s.add(s.mul(x, s.sin(s.add(th, Symbol("φ")))),
                  s.div(s.cos(s.mul(Integer(2), th)), s.add(y, Rational(1, 3))))
        rng, values, circle = random.Random(s._SEED), {}, {}
        residue = s._fold([e], lambda n, v: s._residue(n, v, rng, values, circle))[0]
        assert residue == 1535898972767644122


def seeded_pair_sums(count):
    """`count` seeded sums, each of a same-sign pair c1·m·sin(u)^(k+2)·cos(u)^l,
    c2·m·sin(u)^k·cos(u)^(l+2) and 0-4 random terms that never share the
    pair's monomials."""
    rng = random.Random(1702)
    a, b, ph = Symbol("a"), Symbol("b"), Symbol("φ")
    args = (th, ph, s.add(th, ph), s.mul(Integer(2), th))
    monos = (Integer(1), a, s.mul(a, b), s.powi(b, -1), s.powi(a, 2))
    coeffs = (1, 2, 3, Fraction(1, 2), Fraction(5, 3))

    def term(c, m, u, k, l):
        return s.mul(s.from_fraction(Fraction(c)), m,
                     s.powi(s.sin(u), k), s.powi(s.cos(u), l))

    sums = []
    for _ in range(count):
        u, m, k, l = rng.choice(args), rng.choice(monos), rng.randint(0, 2), rng.randint(0, 2)
        sign = rng.choice((1, -1))
        pair = (term(sign * rng.choice(coeffs), m, u, k + 2, l),
                term(sign * rng.choice(coeffs), m, u, k, l + 2))
        paired = {s._split_term(t)[1] for t in pair}
        extra = []
        for _ in range(rng.randint(0, 4)):
            t = term(rng.choice((1, -1)) * rng.choice(coeffs), rng.choice(monos),
                     rng.choice(args), rng.randint(0, 4), rng.randint(0, 4))
            if s._split_term(t)[1] not in paired:  # keep the pair's coefficients
                extra.append(t)
        sums.append(s.add(*pair, *extra))
    return sums


def torus_riemann():
    """The 16 components of the torus program's R~i_j_k_l."""
    interp = Interpreter()
    interp.run_source(cli.TORUS_PROGRAM.read_text(encoding="utf-8"))
    return interp.eval_source("R~i_j_k_l").components


class TestEvalNumeric:
    def test_rational(self):
        assert s.eval_numeric(Rational(3, 2), {}) == 1.5

    def test_sin_at_zero(self):
        assert s.eval_numeric(s.sin(th), {"θ": 0}) == 0.0

    def test_direct_substitution(self):
        e = s.add(s.mul(Symbol("a"), s.cos(th)), Symbol("b"))
        assert s.eval_numeric(e, {"a": 1, "b": 3, "θ": 0}) == 4.0

    def test_unbound_symbol(self):
        with pytest.raises(EvalError):
            s.eval_numeric(x, {})


class TestEvalNumericMany:
    """One walk of the shared DAG for all bindings gives, bit for bit, the
    value of evaluating each expression at each binding on its own."""

    def test_equals_one_binding_at_a_time(self):
        rng = random.Random(41)
        trees = [random_scalar_expr(rng, depth=4) for _ in range(80)]
        # trees built from one another share subterms across roots
        trees += [s.add(a, s.mul(a, b)) for a, b in zip(trees, trees[1:])]
        envs = [random_binding(rng) for _ in range(30)]
        for e, row in zip(trees, s.eval_numeric_many(trees, envs)):
            assert [v.hex() for v in row] == [s.eval_numeric(e, env).hex() for env in envs]
            assert row == [reference_eval_numeric(e, env) for env in envs]

    def test_float_errors_are_raised_as_at_one_binding(self):
        e = s.mul(x, s.powi(s.sin(Integer(0)), -1))  # 1 / 0.0 at every binding
        with pytest.raises(ZeroDivisionError):
            s.eval_numeric(e, {"x": 2.0})
        with pytest.raises(ZeroDivisionError):
            s.eval_numeric_many([x, e], [{"x": 1.0}, {"x": 2.0}])

    def test_symbol_missing_from_one_binding(self):
        envs = [{"x": 1.0, "y": 2.0}, {"x": 0.5}, {"x": 3.0, "y": 1.0}]
        with pytest.raises(EvalError) as one:
            s.eval_numeric(y, envs[1])
        with pytest.raises(EvalError) as many:
            s.eval_numeric_many([s.add(x, s.mul(x, y))], envs)
        assert str(many.value) == str(one.value) == "unbound symbol in numeric evaluation: y"

    def test_no_bindings(self):
        assert s.eval_numeric_many([x, s.sin(s.add(x, y)), Integer(2)], []) == [[], [], []]

    def test_leaves_no_float_column_to_the_collector(self):
        interp = Interpreter()
        interp.run_source(cli.TORUS_PROGRAM.read_text(encoding="utf-8"))
        exprs = list(interp.eval_source("R~i_j_k_l").components)
        envs = [{"θ": 0.1 * k, "φ": 0.2 * k, "a": 1.0, "b": 3.0} for k in range(400)]
        gc.collect()
        gc.disable()
        try:
            s.eval_numeric_many(exprs, envs)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            columns = [g for g in gc.garbage if isinstance(g, list) and len(g) == len(envs)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert columns == []


class TestFold:
    @staticmethod
    def children(e):
        return (*getattr(e, "terms", ()), *getattr(e, "factors", ()),
                *[getattr(e, a) for a in ("base", "arg") if hasattr(e, a)])

    def reference(self, roots):
        """Each distinct node once, children left to right before their parent."""
        order = {}

        def walk(e):
            if e not in order:
                for c in self.children(e):
                    walk(c)
                order[e] = None
        for e in roots:
            walk(e)
        return list(order)

    def test_visits_each_distinct_node_once_in_post_order(self):
        rng = random.Random(11)

        def tree(e):
            return (type(e).__name__, *map(tree, self.children(e)))
        for _ in range(200):
            roots = [random_scalar_expr(rng, depth=4) for _ in range(3)]
            visited = []

            def visit(e, kids):
                visited.append(e)
                return (type(e).__name__, *kids)
            assert s._fold(roots, visit) == list(map(tree, roots))
            assert visited == self.reference(roots)

    def test_a_callers_memo_is_read_first_and_keeps_every_value(self):
        e = s.add(s.sin(x), s.mul(x, y))
        memo = {x: "seen"}
        visited = []
        s._fold([e], lambda n, kids: visited.append(n) or len(visited), memo)
        assert x not in visited and set(memo) == set(self.reference([e]))
        assert s._fold([e, x], lambda n, kids: 1 / 0, memo) == [memo[e], "seen"]

    def test_the_first_error_is_the_first_in_post_order(self):
        e = s.add(s.sin(x), s.cos(y))

        def visit(n, kids):
            if type(n) is Symbol:
                raise EvalError(n.name)
            return n
        first = next(n for n in self.reference([e]) if type(n) is Symbol)
        with pytest.raises(EvalError) as err:
            s._fold([e], visit)
        assert str(err.value) == first.name

    def test_folds_deeper_than_the_python_stack(self):
        e = x
        for _ in range(3 * sys.getrecursionlimit()):
            e = s.sin(e)
        assert s.differentiate(e, "y") is Integer(0)


class TestSubstitute:
    def test_simple(self):
        assert s.substitute(s.add(x, y), {"x": Integer(2)}) == s.add(Integer(2), y)

    def test_inside_apply(self):
        assert s.substitute(s.sin(x), {"x": th}) == s.sin(th)

    def test_recanonicalizes(self):
        assert s.substitute(s.mul(x, x), {"x": Integer(3)}) == Integer(9)


class TestCanonicalEqualityCongruence:
    def test_equal_canonical_forms_agree_numerically(self):
        rng = random.Random(5)
        for _ in range(30):
            e = random_scalar_expr(rng)
            c = s.canonicalize(e)
            assert values_close(e, c, rng, trials=100)


class TestInterning:
    def test_cached_keys_order_like_the_reference(self):
        rng = random.Random(13)
        exprs = [random_scalar_expr(rng) for _ in range(200)]
        nodes = [n for e in exprs for n in subterms(e)]
        assert sorted(nodes, key=s.sort_key) == sorted(nodes, key=reference_sort_key)
        for _ in range(2000):
            a, b = rng.choice(nodes), rng.choice(nodes)
            ka, kb = reference_sort_key(a), reference_sort_key(b)
            assert (s.sort_key(a) < s.sort_key(b)) == (ka < kb)
            assert (s.sort_key(a) == s.sort_key(b)) == (ka == kb) == (a is b)
        for a, b in zip(exprs, exprs[1:]):
            assert s.canonicalize(a) is a
            assert s.add(a, b) is s.add(b, a)
            assert s.mul(a, b) is s.mul(b, a)

    def test_class_built_trees_are_interned_by_canonicalize(self):
        e = Sum((y, Product((Integer(2), x))))
        assert e is s.add(s.mul(x, Integer(2)), y)
        assert s.canonicalize(e) is e
        assert Sum((x, Sum((y, Integer(1))))) is s.add(x, y, Integer(1))

    def test_second_torus_run_interns_no_new_nodes(self):
        program = cli.TORUS_PROGRAM.read_text(encoding="utf-8")
        Interpreter().run_source(program)
        size = len(s._interned)
        Interpreter().run_source(program)
        assert len(s._interned) == size


class TestOneKindOfNode:
    def test_class_calls_are_the_smart_constructors(self):
        rng = random.Random(29)
        exprs = [random_scalar_expr(rng) for _ in range(300)]
        for a in exprs:
            b = rng.choice(exprs)
            assert Sum((a, b)) is s.add(a, b)
            assert Product((a, b)) is s.mul(a, b)
            if a is not s.ZERO:
                n = rng.choice((-2, -1, 0, 1, 2, 3))
                assert Power(a, n) is s.powi(a, n)
            assert Apply("cos", a) is s.cos(a)
            assert Apply("sin", a) is s.sin(a)
            p, q = rng.randint(-9, 9), rng.choice((-6, -4, -1, 1, 2, 3, 6))
            assert Rational(p, q) is s.div(Integer(p), Integer(q))

    def test_invalid_class_calls_raise_language_errors(self):
        with pytest.raises(DivisionByZeroError):
            Rational(1, 0)
        with pytest.raises(DivisionByZeroError):
            Power(Integer(0), 0)
        with pytest.raises(EvalError):
            Apply("tan", x)
        with pytest.raises(EvalError):
            s.canonicalize(5)

    @pytest.mark.parametrize("call", [
        lambda: s.add(x, 5), lambda: s.mul(x, "y"), lambda: s.mul(Integer(0), "y"),
        lambda: s.sub(x, 5),
        lambda: s.sin(5), lambda: s.cos("a"), lambda: s.powi(5, 2), lambda: s.div(x, 5),
        lambda: s.substitute(x, {"x": 5}),
    ], ids=["add", "mul", "mul-zero", "sub", "sin", "cos", "powi", "div", "substitute"])
    def test_non_scalar_arguments_raise_language_errors(self, call):
        with pytest.raises(EvalError, match="not a scalar expression"):
            call()

    def test_racing_threads_get_one_node_per_structure(self):
        names = ("race_u", "race_v", "race_w")  # not interned by any other test
        results = [[] for _ in range(8)]

        def build(out):
            rng = random.Random(31)
            out.extend(random_scalar_expr(rng, names) for _ in range(2000))

        threads = [threading.Thread(target=build, args=(out,)) for out in results]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert [len(out) for out in results] == [2000] * 8
        for built in zip(*results):
            assert all(e is built[0] for e in built)
