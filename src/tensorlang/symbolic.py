"""Exact symbolic scalars: integers, rationals, symbols, sums, products,
integer powers, and sin/cos applications, kept in a canonical form.

Canonical form: sums and products are flat, their numeric part is folded
into a single leading constant, non-numeric terms/factors are sorted by a
fixed total order, repeated factors are merged into integer powers, and
like terms are combined with rational coefficients.  Quotients are
represented as products with negative powers.

One kind of node: every node is interned, one shared object per
canonical structure, so identity is equality.  Calling a node class is
calling its smart constructor (`Sum((x, y))` is `add(x, y)`,
`Rational(6, 4)` is `from_fraction(Fraction(3, 2))`), and every node
caches its sort key when it is built, so `sort_key` is a field read and
`canonicalize` has nothing left to walk.

The intern table is module-global and keeps its nodes for the life of the
module.  Racing threads still get one node per structure: the table's
keys hold only classes, ints, strings, and nodes (alone or in tuples)
compared by identity, so hashing and comparing them run no Python code
and `setdefault` is atomic.

Every walk over expressions is one memoized post-order fold over the
shared DAG of its roots, so a node is visited once however many roots
reach it.  `eval_numeric_many` uses this to evaluate many expressions at
many bindings: each distinct node becomes one column of floats, with the
same float operations per binding as `eval_numeric`.
"""

from __future__ import annotations

import decimal
import math
import random
from fractions import Fraction
from operator import attrgetter, is_

from .errors import ComparisonError, DivisionByZeroError, EvalError


_key = attrgetter("key")


class ScalarExpr:
    """An immutable interned expression node.  `key` orders nodes by
    variant tag, then structurally."""

    __slots__ = ("key",)
    tag = None

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Integer(ScalarExpr):
    __slots__ = ("value",)
    tag = 0

    def __new__(cls, value):
        return _make(cls, value)


class Rational(ScalarExpr):
    __slots__ = ("numerator", "denominator")
    tag = 1

    def __new__(cls, numerator, denominator):
        if denominator == 0:
            raise DivisionByZeroError("rational with zero denominator")
        return from_fraction(Fraction(numerator, denominator))


class Symbol(ScalarExpr):
    __slots__ = ("name",)
    tag = 2

    def __new__(cls, name):
        return _make(cls, name)


class Power(ScalarExpr):
    __slots__ = ("base", "exponent")  # exponent is an int
    tag = 3

    def __new__(cls, base, exponent):
        return powi(base, exponent)


class Apply(ScalarExpr):
    __slots__ = ("fn", "arg")  # fn is "sin" or "cos"
    tag = 4

    def __new__(cls, fn, arg):
        return _apply(fn, arg)


class Sum(ScalarExpr):
    __slots__ = ("terms",)
    tag = 5

    def __new__(cls, terms):
        return add(*terms)


class Product(ScalarExpr):
    __slots__ = ("factors",)
    tag = 6

    def __new__(cls, factors):
        return mul(*factors)


_interned = {}  # (class, *fields) -> the canonical node with those fields


def _make(cls, *fields):
    """The interned node of a structure the caller has made canonical."""
    k = (cls, *fields)
    node = _interned.get(k)
    if node is None:
        node = object.__new__(cls)
        key = [cls.tag]
        for name, v in zip(cls.__slots__, fields):
            object.__setattr__(node, name, v)
            if isinstance(v, tuple):
                key.append(tuple(map(_key, v)))
            else:
                key.append(v.key if isinstance(v, ScalarExpr) else v)
        object.__setattr__(node, "key", tuple(key))
        node = _interned.setdefault(k, node)
    return node


ZERO = Integer(0)
ONE = Integer(1)
MINUS_ONE = Integer(-1)


def is_numeric(e):
    return isinstance(e, (Integer, Rational))


def _value(e):
    """An int for an Integer, a Fraction for a Rational."""
    return e.value if type(e) is Integer else Fraction(e.numerator, e.denominator)


def as_fraction(e):
    if is_numeric(e):
        return Fraction(_value(e))
    raise EvalError(f"not a numeric expression: {e!r}")


def from_fraction(q):
    """The interned Integer or Rational of an int or a Fraction."""
    if q.denominator == 1:
        return _make(Integer, q.numerator)
    return _make(Rational, q.numerator, q.denominator)


def sort_key(e):
    """Total order on expressions, cached on each node when it is built."""
    return e.key


# --- canonicalization -------------------------------------------------------


def canonicalize(e):
    """Every node is built canonical: this only checks e is a scalar."""
    return _scalar(e)


def _scalar(e):
    """e, when it is a scalar expression.  Each public entry point checks
    here the arguments it puts into a new node, once."""
    if not isinstance(e, ScalarExpr):
        raise EvalError(f"not a scalar expression: {e!r}")
    return e


def _fold(roots, visit, memo=None):
    """Post-order fold: `visit(node, folded children)` runs once per
    distinct node of the DAG under all the roots, children left to right.
    The list of the roots' values, in order.  A caller's `memo` (node ->
    value, for this one `visit`) is read first and keeps every new value,
    so later folds skip the nodes it holds.  The walk keeps its own stack,
    so a tree of any depth folds."""
    if memo is None:
        memo = {}
    values = []
    for root in roots:
        stack = [_scalar(root)]  # the children of a node are nodes, never tuples
        while stack:
            x = stack.pop()
            if type(x) is tuple:  # a node and its children, all folded by now
                x, kids = x
                memo[x] = visit(x, [memo[c] for c in kids])
            elif x not in memo:  # nodes hash by identity, and a key keeps its node alive
                kids = _children(x)
                if kids:
                    stack.append((x, kids))
                    stack += reversed(kids)  # the leftmost child on top
                else:
                    memo[x] = visit(x, [])
        values.append(memo[root])
    return values


def _children(e):
    t = type(e)
    if t is Sum:
        return e.terms
    if t is Product:
        return e.factors
    if t is Power:
        return (e.base,)
    if t is Apply:
        return (e.arg,)
    return ()


def _rebuild(e, children):
    """The canonical node of e's variant over new canonical children; e
    itself when they are its own."""
    if all(map(is_, children, _children(e))):
        return e
    t = type(e)
    if t is Sum:
        return add(*children)
    if t is Product:
        return mul(*children)
    if t is Power:
        return _pow(children[0], e.exponent)
    return _apply(e.fn, children[0])


def _apply(fn, arg):
    if fn not in ("sin", "cos"):
        raise EvalError(f"unknown function symbol: {fn}")
    return _make(Apply, fn, _scalar(arg))


def _pow(base, n):
    if not isinstance(n, int) or isinstance(n, bool):
        raise EvalError(f"power exponent must be an integer, got {n!r}")
    if n == 0:
        if base == ZERO:
            raise DivisionByZeroError("0 raised to the power 0")
        return ONE
    if n == 1:
        return base
    if is_numeric(base):
        q = _value(base)
        if q == 0 and n < 0:
            raise DivisionByZeroError("0 raised to a negative power")
        return from_fraction(Fraction(q) ** n if n < 0 else q ** n)
    if type(base) is Power:
        return _pow(base.base, base.exponent * n)
    if type(base) is Product:
        return _product([_pow(f, n) for f in base.factors])
    return _make(Power, base, n)


def _product(factors):
    """Canonical product of canonical factors."""
    coeff = 1
    powers = {}  # base -> exponent
    for f in factors:
        for g in f.factors if type(f) is Product else (_scalar(f),):
            if type(g) is Integer or type(g) is Rational:
                coeff *= _value(g)
            elif type(g) is Power:
                powers[g.base] = powers.get(g.base, 0) + g.exponent
            else:
                powers[g] = powers.get(g, 0) + 1
    if coeff == 0:
        return ZERO
    parts = sorted((_pow(base, exp) for base, exp in powers.items() if exp != 0), key=_key)
    if not parts:
        return from_fraction(coeff)
    if coeff == 1:
        return parts[0] if len(parts) == 1 else _make(Product, tuple(parts))
    if len(parts) == 1 and type(parts[0]) is Sum:
        # distribute the constant so that s - s collapses term by term
        c = from_fraction(coeff)
        return _sum([_product([c, t]) for t in parts[0].terms])
    return _make(Product, (from_fraction(coeff), *parts))


def _split_term(t):
    """Split a canonical term into (rational coefficient, monomial | None)."""
    if type(t) is Integer or type(t) is Rational:
        return _value(t), None
    if type(t) is Product and is_numeric(t.factors[0]):
        rest = t.factors[1:]
        return _value(t.factors[0]), rest[0] if len(rest) == 1 else _make(Product, rest)
    return 1, t


def _factors(m):
    return m.factors if type(m) is Product else (m,)


def _sum(terms):
    """Canonical sum of canonical terms."""
    return _build(_collect(terms, {}))


def _collect(terms, by_mono):
    """Add canonical terms (a Sum adds its own) into `by_mono`, monomial
    (None for the constant) -> coefficient.  A monomial whose coefficient
    reaches 0 leaves the table, so one made again comes last."""
    for t in terms:
        for u in t.terms if type(t) is Sum else (_scalar(t),):
            coeff, mono = _split_term(u)
            c = by_mono.get(mono, 0) + coeff
            if c != 0:
                by_mono[mono] = c
            else:
                by_mono.pop(mono, None)  # the term 0 may find no entry
    return by_mono


def _build(by_mono):
    """The canonical node of a table from `_collect`."""
    parts = [mono if coeff == 1 else _make(Product, (from_fraction(coeff), *_factors(mono)))
             for mono, coeff in by_mono.items() if mono is not None]  # mono is never a Sum
    parts.sort(key=_key)
    const = by_mono.get(None, 0)
    if const != 0 or not parts:
        parts.insert(0, from_fraction(const))
    return parts[0] if len(parts) == 1 else _make(Sum, tuple(parts))


# --- arithmetic -------------------------------------------------------------


def add(*es):
    if all(type(e) is Integer for e in es):
        return _make(Integer, sum(e.value for e in es))
    return _sum(es)


def mul(*es):
    if all(type(e) is Integer for e in es):
        return _make(Integer, math.prod(e.value for e in es))
    return _product(es)


def neg(e):
    return mul(MINUS_ONE, e)


def sub(first, *rest):
    return add(first, *map(neg, rest)) if rest else neg(first)


def div(a, b):
    if b == ZERO:
        raise DivisionByZeroError("division by zero")
    return mul(a, powi(b, -1))


def powi(a, n):
    return _pow(_scalar(a), n)


def sin(e):
    return _apply("sin", e)


def cos(e):
    return _apply("cos", e)


# --- differentiation --------------------------------------------------------


def differentiate(e, name, memo=None):
    """Partial derivative with respect to the symbol called `name`.  A
    `memo` kept for that one name is passed to the fold, so a node
    differentiated before is not walked again."""
    def visit(x, d):
        t = type(x)
        if t is Symbol:
            return ONE if x.name == name else ZERO
        if t is Sum:
            return add(*d)
        if t is Product:
            fs = x.factors
            return add(*[mul(di, *fs[:i], *fs[i + 1:]) for i, di in enumerate(d)])
        if t is Power:
            return mul(from_fraction(x.exponent), _pow(x.base, x.exponent - 1), d[0])
        if t is Apply:
            if x.fn == "sin":
                return mul(cos(x.arg), d[0])
            return mul(MINUS_ONE, sin(x.arg), d[0])
        return ZERO

    return _fold([e], visit, memo)[0]


# --- substitution and numeric evaluation ------------------------------------


def substitute(e, mapping):
    """e with every symbol named in `mapping` replaced by its value there."""
    for r in mapping.values():
        _scalar(r)

    def visit(x, kids):
        if type(x) is Symbol:
            return mapping.get(x.name, x)
        return _rebuild(x, kids)

    return _fold([e], visit)[0]


def eval_numeric(e, env):
    """IEEE double evaluation; every free symbol must be bound in `env`."""
    return eval_numeric_many([e], [env])[0][0]


def eval_numeric_many(exprs, envs):
    """IEEE double evaluation of every expression at every binding: row i
    holds exprs[i] at each of envs, in order.  Each distinct node of the
    shared DAG is evaluated once, as a column of floats over all bindings.
    Each entry comes from its own binding's operands alone, by `math.fsum`,
    `math.prod` from 1.0, `** n`, sin or cos, so it does not depend on how
    many bindings are evaluated together."""
    def visit(x, v):
        t = type(x)
        if t is Integer or t is Rational:
            return [float(_value(x))] * len(envs)
        if t is Symbol:
            if any(x.name not in env for env in envs):
                raise EvalError(f"unbound symbol in numeric evaluation: {x.name}")
            return [float(env[x.name]) for env in envs]
        if t is Sum:
            return list(map(math.fsum, zip(*v)))
        if t is Product:
            return [math.prod(fs, start=1.0) for fs in zip(*v)]
        if t is Power:
            n = x.exponent
            return [b ** n for b in v[0]]
        return list(map(math.sin if x.fn == "sin" else math.cos, v[0]))

    return _fold(exprs, visit)


# --- expansion and the Pythagorean rewrite ----------------------------------


def expand_and_simplify(e, memo=None):
    """Distribute products over sums, collect like terms, and apply
    sin^2(u) + cos^2(u) -> 1 wherever the two terms share coefficient
    and remaining factors.  Calls may share one fold `memo`, so a node
    expanded before is not walked again."""
    return _pythagoras(_fold([e], _expand_visit, memo)[0])


def _distribute(factors):
    """Multiply out, collecting after each factor: a power of a sum stays small."""
    acc = ONE
    for f in factors:
        acc = add(*[mul(c, u) for c in (acc.terms if type(acc) is Sum else (acc,))
                    for u in (f.terms if type(f) is Sum else (f,))])
    return acc


def _expand_visit(e, kids):
    t = type(e)
    if t is Apply:
        return _apply(e.fn, _pythagoras(kids[0]))
    if t is Power:
        base = _pythagoras(kids[0])
        if e.exponent > 1 and type(base) is Sum:
            return _distribute([base] * e.exponent)
        return _pow(base, e.exponent)
    if t is Sum:
        return add(*kids)
    if t is Product:
        return _distribute(kids)
    return e


def _pythagoras(e):
    """Merge pairs of terms c1·p·sin²u, c2·p·cos²u of one sign until none is
    left: a, the coefficient of smaller magnitude, moves from both onto a·p.
    e's terms are collected once into one table, and each merge collects
    its three new terms into it; the table's order is the scan order: e's
    terms in order, then each monomial a merge makes, in the order made.
    The sum is built once, at the end: e itself when nothing merges."""
    if type(e) is not Sum:
        return e
    table = _collect(e.terms, {})
    merged = False
    while (pair := next(_pairs(table), None)) is not None:
        a, m, s, partner = pair
        _collect((mul(from_fraction(a), m, _pow(s, -2)),
                  mul(from_fraction(-a), m), mul(from_fraction(-a), partner)), table)
        merged = True
    return _build(table) if merged else e


def _pairs(table):
    """Each (a, m, sin u, partner) in scan order: m holds sin(u)^n, n >= 2,
    and a is whichever of their coefficients is smaller in magnitude."""
    for m, c1 in table.items():
        for f in _factors(m) if m is not None else ():  # the constant never pairs
            if (type(f) is Power and f.exponent >= 2
                    and type(f.base) is Apply and f.base.fn == "sin"):
                partner = _partner(m, f.base)
                c2 = table.get(partner, 0) if partner is not None else 0
                if c1 * c2 > 0:
                    yield (c1 if abs(c1) <= abs(c2) else c2), m, f.base, partner


def _partner(m, s):
    """The monomial m·cos²u/sin²u (s is sin u) if it is interned, as every
    term of a sum is; None if not, or if its cos u cancels: that never pairs."""
    c = _interned.get((Apply, "cos", s.arg))
    exps = dict((g.base, g.exponent) if type(g) is Power else (g, 1) for g in _factors(m))
    exps[s] -= 2
    exps[c] = exps.get(c, 0) + 2
    parts = [b if n == 1 else _interned.get((Power, b, n)) for b, n in exps.items() if n != 0]
    if exps[c] == 0 or None in parts:
        return None
    parts.sort(key=_key)
    return parts[0] if len(parts) == 1 else _interned.get((Product, tuple(parts)))


# --- printing ---------------------------------------------------------------


def digits(n):
    """The exact decimal digits of int `n`, also past `str`'s digit limit."""
    try:
        return str(n)
    except ValueError:
        return str(decimal.Decimal(n))


def from_digits(text):
    """The int that the decimal digits `text` spell, also past `str`'s limit."""
    try:
        return int(text)
    except ValueError:
        return int(decimal.Decimal(text))


_FORMAT = {
    Integer: lambda e, kids: digits(e.value),
    Rational: lambda e, kids: f"(/ {digits(e.numerator)} {digits(e.denominator)})",
    Symbol: lambda e, kids: e.name,
    Sum: lambda e, kids: "(+ " + " ".join(kids) + ")",
    Product: lambda e, kids: "(* " + " ".join(kids) + ")",
    Power: lambda e, kids: f"(^ {kids[0]} {digits(e.exponent)})",
    Apply: lambda e, kids: f"({e.fn} {kids[0]})",
}


def format_scalar(e):
    """Prefix S-expression form, e.g. (* -1 r (sin θ))."""
    if type(e) is Integer:
        return digits(e.value)
    return _fold([e], lambda x, kids: _FORMAT[type(x)](x, kids))[0]


# --- comparisons used by the language builtins ------------------------------


def numeric_less_than(a, b):
    if not (is_numeric(a) and is_numeric(b)):
        raise ComparisonError(
            f"cannot order symbolic values: {format_scalar(a)} vs {format_scalar(b)}")
    return as_fraction(a) < as_fraction(b)


def decide_equal(a, b):
    if a is b or is_numeric(a) and is_numeric(b):
        return a is b  # numbers are interned too
    return is_zero(sub(a, b))


# --- identity testing -------------------------------------------------------


_P = 2 ** 61 - 1  # a prime that is 3 mod 4: 1 + t² is never 0 modulo it
_SEED = 1980
_TRIALS = 3


class _Pole(Exception):
    """A denominator is 0 at the sample point."""


def is_zero(e):
    """Whether e is identically 0, by evaluating it exactly modulo the prime
    p = 2^61 - 1 at seeded random points (Schwartz, JACM 1980; Zippel 1979).

    The class decided: rational functions of symbols and of sin/cos whose
    argument is an integer-linear combination of symbols, such as θ,
    (* 2 θ) or (+ θ φ).  Each such symbol θ is drawn as a t with
    (sin θ, cos θ) = (2t/(1+t²), (1-t²)/(1+t²)), the exact image of
    θ = 2·atan t, and a combination's sin and cos follow by angle addition.
    A polynomial occurrence of θ gets its own value, which is sound because
    θ is transcendental over Q(sin θ, cos θ).  Any other sin/cos argument
    raises ComparisonError.

    A nonzero residue proves that e is not identically 0, so that answer
    returns after one trial.  "Zero" needs all _TRIALS = 3 trials to agree:
    a nonzero e whose numerator has degree D passes one trial with
    probability at most D/p, so all of them with at most (D/p)^3.  A point
    at which a denominator is 0 is drawn again; a denominator that is 0 at
    3 draws is a DivisionByZeroError.  The points come from one seeded
    generator, so every call gives the same answer."""
    rng = random.Random(_SEED)
    trials = poles = 0
    while trials < _TRIALS:
        values, circle = {}, {}  # symbol name -> its value; -> its (cos, sin)
        try:
            residue = _fold([e], lambda x, v: _residue(x, v, rng, values, circle))[0]
        except _Pole:
            poles += 1
            if poles == _TRIALS:
                raise DivisionByZeroError("a denominator is 0 at every sample point") from None
            continue
        if residue:
            return False
        trials += 1
    return True


def _residue(x, v, rng, values, circle):
    """x modulo p at the sample point, from its children's residues `v`."""
    t = type(x)
    if t is Integer:
        return x.value % _P
    if t is Rational:
        if x.denominator % _P == 0:
            raise _Pole
        return x.numerator * pow(x.denominator, -1, _P) % _P
    if t is Symbol:
        if x.name not in values:
            values[x.name] = rng.randrange(_P)
        return values[x.name]
    if t is Sum:
        return sum(v) % _P
    if t is Product:
        return math.prod(v) % _P
    if t is Power:
        if v[0] == 0 and x.exponent < 0:
            raise _Pole
        return pow(v[0], x.exponent, _P)
    c, s = 1, 0  # cos and sin of the argument, by angle addition over its terms
    for term in x.arg.terms if type(x.arg) is Sum else (x.arg,):
        k, m = _split_term(term)
        if k == 0 and m is None:  # the argument 0
            continue
        if type(m) is not Symbol or type(k) is not int:
            raise ComparisonError(
                f"cannot decide identities of ({x.fn} {format_scalar(x.arg)}): "
                f"its argument is not an integer combination of symbols")
        if m.name not in circle:
            u = rng.randrange(_P)
            d = pow(1 + u * u, -1, _P)
            circle[m.name] = ((1 - u * u) * d % _P, 2 * u * d % _P)
        uc, us = circle[m.name]
        if k < 0:  # the inverse of a point on the unit circle is its conjugate
            k, us = -k, -us
        while k:  # (c + i s) · (uc + i us)^k
            if k & 1:
                c, s = (c * uc - s * us) % _P, (c * us + s * uc) % _P
            uc, us, k = (uc * uc - us * us) % _P, 2 * uc * us % _P, k >> 1
    return s if x.fn == "sin" else c
