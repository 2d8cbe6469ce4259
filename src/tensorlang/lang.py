"""Surface syntax and evaluation: S-expressions with index suffixes,
lambda parameter kinds, with-symbols scoping, and indexed definitions."""

from __future__ import annotations

import collections
import functools
import itertools
import re
from dataclasses import dataclass

from . import symbolic, tensor
from .errors import ArityError, DepthError, EvalError, ParseError
from .tensor import (KIND_INVERTED, KIND_SCALAR, KIND_TENSOR, NumberLabel,
                     SymbolLabel, Tensor)
from .values import BraceValue, Environment, FunctionValue, format_value

_MISSING = Environment.MISSING


# --- tokens -------------------------------------------------------------------

# One alternative per token class, tried in order.  An `N#` shorthand head
# is its own token, and an atom is a base that stops before the first
# `~`/`_` or an index suffix; so an index chain or a shorthand body is
# always the next token, glued to the one before it.
_TOKEN_RE = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[^\S\n]+)
  | (?P<comment>;[^\n]*)
  | (?P<delim>\[\||\|\]|[()\[\]{}'])
  | (?P<head>[0-9]+\#)
  | (?P<atom>[^\s~_()\[\]{}';|]+|[~_][^\s()\[\]{}';|]*)
  | (?P<stray>\|)
""", re.VERBOSE)


@dataclass
class Token:
    kind: str  # "(" ")" "[" "]" "{" "}" "[|" "|]" "'" "atom" "head" "stray"
    text: str
    line: int
    col: int
    glued: bool  # no whitespace between this token and the previous one


def tokenize(text):
    toks = []
    line, line_start, glued = 1, 0, False
    for m in _TOKEN_RE.finditer(text):
        kind, s = m.lastgroup, m.group()
        col = m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind not in ("space", "comment"):
            toks.append(Token(s if kind == "delim" else kind, s, line, col, glued))
        glued = kind not in ("newline", "space", "comment")
    return toks


# --- syntax tree --------------------------------------------------------------


@dataclass
class NumberLit:
    value: int
    pos: tuple


@dataclass
class Var:
    name: str
    pos: tuple


@dataclass
class ListForm:
    items: tuple
    pos: tuple


@dataclass
class BrackList:
    items: tuple
    pos: tuple


@dataclass
class BraceList:
    items: tuple
    pos: tuple


@dataclass
class TensorLit:
    items: tuple
    pos: tuple


@dataclass
class IndexSpecAst:
    variance: int
    kind: str  # "num" | "name" | "dummy" | "empty"
    text: str
    pos: tuple


@dataclass
class Indexed:
    base: object
    specs: tuple
    pos: tuple


@dataclass
class ShorthandLambda:
    arity: int
    body: object
    pos: tuple
    excess: str | None  # the first %k read in the body with k > arity


_INT_RE = re.compile(r"-?[0-9]+\Z")
_NUMBER_LIKE_RE = re.compile(r"-?[0-9]")
_PLACEHOLDER_RE = re.compile(r"%([0-9]+)\Z")
_PARAM_RE = re.compile(r"(\*\$|\$|%)(.+)\Z")  # a lambda parameter: marker, name
_PARAM_KIND = {"*$": KIND_INVERTED, "$": KIND_SCALAR, "%": KIND_TENSOR}
_MARK_RE = re.compile(r"(~_(?=[^~_])|~|_)([^~_]*)")
_VARIANCE_OF = {mark: v for v, mark in tensor.VARIANCE_MARK.items()}


def parse_index_chain(s, line, col):
    """Split an index suffix string like '~i_j' or '_#_2' into specs."""
    specs = []
    for m in _MARK_RE.finditer(s):
        label = m.group(2)
        kind = ("empty" if label == "" else "dummy" if label == "#"
                else "num" if _INT_RE.match(label) else "name")
        specs.append(IndexSpecAst(_VARIANCE_OF[m.group(1)], kind, label,
                                  (line, col + m.start())))
    return specs


class Parser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.i = 0
        self.last_line = 1
        self.shorthand = None  # [arity, first excess placeholder] of the body being read

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        self.last_line = tok.line
        return tok

    def expect(self, opener):
        tok = self.peek()
        if tok is None:
            raise ParseError(f"unbalanced '{opener.kind}'", opener.line, opener.col)
        return tok

    def forms(self):
        """Top-level forms with their (start_line, end_line) spans, each
        yielded as soon as it is parsed."""
        while self.peek() is not None:
            start = self.peek().line
            try:
                node = self.parse_expr()
            except RecursionError:
                raise DepthError(f"line {start}: form nests too deeply") from None
            yield node, start, self.last_line

    def parse_expr(self):
        """A primary, then the index chain glued to it, if any."""
        if self.peek() is None:
            raise ParseError("unexpected end of input", self.last_line, 1)
        node = self._primary()
        nxt = self.peek()
        if nxt is None or not nxt.glued or nxt.text[0] not in "~_":
            return node
        self.advance()
        specs = tuple(parse_index_chain(nxt.text, nxt.line, nxt.col))
        for s in specs:
            self._placeholder(s.text)
        # an indexed atom keeps the atom's position, an indexed form the chain's
        at = node.pos if isinstance(node, (Var, NumberLit)) else (nxt.line, nxt.col)
        return Indexed(node, specs, at)

    def _sequence(self, opener, closer, build):
        items = []
        while True:
            tok = self.expect(opener)
            if tok.kind == closer:
                self.advance()
                return build(tuple(items), (opener.line, opener.col))
            items.append(self.parse_expr())

    def _primary(self):
        tok = self.advance()
        pos = (tok.line, tok.col)
        if tok.kind == "(":
            node = self._sequence(tok, ")", ListForm)
            self._check_special(node)
            return node
        if tok.kind == "[|":
            node = self._sequence(tok, "|]", TensorLit)
            if not node.items:
                raise ParseError("empty tensor literal", tok.line, tok.col)
            return node
        if tok.kind == "[":
            return self._sequence(tok, "]", BrackList)
        if tok.kind == "{":
            return self._sequence(tok, "}", BraceList)
        if tok.kind == "'":
            return self.parse_expr()  # a quote reads as its expression
        if tok.kind == "atom":
            return self._atom(tok)
        if tok.kind == "head":
            nxt = self.peek()
            if nxt is None or not nxt.glued:
                raise ParseError("shorthand lambda needs an attached body", *pos)
            try:
                arity = int(tok.text[:-1])
            except ValueError:  # past str's digit limit: no such arity can be allocated
                raise ParseError("shorthand arity has too many digits", *pos) from None
            outer, self.shorthand = self.shorthand, [arity, None]
            body = self.parse_expr()  # a nested shorthand answers to its own arity
            (arity, excess), self.shorthand = self.shorthand, outer
            return ShorthandLambda(arity, body, pos, excess)
        if tok.kind == "stray":
            raise ParseError("stray '|'", *pos)
        raise ParseError(f"unexpected '{tok.text}'", tok.line, tok.col)

    def _atom(self, tok):
        text, pos = tok.text, (tok.line, tok.col)
        if text[0] in "~_":
            raise ParseError(f"index suffix {text!r} has no target expression", *pos)
        if _INT_RE.match(text):
            return NumberLit(symbolic.from_digits(text), pos)
        if text[0] == "#" and text not in ("#t", "#f"):  # `#n` names with-symbols locals
            raise ParseError(f"{text!r} is not a name: only #t and #f start with '#'", *pos)
        if text[0] in "-0123456789" and _NUMBER_LIKE_RE.match(text):  # `-` alone is a name
            raise ParseError(f"{text!r} is not an integer: numbers are exact, "
                             f"so write a rational as (/ -5 2)", *pos)
        self._placeholder(text)
        return Var(text, pos)

    def _placeholder(self, text):
        """Record text as the shorthand's excess placeholder when it is the
        first `%k` read in the body with k above the arity."""
        frame = self.shorthand
        m = frame and frame[1] is None and _PLACEHOLDER_RE.match(text)
        if m and symbolic.from_digits(m.group(1)) > frame[0]:
            frame[1] = text

    def _check_special(self, node):
        items = node.items
        if not items or not isinstance(items[0], Var):
            return
        head = items[0].name
        if head == "lambda":
            if len(items) != 3 or not isinstance(items[1], BrackList):
                raise ParseError("lambda expects [parameters] and a body", *node.pos)
            for p in items[1].items:
                if not isinstance(p, Var) or not _PARAM_RE.match(p.name):
                    got = getattr(p, "name", p)
                    raise ParseError(
                        f"bad parameter marker {got!r} (use $name, %name or *$name)",
                        *(p.pos if hasattr(p, "pos") else node.pos))
        elif head == "with-symbols":
            if len(items) != 3 or not isinstance(items[1], BraceList) or \
                    not all(isinstance(s, Var) for s in items[1].items):
                raise ParseError("with-symbols expects {names} and a body", *node.pos)
        elif head == "if":
            if len(items) != 4:
                raise ParseError("if expects a condition and two branches", *node.pos)
        elif head == "define":
            if len(items) != 3:
                raise ParseError("define expects a name and a body", *node.pos)
            target = items[1]
            ok = isinstance(target, Var) or (
                isinstance(target, Indexed) and isinstance(target.base, Var))
            if not ok:
                raise ParseError("define target must be a (possibly indexed) name",
                                 *node.pos)


def parse_program(text):
    return list(Parser(text).forms())


def parse_forms(text):
    return [node for node, _, _ in parse_program(text)]


# --- evaluation ---------------------------------------------------------------


class Evaluator:
    def __init__(self):
        self._local_ids = itertools.count(1)
        # symbol name -> {node: its derivative}, filled by ∂/∂ for the life
        # of this evaluator, so a node is differentiated once per symbol
        self.derivatives = collections.defaultdict(dict)

    # value of a node in an environment
    def eval(self, node, env):
        if isinstance(node, NumberLit):
            return symbolic.Integer(node.value)
        if isinstance(node, Var):
            return self._var(node, env)
        if isinstance(node, Indexed):
            return self._indexed(node, env)
        if isinstance(node, TensorLit):
            return tensor.tensor_from_nested([self.eval(e, env) for e in node.items])
        if isinstance(node, BraceList):
            return BraceValue(tuple(self.eval(e, env) for e in node.items))
        if isinstance(node, ShorthandLambda):
            if node.excess:
                raise EvalError(
                    f"placeholder {node.excess} exceeds shorthand arity {node.arity}")
            params = tuple((KIND_TENSOR, f"%{k}") for k in range(1, node.arity + 1))
            return _closure(params, node.body, env)
        if isinstance(node, BrackList):
            raise EvalError(f"unexpected [...] at line {node.pos[0]}")
        if isinstance(node, ListForm):
            return self._list_form(node, env)
        raise EvalError(f"cannot evaluate {node!r}")

    def _var(self, node, env):
        val = env.lookup(node.name)
        if val is not _MISSING:
            return val
        sigs = env.signatures_of(node.name)
        if sigs:
            raise EvalError(
                f"variable {node.name} is only bound with index signatures; "
                f"reference it with indices (line {node.pos[0]})")
        return symbolic.Symbol(node.name)

    def _indexed(self, node, env):
        specs = node.specs
        if isinstance(node.base, Var):
            name = node.base.name
            sig = tuple(s.variance for s in specs)
            val = env.lookup(name, sig)
            if val is _MISSING:
                val = env.lookup(name)
            if val is _MISSING:
                sigs = env.signatures_of(name)
                if sigs:
                    raise EvalError(
                        f"variable {name} is not bound with index signature "
                        f"{_sig_text(sig)} (line {node.pos[0]})")
                raise EvalError(
                    f"cannot index the unbound symbol {name} (line {node.pos[0]})")
        else:
            val = self.eval(node.base, env)
        ix = [self._eval_spec(s, env) for s in specs]
        return tensor.append_indices(val, ix)

    def _eval_spec(self, spec, env):
        if spec.kind == "empty":
            raise EvalError(
                f"index without a label at line {spec.pos[0]}, col {spec.pos[1]}")
        if spec.kind == "num":
            return tensor.Index(spec.variance, NumberLabel(symbolic.from_digits(spec.text)))
        if spec.kind == "dummy":
            return tensor.fresh_dummy(spec.variance)
        val = env.lookup(spec.text)
        if val is _MISSING:
            return tensor.Index(spec.variance, SymbolLabel(spec.text))
        if isinstance(val, symbolic.Symbol):
            return tensor.Index(spec.variance, SymbolLabel(val.name))
        if isinstance(val, symbolic.Integer):
            return tensor.Index(spec.variance, NumberLabel(val.value))
        raise EvalError(f"invalid index label {spec.text} (line {spec.pos[0]})")

    def _list_form(self, node, env):
        items = node.items
        if not items:
            raise EvalError(f"empty application at line {node.pos[0]}")
        if isinstance(items[0], Var):
            head = items[0].name
            if head == "define":
                return self._define(node, env)
            if head == "lambda":
                return self._lambda(node, env)
            if head == "with-symbols":
                names = [v.name for v in items[1].items]
                return self.eval_with_symbols(names, items[2], env)
            if head == "if":
                cond = self.eval(items[1], env)
                if not isinstance(cond, bool):
                    raise EvalError(
                        f"if condition must be a boolean, got {format_value(cond)}")
                return self.eval(items[2] if cond else items[3], env)
        fv = self.eval(items[0], env)
        if not isinstance(fv, FunctionValue):
            raise EvalError(f"not a function: {format_value(fv)} (line {node.pos[0]})")
        args = [self.eval(a, env) for a in items[1:]]
        return self.call(fv, args)

    def _lambda(self, node, env):
        marked = (_PARAM_RE.match(p.name).groups() for p in node.items[1].items)
        return _closure([(_PARAM_KIND[m], name) for m, name in marked], node.items[2], env)

    def _define(self, node, env):
        target, body = node.items[1], node.items[2]
        if isinstance(target, Var):
            env.define(_strip_marker(target.name), self.eval(body, env))
            return None
        base = _strip_marker(target.base.name)
        specs = target.specs
        sig = tuple(s.variance for s in specs)
        kinds = {s.kind for s in specs}
        if kinds == {"empty"}:
            env.define(base, self.eval(body, env), signature=sig)
        elif kinds == {"name"}:
            names = [s.text for s in specs]
            defining = (f"{base}{''.join(tensor.VARIANCE_MARK[s.variance] + s.text for s in specs)}"
                        f" (line {node.pos[0]})")
            if len(set(names)) < len(names):
                raise EvalError(f"indexed definition {defining} repeats an index name")
            env.define(base, self.eval_with_symbols(names, body, env, defining), signature=sig)
        else:
            raise EvalError(
                f"define target must use all-symbolic or all-bare indices "
                f"(line {node.pos[0]})")
        return None

    # --- with-symbols ---------------------------------------------------------

    def eval_with_symbols(self, names, body, env, defining=None):
        """Evaluate body with each name bound to a fresh symbol `#n`,
        numbered in declaration order: a local left in a scalar already has
        the name the result keeps.  An axis labelled by a local then becomes
        a fresh dummy.  `defining` (an indexed definition's target and line,
        distinct names) first puts the axes in the order of names."""
        frame = Environment(env)
        local = {n: SymbolLabel(f"#{next(self._local_ids)}") for n in names}
        for n, label in local.items():
            frame.define(n, symbolic.Symbol(label.name))
        value = self.eval(body, frame)
        if defining:
            order = [local[n] for n in names]
            if not isinstance(value, Tensor):
                raise EvalError(f"indexed definition {defining} needs a tensor value")
            labels = [ix.label if ix else None for ix in value.indices]
            if len(labels) != len(order) or set(labels) != set(order):
                raise EvalError(f"indexed definition {defining}: the value's indices "
                                f"are not {' '.join(names)} in some order")
            value = tensor.transpose(order, value)
        if not isinstance(value, Tensor):
            return value
        own = set(local.values())
        return tensor.make_tensor(value.shape, value.components, [
            tensor.fresh_dummy(ix.variance) if ix is not None and ix.label in own else ix
            for ix in value.indices])

    # --- application ----------------------------------------------------------

    def call(self, fv, args):
        kinds = fv.kinds
        if fv.variadic:
            if not args:
                raise ArityError(f"{fv.name} expects at least 1 arguments, got 0")
            kinds = kinds * len(args)
        elif len(args) != len(kinds):
            raise ArityError(f"{fv.name or 'function'} expects {len(kinds)} "
                             f"arguments, got {len(args)}")
        # The paper's rule: a tensor passed for a scalar-kind parameter is a
        # level to map over; with no level the function is called as is.
        # Every tensor value is index-reduced when it is made, so a plain
        # call needs no reduce_indices.
        if not any(k != KIND_TENSOR and isinstance(a, Tensor) for k, a in zip(kinds, args)):
            return fv.impl(self, args)
        # A closure can make fresh names, so it runs at every position.  A
        # builtin is a function of its arguments, and every value hashes, so
        # it runs once per distinct argument tuple.
        impl = functools.partial(fv.impl, self)
        return tensor.scalar_apply(functools.cache(impl) if fv.name else impl, kinds, args)


def _closure(params, body, env):
    """The function value of a lambda: `params` are (kind, name) pairs, and
    a call binds them in a fresh frame over `env` and evaluates `body`."""
    def impl(ev, args):
        frame = Environment(env)
        for (_, name), a in zip(params, args):
            frame.define(name, a)
        return ev.eval(body, frame)
    return FunctionValue(None, tuple(k for k, _ in params), impl)


def _strip_marker(name):
    return name[1:] if name.startswith("$") else name


def _sig_text(sig):
    return "".join(tensor.VARIANCE_MARK[v] for v in sig)


# --- the interpreter front door -------------------------------------------------


class Interpreter:
    """One evaluation context: a global environment, the standard library,
    and the evaluator's own counter for local symbols.  Dummy indices come
    from `tensor.fresh_dummy`, one counter shared by every interpreter in
    the process; a dummy prints as `#` whatever its number."""

    def __init__(self):
        self.globals = Environment()
        self.evaluator = Evaluator()
        from . import stdlib
        stdlib.install(self)

    def iter_source(self, text):
        """Evaluate the top-level forms one at a time, each as soon as it is
        parsed, yielding (span, value) as each finishes: the values before a
        syntax error come out before it is raised.  Definitions yield None."""
        return self._evaluate(Parser(text).forms())

    def run_source(self, text):
        """Parse the whole program, then evaluate every top-level form, so a
        syntax error anywhere runs no form; list of (span, value) in order."""
        return list(self._evaluate(parse_program(text)))

    def _evaluate(self, forms):
        for node, start, end in forms:
            try:
                value = self.evaluator.eval(node, self.globals)
            except RecursionError:
                raise DepthError(f"line {start}: form recurses too deeply") from None
            yield (start, end), value

    def eval_source(self, text):
        """Value of the last top-level form."""
        result = None
        for _, value in self.run_source(text):
            result = value
        return result
