"""Built-in functions and the source-level prelude installed into every
interpreter: arithmetic, comparison, the tensor primitives, differentiation,
flip, and the matrix/vector helpers."""

from __future__ import annotations

from . import lang, symbolic, tensor
from .errors import ArityError, EvalError, SingularMatrixError
from .symbolic import (Integer, ScalarExpr, Symbol, add, cos, decide_equal,
                       differentiate, div, expand_and_simplify, mul,
                       numeric_less_than, powi, sin, sub)
from .tensor import KIND_INVERTED, KIND_SCALAR, KIND_TENSOR, Tensor
from .values import BraceValue, FunctionValue

PRELUDE = """
(define $min (lambda [$x $y] (if (less-than? x y) x y)))
(define $. (lambda [%t1 %t2] (contract + (* t1 t2))))
(define $inner-product
  (lambda [%v1 %v2] (with-symbols {i} (contract + (* v1~i v2_i)))))
(define $mat-mul
  (lambda [%m1 %m2] (with-symbols {j} (contract + (* m1~#~j m2_j_#)))))
(define $V.* inner-product)
"""
_PRELUDE_FORMS = lang.parse_program(PRELUDE)  # parsed once: evaluation never changes a form


def _want_scalar(name, v):
    if isinstance(v, ScalarExpr):
        return v
    raise EvalError(f"{name} expects scalar arguments, got {type(v).__name__}")


# --- scalar builtins -----------------------------------------------------------


def _scalar(name, op, arity=None):
    """A builtin over scalar operands; `arity` None makes it variadic.  `op`
    names a global of this module, looked up at each call so that a
    wrapper installed on that global later (a tracer's) sees every call."""
    def impl(ev, args):
        return globals()[op](*[_want_scalar(name, a) for a in args])
    if arity is None:
        return FunctionValue(name, (KIND_SCALAR,), impl, variadic=True)
    return FunctionValue(name, (KIND_SCALAR,) * arity, impl)


def _impl_pow(ev, args):
    a, b = (_want_scalar("^", x) for x in args)
    if not isinstance(b, Integer):
        raise EvalError("^ expects a literal integer exponent")
    return powi(a, b.value)


def _impl_eq(ev, args):
    a, b = args
    if isinstance(a, bool) and isinstance(b, bool):
        return a == b
    return decide_equal(_want_scalar("eq?", a), _want_scalar("eq?", b))


def _impl_partial(ev, args):
    f, x = args
    f = _want_scalar("∂/∂", f)
    if not isinstance(x, Symbol):
        raise EvalError(
            f"cannot differentiate with respect to {symbolic.format_scalar(_want_scalar('∂/∂', x))}")
    return differentiate(f, x.name, ev.derivatives[x.name])


# --- tensor builtins -----------------------------------------------------------


def _function_arity(f):
    if not isinstance(f, FunctionValue):
        raise EvalError("expected a function argument")
    return None if f.variadic else len(f.kinds)


def _require_binary(name, f):
    arity = _function_arity(f)
    if arity is not None and arity != 2:
        raise ArityError(f"{name} needs a two-argument function")


def _impl_contract(ev, args):
    f, t = args
    _require_binary("contract", f)
    return tensor.contract(lambda a, b: ev.call(f, [a, b]), t)


def _impl_tensor_map(ev, args):
    f, t = args
    arity = _function_arity(f)
    if arity is not None and arity != 1:
        raise ArityError("tensor-map needs a one-argument function")
    return ev.call(FunctionValue(None, (KIND_SCALAR,), lambda ev, xs: ev.call(f, xs)), [t])


def _impl_flip_indices(ev, args):
    return tensor.flip_indices(args[0])


def _labels_from_brace(order):
    if not isinstance(order, BraceValue):
        raise EvalError("transpose expects a {…} list of index symbols")
    labels = []
    for item in order.items:
        if isinstance(item, Symbol):
            labels.append(tensor.SymbolLabel(item.name))
        else:
            raise EvalError("transpose order entries must be symbols")
    return labels


def _impl_transpose(ev, args):
    order, t = args
    return tensor.transpose(_labels_from_brace(order), t)


def _impl_generate_tensor(ev, args):
    f, dims = args
    if not isinstance(dims, BraceValue):
        raise EvalError("generate-tensor expects a {…} list of dimensions")
    sizes = []
    for item in dims.items:
        if not isinstance(item, Integer) or item.value < 1:
            raise EvalError("generate-tensor dimensions must be positive integers")
        sizes.append(item.value)
    if not sizes:
        raise EvalError("generate-tensor needs at least one dimension")
    arity = _function_arity(f)
    if arity is not None and arity != len(sizes):
        raise ArityError(
            f"generator takes {arity} arguments but {len(sizes)} dimensions given")
    return tensor.generate_tensor(
        lambda multi: ev.call(f, [Integer(i) for i in multi]), sizes)


def _impl_flip(ev, args):
    f = args[0]
    if not isinstance(f, FunctionValue):
        raise EvalError("flip expects a function")
    # a variadic function is usable as binary; flip that specialization
    kinds = f.kinds * 2 if f.variadic else f.kinds
    if len(kinds) != 2:
        raise ArityError("flip needs a two-argument function")
    return FunctionValue(f"(flip {f.name})" if f.name else None, kinds[::-1],
                         lambda ev2, a: f.impl(ev2, [a[1], a[0]]))


def _matrix_entries(name, t, memo):
    if not isinstance(t, Tensor) or t.rank != 2 or t.shape[0] != t.shape[1]:
        raise EvalError(f"{name} expects a square rank-2 tensor")
    n = t.shape[0]
    if n > 4:
        raise EvalError(f"{name} supports sizes up to 4, got {n}")
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            c = tensor.component_at(t, (i, j))
            row.append(expand_and_simplify(_want_scalar(name, c), memo))
        rows.append(row)
    return rows


def _det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = symbolic.ZERO
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = mul(rows[0][j], _det(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


def _impl_mat_inverse(ev, args):
    memo = {}  # one expansion memo: det is walked once, not once per entry
    rows = _matrix_entries("M.inverse", args[0], memo)
    n = len(rows)
    det = _det(rows)
    if expand_and_simplify(det, memo) == symbolic.ZERO:
        raise SingularMatrixError("matrix has a canonically zero determinant")
    comps = []
    for i in range(n):
        for j in range(n):
            # inverse entry (i,j) is the (j,i) cofactor over the determinant
            minor = [r[:i] + r[i + 1:] for k, r in enumerate(rows) if k != j]
            cof = _det(minor) if n > 1 else symbolic.ONE
            if (i + j) % 2 == 1:
                cof = symbolic.neg(cof)
            comps.append(expand_and_simplify(div(cof, det), memo))
    return tensor.make_tensor((n, n), comps)


BUILTINS = [
    _scalar("+", "add"),
    _scalar("-", "sub"),
    _scalar("*", "mul"),
    _scalar("/", "div", 2),
    FunctionValue("^", (KIND_SCALAR, KIND_SCALAR), _impl_pow),
    _scalar("sin", "sin", 1),
    _scalar("cos", "cos", 1),
    _scalar("less-than?", "numeric_less_than", 2),
    FunctionValue("eq?", (KIND_SCALAR, KIND_SCALAR), _impl_eq),
    FunctionValue("∂/∂", (KIND_SCALAR, KIND_INVERTED), _impl_partial),
    FunctionValue("contract", (KIND_TENSOR, KIND_TENSOR), _impl_contract),
    FunctionValue("tensor-map", (KIND_TENSOR, KIND_TENSOR), _impl_tensor_map),
    FunctionValue("flip-indices", (KIND_TENSOR,), _impl_flip_indices),
    FunctionValue("transpose", (KIND_TENSOR, KIND_TENSOR), _impl_transpose),
    FunctionValue("generate-tensor", (KIND_TENSOR, KIND_TENSOR), _impl_generate_tensor),
    FunctionValue("flip", (KIND_TENSOR,), _impl_flip),
    FunctionValue("M.inverse", (KIND_TENSOR,), _impl_mat_inverse),
]


def install(interp):
    for b in BUILTINS:
        interp.globals.define(b.name, b)
    for node, _, _ in _PRELUDE_FORMS:
        interp.evaluator.eval(node, interp.globals)
