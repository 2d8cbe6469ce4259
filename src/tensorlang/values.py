"""Runtime values, environments with index-signature bindings, and the
printer that renders results in the surface notation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import symbolic, tensor
from .errors import EvalError
from .tensor import DummyLabel, NumberLabel, SymbolLabel, Tensor

_MISSING = object()


@dataclass(eq=False)
class FunctionValue:
    """A function: its per-parameter kinds (one kind repeated for any
    count of at least one argument when `variadic` is set) and `impl`,
    called as `impl(evaluator, args)`.  A tensor passed for a scalar-kind
    or inverted-scalar parameter is a level: `impl` then sees a tuple of
    its components, one position of the levels' outer product at a time,
    through `tensor.scalar_apply`, which needs a level; otherwise it sees
    the arguments as passed.  Builtins have a name; closures made by
    `lambda` or `N#...` have none.  A builtin with a scalar-kind parameter
    is a function of its arguments: equal argument tuples give the same
    result, or the same error, so broadcasting calls it once per distinct
    tuple, through a `functools.cache` of `functools.partial(impl,
    evaluator)` made for that one call.  A function value is equal only
    to itself, and hashes by identity, so it can be in the cache's key."""
    name: Optional[str]
    kinds: tuple
    impl: Callable
    variadic: bool = False


@dataclass(frozen=True)
class BraceValue:
    """An evaluated `{...}` list; consumed by transpose/generate-tensor."""
    items: tuple


class Environment:
    """Chain of frames.  A name can be bound plainly or under an index-type
    signature (a tuple of variance codes), and the two kinds of bindings
    never shadow each other."""

    def __init__(self, parent=None):
        self.parent = parent
        self.bindings = {}

    def define(self, name, value, signature=None):
        self.bindings[(name, signature)] = value

    def lookup(self, name, signature=None):
        env = self
        while env is not None:
            if (name, signature) in env.bindings:
                return env.bindings[(name, signature)]
            env = env.parent
        return _MISSING

    def signatures_of(self, name):
        sigs = set()
        env = self
        while env is not None:
            for (n, sig) in env.bindings:
                if n == name and sig is not None:
                    sigs.add(sig)
            env = env.parent
        return sigs


Environment.MISSING = _MISSING


# --- printing ----------------------------------------------------------------


def format_label(label):
    if isinstance(label, SymbolLabel):
        return label.name
    if isinstance(label, NumberLabel):
        return str(label.value)
    if isinstance(label, DummyLabel):
        return "#"
    raise EvalError(f"unknown index label: {label!r}")


def format_index(ix):
    if ix is None:
        return ""
    return tensor.VARIANCE_MARK[ix.variance] + format_label(ix.label)


def format_value(v):
    """Render a runtime value the way source notation writes it."""
    if isinstance(v, symbolic.ScalarExpr):
        return symbolic.format_scalar(v)
    if isinstance(v, bool):
        return "#t" if v else "#f"
    if isinstance(v, Tensor):
        # format each row-major component once, then group innermost axis first
        parts = [format_value(c) for c in v.components]
        for d in reversed(v.shape):
            parts = ["[|" + " ".join(parts[i:i + d]) + "|]"
                     for i in range(0, len(parts), d)]
        return parts[0] + "".join(format_index(ix) for ix in v.indices)
    if isinstance(v, FunctionValue):
        return f"#<builtin:{v.name}>" if v.name else "#<function>"
    if isinstance(v, BraceValue):
        return "{" + " ".join(format_value(x) for x in v.items) + "}"
    raise EvalError(f"cannot print value: {v!r}")
