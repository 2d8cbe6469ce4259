"""Per-layer tracing from outside the program.

`install_layers` replaces public functions of the tensorlang modules with
wrappers, wherever a module holds them (so `stdlib`'s `from .symbolic
import add` is wrapped too), and `Tracer.remove` puts the originals back.
Nothing in `src/` is edited; an untraced run never installs a wrapper.

A wrapper is one of three kinds:

* spanned: every call is timed and kept as a span (name, start, end,
  parent) in memory;
* timed: every call is timed but not kept as a span, for functions
  called hundreds of thousands of times (`add`, `mul`, `Evaluator.eval`);
* recursive: every call is counted, but only the outermost entry is
  timed, for self-recursive functions with far more than 10^5 calls
  (`sort_key`, `canonicalize`, `eval_numeric`, `format_value`).  Time
  spent in a nested entry counts as self time of whatever timed frame
  encloses it.

Self time is a frame's duration minus the durations of the timed frames
directly inside it.  Plain counters (`Evaluator.call`, `reduce_indices`,
`tokenize`) add no frame at all.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

SPAN_CAP = 200_000


class Stat:
    __slots__ = ("calls", "entries", "self_s", "total_s", "active", "extra")

    def __init__(self):
        self.calls = 0
        self.entries = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.active = False
        self.extra = {}


class Tracer:
    def __init__(self):
        self.stats = {}
        self.stack = []  # frames: [child seconds, nearest recorded span id]
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped_spans = 0
        self.results = {}  # figures the runner measures outside the wrappers
        self._patches = []

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def add(self, name, key, amount):
        extra = self.stat(name).extra
        extra[key] = extra.get(key, 0) + amount

    # --- wrappers ---------------------------------------------------------

    def spanned(self, name, fn, record=True, after=None):
        """Time every call; keep it as a span when `record` is set.
        `after(args, result)` may add counters."""
        st = self.stat(name)
        stack = self.stack
        clock = time.perf_counter
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            parent = stack[-1][1] if stack else -1
            span = self._open(name_id, parent) if record else -1
            frame = [0.0, span if span >= 0 else parent]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st.self_s += dur - frame[0]
                st.total_s += dur
                if stack:
                    stack[-1][0] += dur
                if span >= 0:
                    self.span_start[span] = t0
                    self.span_end[span] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def recursive(self, name, fn, after=None):
        """Count every call; time only the outermost entry."""
        st = self.stat(name)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            st.calls += 1
            if st.active:
                return fn(*args, **kwargs)
            st.active = True
            st.entries += 1
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                st.active = False
                st.self_s += dur - frame[0]
                st.total_s += dur
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, name, fn, after=None):
        """Count calls only; the time stays with the enclosing frame."""
        st = self.stat(name)

        def wrapper(*args, **kwargs):
            st.calls += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, name_id, parent):
        if len(self.span_name) >= SPAN_CAP:
            self.dropped_spans += 1
            return -1
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        return len(self.span_name) - 1

    # --- installing -------------------------------------------------------

    def patch_everywhere(self, original, wrapper, package="tensorlang"):
        """Replace `original` in every module of `package` that holds it."""
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, wrapper)

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))
        setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own bookkeeping on the unwrapped functions."""
        patches = list(self._patches)
        self.remove()
        try:
            yield
        finally:
            for owner, attr, _, wrapper in patches:
                self.patch(owner, attr, wrapper)

    def write_spans(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist(),
                       "dropped": self.dropped_spans}, fh)


def install_layers(t):
    """Wrap the public functions of every tensorlang layer in tracer `t`."""
    from tensorlang import cli, lang, oracle, stdlib, symbolic, tensor, values

    def spanned(name, fn, **kw):
        t.patch_everywhere(fn, t.spanned(name, fn, **kw))

    def timed(name, fn):
        t.patch_everywhere(fn, t.spanned(name, fn, record=False))

    def recursive(name, fn, **kw):
        t.patch_everywhere(fn, t.recursive(name, fn, **kw))

    def counted(name, fn, **kw):
        t.patch_everywhere(fn, t.counted(name, fn, **kw))

    recursive("symbolic.sort_key", symbolic.sort_key)
    recursive("symbolic.canonicalize", symbolic.canonicalize)
    timed("symbolic.add", symbolic.add)
    timed("symbolic.mul", symbolic.mul)
    spanned("symbolic.differentiate", symbolic.differentiate)
    spanned("symbolic.expand_and_simplify", symbolic.expand_and_simplify)
    spanned("symbolic.substitute", symbolic.substitute)
    recursive("symbolic.eval_numeric", symbolic.eval_numeric)

    # scalar_apply: count the leaf calls it makes and the components it keeps
    scalar_apply = t.spanned(
        "tensor.scalar_apply", tensor.scalar_apply,
        after=lambda args, r: t.add("tensor.scalar_apply", "kept_components",
                                    len(r.components) if isinstance(r, tensor.Tensor) else 1))

    def counting_scalar_apply(call, kinds, args):
        def leaf(xs):
            t.add("tensor.scalar_apply", "leaf_calls", 1)
            return call(xs)
        return scalar_apply(leaf, kinds, args)

    t.patch_everywhere(tensor.scalar_apply, counting_scalar_apply)

    counted("tensor.reduce_indices", tensor.reduce_indices)
    spanned("tensor.diag", tensor.diag,
            after=lambda args, r: t.add("tensor.diag", "components_copied", len(r.components)))

    contract = t.spanned("tensor.contract", tensor.contract)

    def counting_contract(fold2, value):
        def fold(a, b):
            t.add("tensor.contract", "folds", 1)
            return fold2(a, b)
        return contract(fold, value)

    t.patch_everywhere(tensor.contract, counting_contract)
    spanned("tensor.append_indices", tensor.append_indices)

    counted("lang.tokenize", lang.tokenize,
            after=lambda args, r: t.add("lang.parse", "tokens", len(r)))
    spanned("lang.parse", lang.parse_program)
    t.patch(lang.Evaluator, "eval", t.spanned("lang.eval", lang.Evaluator.eval, record=False))
    t.patch(lang.Evaluator, "call", t.counted("lang.call", lang.Evaluator.call))

    # M.inverse is reached through its Builtin record, not through a name
    for builtin in stdlib.BUILTINS:
        if builtin.name == "M.inverse":
            t.patch(builtin, "impl", t.spanned("stdlib.mat_inverse", builtin.impl))

    recursive("values.format_value", values.format_value,
              after=lambda args, r: t.add("values.format_value", "bytes",
                                          len(r.encode("utf-8"))))
    spanned("oracle.riemann", oracle.riemann)
    spanned("cli.demo_torus", cli.demo_torus)


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metrics: (name, unit, better, value from (tracer, passes)).
# A pass evaluates the workload's program once (one demo call on
# torus-sampling).  Counts and times are per pass, so counts repeat
# exactly between runs of one seed however many passes fit in a run.
#
# The end-to-end metric each should move, and where:
#   symbolic.canonicalize.*, symbolic.sort_key.*   eval_s on torus and
#       schwarzschild; not on index-algebra
#   symbolic.add.*, symbolic.mul.*                 eval_s on torus,
#       schwarzschild and index-algebra
#   symbolic.differentiate.self_s, symbolic.expand_and_simplify.self_s
#                                                  eval_s on torus, schwarzschild
#   stdlib.mat_inverse.self_s, symbolic.substitute.self_s
#                                                  eval_s on schwarzschild
#   symbolic.result_nodes_*                        peak_rss_mb on schwarzschild
#   tensor.scalar_apply.*, tensor.reduce_indices.calls, tensor.diag.*,
#   tensor.contract.*                              eval_s and form_latency_* on
#       index-algebra; a little on torus
#   tensor.append_indices.*, lang.parse.*, symbolic.eval_numeric.*,
#   oracle.riemann.self_s, cli.demo_torus.self_s   samples_per_s on
#       torus-sampling; lang.parse also setup_s
#   lang.eval.self_s, lang.call.calls, values.format_value.*
#                                                  eval_s on index-algebra
def _calls(name):
    return lambda t, n: t.stat(name).calls / n


def _self(name):
    return lambda t, n: t.stat(name).self_s / n


def _extra(name, key):
    return lambda t, n: t.stat(name).extra.get(key, 0) / n


LAYER_METRICS = [
    ("symbolic.canonicalize.calls", "count", "lower", _calls("symbolic.canonicalize")),
    ("symbolic.canonicalize.entries", "count", "lower",
     lambda t, n: t.stat("symbolic.canonicalize").entries / n),
    ("symbolic.canonicalize.calls_per_entry", "ratio", "lower",
     lambda t, n: _ratio(t.stat("symbolic.canonicalize").calls,
                         t.stat("symbolic.canonicalize").entries)),
    ("symbolic.canonicalize.self_s", "s", "lower", _self("symbolic.canonicalize")),
    ("symbolic.sort_key.calls", "count", "lower", _calls("symbolic.sort_key")),
    ("symbolic.sort_key.self_s", "s", "lower", _self("symbolic.sort_key")),
    ("symbolic.add.calls", "count", "lower", _calls("symbolic.add")),
    ("symbolic.add.self_s", "s", "lower", _self("symbolic.add")),
    ("symbolic.mul.calls", "count", "lower", _calls("symbolic.mul")),
    ("symbolic.mul.self_s", "s", "lower", _self("symbolic.mul")),
    ("symbolic.differentiate.self_s", "s", "lower", _self("symbolic.differentiate")),
    ("symbolic.expand_and_simplify.self_s", "s", "lower",
     _self("symbolic.expand_and_simplify")),
    ("symbolic.substitute.self_s", "s", "lower", _self("symbolic.substitute")),
    ("symbolic.eval_numeric.calls", "count", "lower", _calls("symbolic.eval_numeric")),
    ("symbolic.eval_numeric.self_s", "s", "lower", _self("symbolic.eval_numeric")),
    ("stdlib.mat_inverse.self_s", "s", "lower", _self("stdlib.mat_inverse")),
    ("tensor.scalar_apply.calls", "count", "lower", _calls("tensor.scalar_apply")),
    ("tensor.scalar_apply.leaf_calls", "count", "lower",
     _extra("tensor.scalar_apply", "leaf_calls")),
    ("tensor.scalar_apply.kept_components", "count", "lower",
     _extra("tensor.scalar_apply", "kept_components")),
    ("tensor.scalar_apply.useful_ratio", "ratio", "higher",
     lambda t, n: _ratio(t.stat("tensor.scalar_apply").extra.get("kept_components", 0),
                         t.stat("tensor.scalar_apply").extra.get("leaf_calls", 0))),
    ("tensor.scalar_apply.self_s", "s", "lower", _self("tensor.scalar_apply")),
    ("tensor.reduce_indices.calls", "count", "lower", _calls("tensor.reduce_indices")),
    ("tensor.diag.calls", "count", "lower", _calls("tensor.diag")),
    ("tensor.diag.components_copied", "count", "lower",
     _extra("tensor.diag", "components_copied")),
    ("tensor.diag.self_s", "s", "lower", _self("tensor.diag")),
    ("tensor.contract.calls", "count", "lower", _calls("tensor.contract")),
    ("tensor.contract.folds", "count", "lower", _extra("tensor.contract", "folds")),
    ("tensor.contract.self_s", "s", "lower", _self("tensor.contract")),
    ("tensor.append_indices.calls", "count", "lower", _calls("tensor.append_indices")),
    ("tensor.append_indices.self_s", "s", "lower", _self("tensor.append_indices")),
    ("lang.parse.calls", "count", "lower", _calls("lang.parse")),
    ("lang.parse.tokens_per_s", "1/s", "higher",
     lambda t, n: _ratio(t.stat("lang.parse").extra.get("tokens", 0),
                         t.stat("lang.parse").total_s)),
    ("lang.parse.self_s", "s", "lower", _self("lang.parse")),
    ("lang.eval.self_s", "s", "lower", _self("lang.eval")),
    ("lang.call.calls", "count", "lower", _calls("lang.call")),
    ("values.format_value.self_s", "s", "lower", _self("values.format_value")),
    ("values.format_value.bytes", "bytes", "lower", _extra("values.format_value", "bytes")),
    ("oracle.riemann.self_s", "s", "lower", _self("oracle.riemann")),
    ("cli.demo_torus.self_s", "s", "lower", _self("cli.demo_torus")),
    ("symbolic.result_nodes_tree", "count", "lower",
     lambda t, n: t.results["result_nodes_tree"]),
    ("symbolic.result_nodes_distinct", "count", "lower",
     lambda t, n: t.results["result_nodes_distinct"]),
    ("trace.overhead_ratio", "ratio", "lower", lambda t, n: t.results["overhead_ratio"]),
]
