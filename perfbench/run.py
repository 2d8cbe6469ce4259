"""Benchmark of tensorlang, end to end and per layer.

    python3 perfbench/run.py --workload torus --seed 1 --seconds 20 --trace 0

Runs one workload in this process on one thread, as a closed loop, for
about `--seconds` seconds (at least one pass), checks every output, and
prints a table followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured on the
unmodified program.  With `--trace 1` the run first makes untraced passes
for a third of the time, then wraps every layer's public functions (see
tracer.py) and reports the per-layer metrics, per pass, plus the tracing
overhead; the spans go to perfbench/results/.  `--workload all` runs each
workload in its own process, one after another.

End-to-end metrics, on every workload:

  setup_s              median set-up time: a fresh import of tensorlang,
                       Interpreter() with its prelude, and loading or
                       generating the inputs; repeated before every pass,
                       and at least 5 times
  eval_s               median time of one pass: the whole program (torus,
                       schwarzschild, index-algebra), or one demo_torus
                       call (torus-sampling)
  form_latency_p50_ms  median latency of one request: a top-level form on
                       index-algebra, the whole program on torus and
                       schwarzschild, one demo_torus call on torus-sampling
  form_latency_tail_ms the highest percentile with ten requests beyond it
                       (the maximum with fewer than 20); the table names it
  samples_per_s        top-level forms per second of pass time, or random
                       bindings checked per second on torus-sampling
  peak_rss_mb          ru_maxrss of this process when the passes end
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACED_BASELINE_SHARE = 1 / 3
MIN_SETUPS = 5
WORKLOAD_NAMES = ("torus", "schwarzschild", "index-algebra", "torus-sampling")

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("eval_s", "s"), ("form_latency_p50_ms", "ms"),
    ("form_latency_tail_ms", "ms"), ("samples_per_s", "1/s"), ("peak_rss_mb", "MB"),
]


def tail(latencies):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it; (100, max) when that percentile would fall below
    the median, that is with fewer than 20 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return 100, ordered[-1]
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p / 100 * n))
    return p, ordered[rank - 1]


class Runner:
    def __init__(self, workload):
        self.wl = workload
        self.latencies = []
        self.errors = 0

    def passes(self, budget, request=None, end_pass=None, setups=None):
        """Passes until the next one would end after `budget` seconds;
        at least one.  Returns the pass times of this call.  With a
        `setups` list, the workload is set up afresh before each pass and
        the set-up time appended, so set-ups sample the whole run."""
        times = []
        begin = time.perf_counter()
        while True:
            if setups is not None:
                t0 = time.perf_counter()
                self.wl.setup()
                setups.append(time.perf_counter() - t0)
            gc.collect()
            requests = self.wl.start_pass()
            outputs = []
            t_pass = time.perf_counter()
            for req in requests:
                t0 = time.perf_counter()
                try:
                    out = request(req) if request else req()
                except Exception:  # a failed request is counted, the loop goes on
                    if not self.errors:
                        traceback.print_exc()
                    self.errors += 1
                    out = None
                self.latencies.append(time.perf_counter() - t0)
                outputs.append(out)
            times.append(time.perf_counter() - t_pass)
            (end_pass or self.wl.end_pass)(outputs)
            if time.perf_counter() - begin + statistics.median(times) > budget:
                return times


def run(name, seed, seconds, trace):
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    if not Path(wl.tl.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"tensorlang was imported from {wl.tl.__file__}, not {ROOT / 'src'}")

    runner = Runner(wl)
    if not trace:
        setups = []
        times = runner.passes(seconds, setups=setups)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setups) < MIN_SETUPS:  # workloads with one or two long passes
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        p, tail_s = tail(runner.latencies)
        metrics = {
            "setup_s": statistics.median(setups),
            "eval_s": statistics.median(times),
            "form_latency_p50_ms": 1e3 * statistics.median(runner.latencies),
            "form_latency_tail_ms": 1e3 * tail_s,
            "samples_per_s": wl.samples_per_pass / statistics.median(times),
            "peak_rss_mb": peak_rss,
        }
        units = dict(END_TO_END)
        notes = {"form_latency_tail_ms": f"p{p} of {len(runner.latencies)} requests",
                 "eval_s": f"median of {len(times)} passes",
                 "setup_s": f"median of {len(setups)} set-ups"}
    else:
        metrics, units, notes = traced(runner, seed, seconds)
    attempted, failed = wl.check()
    failed += runner.errors
    return {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}, notes


def traced(runner, seed, seconds):
    import checks
    import tracer as tracing

    wl = runner.wl
    untraced = runner.passes(seconds * TRACED_BASELINE_SHARE)
    t = tracing.Tracer()
    tracing.install_layers(t)
    start = time.perf_counter()
    request = t.spanned("bench.request", lambda req: req())

    def end_pass(outputs):
        with t.paused():
            wl.end_pass(outputs)

    try:
        times = runner.passes(seconds - seconds * TRACED_BASELINE_SHARE, request, end_pass)
    finally:
        t.remove()
    t.write_spans(HERE / "results" / f"trace-{wl.name}-seed{seed}.json")
    tree, distinct = checks.node_counts(wl.result_trees())
    t.results.update(result_nodes_tree=tree, result_nodes_distinct=distinct,
                     overhead_ratio=statistics.median(times) / statistics.median(untraced))
    metrics = {name: value(t, len(times)) for name, _, _, value in tracing.LAYER_METRICS}
    units = {name: unit for name, unit, _, _ in tracing.LAYER_METRICS}
    notes = {"trace.overhead_ratio": f"{len(times)} traced passes over {len(untraced)} untraced, "
                                     f"{time.perf_counter() - start:.1f} s traced"}
    return metrics, units, notes


def print_table(name, result, notes):
    print(f"workload {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} fail_ratio={result['failed'] / result['attempted']:.6g}")
    for key, m in result["metrics"].items():
        note = f"   ({notes[key]})" if key in notes else ""
        print(f"  {key:42s} {m['value']:>16.6g} {m['unit']}{note}")


def run_all(args):
    """Each workload in a child process, so set-up and memory stay its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tensorlang" / "__init__.py").is_file():
        print(f"error: no tensorlang sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        result = run_all(args)
    else:
        result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
        print_table(args.workload, result, notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
