"""Spans around calls into the program's layers, recorded from outside.

Instrumentation replaces a public function by a wrapper at every module
attribute that callers look up: the defining module, the package
re-export and the names secretarylab.cli imports.  So optimal_policy ->
build_tables and optimal_policy_top3 -> top3_table nest, and the self time of
each layer (span time minus time covered by its child spans) falls out.
Spans are kept in memory as (name, start, end, parent index).

tracemalloc runs only inside simulator spans; it would slow the pure-Python
solver loops.  Only the entry points the workloads reach are wrapped; the
per-element ODE right-hand sides (ode_rhs_*) run thousands of times inside
integrate_limit_system, in the same layer, and stay unwrapped.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

MIB = float(1 << 20)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _block_width(n: int) -> int:
    # 6n uniforms per trial padded to whole Philox counter steps of 4, as
    # the simulator module docstring documents the stream layout
    return -(-6 * n // 4) * 4


def _estimate_work(args, kwargs, result):
    n, trials = _arg(args, kwargs, 0, "n"), _arg(args, kwargs, 3, "trials")
    return {"candidate_trials": n * trials,
            "mib_drawn": trials * _block_width(n) * 8 / MIB}


# (layer, function name) -> work counted per call from (args, kwargs, result)
WORK = {
    ("cli", "run"): lambda a, kw, r: {"bytes_out": len(r.encode())},
    ("reappearance", "build_tables"): lambda a, kw, r: {"entries": _arg(a, kw, 0, "spec").n + 1},
    ("top3", "top3_table"): lambda a, kw, r: {"entries": _arg(a, kw, 0, "n") + 1},
    ("asymptotics", "integrate_limit_system"): lambda a, kw, r: {"grid_points": len(r[0].grid)},
    ("simulator", "estimate"): _estimate_work,
}

# The public entry points the workloads reach, per layer.
LIBRARY = {
    "reappearance": ("build_tables", "optimal_policy"),
    "top3": ("top3_table", "optimal_policy_top3"),
    "asymptotics": ("integrate_limit_system",),
    "simulator": ("estimate",),
}
LAYERS = ("cli",) + tuple(LIBRARY)


class Tracer:
    """Collects spans and per-function totals while instrumentation is installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.peak_traced_mib = 0.0
        self._stack: list[list] = []  # [span index, time covered by children]

    def call(self, layer, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        malloc = layer == "simulator" and not tracemalloc.is_tracing()
        if malloc:
            tracemalloc.start()
        start = perf_counter()
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = perf_counter()
            if malloc:
                self.peak_traced_mib = max(self.peak_traced_mib,
                                           tracemalloc.get_traced_memory()[1] / MIB)
                tracemalloc.stop()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            self.spans[frame[0]] = (f"{layer}.{name}", start, end, parent)
            t = self.totals
            t[f"{layer}.self_s"] += dur - frame[1]
            t[f"{layer}.{name}.calls"] += 1
            t[f"{layer}.{name}.busy_s"] += dur
            if failed:
                t[f"{layer}.failed"] += 1
            else:
                for key, v in WORK.get((layer, name), lambda *_: {})(args, kwargs, result).items():
                    t[f"{layer}.{name}.{key}"] += v

    def wrap(self, layer, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, name, fn, args, kwargs)
        return traced


class Instrumentation:
    """Installs the tracer's wrappers; uninstall() restores the original objects."""

    def __init__(self, tracer: Tracer, cli_namespace, cli_attr: str):
        self._targets = []  # (namespace, attribute, wrapper, original)
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "secretarylab" or key.startswith("secretarylab."))]
        for layer, names in LIBRARY.items():
            defining = sys.modules[f"secretarylab.{layer}"]
            for name in names:
                original = getattr(defining, name)
                wrapper = tracer.wrap(layer, name, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._targets.append((mod, name, wrapper, original))
        original = getattr(cli_namespace, cli_attr)
        self._targets.append((cli_namespace, cli_attr, tracer.wrap("cli", "run", original), original))

    def install(self):
        for ns, attr, wrapper, _ in self._targets:
            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, _, original in self._targets:
            setattr(ns, attr, original)


def layer_metrics(tracer: Tracer, passes: int, traced_pass_s: float) -> dict:
    """Per-pass layer figures from a tracer that saw `passes` traced passes.

    traced_pass_s is the summed wall time of those passes; the part of it no
    layer span covers is reported as trace.unattributed_frac.
    """
    t = tracer.totals

    def per_pass(key):
        return t.get(key, 0.0) / passes

    def ns_per(busy, work):
        return t[busy] / t[work] * 1e9 if t.get(work) else 0.0

    out = {
        "cli.calls": (per_pass("cli.run.calls"), "count"),
        "cli.bytes_out": (per_pass("cli.run.bytes_out"), "B"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_pass(f"{layer}.self_s"), "s")
        out[f"{layer}.failed"] = (per_pass(f"{layer}.failed"), "count")
    for layer, name, work, label in (
        ("reappearance", "build_tables", "entries", "ns_per_entry"),
        ("top3", "top3_table", "entries", "ns_per_entry"),
        ("asymptotics", "integrate_limit_system", "grid_points", "ns_per_grid_point"),
        ("simulator", "estimate", "candidate_trials", "ns_per_candidate_trial"),
    ):
        key = f"{layer}.{name}"
        out[f"{key}.calls"] = (per_pass(f"{key}.calls"), "count")
        out[f"{key}.busy_s"] = (per_pass(f"{key}.busy_s"), "s")
        out[f"{key}.{label}"] = (ns_per(f"{key}.busy_s", f"{key}.{work}"), "ns")
    out["simulator.estimate.mib_drawn"] = (per_pass("simulator.estimate.mib_drawn"), "MiB")
    out["simulator.estimate.peak_traced_mib"] = (tracer.peak_traced_mib, "MiB")
    self_total = sum(t.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    out["trace.unattributed_frac"] = (1.0 - self_total / traced_pass_s, "ratio")
    return out
