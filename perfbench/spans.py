"""Span tracing around marketeq's public entry points, installed from outside.

`Tracer.install()` replaces each entry point in ENTRY_POINTS with a wrapper
that records one span per call: (name, start, end, span id, parent span id,
operation id).  Every binding of the original object inside the `marketeq`
package is replaced, so calls through `from .x import f` names are seen too.
Spans stay in memory; `layer_metrics` reduces them and `write_spans` dumps
them once the run is over.  Nothing is installed unless a traced run asks
for it, so untraced runs execute the package untouched.

An entry point that no longer exists, or is no longer a plain function or
cached property, is reported as absent (zero calls and zero seconds) and left
alone instead of failing the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
import tracemalloc

import numpy as np

# (module, attribute) of each traced entry point; a dotted attribute is a
# method or cached property on a class.  The span name is
# "<module>.<last attribute part>".
ENTRY_POINTS = (
    ("market", "generate_market"),
    ("market", "Market.values"),
    ("ces", "log_utility"),
    ("ces", "log_utility_gradient"),
    ("ces", "fixed_price_log_utility_matrix"),
    ("ces", "demand_matrix"),
    ("net", "AllocationNet.forward_batch"),
    ("net", "AllocationNet.backward"),
    ("net", "adam_step"),
    ("trainer", "train"),
    ("trainer", "multiplier_update"),
    ("trainer", "extract_solution"),
    ("baselines", "eg_momentum_solve"),
    ("metrics", "evaluate"),
    ("metrics", "project"),
    ("metrics", "lnw"),
    ("metrics", "lfw"),
    ("metrics", "wsw"),
    ("metrics", "kkt_residuals"),
    ("metrics", "nash_gap"),
    ("oracle", "numeric_equilibrium"),
    ("harness", "run_experiment"),
)

SETUP = "setup"  # operation id of spans recorded while a workload sets up
CHECK = "check"  # operation id of spans recorded while an output is checked


def _nbytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, span_id, parent_id, op_id)
        self.absent: list[str] = []
        self.counters: dict[tuple[str, str], float] = {}  # (name, op id) -> amount
        self.peak_alloc_mb = 0.0
        self.op_id = SETUP
        self._stack: list[int] = [-1]
        self._next_id = 0

    # ---- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, attr in ENTRY_POINTS:
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            try:
                module = importlib.import_module(f"marketeq.{module_name}")
                owner = module
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                original = None
            if isinstance(original, functools.cached_property):
                replacement = functools.cached_property(self._wrap(name, original.func))
                replacement.__set_name__(owner, leaf)
                setattr(owner, leaf, replacement)
            elif not inspect.isfunction(original):  # gone, or no longer a plain function
                self.absent.append(name)
            elif path:
                setattr(owner, leaf, self._wrap(name, original))
            else:
                self._rebind(original, self._wrap(name, original))

    @staticmethod
    def _rebind(original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "marketeq" or module_name.startswith("marketeq.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        counters = self.counters
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def count(key, amount):
            slot = (key, self.op_id if self.op_id in (SETUP, CHECK) else "op")
            counters[slot] = counters.get(slot, 0) + amount

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, span_id, parent, self.op_id))
            # computed (not measured) traffic of the array kernels
            if layer == "ces":
                count("ces.bytes", _nbytes(args) + _nbytes((result,)))
            elif name == "market.values":
                count("market.values.bytes", result.nbytes)
            elif name == "net.forward_batch":
                count("net.forward_batch.rows", result.size)
            return result

        return wrapper

    def measure_alloc(self, market, x, p) -> None:
        """tracemalloc peak of one `metrics.evaluate(..., kkt=True)` on an
        operation's output pair.  Called while that output is checked, so the
        call's spans are left out and no timed span runs under tracemalloc."""
        from marketeq import metrics

        tracemalloc.start()
        try:
            metrics.evaluate(market, x, p, kkt=True)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        self.peak_alloc_mb = max(self.peak_alloc_mb, peak)

    # ---- reduction ---------------------------------------------------------

    def layer_metrics(self, traced_ops: int, setups: int = 1) -> dict[str, float]:
        """Per-operation figures: op-phase totals / traced_ops plus setup-phase
        totals / setups; spans recorded while checking outputs are left out.
        Self time is span time minus the time covered by direct child spans."""
        spans = [span for span in self.spans if span[5] != CHECK]
        names = {span_id: name for name, _, _, span_id, _, _ in spans}
        child_time: dict[int, float] = {}
        for _, start, end, _, parent, _ in spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        sums: dict[tuple[str, bool], float] = {}  # (metric, in set-up) -> total

        def add(key, value, op_id):
            slot = (key, op_id == SETUP)
            sums[slot] = sums.get(slot, 0.0) + value

        for name, start, end, span_id, parent, op_id in spans:
            duration = end - start
            add(f"{name}.calls", 1, op_id)
            add(f"{name}.s", duration, op_id)
            add(f"{name.split('.', 1)[0]}.self_s", duration - child_time.get(span_id, 0.0), op_id)
            if name == "net.adam_step" and names.get(parent) == "trainer.train":
                add("trainer.steps", 1, op_id)
        for (key, op_id), value in self.counters.items():
            if op_id != CHECK:
                add(key, value, op_id)
        totals: dict[str, float] = {}
        for (key, in_setup), value in sums.items():
            totals[key] = totals.get(key, 0.0) + value / (setups if in_setup else traced_ops)
        totals["metrics.evaluate.peak_alloc_mb"] = self.peak_alloc_mb
        numeric = sums.get(("oracle.numeric_equilibrium.calls", False), 0.0)
        totals["oracle.attempts_per_result"] = (
            sums.get(("metrics.nash_gap.calls", False), 0.0) / numeric if numeric else 0.0)
        return totals

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt") as handle:
            json.dump({"absent": self.absent,
                       "columns": ["name", "start", "end", "span", "parent", "op"],
                       "spans": self.spans}, handle)
