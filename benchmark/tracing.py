"""Spans and counts recorded at the public functions of dsnlift's modules.

The tracer wraps every public function defined in the traced modules and
rebinds the wrapper at each name a caller looks the function up by: the
defining module, every other dsnlift module that imported the name, and
the package namespace.  Nothing in ``src/`` is edited, and uninstalling
restores the original objects.

A span is (name, start, end, parent, op).  Spans stay in memory until the
run ends.  Self time is a span's duration minus the durations of its
direct child spans; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from types import ModuleType
from typing import Any, Callable

LAYERS = ("channel", "network", "codes", "typicality", "lifting", "gaussian", "pipeline")

# Called once per candidate vector (262,144 times in one diamond pipeline
# run): a span per call would cost more memory than the run itself.  These
# are only counted, under the layer of the span that called them, and
# their time stays in that caller's self time.
COUNTED_ONLY = {"typicality.is_strongly_typical": "strong_checks"}


def _pair_count(vec: Any) -> int:
    """Channel symbols in one candidate vector: its (re, im) leaf pairs."""
    if isinstance(vec[0], int):
        return 1
    return sum(_pair_count(v) for v in vec)


def _typical_set_counts(args: inspect.BoundArguments, result: Any) -> dict[str, float]:
    return {"typicality.vectors_kept": len(result.vectors)}


def _prune_counts(args: inspect.BoundArguments, result: Any) -> dict[str, float]:
    typical = args.arguments["typical_sets"]
    return {
        "lifting.typical_vectors": sum(len(ts.vectors) for ts in typical.values()),
        "lifting.pruned_vectors": sum(len(v) for v in result.sets.values()),
    }


def _lift_counts(args: inspect.BoundArguments, result: Any) -> dict[str, float]:
    return {
        "lifting.codewords_scanned": args.arguments["product"].codeword_count,
        "lifting.survivors": result.count,
    }


def _simulate_counts(args: inspect.BoundArguments, result: Any) -> dict[str, float]:
    sets = args.arguments["lifted"].pruned.sets
    per_trial = sum(len(v) * _pair_count(v[0]) for v in sets.values())
    return {
        "gaussian.trials": result.trials,
        "gaussian.slot_decodes": result.trials * len(sets),
        "gaussian.decode_ops": result.trials * per_trial,
        "gaussian.block_errors": sum(result.block_errors.values()),
        "gaussian.decode_failures": sum(result.decode_failures.values()),
    }


def _bound_counts(args: inspect.BoundArguments, result: Any) -> dict[str, float]:
    return {"gaussian.bound_samples": result.samples * len(result.entries)}


def _decompose_counts(args: inspect.BoundArguments, result: Any) -> dict[str, float]:
    return {"channel.decompose_batch.samples": args.arguments["x_re_bits"].shape[0]}


# Counts taken from the arguments and results of a call, per function.
HOOKS: dict[str, Callable[[inspect.BoundArguments, Any], dict[str, float]]] = {
    "typicality.enumerate_typical_receptions": _typical_set_counts,
    "typicality.enumerate_typical_symbol_vectors": _typical_set_counts,
    "lifting.prune_sets": _prune_counts,
    "lifting.build_lifted_code": _lift_counts,
    "gaussian.simulate_lifted": _simulate_counts,
    "gaussian.verify_genie_bounds": _bound_counts,
    "channel.decompose_batch": _decompose_counts,
}


def public_functions(module: ModuleType) -> dict[str, Callable]:
    """Public functions defined in a module (not the ones it imports)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Records spans and counts while installed; spans carry an op id."""

    def __init__(self, package: ModuleType):
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[Any, Counter] = defaultdict(Counter)  # op -> counts
        self._stack: list[int] = []
        self._layers: list[str] = []
        self._op: Any = None
        self._patches: list[tuple[ModuleType, str, Callable]] = []

    @contextmanager
    def recording(self, op: Any):
        """Trace the calls made inside the block under op id ``op``."""
        self._op = op
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self._op = None

    def _wrap_span(self, name: str, fn: Callable) -> Callable:
        spans, stack, layers, clock = self.spans, self._stack, self._layers, time.perf_counter
        layer = name.split(".")[0]
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(idx)
            layers.append(layer)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                layers.pop()
            if hook is not None:
                self.counts[self._op].update(hook(signature.bind(*args, **kwargs), result))
            return result

        return traced

    def _wrap_counted(self, name: str, fn: Callable) -> Callable:
        layers = self._layers
        suffix = COUNTED_ONLY[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            caller = layers[-1] if layers else "benchmark"
            self.counts[self._op][f"{caller}.{suffix}"] += 1
            return fn(*args, **kwargs)

        return counted

    def _install(self) -> None:
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for fname, fn in public_functions(module).items():
                name = f"{layer}.{fname}"
                wrap = self._wrap_counted if name in COUNTED_ONLY else self._wrap_span
                wrappers[id(fn)] = wrap(name, fn)
        prefix = self.package.__name__ + "."
        modules = [m for n, m in list(sys.modules.items())
                   if n == self.package.__name__ or n.startswith(prefix)]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # --- summaries -------------------------------------------------------

    def self_times(self, ops: list) -> dict[str, dict[str, float]]:
        """Per function name: calls, total and self seconds, summed over ops."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        wanted = set(ops)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if op not in wanted:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)

    def op_counts(self, ops: list) -> Counter:
        total: Counter = Counter()
        for op in ops:
            total.update(self.counts.get(op, Counter()))
        return total

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
