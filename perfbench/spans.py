"""Span tracing of the vilenkin public API, from outside the library.

Every public function of the traced modules is wrapped, and the wrapper is
bound under each name that refers to the original in any vilenkin module.
That reaches both kinds of call site in the library: modules that import a
function by name (experiments, hardy, norms, cli) and calls inside a module
that resolve through its own globals (spectral).

Spans are kept in memory as [name, start, end, parent, counts] and turned
into per-layer numbers after the traced pass: self time (span time minus
the time of its child spans), call counts, and counts computed from the
call arguments (bytes, row steps, cells).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import time

MODULES = ("radix", "spectral", "norms", "hardy", "experiments", "cli")

_COMPLEX_BYTES = 16


def system_label(sys) -> str:
    """'2p20' for a constant radix, '234x4' for four periods of (2, 3, 4)."""
    radices = sys.radices
    for period in range(1, len(radices) + 1):
        if len(radices) % period == 0 and radices == radices[:period] * (len(radices) // period):
            break
    if period == 1:
        return f"{radices[0]}p{len(radices)}"
    return "".join(str(m) for m in radices[:period]) + f"x{len(radices) // period}"


def _rows(weights) -> int:
    shape = getattr(weights, "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _character_block(args, kwargs, result):
    sys, lo, hi = args[:3]
    block = (hi - lo) * sys.cells * _COMPLEX_BYTES
    return {"bytes": block, "max_block_bytes": block}


def _cumulative_l1_norms(args, kwargs, result):
    weights = _arg(args, kwargs, 1, "weights")
    lo, hi = _arg(args, kwargs, 2, "lo"), _arg(args, kwargs, 3, "hi")
    return {"row_steps": _rows(weights) * (hi - lo)}


def _fejer_l1_norms(args, kwargs, result):
    weights = _arg(args, kwargs, 1, "weights")
    return {"row_steps": _rows(weights) * _arg(args, kwargs, 2, "n_max")}


def _cells_by_system(args, kwargs, result):
    # keyed by system, so that cells_per_s is reported per system size
    return {"cells." + system_label(args[0].sys): args[0].sys.cells}


def _write_report(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result)}


# Counts computed from each call's arguments (or the paths it returns).
# Keys starting with "max_" aggregate by maximum, all others by sum.
COUNTERS = {
    "spectral.character_block": _character_block,
    "spectral.cumulative_l1_norms": _cumulative_l1_norms,
    "spectral.fejer_l1_norms": _fejer_l1_norms,
    "spectral.forward_fast": _cells_by_system,
    "experiments.write_report": _write_report,
}


class Tracer:
    """Installs span-recording wrappers for one pass; spans restart on entry."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._modules = [importlib.import_module("vilenkin")] + [
            importlib.import_module(f"vilenkin.{name}") for name in MODULES
        ]
        self._targets = []  # (original, qualified name)
        for mod in self._modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                ):
                    self._targets.append((obj, f"{short}.{name}"))
        self._bound: list[tuple[object, str, object]] = []

    def _wrap(self, fn, qualname):
        counter = COUNTERS.get(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [qualname, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        self.spans.clear()
        # keyed by id: module namespaces also hold unhashable values
        wrappers = {id(fn): self._wrap(fn, q) for fn, q in self._targets}
        for mod in self._modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._bound.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original in reversed(self._bound):
            setattr(mod, name, original)
        self._bound.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Aggregate the recorded spans into <module>.<function>.<quantity>."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        durations: dict[str, float] = {}
        for (name, start, end, _, counts), inner in zip(self.spans, child_time):
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - inner)
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            for key, value in (counts or {}).items():
                metric = f"{name}.{key}"
                if key.startswith("cells."):
                    durations[metric] = durations.get(metric, 0.0) + end - start
                if key.startswith("max_"):
                    out[metric] = max(out.get(metric, 0), value)
                else:
                    out[metric] = out.get(metric, 0) + value
        for metric, seconds in durations.items():
            fn, _, label = metric.rpartition(".cells.")
            out[f"{fn}.cells_per_s.{label}"] = out[metric] / seconds
        return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced passes; a metric absent in a pass is 0."""
    names = sorted({k for p in passes for k in p})
    return {k: statistics.median(p.get(k, 0) for p in passes) for k in names}
