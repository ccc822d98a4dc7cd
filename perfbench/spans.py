"""In-memory spans around the public functions of the sweep's modules.

``Tracer.installed()`` replaces every public function of the layer
modules with a wrapper, under each name any ``mbem`` module holds it by
(``mbem.harness.fit``, ``mbem.methods.fit``, ``mbem.core.posterior``
that ``classic_em`` looks up at call time, ...), and puts the originals
back on exit. Each call records one span: name, start, end, parent span,
the sweep cell ``(method, r, seed)`` it ran in, and, for the functions
in ``COUNTERS``, a work count taken from its arguments. Spans stay in
memory until the caller writes them out.

``layer_metrics`` turns the spans of one sweep into the per-layer
metrics: calls, inclusive time, and self time (a span's duration minus
the part of it its child spans cover).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass

LAYERS = ("harness", "methods", "learn", "core", "simulate", "io")

# The measured call itself; harness.self_s is the sweep's wall time
# minus its top-level spans, so run_sweep must not be one of them.
UNWRAPPED = {"harness.run_sweep"}


def _fit_example_steps(args):
    # Every epoch passes each row through one gradient step, full-batch
    # or mini-batch alike.
    return len(args["features"]) * args["cfg"].epochs


def _records(args):
    return len(args["ann"])


def _file_bytes(args):
    return os.path.getsize(args["path"])


# Work counts read off the arguments of a call: span name -> (stat, how).
COUNTERS = {
    "learn.fit": ("example_steps", _fit_example_steps),
    "core.posterior": ("records", _records),
    "core.estimate_confusions_and_prior": ("records", _records),
    "io.read_annotations": ("bytes", _file_bytes),
    "io.read_features": ("bytes", _file_bytes),
    "io.read_truth": ("bytes", _file_bytes),
}

# Self time per unit of work: metric -> (self-time key, count key).
RATES = {
    "learn.fit.ns_per_example_step": ("learn.fit.self_s",
                                      "learn.fit.example_steps"),
    "core.posterior.ns_per_record": ("core.posterior.self_s",
                                     "core.posterior.records"),
    "core.estimate_confusions_and_prior.ns_per_record": (
        "core.estimate_confusions_and_prior.self_s",
        "core.estimate_confusions_and_prior.records"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    cell: tuple | None
    count: int | None = None

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "cell": self.cell, "count": self.count}


class Tracer:
    """Records spans for calls into the layer modules of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._cell: tuple | None = None

    def wrap(self, name, fn):
        _, counter = COUNTERS.get(name, (None, None))
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            count = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count = counter(bound.arguments)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), 0.0, parent, self._cell,
                        count)
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span.end = time.perf_counter()

        traced.__wrapped__ = fn
        return traced

    def _wrap_cell(self, fn):
        """Tag spans with the (method, r, seed) harness._run_cell runs."""
        signature = inspect.signature(fn)

        def in_cell(*args, **kwargs):
            arguments = signature.bind(*args, **kwargs).arguments
            outer = self._cell
            self._cell = tuple(arguments.get(k) for k in ("method", "r", "seed"))
            try:
                return fn(*args, **kwargs)
            finally:
                self._cell = outer

        return in_cell

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public layer function for the duration of the block."""
        replacements = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mbem.{layer}")
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname, None)
                name = f"{layer}.{fname}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and name not in UNWRAPPED):
                    replacements[id(fn)] = self.wrap(name, fn)
        harness = importlib.import_module("mbem.harness")
        run_cell = getattr(harness, "_run_cell", None)
        if run_cell is not None:
            replacements[id(run_cell)] = self._wrap_cell(run_cell)

        patched = []
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == "mbem" or key.startswith("mbem.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.end - span.start - _covered(children.get(i, ()))
            for i, span in enumerate(spans)]


def layer_metrics(spans, wall_s: float, cells: int, warnings: int) -> dict:
    """Per-function and per-layer figures for the spans of one sweep.

    wall_s is the sweep's wall time (run_sweep plus emit_report);
    harness.self_s is the part of it that no top-level span covers.
    Keys are ``<layer>.<function>.<stat>``, and ``<layer>.self_s`` for
    the self time of a whole layer other than the harness.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for span, self_s in zip(spans, selfs):
        add(f"{span.name}.calls", 1)
        add(f"{span.name}.total_s", span.end - span.start)
        add(f"{span.name}.self_s", self_s)
        layer = span.name.split(".")[0]
        if layer != "harness":
            add(f"{layer}.self_s", self_s)
        if span.count is not None:
            add(f"{span.name}.{COUNTERS[span.name][0]}", span.count)

    top = _covered((s.start, s.end) for s in spans if s.parent is None)
    out["harness.self_s"] = wall_s - top
    out["harness.cells"] = cells
    out["core.warnings"] = warnings
    out["core.classic_em.iters"] = sum(
        1 for s in spans if s.name == "core.posterior" and s.parent is not None
        and spans[s.parent].name == "core.classic_em")
    for key, (time_key, count_key) in RATES.items():
        if out.get(count_key):
            out[key] = out[time_key] / out[count_key] * 1e9
    return out
