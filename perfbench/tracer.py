"""Spans around the public functions of the tables, crypto and runtime layers.

The program has no spans of its own yet, so the benchmark wraps the layer
functions from outside.  ``tracing(tracer)`` patches every module attribute
that holds one of those functions -- including the copies that
``from .tables import join`` binds in ``dpop``, ``pdpop`` and ``p2`` -- and
restores the originals on exit, so untraced timing never runs a wrapper.

A span's self time is its duration minus the time its direct child spans
cover: ``crypto.and_cleartext`` called from the combine callback of
``tables.join`` counts as crypto time, not table time.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

from discsp import crypto, runtime, tables

LAYERS = ("tables", "crypto", "runtime")
# canonical and wire_size recurse; only the outermost call is a span.
ENCODE_FUNCTIONS = ("canonical", "wire_size")


class Tracer:
    """Accumulates calls, inclusive and self time per span name.

    Span names are ``<layer>.<function>``.  A span entered from outside its
    own layer counts as one call into that layer; for the tables layer those
    calls also count the cells of the table they return.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # [name, layer, start, child seconds]
        self.calls: dict[str, int] = {}
        self.inclusive_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.layer_calls: dict[str, int] = {layer: 0 for layer in LAYERS}
        self.cells_out = 0

    def enter(self, name: str):
        self._stack.append([name, name.split(".", 1)[0], self.clock(), 0.0])

    def exit(self, result=None):
        name, layer, start, child = self._stack.pop()
        elapsed = self.clock() - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.inclusive_s[name] = self.inclusive_s.get(name, 0.0) + elapsed
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
        if self._stack:
            self._stack[-1][3] += elapsed
        if not self._stack or self._stack[-1][1] != layer:
            self.layer_calls[layer] += 1
            if layer == "tables":
                self.cells_out += _cells(result)

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items()
                   if name.startswith(layer + "."))

    def mean_us(self, *names: str) -> float:
        """Mean inclusive microseconds per call over the named spans."""
        calls = sum(self.calls.get(n, 0) for n in names)
        if not calls:
            return 0.0
        return 1e6 * sum(self.inclusive_s.get(n, 0.0) for n in names) / calls


def _cells(result) -> int:
    if isinstance(result, tuple):  # project_min returns (table, best response)
        result = result[0]
    entries = getattr(result, "entries", None)
    return len(entries) if isinstance(entries, list) else 0


def _span(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        tracer.enter(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.exit(result)
    return traced


def _outermost_span(tracer: Tracer, name: str, module, attr: str, fn):
    """Span only the outermost call of a recursive function: while it runs,
    the module attribute holds the original, so recursion is not wrapped."""
    def traced(*args, **kwargs):
        setattr(module, attr, fn)
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
            setattr(module, attr, traced)
    return traced


def _public_functions(module) -> dict[str, object]:
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def patch_targets() -> list[tuple[object, str, object, str]]:
    """Every (owner, attribute, original function, span name) to wrap."""
    spans = {}  # id of the original function -> span name
    for module in (tables, crypto):
        layer = module.__name__.rsplit(".", 1)[1]
        for name, fn in _public_functions(module).items():
            spans[id(fn)] = f"{layer}.{name}"
    targets = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "discsp" and not mod_name.startswith("discsp."):
            continue
        for attr, value in vars(module).items():
            if id(value) in spans:
                targets.append((module, attr, value, spans[id(value)]))
    decode = crypto.GroupParams.__dict__["decode"]
    targets.append((crypto.GroupParams, "decode", decode, "crypto.decode"))
    for attr in ENCODE_FUNCTIONS:
        targets.append((runtime, attr, getattr(runtime, attr), f"runtime.{attr}"))
    return targets


@contextmanager
def tracing(tracer: Tracer):
    """Install spans for the duration of the block, then restore every
    patched attribute to its original function."""
    installed = []
    try:
        for owner, attr, fn, name in patch_targets():
            if owner is runtime and attr in ENCODE_FUNCTIONS:
                wrapper = _outermost_span(tracer, name, owner, attr, fn)
            else:
                wrapper = _span(tracer, name, fn)
            setattr(owner, attr, wrapper)
            installed.append((owner, attr, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(installed):
            setattr(owner, attr, fn)
