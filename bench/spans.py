"""Span tracing of bottcheck's seven modules, installed from outside.

``install`` wraps every public function of each module, and the public
and arithmetic methods of every class a module defines, in a recorder.
A function is re-pointed in every module namespace that imported it
(``theorems.f_formula`` as well as ``rr.f_formula``), so calls between
modules are seen.  Private names of the package are never touched: work
done in a private helper is self time of the public span that called it.

Spans are kept in memory as six integers each (request, span, parent,
name index, start, end) and written out by ``Tracer.write`` after the
timed phase.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from array import array

LAYERS = ("exact", "chow", "chern", "rr", "theorems", "bottcases", "cli")

# Dunder methods that do a layer's work; the other dunders (hash, repr,
# setattr) are bookkeeping and stay unwrapped.
ARITHMETIC = frozenset({
    "__init__", "__post_init__", "__call__", "__eq__", "__neg__", "__pow__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__",
})


class Tracer:
    def __init__(self):
        self.request = 0
        self.spans = array("q")
        self.names: list = []
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self._stack: list = []
        self._ids = itertools.count(1)

    def wrap(self, layer: str, name: str, fn):
        clock = time.perf_counter_ns
        stack, spans, ids = self._stack, self.spans, self._ids
        calls, self_ns = self.calls, self.self_ns
        name_index = len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame = [span id, time covered by child spans]
            frame = [next(ids), 0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[layer] += 1
                self_ns[layer] += duration - frame[1]
                spans.extend((self.request, frame[0], parent, name_index, start, end))

        return traced

    def __len__(self):
        return len(self.spans) // 6

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("request\tspan\tparent\tname\tstart_ns\tend_ns\n")
            spans, names = self.spans, self.names
            for i in range(0, len(spans), 6):
                request, span, parent, name, start, end = spans[i:i + 6]
                fh.write(f"{request}\t{span}\t{parent}\t{names[name]}\t{start}\t{end}\n")


def _is_function(obj) -> bool:
    return (
        callable(obj)
        and not isinstance(obj, type)
        and inspect.isfunction(inspect.unwrap(obj))
    )


def _wrap_class(tracer: Tracer, layer: str, cls: type):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in ARITHMETIC:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if isinstance(member, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(layer, name, member.__func__)))
        elif inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(layer, name, member))


def install(tracer: Tracer):
    """Wrap the package's public surface; lasts for the process."""
    package = importlib.import_module("bottcheck")
    modules = [importlib.import_module(f"bottcheck.{layer}") for layer in LAYERS]
    wrapped = {}  # id(original) -> (original, wrapper)
    for layer, module in zip(LAYERS, modules):
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                if not issubclass(obj, BaseException):
                    _wrap_class(tracer, layer, obj)
            elif _is_function(obj):
                wrapped[id(obj)] = (obj, tracer.wrap(layer, f"{layer}.{name}", obj))
    for module in [package, *modules]:
        for name, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
