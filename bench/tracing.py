"""Per-layer timing and call counts for the traced run.

Wraps, from outside the program, every public function of the layers
tfse.specfun, tfse.dynamics, tfse.fraccalc and tfse.cli, plus scipy's quad as
tfse.specfun looks it up.  A function imported by name into another module
(ml_complex_decomposed into tfse.cli, for one) is wrapped there too, so every
lookup reaches the same wrapper.  For each function the tracer keeps the
number of calls, the summed wall time and the self time: the wall time less
the time spent in wrapped calls made from inside it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("specfun", "dynamics", "fraccalc", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, seconds, self seconds]
        self._stack: list[float] = []      # time spent in wrapped children
        self._patches: list[tuple] = []    # (module, attribute, original)

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
        return traced

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        modules = {layer: importlib.import_module(f"tfse.{layer}")
                   for layer in LAYERS}
        wrappers = {}   # id of the original function -> its wrapper
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        specfun = modules["specfun"]
        self._patch(specfun, "quad", self._wrap("specfun.quad", specfun.quad))
        # Every module of the package, so names imported by name are caught.
        for name, module in list(sys.modules.items()):
            if name != "tfse" and not name.startswith("tfse."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def metrics(self) -> dict[str, float]:
        """name.calls, name.ms and name.self_ms per function, and
        layer.self_ms per layer."""
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (calls, seconds, self_seconds) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.ms"] = seconds * 1e3
            out[f"{name}.self_ms"] = self_seconds * 1e3
            layer_self[name.split(".", 1)[0]] += self_seconds * 1e3
        for layer, ms in layer_self.items():
            out[f"{layer}.self_ms"] = ms
        return out
