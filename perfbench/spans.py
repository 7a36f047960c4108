"""Span tracing around qwalk's public functions, from outside the package.

:class:`Tracer` wraps every function a ``qwalk.<module>.__all__`` names and
that the module defines, then rebinds every ``qwalk.*`` module attribute
holding that function object to the wrapper. A call is therefore recorded
whichever module makes it (``from .linalg import check_density`` in
``channels`` included). Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

MODULES = ("graphs", "linalg", "operators", "channels", "evolution", "fidelity", "scenarios",
           "output", "cli")
# Spans whose tracemalloc peak (above the traced size at entry) is recorded
# while tracemalloc is tracing.
ALLOC_SPANS = ("scenarios.run_scenario",)


@dataclass
class LayerStats:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    alloc_peak_b: int = 0


class Tracer:
    """Records (name, start, end, parent) spans and per-function totals."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.stats: dict[str, LayerStats] = {}
        self._stack: list[list] = []  # [span index, time covered by children]
        self._bindings: list[tuple[object, str, object]] = []  # (module, attr, original)

    def install(self) -> None:
        """Rebind every public qwalk function to a span-recording wrapper."""
        wrappers: dict[int, object] = {}
        for short in MODULES:
            try:
                module = importlib.import_module(f"qwalk.{short}")
            except ImportError:
                continue  # a refactor removed the module; its functions record 0 calls
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    self.stats.setdefault(name, LayerStats())
                    wrappers[id(fn)] = self._wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qwalk" and not mod_name.startswith("qwalk."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, name: str, fn):
        stats = self.stats[name]
        track_alloc = name in ALLOC_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            alloc = track_alloc and tracemalloc.is_tracing()
            if alloc:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            frame = [len(self.spans), 0.0]
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.errors += 1
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[frame[0]] = (name, start, end, parent)
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    stats.alloc_peak_b = max(stats.alloc_peak_b, peak)

        return wrapper

    def snapshot(self) -> dict[str, LayerStats]:
        """A copy of the per-function totals so far."""
        return {name: LayerStats(**vars(s)) for name, s in self.stats.items()}

    def write(self, path: Path) -> None:
        """Write the spans, one JSON array ``[name, start, end, parent]`` per line."""
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
