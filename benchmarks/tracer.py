"""In-memory span tracer wrapped around the public functions of kdcollide.

Every public function defined in a traced module is replaced by a wrapper
that records one span (name, start, end, parent span).  The wrapper is
installed on *every* module-level binding of the function, because
``from .linalg import tensor`` copies the name into ``kdq``, ``collision``,
``smalltau`` and ``selftest``; wrapping only the home module would miss
those calls.  The dataclass validators of ``ModelConfig`` and
``SystemStateParams`` are wrapped too, so model construction shows up in the
``model`` layer.

Spans are kept in flat arrays while the traced pass runs and written out
once at the end.  A span's self time is its duration minus the time its
direct child spans cover.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

# Hook signature: (positional args, keyword args, result, duration in seconds).
Hook = Callable[[tuple, dict, object, float], None]

_CONSTRUCTED = ("ModelConfig", "SystemStateParams")


class Tracer:
    """Install span-recording wrappers on a package's public functions."""

    def __init__(self, package: str, layers: tuple[str, ...], hooks: dict[str, Hook] | None = None):
        self.package = package
        self.layers = layers
        self.hooks = hooks or {}
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._start = array.array("d")
        self._end = array.array("d")
        self._name = array.array("i")
        self._parent = array.array("i")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Swap every binding to its wrapper; the wrappers are built once."""
        if not self._patches:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        patches = []
        wrappers = {}
        for layer in self.layers:
            module = importlib.import_module(f"{self.package}.{layer}")
            for attr, obj in vars(module).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}", layer)
            for cls_name in _CONSTRUCTED:
                cls = vars(module).get(cls_name)
                if cls is not None and cls.__module__ == module.__name__:
                    original = cls.__dict__["__post_init__"]
                    patches.append((cls, "__post_init__", original, self._wrap(original, f"{layer}.{cls_name}", layer)))
        for name, module in list(sys.modules.items()):
            if name == self.package or name.startswith(self.package + "."):
                for attr, obj in vars(module).items():
                    if inspect.isfunction(obj) and obj in wrappers:
                        patches.append((module, attr, obj, wrappers[obj]))
        return patches

    def _wrap(self, fn, name: str, layer: str):
        name_id = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        hook = self.hooks.get(name)
        start, end, names, parents, stack = self._start, self._end, self._name, self._parent, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(name_id)
            parents.append(stack[-1])
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if hook is not None:
                hook(args, kwargs, result, t1 - t0)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; pass it to `summary` to select a pass."""
        return len(self._start)

    def arrays(self, first: int = 0, last: int | None = None):
        """(start, end, name id, parent) of the spans in [first, last)."""
        last = len(self._start) if last is None else last
        start = np.frombuffer(self._start, dtype=np.float64)[first:last].copy()
        end = np.frombuffer(self._end, dtype=np.float64)[first:last].copy()
        names = np.frombuffer(self._name, dtype=np.int32)[first:last].copy()
        parent = np.frombuffer(self._parent, dtype=np.int32)[first:last].astype(np.int64)
        parent = np.where(parent >= first, parent - first, -1)
        return start, end, names, parent

    def summary(self, first: int, last: int) -> dict:
        """Per-name call counts and inclusive time, per-layer self time,
        root-span coverage and calls entering each layer from outside it."""
        start, end, names, parent = self.arrays(first, last)
        duration = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(start))
        self_time = duration - child_time
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        inclusive = np.bincount(names, weights=duration, minlength=n_names)
        self_by_name = np.bincount(names, weights=self_time, minlength=n_names)
        layer_of = np.array(self.name_layer + [""])
        span_layer = layer_of[names]
        # Roots get the sentinel "" name id, so they always enter their layer.
        parent_name = np.where(has_parent, names[np.maximum(parent, 0)] if len(names) else 0, n_names)
        entering = span_layer != layer_of[parent_name]
        return {
            "calls": {n: int(calls[i]) for i, n in enumerate(self.names)},
            "inclusive_s": {n: float(inclusive[i]) for i, n in enumerate(self.names)},
            "self_s": {n: float(self_by_name[i]) for i, n in enumerate(self.names)},
            "layer_self_s": {
                layer: float(sum(self_by_name[i] for i, l in enumerate(self.name_layer) if l == layer))
                for layer in self.layers
            },
            "layer_entries": {layer: int(np.count_nonzero(entering & (span_layer == layer))) for layer in self.layers},
            "root_s": float(duration[~has_parent].sum()),
            "spans": int(len(start)),
        }

    def write(self, path: Path) -> None:
        """Write every recorded span to an ``.npz`` file."""
        start, end, names, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, start=start, end=end, name=names, parent=parent, names=np.array(self.names))
