"""Spans and counters around the public functions of nefshrink's modules.

Wrappers are installed where each function is imported: every attribute
of the six modules that *is* the function object is replaced, so calls
between modules are seen without changing the program.  ``RowOrder``'s
``from_tau`` and ``is_feasible`` are replaced on the class, and numpy's
``loadtxt``/``savetxt`` are wrapped as ``cli`` calls them.  Spans stay in
memory as ``[name_id, start, end, parent]`` and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import types
from time import perf_counter

import numpy as np

MODULES = ("families", "risk", "optimize", "estimators", "harness", "cli")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# extra counters: layer -> (counter name, amount from (args, kwargs, result))
COUNTERS = {
    "families.sample_matrix": ("cells", lambda a, k, r: int(r.y.size)),
    "optimize.isotonic_box_projection": (
        "groups", lambda a, k, r: _arg(a, k, 2, "order").n_groups),
    "optimize.minimize_ure": ("iterations", lambda a, k, r: int(r.iterations)),
    "estimators.minimize_true_loss": ("iterations", lambda a, k, r: int(r.iterations)),
    "harness.write_records_csv": (
        "bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path"))),
    "cli.loadtxt": ("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "fname"))),
    "cli.savetxt": ("bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "fname"))),
}


def program_modules(package: str = "nefshrink") -> dict:
    return {name: importlib.import_module(f"{package}.{name}") for name in MODULES}


class Patches:
    """Replace module or class attributes; the originals come back on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def replace_everywhere(self, modules, original, replacement):
        """Replace ``original`` at every module attribute that refers to it."""
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self.set(module, name, replacement)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


class Tracer:
    """In-memory spans (name, start, end, parent) plus per-layer counts."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None, count_fn=None):
        """``fn`` recording a span per call; wrapping a name again (after
        the patches were undone) continues its spans and counts."""
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        calls_key, counter_key = f"{name}.calls", f"{name}.{counter}"
        counts.setdefault(calls_key, 0)
        if count_fn is not None:
            counts.setdefault(counter_key, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts[calls_key] += 1
            if count_fn is not None:
                counts[counter_key] += count_fn(args, kwargs, result)
            return result

        return traced

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Self and inclusive seconds per layer; self excludes child spans."""
        if not self.spans:
            return {}
        arr = np.asarray(self.spans, dtype=float)
        ids = arr[:, 0].astype(int)
        duration = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(arr))
        self_time = np.bincount(ids, weights=duration - covered, minlength=len(self.names))
        total = np.bincount(ids, weights=duration, minlength=len(self.names))
        return {
            name: {"self_s": float(self_time[i]), "total_s": float(total[i])}
            for i, name in enumerate(self.names)
        }

    def root_seconds(self) -> float:
        """Summed duration of the spans no other span encloses."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def write(self, path):
        origin = self.spans[0][1] if self.spans else 0.0
        spans = [[i, start - origin, end - origin, parent] for i, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": spans}, fh)


class _CliNumpy:
    """numpy as ``nefshrink.cli`` sees it, with ``loadtxt``/``savetxt`` traced."""

    def __init__(self, loadtxt, savetxt):
        self.loadtxt = loadtxt
        self.savetxt = savetxt

    def __getattr__(self, name):
        return getattr(np, name)


def install(tracer: Tracer, patches: Patches, modules: dict) -> None:
    """Wrap every public function of ``modules`` at each of its import sites."""
    sites = list(modules.values())
    for short, module in modules.items():
        for fname in module.__all__:
            fn = getattr(module, fname)
            if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                layer = f"{short}.{fname}"
                patches.replace_everywhere(
                    sites, fn, tracer.wrap(layer, fn, *COUNTERS.get(layer, ())))
    row_order = modules["optimize"].RowOrder
    patches.set(row_order, "is_feasible",
                tracer.wrap("optimize.RowOrder.is_feasible", row_order.is_feasible))
    from_tau = vars(row_order)["from_tau"].__func__
    patches.set(row_order, "from_tau",
                classmethod(tracer.wrap("optimize.RowOrder.from_tau", from_tau)))
    wrapped_np = _CliNumpy(
        tracer.wrap("cli.loadtxt", np.loadtxt, *COUNTERS["cli.loadtxt"]),
        tracer.wrap("cli.savetxt", np.savetxt, *COUNTERS["cli.savetxt"]),
    )
    patches.set(modules["cli"], "np", wrapped_np)
