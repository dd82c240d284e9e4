"""Span tracing of ``sparsetn`` from outside the package.

``Tracer.install`` replaces every public function of the traced modules with a
wrapper that records a span, at every module attribute that refers to it
(``sparsetn.variational`` imports ``bp_step``, ``run_bp`` and
``site_averaged_observables`` by name), and counts ``np.einsum`` calls against
the innermost open span. Spans are aggregated in memory by (parent, name) and
written out by the caller when the run ends. ``uninstall`` restores every
attribute, so untraced rounds run the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

TRACED_MODULES = ("graph", "bp", "variational", "oracles", "states", "cli")

# Work done by one call, read from its return value.
WORK = {
    "bp.bp_step": len,  # directed-edge message updates
    "bp.run_bp": lambda result: result[1].steps_run,
    "oracles.classical_ising_mc": lambda result: result.sweeps * len(result.site_means),  # proposed flips
}


class Tracer:
    def __init__(self):
        self.spans = {}  # (parent, name) -> [calls, total_s, self_s, einsum_calls, work]
        self._stack = []  # open frames: [name, start, child_s, einsum_calls]
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        stack = self._stack
        spans = self.spans
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = time.perf_counter() - frame[1]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][2] += elapsed
                rec = spans.setdefault((parent, name), [0, 0.0, 0.0, 0, 0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[2]
                rec[3] += frame[3]
            if work is not None:
                rec[4] += work(result)
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"sparsetn.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "sparsetn" or mod_name.startswith("sparsetn."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patched.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[obj])
        einsum = np.einsum
        stack = self._stack

        @functools.wraps(einsum)
        def counted_einsum(*args, **kwargs):
            if stack:
                stack[-1][3] += 1
            return einsum(*args, **kwargs)

        self._patched.append((np, "einsum", einsum))
        np.einsum = counted_einsum

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def by_name(self, name):
        """calls, inclusive s, self s, einsum calls and work of every span called ``name``.

        No traced function calls itself, so inclusive times do not overlap.
        """
        total = [0, 0.0, 0.0, 0, 0]
        for (_, span), rec in self.spans.items():
            if span == name:
                total = [a + b for a, b in zip(total, rec)]
        return total

    def table(self):
        return [{"parent": parent, "name": name, "calls": rec[0], "total_s": rec[1], "self_s": rec[2],
                 "einsum_calls": rec[3], "work": rec[4]}
                for (parent, name), rec in sorted(self.spans.items(), key=lambda kv: -kv[1][1])]
