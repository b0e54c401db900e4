"""Spans around entbound's public functions, recorded from outside the package.

`Tracer.active()` replaces, in every `entbound` namespace that holds
them, the public module-level functions of the traced modules, the
`__post_init__` validators of their dataclasses and
`RandomStream.generator`; on exit it puts every original back. Nothing
under `src/` changes.

Each function belongs to a layer: its module, except that stream
derivation (`RandomStream.generator`) is a layer of its own. A call made
while a span of the same layer is open (recursion in `dumps`, `bound_*`
calling `h_constrained`) is counted but not timed on its own; its time
stays in the enclosing span's self time. Spans record function, start,
end, parent span and trial id in flat arrays and are written out when
the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from entbound.ensembles import RandomStream

TRACED_MODULES = ("ensembles", "core", "superposition", "bounds", "report", "serialize")
STREAM_LAYER = "ensembles.stream"
TRIAL_ENTRY = "report.run_trial"   # each call starts a new trial id


def _targets() -> list[tuple[object, str, object, str, str]]:
    """(owner, attribute, original, span name, layer) for everything to wrap."""
    found = []
    for short in TRACED_MODULES:
        module = importlib.import_module(f"entbound.{short}")
        for attr, value in vars(module).items():
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            # Generators are left alone: a span around one would time its consumer too.
            if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                found.append((module, attr, value, f"{short}.{attr}", short))
            elif inspect.isclass(value) and "__post_init__" in vars(value):
                hook = vars(value)["__post_init__"]
                found.append((value, "__post_init__", hook, f"{short}.{attr}.__post_init__", short))
    found.append(
        (RandomStream, "generator", RandomStream.generator,
         "ensembles.RandomStream.generator", STREAM_LAYER)
    )
    return found


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []    # function id -> span name
        self.layers: list[str] = []   # function id -> layer
        self.calls: list[int] = []    # function id -> calls, timed or not
        self.fid = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.trials = 0
        self._stack: list[int] = []
        self._layer_stack: list[str] = []
        self._targets = [
            (owner, attr, original, self._wrap(original, name, layer))
            for owner, attr, original, name, layer in _targets()
        ]
        self._saved: list[tuple[object, str, object]] = []

    def new_trial(self) -> None:
        self.trials += 1

    def _wrap(self, fn, name: str, layer: str):
        fid = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        self.calls.append(0)
        calls, stack, layer_stack = self.calls, self._stack, self._layer_stack
        fids, parents, trials, starts, ends = self.fid, self.parent, self.trial, self.start, self.end
        starts_trial = name == TRIAL_ENTRY
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if starts_trial:
                self.trials += 1
            if layer_stack and layer_stack[-1] == layer:
                return fn(*args, **kwargs)
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            trials.append(self.trials - 1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            layer_stack.append(layer)
            begin = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = begin
                stack.pop()
                layer_stack.pop()

        return wrapper

    def patch(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already patched in")
        by_id = {id(original): wrapper for _, _, original, wrapper in self._targets}
        for name in sorted(sys.modules):
            if name != "entbound" and not name.startswith("entbound."):
                continue
            module = sys.modules[name]
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for owner, attr, original, wrapper in self._targets:
            if inspect.isclass(owner):
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self):
        self.patch()
        try:
            yield self
        finally:
            self.restore()

    def save(self, path: Path) -> None:
        """Write every span, plus the function table, as one .npz file."""
        np.savez(
            path,
            function=np.frombuffer(self.fid, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            trial=np.frombuffer(self.trial, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            names=np.array(self.names),
            layers=np.array(self.layers),
            calls=np.array(self.calls),
        )
