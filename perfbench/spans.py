"""Span tracer that times hfrac from outside the library.

`install` replaces each public function of every hfrac module by a wrapper
that records a span (name, start, end, parent, operation id).  The wrapper is
bound under every name that refers to the function in any hfrac module,
because `from .x import y` copies the binding into the importing module.
Right-hand-side callables are wrapped per system by `wrap_rhs`.

Spans are only recorded while an operation is open (`Tracer.op`), so the
benchmark's own correctness checks, which call the same library functions,
stay out of the trace.  Per-name totals (calls, inclusive and self time) are
kept for every span; the first `SPAN_CAP` spans are also kept one by one and
written out by `save`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import OrderedDict
from contextlib import contextmanager

import numpy as np

LAYERS = ("special", "operators", "solver", "expr", "systems", "lyapunov", "cli")
SPAN_CAP = 200_000  # spans kept one by one; totals cover every span


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # name id -> [calls, inclusive seconds, self seconds]
        self.totals: dict[int, list] = {}
        self._stack: list[list] = []  # open spans: [id, name id, start, child seconds]
        self._next_id = 0
        self.current_op = -1
        self.rec = {k: array("q") for k in ("id", "name", "parent", "op")}
        self.rec_t = {k: array("d") for k in ("start", "end")}
        self.dropped = 0
        self.counters: dict[str, float] = {}
        self._restore: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.totals[nid] = [0, 0.0, 0.0]
        return nid

    @property
    def spans(self) -> int:
        """Spans recorded so far, including those past `SPAN_CAP`."""
        return self._next_id

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    @contextmanager
    def op(self, op_id: int):
        """Record spans for one top-level operation of the workload."""
        self.current_op = op_id
        try:
            yield
        finally:
            self.current_op = -1

    def inside(self, prefix: str) -> bool:
        """Whether an open span's name starts with `prefix`."""
        return any(self.names[frame[1]].startswith(prefix) for frame in self._stack)

    def _open(self, nid: int) -> list:
        frame = [self._next_id, nid, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        self._stack.pop()
        span_id, nid, start, child = frame
        dur = end - start
        tot = self.totals[nid]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if span_id < SPAN_CAP:
            self.rec["id"].append(span_id)
            self.rec["name"].append(nid)
            self.rec["parent"].append(parent[0] if parent is not None else -1)
            self.rec["op"].append(self.current_op)
            self.rec_t["start"].append(start)
            self.rec_t["end"].append(end)
        else:
            self.dropped += 1
        return dur

    def wrap(self, fn, name: str, hook=None):
        """Wrap `fn` in a span.

        `hook`, if given, is a pair (enter, leave): `enter(args)` runs as the
        span opens and its value is passed to
        `leave(token, args, result, error, seconds)` after the span closes.
        """
        nid = self.name_id(name)
        enter, leave = hook if hook is not None else (None, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.current_op < 0:
                return fn(*args, **kwargs)
            token = enter(args) if enter is not None else None
            frame = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                dur = self._close(frame)
                if leave is not None:
                    leave(token, args, None, err, dur)
                raise
            dur = self._close(frame)
            if leave is not None:
                leave(token, args, result, None, dur)
            return result

        return traced

    def wrap_rhs(self, rhs, layer: str):
        """Counting wrapper for a system's right-hand side, reported under `layer`."""
        nid = self.name_id(f"{layer}.rhs")

        def traced_rhs(t, x):
            if self.current_op < 0:
                return rhs(t, x)
            frame = self._open(nid)
            try:
                return rhs(t, x)
            finally:
                self._close(frame)

        return traced_rhs

    def install(self, hooks: dict) -> None:
        """Wrap every public function of each layer in all hfrac modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "hfrac" or key.startswith("hfrac.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"hfrac.{layer}")
            for attr in sorted(vars(mod)):
                orig = getattr(mod, attr)
                if attr.startswith("_") or not inspect.isfunction(orig):
                    continue
                if orig.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(orig, name, hooks.get(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, key, wrapped)
                            self._restore.append((m, key, orig))

    def mirror_kernel_cache(self) -> None:
        """Track the bytes held by `operators._kernel`'s LRU cache.

        functools.lru_cache does not expose its entries, so a wrapper replays
        the same least-recently-used policy over the keys it sees.
        """
        ops = importlib.import_module("hfrac.operators")
        cached = ops._kernel
        maxsize = cached.cache_parameters()["maxsize"]
        entries: OrderedDict = OrderedDict()
        held = [0]
        tracer = self

        @functools.wraps(cached)
        def kernel(*args):
            out = cached(*args)
            if args in entries:
                entries.move_to_end(args)
            else:
                entries[args] = out.nbytes
                held[0] += out.nbytes
                if len(entries) > maxsize:
                    held[0] -= entries.popitem(last=False)[1]
                tracer.peak("kernel_cache_bytes", held[0])
            return out

        kernel.cache_info = cached.cache_info
        kernel.cache_clear = cached.cache_clear
        ops._kernel = kernel
        self._restore.append((ops, "_kernel", cached))

    def uninstall(self) -> None:
        for mod, key, orig in reversed(self._restore):
            setattr(mod, key, orig)
        self._restore.clear()

    def layer_totals(self) -> dict[str, list]:
        """Per-layer [calls, self seconds], summed over the layer's span names."""
        out = {layer: [0, 0.0] for layer in LAYERS}
        for nid, (calls, _, self_s) in self.totals.items():
            layer = self.names[nid].split(".", 1)[0]
            out[layer][0] += calls
            out[layer][1] += self_s
        return out

    def total(self, name: str) -> list:
        nid = self._name_ids.get(name)
        return self.totals[nid] if nid is not None else [0, 0.0, 0.0]

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            dropped=np.array(self.dropped),
            **{k: np.asarray(v, dtype=np.int64) for k, v in self.rec.items()},
            **{k: np.asarray(v, dtype=np.float64) for k, v in self.rec_t.items()},
        )
