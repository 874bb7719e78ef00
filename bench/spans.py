"""Traced pass: time calls into each layer of ``eaqring`` from outside.

``install`` wraps every public function of each layer module, and
``enable`` swaps the wrapper into every ``eaqring.*`` module binding that
holds the function -- such as ``codes``'s own name for ``howell_member``.
Each wrapper records a span.  The library's source is not touched;
``disable`` puts the originals back.

A span is (name, start, end, parent, file id), kept in flat in-memory
arrays and written out once at the end.  Generator functions get one span
per resumption, so enumeration time lands in the layer that does it.
``RingElement`` add/sub/neg/mul are counted, not timed: they run millions
of times per file and a span each would swamp what it measures.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from typing import Dict, List

import numpy as np

LAYERS = ("cli", "extension", "decompose", "codes", "zpblinalg", "galois", "pauli")
RING_OPS = ("__add__", "__sub__", "__neg__", "__mul__")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.calls: List[int] = []
        self.elements = 0          # values yielded by zpblinalg.enumerate_module
        self.ring_ops = 0
        self.matrix_bytes = 0      # sum of dim^2 * 16 over pauli_matrix calls
        self.file_id = -1
        self.name = array("i")
        self.parent = array("q")
        self.file = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: List[int] = []
        self._swaps: List[tuple] = []   # (owner, attr, original, wrapper)

    # -------------------------------------------------------------- spans

    def _enter(self, nid: int) -> None:
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.file.append(self.file_id)
        self.end.append(0)
        stack.append(len(self.start))
        self.start.append(time.perf_counter_ns())

    def _exit(self) -> None:
        t = time.perf_counter_ns()
        self.end[self._stack.pop()] = t

    def _wrap(self, nid: int, fn):
        calls, enter, exit_ = self.calls, self._enter, self._exit
        qualname = self.names[nid]

        if inspect.isgeneratorfunction(fn):
            count_yields = qualname == "zpblinalg.enumerate_module"

            def gen_wrapper(*args, **kwargs):
                calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    enter(nid)
                    try:
                        value = next(it)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        exit_()
                    if count_yields:
                        self.elements += 1
                    try:
                        yield value
                    except GeneratorExit:
                        it.close()
                        raise
            return gen_wrapper

        def plain_wrapper(*args, **kwargs):
            calls[nid] += 1
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        if qualname != "pauli.pauli_matrix":
            return plain_wrapper

        def matrix_wrapper(P, *args, **kwargs):
            matrix = plain_wrapper(P, *args, **kwargs)
            dim = P.ring.cardinality ** P.n
            self.matrix_bytes += dim * dim * 16
            return matrix
        return matrix_wrapper

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Build a wrapper for every public function of each layer and find
        every binding that holds one; ``enable`` then swaps them in."""
        wrappers: Dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"eaqring.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                nid = len(self.names)
                self.names.append(f"{layer}.{attr}")
                self.calls.append(0)
                wrappers[id(obj)] = (obj, self._wrap(nid, obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "eaqring" and not modname.startswith("eaqring."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._swaps.append((mod, attr, obj, hit[1]))
        ring_element = importlib.import_module("eaqring.galois").RingElement
        for op in RING_OPS:
            orig = ring_element.__dict__[op]
            self._swaps.append((ring_element, op, orig, self._count_ring_op(orig)))

    def _count_ring_op(self, fn):
        def counted(*args):
            self.ring_ops += 1
            return fn(*args)
        return counted

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._swaps:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, orig, _ in self._swaps:
            setattr(owner, attr, orig)

    # ---------------------------------------------------------- results

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "file_id": np.frombuffer(self.file, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
        }

    def self_ns(self) -> np.ndarray:
        """Total self time per function name: each span's duration minus
        the durations of its child spans."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        return np.bincount(a["name"], weights=dur - child, minlength=len(self.names))

    def outermost_ns(self, prefix: str) -> int:
        """Summed duration of spans named ``prefix*`` not nested in another
        such span: the cumulative time spent inside those functions."""
        inside = [name.startswith(prefix) for name in self.names]
        covered: List[bool] = []   # the span or one of its ancestors matches
        total = 0
        for i, (nid, parent) in enumerate(zip(self.name, self.parent)):
            above = parent >= 0 and covered[parent]
            covered.append(above or inside[nid])
            if inside[nid] and not above:
                total += self.end[i] - self.start[i]
        return total

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
