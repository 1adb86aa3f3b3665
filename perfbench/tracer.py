"""Span tracer that instruments fieldalign from outside.

Each instrumented function is replaced, under the name its caller looks it
up by (a module global such as ``fieldalign.mcmc.cdist``, a class attribute
such as ``PairEngine.step_mask`` or a dispatch-table entry), by a wrapper
that records one span per call: name, start, end and the enclosing span.
Spans stay in memory in flat arrays and are written out once at the end.
Counts that belong to a boundary (accepted proposals, kernel elements,
Cholesky sizes) are accumulated by per-site hooks as the calls happen.

The program is single-threaded inside a traced unit, so the open spans form
a stack; the parent of a new span is the innermost open one.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

NO_PARENT = -1


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.absent: set[str] = set()  # metric families with nothing to wrap
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- span recording ----------------------------------------------------

    def name_index(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_idx: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.name_id.append(name_idx)
        self.end.append(np.nan)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> float:
        now = time.perf_counter()
        self.end[idx] = now
        self._stack.pop()
        return now - self.start[idx]

    def record(self, name: str, start: float, end: float, parent: int = NO_PARENT) -> int:
        """Append a finished span directly, for building a span tree by
        hand."""
        idx = len(self.start)
        self.parent.append(parent)
        self.name_id.append(self.name_index(name))
        self.start.append(start)
        self.end.append(end)
        return idx

    def traced(self, fn, name, on_result=None):
        """Wrap fn so every call records a span.

        `name` is a string or a callable taking the call's arguments and
        returning the span name (for blocks selected by an argument).
        on_result(args, kwargs, result, duration) runs after each call.
        """
        fixed = None if callable(name) else self.name_index(name)

        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else self.name_index(name(args, kwargs))
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.close(idx)
            if on_result is not None:
                on_result(args, kwargs, result, duration)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, owner, attr: str, name, on_result=None) -> bool:
        """Replace owner.attr by a traced wrapper; False if it is missing."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        self._set(owner, attr, self.traced(original, name, on_result))
        return True

    def patch_item(self, table: dict, key: str, name, on_result=None) -> bool:
        """Replace a dispatch-table entry by a traced wrapper."""
        if key not in table:
            return False
        original = table[key]
        self._patches.append((table, key, original, True))
        table[key] = self.traced(original, name, on_result)
        return True

    def patch_factory(self, owner, attr: str, name, on_result=None) -> bool:
        """Replace a factory so every function it returns is traced."""
        original = getattr(owner, attr, None)
        if original is None:
            return False

        def factory(*args, **kwargs):
            return self.traced(original(*args, **kwargs), name, on_result)

        self._set(owner, attr, factory)
        return True

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def unpatch(self):
        while self._patches:
            owner, attr, original, is_item = self._patches.pop()
            if is_item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def per_name(self) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s for every span name."""
        spans = self.arrays()
        n = len(self.names)
        ids = spans["name_id"]
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=spans["end"] - spans["start"], minlength=n)
        own = np.bincount(
            ids, weights=self_times(spans["parent"], spans["start"], spans["end"]), minlength=n
        )
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval covered by its
    children (the union of the child intervals clipped to the parent)."""
    out = (end - start).tolist()
    children = np.flatnonzero(parent != NO_PARENT)
    order = children[np.lexsort((start[children], parent[children]))].tolist()
    parents, starts, ends = parent.tolist(), start.tolist(), end.tolist()
    current = NO_PARENT
    covered_to = 0.0
    for c in order:
        p = parents[c]
        if p != current:
            current = p
            covered_to = starts[p]
        lo = max(starts[c], covered_to)
        hi = min(ends[c], ends[p])
        if hi > lo:
            out[p] -= hi - lo
            covered_to = hi
    return np.array(out)
