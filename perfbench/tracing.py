"""Replacing functions of the package, and an in-memory span recorder.

``Patches`` is the benchmark's one way to replace a module attribute and put
it back. ``Tracer`` builds on it to wrap public functions of the package.

Each wrapped call records one span: name, start, end, parent span and the
run id shared by every span of one workload run. Spans live in flat arrays
while the run executes and are written out once, when it ends. Self time is
a span's duration minus the time its child spans cover; spans are strictly
nested because the workloads are single-threaded.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

import numpy as np


class Patches:
    """Replacements of module attributes, undone together (also on exit
    from a ``with`` block), last first."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.undo()


def observed(fn, after, counters):
    """``fn`` followed by ``after(counters, args, kwargs, result)`` on each call."""
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(counters, args, kwargs, result)
        return result
    return wrapper


class Tracer(Patches):
    def __init__(self, run_id: str):
        super().__init__()
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(counters, args, kwargs, result)`` may add counts measured
        at the same boundary.
        """
        nid = self._intern(name)
        stack, counters = self._stack, self.counters
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        clock = time.perf_counter_ns

        def make(fn):
            def traced(*args, **kwargs):
                idx = len(starts)
                name_ids.append(nid)
                parents.append(stack[-1] if stack else -1)
                ends.append(0)
                stack.append(idx)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
                if after is not None:
                    after(counters, args, kwargs, result)
                return result
            return traced

        self.replace(owner, attr, make)

    def __len__(self) -> int:
        return len(self.start)

    def self_ms(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """Total self time in ms per span name over spans [lo, hi)."""
        hi = len(self) if hi is None else hi
        if hi <= lo:
            return {}
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi]).astype(np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        covered = np.zeros(hi - lo)
        inside = parent >= lo
        np.add.at(covered, parent[inside] - lo, dur[inside])
        per_name = np.bincount(np.frombuffer(self.name_id, dtype=np.int32)[lo:hi],
                               weights=dur - covered, minlength=len(self.names))
        return {n: per_name[i] / 1e6 for i, n in enumerate(self.names)}

    def calls(self, lo: int = 0, hi: int | None = None) -> dict[str, int]:
        hi = len(self) if hi is None else hi
        counts = np.bincount(np.frombuffer(self.name_id, dtype=np.int32)[lo:hi],
                             minlength=len(self.names))
        return {n: int(counts[i]) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span of the run as arrays plus the name table."""
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
