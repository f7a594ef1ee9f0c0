"""In-memory span recording around calls into the program's layers.

A :class:`Tracer` replaces functions at the names their callers look them up
by (a module attribute or a class attribute) with wrappers that record one
span per call: id, parent id, name, start and end (``perf_counter_ns``) and an
optional note computed from the call's arguments (rows in a forward pass,
agents in a population, ...).  Spans stay in memory until :meth:`Tracer.write`.
Nothing in the program is edited; leaving :meth:`Tracer.patch` restores every
original.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import itertools
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        # (id, parent, name, start_ns, end_ns, note); appended when a span ends.
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span per call; ``note(*args, **kwargs)`` runs
        before the clock starts and its result is stored with the span."""
        record, stack, ids = self.spans.append, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = note(*args, **kwargs) if note is not None else None
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                record((sid, parent, name, t0, t1, info))

        return traced

    @contextlib.contextmanager
    def patch(self, targets):
        """Install wrappers for ``(name, owner, attribute, note)`` targets."""
        saved = []
        try:
            for name, owner, attr, note in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """All spans, in start order, as gzip CSV: id, parent, name,
        start_ns, end_ns, note."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            out = csv.writer(f)
            out.writerow(("id", "parent", "name", "start_ns", "end_ns", "note"))
            for sid, parent, name, t0, t1, note in sorted(self.spans):
                out.writerow((sid, parent, name, t0, t1, "" if note is None else note))


class LayerStats:
    """Per-name totals derived from spans; self time is a span's duration
    minus the durations of its direct children (children never overlap)."""

    def __init__(self, spans: list[tuple]) -> None:
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, t0, t1, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.notes: dict[str, list] = defaultdict(list)
        for sid, _, name, t0, t1, note in spans:
            self.calls[name] += 1
            self.total_ns[name] += t1 - t0
            self.self_ns[name] += t1 - t0 - child_ns[sid]
            if note is not None:
                self.notes[name].append(note)

    def mean_self(self, name: str, scale: float) -> float:
        """Mean self time per call in units of ``scale`` nanoseconds; 0 when
        the layer was not called."""
        n = self.calls[name]
        return self.self_ns[name] / n / scale if n else 0.0

    def self_sum(self, prefix: str) -> int:
        return sum(v for k, v in self.self_ns.items() if k.startswith(prefix))
