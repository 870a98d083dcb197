"""In-memory spans around calls into the program's modules.

A span is one call of a wrapped function: the op it belongs to, the span
that was open when it started (its parent), its name, its start and end
times, and an optional count taken from the return value. Spans stay in
memory while ops run and are written out once, at the end.

Wrapping replaces a module attribute, so it must be done on the module where
the caller looks the name up: `decomposer` calls its own imported
`check_goodness`, so `cdcover.decomposer.check_goodness` is what gets wrapped.
A name that no longer exists is reported as missing instead of failing.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path

OP = "op"

# Span fields, by position.
OP_ID, PARENT, NAME, START, END, COUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op_id = -1

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        sid = len(self.spans)
        head = (self._op_id, self._stack[-1] if self._stack else None, name)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            # A tuple of plain values drops out of the garbage collector's
            # scans, so a long trace does not slow the program's collections.
            self.spans[sid] = head + (start, time.perf_counter(), None)
            self._stack.pop()
        if count is not None:
            self.spans[sid] = self.spans[sid][:COUNT] + (count(result),)
        return result

    def op(self, op_id: int, fn, *args):
        """Run one op as a root span; spans opened inside carry its id."""
        self._op_id = op_id
        return self.call(OP, fn, *args)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{name} ({module.__name__}.{attr})")
            return

        @wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, count=count, **kwargs)

        setattr(module, attr, traced)
        self._saved.append((module, attr, fn))

    def unwrap(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans: list[tuple]) -> dict:
    """Per-name and per-module totals, self times and counts.

    A span's self time is its duration minus its children's durations. A
    module's total is the time under its outermost spans, so a module span
    nested in another span of the same module is not counted twice.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[PARENT] is not None:
            child[s[PARENT]] += d
    module = [s[NAME].split(".")[0] for s in spans]

    by_name = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0,
                                   "calls": 0, "count": 0})
    mod_total: dict[str, float] = defaultdict(float)
    mod_self: dict[str, float] = defaultdict(float)
    op_wall = 0.0
    for i, s in enumerate(spans):
        if s[NAME] == OP:
            op_wall += dur[i]
            continue
        row = by_name[s[NAME]]
        row["total_s"] += dur[i]
        row["self_s"] += dur[i] - child[i]
        row["calls"] += 1
        row["count"] += s[COUNT] or 0
        mod_self[module[i]] += dur[i] - child[i]
        p = s[PARENT]
        while p is not None and module[p] != module[i]:
            p = spans[p][PARENT]
        if p is None:
            mod_total[module[i]] += dur[i]
    return {"by_name": dict(by_name), "module_total_s": dict(mod_total),
            "module_self_s": dict(mod_self), "op_wall_s": op_wall}
