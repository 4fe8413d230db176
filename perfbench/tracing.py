"""Spans recorded from the benchmark's side of each layer boundary.

A :class:`Tracer` wraps a few public methods of the program (the
planner, the runtime, the process pool, the LSQR operator, the serve
encoder) for the length of a traced run.  Each wrapped call, and each
operation the benchmark issues, becomes one span: name, start, end,
parent span and the id of the operation it belongs to.  Spans stay in
memory and are written once, at the end of the run.

Calls made on a thread the benchmark does not drive (the service's
executor threads) have no open span on their own thread; they are
parented to the span of the operation in flight, which the closed-loop
client makes unambiguous.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder with an on/off switch per round."""

    def __init__(self) -> None:
        self.enabled = False
        self.op = 0                # id of the operation in flight
        self.root = None           # span id of the operation in flight
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._tl = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._tl, "stack", None)
        if stack is None:
            stack = self._tl.stack = []
        return stack

    @contextmanager
    def span(self, name: str, *, root: bool = False):
        """Record one span; yields its attribute dict (``None`` when off).

        ``root=True`` marks the span of one benchmark operation: spans
        opened on other threads while it is open become its children.
        """
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        rec = {"op": self.op, "id": sid, "parent": parent, "name": name}
        if root:
            self.root = sid
        stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            if root:
                self.root = None
            with self._lock:
                self.spans.append(rec)

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`unwrap`.

        *attrs*, when given, maps the call's return value to extra span
        attributes (kernel seconds, health counts).
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(name) as rec:
                result = original(*args, **kwargs)
                if attrs is not None:
                    rec.update(attrs(result))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds each layer spent in its own code, summed over *spans*.

    A span's self time is its duration minus the part of it covered by
    its children; the layer is the span name up to the first dot.
    """
    children = defaultdict(list)
    for rec in spans:
        children[rec["parent"]].append((rec["start"], rec["end"]))
    out: dict[str, float] = defaultdict(float)
    for rec in spans:
        t0, t1 = rec["start"], rec["end"]
        covered, cursor = 0.0, t0
        for c0, c1 in sorted(children.get(rec["id"], ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[rec["name"].split(".")[0]] += (t1 - t0) - covered
    return dict(out)
