"""In-memory span recorder for the traced passes.

A span is ``(id, parent, op, name, start, end)``; spans of one op share
the op id, and an op span's parent is the run root (id 0, described in
the file header, not in the span list).  Nothing is written until
:meth:`Tracer.dump`; a layer's *self time* is its span's duration minus
the part its child spans cover (:func:`self_times`).

Spans are recorded from the benchmark's side of each layer boundary:
around client calls, around twin calls into a layer's public functions,
and — for the server's interior, which only the reply header describes
— as ``synthetic`` spans of the reported duration centred in the client
span that carried them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

ROOT_ID = 0


class Tracer:
    """Records spans; ``enabled=False`` makes every call a no-op so the
    untraced window runs the same code path."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = ""

    def begin_op(self, name: str, op_id: str) -> None:
        if not self.enabled:
            return
        self._op = op_id
        self._open(name, ROOT_ID)

    def end_op(self) -> None:
        if self.enabled:
            self._close()

    def _open(self, name: str, parent: int) -> int:
        span_id = len(self.spans) + 1
        self.spans.append([span_id, parent, self._op, name,
                           time.perf_counter(), None, False])
        self._stack.append(span_id)
        return span_id

    def _close(self) -> None:
        span_id = self._stack.pop()
        self.spans[span_id - 1][5] = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        """Span around a call; the enclosing open span is its parent."""
        if not self.enabled:
            yield
            return
        self._open(name, self._stack[-1])
        try:
            yield
        finally:
            self._close()

    def synthetic(self, name: str, seconds: float,
                  parent: int | None = None) -> int | None:
        """A span of known duration but unobserved position (a time the
        server reported about its own interior), centred in ``parent``
        (default: the span just closed).  Returns its id so a nested
        reported time can hang under it."""
        if not self.enabled:
            return None
        host = self.spans[(parent or len(self.spans)) - 1]
        middle = (host[4] + host[5]) / 2
        span_id = len(self.spans) + 1
        self.spans.append([span_id, host[0], host[2], name,
                           middle - seconds / 2, middle + seconds / 2,
                           True])
        return span_id

    def dump(self, path: str, header: dict) -> None:
        keys = ("id", "parent", "op", "name", "start", "end",
                "synthetic")
        with open(path, "w") as out:
            json.dump({"root": {"id": ROOT_ID, "name": "run", **header},
                       "spans": [dict(zip(keys, span))
                                 for span in self.spans]}, out)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus the union of the
    children's intervals (clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    totals: dict[str, float] = {}
    for span_id, _parent, _op, name, start, end, _syn in spans:
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
