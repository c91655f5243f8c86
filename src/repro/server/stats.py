"""Server observability: latency percentiles, IO totals, per-session
counts.

Aggregates what the engine already measures per query
(:class:`~repro.engine.metrics.QueryMetrics`) into the server-level
view the stats protocol command exposes: how many queries ran, how they
spread over sessions, the p50/p95 of recent latencies, and the summed
IO/UDF counters — the Table 1 bookkeeping, lifted from one query to a
whole serving process.
"""

from __future__ import annotations

import time
from collections import deque

from ..engine import lockcheck

__all__ = ["LatencyWindow", "ServerStats"]


class LatencyWindow:
    """Sliding window of the most recent latencies with percentiles.

    A bounded deque (default: last 2048 samples) — constant memory at
    any traffic volume, percentile over the recent past rather than
    process lifetime.
    """

    def __init__(self, capacity: int = 2048):
        self._samples: deque[float] = deque(maxlen=capacity)

    def add(self, seconds: float) -> None:
        self._samples.append(seconds)

    def __len__(self) -> int:
        return len(self._samples)

    def percentile(self, p: float) -> float | None:
        """Nearest-rank percentile (``p`` in [0, 100]); None if empty."""
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1,
                          round(p / 100.0 * (len(ordered) - 1))))
        return ordered[rank]


class ServerStats:
    """Thread-safe aggregate counters for one server process."""

    def __init__(self):
        self._lock = lockcheck.tracked_lock("mutex:ServerStats")
        self._started = time.time()
        self.latency = LatencyWindow()
        self._queries_ok = 0
        self._queries_failed = 0
        self._rejected_busy = 0
        self._timeouts = 0
        self._sessions_opened = 0
        self._sessions_closed = 0
        # Live sessions only — closed sessions fold their count into
        # the aggregate below, so memory (and the stats frame) stays
        # bounded by the number of *concurrent* connections, not the
        # number ever opened.
        self._per_session: dict[int, int] = {}
        self._closed_session_queries = 0
        self._io_totals = {
            "rows": 0,
            "io_bytes": 0,
            "physical_reads": 0,
            "sequential_reads": 0,
            "random_reads": 0,
            "stream_calls": 0,
            "udf_calls": 0,
        }
        # Successful SELECTs by the execution path that ran ("row" /
        # "vector", or "sharded" on a coordinator).
        # Kept out of _io_totals: the metrics "engine" value is a
        # string, not a summable counter.
        self._engine_queries: dict[str, int] = {}
        # Zero-copy data-plane counters: prepare frames answered,
        # pipelined pexec batches (and how deep they ran), and bquery
        # streams with their chunk/byte totals — the "bytes on the
        # wire" half of the partial-read story.
        self._prepares = 0
        self._pipeline_batches = 0
        self._pipeline_statements = 0
        self._pipeline_depth_max = 0
        self._bquery_streams = 0
        self._bquery_chunks = 0
        self._bquery_bytes = 0

    # -- recording -----------------------------------------------------------

    def session_opened(self, session_id: int) -> None:
        with self._lock:
            self._sessions_opened += 1
            self._per_session.setdefault(session_id, 0)

    def session_closed(self, session_id: int) -> None:
        with self._lock:
            self._sessions_closed += 1
            self._closed_session_queries += \
                self._per_session.pop(session_id, 0)

    def record_query(self, session_id: int, latency_seconds: float,
                     metrics: dict | None) -> None:
        """Record one successful query and fold its metrics dict
        (:meth:`QueryMetrics.to_dict`) into the IO totals."""
        with self._lock:
            self._queries_ok += 1
            self._per_session[session_id] = \
                self._per_session.get(session_id, 0) + 1
            self.latency.add(latency_seconds)
            if metrics:
                for key in self._io_totals:
                    self._io_totals[key] += int(metrics.get(key, 0))
                engine = metrics.get("engine")
                if isinstance(engine, str):
                    self._engine_queries[engine] = \
                        self._engine_queries.get(engine, 0) + 1

    def record_failure(self, session_id: int) -> None:
        with self._lock:
            self._queries_failed += 1
            self._per_session[session_id] = \
                self._per_session.get(session_id, 0) + 1

    def record_busy(self) -> None:
        with self._lock:
            self._rejected_busy += 1

    def record_timeout(self, session_id: int) -> None:
        with self._lock:
            self._timeouts += 1
            self._per_session[session_id] = \
                self._per_session.get(session_id, 0) + 1

    def record_prepare(self) -> None:
        """One ``prepare`` frame answered with a ``prepared`` reply."""
        with self._lock:
            self._prepares += 1

    def record_pipeline(self, batch_size: int) -> None:
        """One ``pexec`` batch executed (``batch_size`` >= 1; serial
        clients show up as depth-1 batches)."""
        with self._lock:
            self._pipeline_batches += 1
            self._pipeline_statements += batch_size
            self._pipeline_depth_max = max(self._pipeline_depth_max,
                                           batch_size)

    def record_bquery(self, chunks: int, payload_bytes: int) -> None:
        """One ``bquery`` stream completed: how many ``bchunk`` frames
        it took and how many payload bytes crossed the wire."""
        with self._lock:
            self._bquery_streams += 1
            self._bquery_chunks += chunks
            self._bquery_bytes += payload_bytes

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-serializable view of everything above."""
        with self._lock:
            return {
                "uptime_seconds": time.time() - self._started,
                "queries_ok": self._queries_ok,
                "queries_failed": self._queries_failed,
                "rejected_busy": self._rejected_busy,
                "timeouts": self._timeouts,
                "sessions_opened": self._sessions_opened,
                "sessions_closed": self._sessions_closed,
                "sessions_active": (self._sessions_opened
                                    - self._sessions_closed),
                "per_session_queries": dict(self._per_session),
                "closed_session_queries": self._closed_session_queries,
                "latency_p50": self.latency.percentile(50),
                "latency_p95": self.latency.percentile(95),
                "latency_samples": len(self.latency),
                "io_totals": dict(self._io_totals),
                "engine_queries": dict(self._engine_queries),
                "prepares": self._prepares,
                "pipeline": {
                    "batches": self._pipeline_batches,
                    "statements": self._pipeline_statements,
                    "depth_max": self._pipeline_depth_max,
                },
                "bquery": {
                    "streams": self._bquery_streams,
                    "chunks": self._bquery_chunks,
                    "payload_bytes": self._bquery_bytes,
                },
            }
