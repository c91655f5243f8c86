"""Admission control: overload degrades, it does not collapse.

The server runs queries on a bounded worker pool.  Up to
``max_workers`` queries execute at once; up to ``queue_limit`` more may
wait their turn; anything beyond that is rejected *immediately* with
``SERVER_BUSY`` instead of being buffered without bound — the client
gets a fast, explicit signal to back off, and the queries already
admitted keep their latency.

The controller is a plain thread-safe counter: a slot is taken by the
connection thread before it submits the query to the pool and released
by the future's done-callback — on the worker thread when the query
ends, or on the connection thread when it cancels a job still queued.
"""

from __future__ import annotations

import threading

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded-concurrency admission for the query worker pool.

    Args:
        max_workers: Queries executing concurrently.
        queue_limit: Additional queries allowed to wait for a worker.
    """

    def __init__(self, max_workers: int, queue_limit: int):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.max_workers = max_workers
        self.queue_limit = queue_limit
        self._lock = threading.Lock()
        self._in_flight = 0
        self._admitted_total = 0
        self._rejected_total = 0

    @property
    def capacity(self) -> int:
        """Total slots: executing plus queued."""
        return self.max_workers + self.queue_limit

    @property
    def in_flight(self) -> int:
        """Queries currently admitted (executing or queued)."""
        with self._lock:
            return self._in_flight

    @property
    def queue_depth(self) -> int:
        """Admitted queries beyond the worker count — waiting."""
        with self._lock:
            return max(0, self._in_flight - self.max_workers)

    def try_acquire(self) -> bool:
        """Claim a slot; False means the caller must reject with
        ``SERVER_BUSY``."""
        with self._lock:
            if self._in_flight >= self.capacity:
                self._rejected_total += 1
                return False
            self._in_flight += 1
            self._admitted_total += 1
            return True

    def release(self) -> None:
        """Return a slot (called when the query finishes, fails, or is
        abandoned after a timeout)."""
        with self._lock:
            if self._in_flight <= 0:
                raise RuntimeError("release() without a matching "
                                   "try_acquire()")
            self._in_flight -= 1

    def snapshot(self) -> dict:
        """Counters for the stats command."""
        with self._lock:
            return {
                "max_workers": self.max_workers,
                "queue_limit": self.queue_limit,
                "in_flight": self._in_flight,
                "queue_depth": max(0,
                                   self._in_flight - self.max_workers),
                "admitted_total": self._admitted_total,
                "rejected_total": self._rejected_total,
            }
