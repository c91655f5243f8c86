"""Admission control: overload degrades, it does not collapse.

Every statement runs on the connection thread that read it.  Up to
``max_workers`` statements execute at once, each holding one *run
permit*; up to ``queue_limit`` more may wait for a permit; anything
beyond that is rejected *immediately* with ``SERVER_BUSY`` instead of
being buffered without bound — the client gets a fast, explicit signal
to back off, and the statements already admitted keep their latency.

A slot is a plain thread-safe counter and a permit one
``threading.Semaphore``: the connection thread claims a slot, waits
for a permit at most until its statement's deadline, runs the
statement, and returns both only when the statement really ends.  An
uncontended permit wakes no thread.
"""

from __future__ import annotations

import threading

from ..engine import lockcheck

__all__ = ["AdmissionController"]


class AdmissionController:
    """Bounded-concurrency admission for statements.

    Args:
        max_workers: Statements executing concurrently (run permits).
        queue_limit: Additional statements allowed to wait for a
            permit.
    """

    def __init__(self, max_workers: int, queue_limit: int):
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        self.max_workers = max_workers
        self.queue_limit = queue_limit
        self._lock = lockcheck.tracked_lock("mutex:AdmissionController")
        self._permits = threading.Semaphore(max_workers)
        self._in_flight = 0
        self._admitted_total = 0
        self._rejected_total = 0

    @property
    def capacity(self) -> int:
        """Total slots: executing plus queued."""
        return self.max_workers + self.queue_limit

    @property
    def in_flight(self) -> int:
        """Statements currently admitted (executing or queued)."""
        with self._lock:
            return self._in_flight

    @property
    def queue_depth(self) -> int:
        """Admitted statements beyond the permit count — waiting."""
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

    def acquire_permit(self, timeout: float | None) -> bool:
        """Wait for a run permit, at most ``timeout`` seconds (None:
        for as long as it takes); False means the statement's deadline
        passed first.  The caller holds a slot."""
        if timeout is None:
            return self._permits.acquire()
        return self._permits.acquire(timeout=max(0.0, timeout))

    def release(self, permit: bool = True) -> None:
        """Return a slot, and the run permit with it when the caller
        got one (called when the statement ends, however it ends)."""
        if permit:
            self._permits.release()
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
