"""Reader/writer lock: the building block of the engine's latches.

The paper's array library runs inside SQL Server, whose lock manager
lets any number of readers scan a table while writers are serialized
(the Table 1 queries even opt *out* of shared locks with ``WITH
(NOLOCK)``).  The serving layer (:mod:`repro.server`) multiplexes
per-connection sessions over one shared
:class:`~repro.engine.executor.Database`; this module supplies the
writer-preferring reader/writer lock its catalog latch and per-table
latches are made of (:mod:`repro.engine.latches`).

Readers share; writers are exclusive.  Writer preference keeps a steady
stream of analytical scans from starving catalog changes.
"""

from __future__ import annotations

import threading

from . import lockcheck

__all__ = ["RWLock"]


class RWLock:
    """A writer-preferring reader/writer lock.

    Any number of threads may hold the read side at once; the write
    side is exclusive against both readers and other writers.  Once a
    writer is waiting, new readers queue behind it.

    Not reentrant on the write side, and a read holder must not try to
    take the write side (classic upgrade deadlock) — callers lock at
    statement granularity, entering once per statement.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition(threading.Lock())
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0
        # Sentinel identity (REPRO_LOCK_CHECK=1): owners re-stamp —
        # the LatchManager marks its catalog latch "catalog" and each
        # per-table latch "table" with the table name.
        self.lock_class = "rwlock"
        self.lock_name: str | None = None

    # -- read side -----------------------------------------------------------

    def acquire_read(self, timeout: float | None = None) -> bool:
        """Take the shared side; returns False on timeout."""
        lockcheck.note_acquire(self.lock_class, self.lock_name)
        with self._cond:
            ok = self._cond.wait_for(
                lambda: not self._writer and not self._writers_waiting,
                timeout)
            if not ok:
                lockcheck.note_release(self.lock_class, self.lock_name)
                return False
            self._readers += 1
            return True

    def release_read(self) -> None:
        with self._cond:
            if self._readers <= 0:
                raise RuntimeError("release_read without a read holder")
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()
        lockcheck.note_release(self.lock_class, self.lock_name)

    # -- write side -----------------------------------------------------------

    def acquire_write(self, timeout: float | None = None) -> bool:
        """Take the exclusive side; returns False on timeout."""
        lockcheck.note_acquire(self.lock_class, self.lock_name,
                               exclusive=True)
        with self._cond:
            self._writers_waiting += 1
            try:
                ok = self._cond.wait_for(
                    lambda: not self._writer and self._readers == 0,
                    timeout)
                if not ok:
                    lockcheck.note_release(self.lock_class,
                                           self.lock_name)
                    return False
                self._writer = True
                return True
            finally:
                self._writers_waiting -= 1

    def release_write(self) -> None:
        with self._cond:
            if not self._writer:
                raise RuntimeError("release_write without the write holder")
            self._writer = False
            self._cond.notify_all()
        lockcheck.note_release(self.lock_class, self.lock_name)
