"""Per-table latches: writers on one table overlap readers on another.

The paper's host (SQL Server) lets any number of readers scan one table
while a writer mutates a different one.  The :class:`LatchManager` is
the statement-granularity half of that: a two-level latch hierarchy
(MVCC snapshots, see :mod:`repro.engine.table`, are the other half and
let readers of the *same* table overlap its writer):

- a **catalog latch** (one :class:`RWLock` per database): shared by
  every SELECT/INSERT/DELETE, exclusive for DDL (CREATE/DROP), so the
  table set a statement latched cannot change under it;
- one **table latch** (:class:`RWLock`, writer-preferring) per table:
  shared for index seeks and snapshot cuts, exclusive for mutation.

Lock hierarchy (acquire strictly downward, never upward)::

    catalog latch  >  table latches (sorted by name)  >
        BufferPool._lock / PageFile._lock (leaf mutexes)

Deadlock avoidance: a statement's *entire* latch set is taken in one
``read_latch(...)`` / ``write_latch(...)`` call, in sorted
lower-cased table-name order, with the catalog latch always first.  No
code path acquires a latch while already holding another latch, so no
cycle can form.  The runtime sentinel (``REPRO_LOCK_CHECK=1``,
:mod:`repro.engine.lockcheck`) raises on a nested latch out of name
order or a latch under a pool ``_lock``; replint's RL004 proves the
whole-program order acyclic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterable, Iterator

from .locks import RWLock

__all__ = ["LatchManager"]


class LatchManager:
    """Owns the catalog latch and one writer-preferring RWLock per table.

    Latches are created lazily, keyed by lower-cased table name (the
    front-end resolves tables case-insensitively, so ``T`` and ``t``
    must share a latch).  The internals acquire/release explicitly with
    ``try``/``finally`` rather than nesting ``with`` blocks: the
    acquisition loop over a sorted latch set is *one* level of the
    hierarchy, not a re-entrant stack.
    """

    def __init__(self):
        self._catalog = RWLock()
        # Stamp sentinel identities (REPRO_LOCK_CHECK=1).
        self._catalog.lock_class = "catalog"
        self._latches: dict[str, RWLock] = {}
        # Leaf mutex guarding only the latch dict itself; nothing is
        # acquired while it is held.
        self._registry = threading.Lock()

    def latch_for(self, name: str) -> RWLock:
        """The latch guarding one table (created on first use)."""
        key = name.lower()
        with self._registry:
            latch = self._latches.get(key)
            if latch is None:
                latch = self._latches[key] = RWLock()
                latch.lock_class = "table"
                latch.lock_name = key
            return latch

    def forget(self, name: str) -> None:
        """Drop a table's latch (after DROP TABLE; caller must hold the
        exclusive catalog latch so nobody can be waiting on it)."""
        with self._registry:
            self._latches.pop(name.lower(), None)

    def _sorted_latches(self, names: Iterable[str]) -> list[RWLock]:
        """Latches for a name set, in the canonical acquisition order
        (sorted lower-cased names, duplicates collapsed)."""
        return [self.latch_for(key)
                for key in sorted({name.lower() for name in names})]

    # -- statement-level guards ------------------------------------------------

    @contextmanager
    def read_latch(self, *tables: str) -> Iterator["LatchManager"]:
        """Shared access to the named tables (a SELECT's latch set)."""
        if not tables:
            raise ValueError("read_latch needs at least one table name")
        self._catalog.acquire_read()
        held: list[RWLock] = []
        try:
            for latch in self._sorted_latches(tables):
                latch.acquire_read()
                held.append(latch)
            yield self
        finally:
            for latch in reversed(held):
                latch.release_read()
            self._catalog.release_read()

    @contextmanager
    def write_latch(self, *tables: str) -> Iterator["LatchManager"]:
        """Exclusive access to the named tables (an INSERT/DELETE's
        latch set); readers and writers of *other* tables proceed.
        The catalog latch is taken shared — DML never changes the table
        set.
        """
        if not tables:
            raise ValueError("write_latch needs at least one table name")
        self._catalog.acquire_read()
        held: list[RWLock] = []
        try:
            for latch in self._sorted_latches(tables):
                latch.acquire_write()
                held.append(latch)
            yield self
        finally:
            for latch in reversed(held):
                latch.release_write()
            self._catalog.release_read()

    @contextmanager
    def catalog_latch(self) -> Iterator["LatchManager"]:
        """Shared catalog access and *no* table latch — the guard a
        snapshot reader takes: it only needs the table set stable while
        it pins its snapshots; the snapshots themselves are scanned
        latch-free.
        """
        self._catalog.acquire_read()
        try:
            yield self
        finally:
            self._catalog.release_read()

    @contextmanager
    def ddl_latch(self) -> Iterator["LatchManager"]:
        """Exclusive catalog access (CREATE/DROP TABLE).  Excludes
        every concurrent statement — all of them hold the catalog latch
        shared — without touching any table latch.
        """
        self._catalog.acquire_write()
        try:
            yield self
        finally:
            self._catalog.release_write()
