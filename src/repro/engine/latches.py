"""Per-table latches: writers of one table overlap writers of another.

The paper's host (SQL Server) lets any number of readers scan one table
while a writer mutates a different one.  Readers here take no table
latch at all: every SELECT pins an MVCC snapshot (rows and secondary
indexes of one published version, see :mod:`repro.engine.table`) and
reads it latch-free.  The :class:`LatchManager` is what is left:

- a **catalog latch** (one :class:`RWLock` per database): shared by
  every SELECT/INSERT/DELETE, exclusive for DDL (CREATE/DROP), so the
  table set a statement latched cannot change under it;
- one **table latch** (a mutex the sentinel records as exclusive) per
  table, taken only by a writer's copy-on-write mutate + publish step.

Lock hierarchy (acquire strictly downward, never upward)::

    catalog latch  >  table latches (sorted by name)  >
        BufferPool._lock / PageFile._lock (leaf mutexes)

Deadlock avoidance: a statement's *entire* table latch set is taken in
one ``write_latch(...)`` call, in sorted lower-cased table-name order,
with the catalog latch always first.  No code path acquires a latch
while already holding another latch, so no cycle can form.  The
runtime sentinel (``REPRO_LOCK_CHECK=1``,
:mod:`repro.engine.lockcheck`) records a table latch as exclusive and
raises on a nested latch out of name order and on any nesting
``lock_graph.json`` does not declare (a latch under a pool ``_lock``,
say); a tier-1 test keeps that graph acyclic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from . import lockcheck
from .locks import RWLock

__all__ = ["LatchManager"]


class LatchManager:
    """Owns the catalog latch and one write latch per table.

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
        self._latches: dict[str, threading.Lock] = {}
        # Leaf mutex guarding only the latch dict itself; nothing is
        # acquired while it is held.
        self._registry = threading.Lock()

    def latch_for(self, name: str) -> threading.Lock:
        """The latch guarding one table (created on first use)."""
        key = name.lower()
        with self._registry:
            latch = self._latches.get(key)
            if latch is None:
                latch = self._latches[key] = threading.Lock()
            return latch

    def forget(self, name: str) -> None:
        """Drop a table's latch (after DROP TABLE; caller must hold the
        exclusive catalog latch so nobody can be waiting on it)."""
        with self._registry:
            self._latches.pop(name.lower(), None)

    # -- statement-level guards ------------------------------------------------

    @contextmanager
    def write_latch(self, *tables: str) -> Iterator["LatchManager"]:
        """Exclusive access to the named tables (an INSERT/DELETE's
        latch set); writers of *other* tables proceed, and readers of
        any table never wait.  The catalog latch is taken shared — DML
        never changes the table set.
        """
        if not tables:
            raise ValueError("write_latch needs at least one table name")
        self._catalog.acquire_read()
        held: list[tuple[str, threading.Lock]] = []
        try:
            for key in sorted({name.lower() for name in tables}):
                lockcheck.note_acquire("table", key, exclusive=True)
                latch = self.latch_for(key)
                latch.acquire()
                held.append((key, latch))
            yield self
        finally:
            for key, latch in reversed(held):
                latch.release()
                lockcheck.note_release("table", key)
            self._catalog.release_read()

    @contextmanager
    def catalog_latch(self) -> Iterator["LatchManager"]:
        """Shared catalog access and *no* table latch — the guard every
        SELECT takes: it only needs the table set stable while it pins
        its snapshot; the snapshot itself is read latch-free.
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
