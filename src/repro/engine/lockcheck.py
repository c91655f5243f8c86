"""Runtime lock-order sentinel (``REPRO_LOCK_CHECK=1``).

The static analyzer (:mod:`repro.analysis.flow.lockgraph`) exports the
whole-program lock-order graph to ``lock_graph.json`` — lock classes
(``catalog``, ``table``, ``pool``, ``pagefile``, ``intent``, per-class
mutexes) and a deterministic topological order over them.  This module
is the *dynamic* half of that contract: with ``REPRO_LOCK_CHECK=1``
every instrumented acquisition records its lock class on a per-thread
stack and validates, **before blocking**, that the new class does not
rank above any class already held.  A violation raises
:class:`LockOrderViolation` naming both classes immediately — turning
a would-be deadlock (reproducible only under hostile timing) into a
deterministic test failure at the first out-of-order acquisition, on
any schedule.

Same-class rules mirror the engine's discipline:

- ``table`` latches may nest only in ascending lower-cased table-name
  order (the sorted latch-set loop in
  :class:`~repro.engine.latches.LatchManager`);
- the buffer pool's ``pool`` mutex is an ``RLock`` and may re-enter;
- ``intent`` range-intents may stack (disjoint ranges on one or more
  tables);
- any other same-class re-acquisition (the non-reentrant RWLocks:
  ``catalog``, a single table latch by the same name) is the classic
  self-deadlock and raises.

The check is off by default and the disabled fast path is one global
boolean test per acquisition.  Enable with the environment variable or
:func:`set_active` (tests).
"""

from __future__ import annotations

import json
import os
import threading
from typing import Optional

__all__ = [
    "LockOrderViolation",
    "is_active",
    "set_active",
    "note_acquire",
    "note_release",
    "held",
    "tracked_lock",
    "load_order",
]


class LockOrderViolation(RuntimeError):
    """An instrumented acquisition contradicted the exported order."""


#: Classes whose same-class re-acquisition is always allowed.
_STACKABLE = frozenset({"intent"})

_active = os.environ.get("REPRO_LOCK_CHECK", "").strip() == "1"
_ranks: dict[str, int] | None = None
_tls = threading.local()


def load_order(path: Optional[str] = None) -> tuple[str, ...]:
    """The acquisition order from ``lock_graph.json`` (the analysis
    package's checked-in export, shipped as package data) — the one
    place the order is written down.  A missing file raises
    ``OSError``, a malformed one ``ValueError``."""
    if path is None:
        path = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "analysis", "lock_graph.json")
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    order = data.get("order") if isinstance(data, dict) else None
    if not (isinstance(order, list) and order
            and all(isinstance(cls, str) for cls in order)):
        raise ValueError(f"{path}: no lock order")
    return tuple(order)


def _rank_table() -> dict[str, int]:
    global _ranks
    if _ranks is None:
        _ranks = {cls: idx for idx, cls in enumerate(load_order())}
    return _ranks


def is_active() -> bool:
    return _active


def set_active(flag: bool) -> None:
    """Enable/disable the sentinel at runtime (tests).  Clears this
    thread's held stack so a test starts from a clean slate."""
    global _active
    _active = bool(flag)
    _tls.stack = []


def _stack() -> list[tuple[str, Optional[str]]]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def held() -> tuple[tuple[str, Optional[str]], ...]:
    """This thread's instrumented (class, name) stack, outermost first."""
    return tuple(_stack())


def note_acquire(lock_class: str, name: Optional[str] = None, *,
                 reentrant: bool = False) -> None:
    """Validate and record one acquisition.  Call **before** blocking
    on the real lock; raises :class:`LockOrderViolation` without
    recording anything, so there is nothing to roll back on failure.
    If the real acquisition then fails (timeout), undo the record with
    :func:`note_release`.
    """
    if not _active:
        return
    stack = _stack()
    ranks = _rank_table()
    rank = ranks.get(lock_class)
    for held_class, held_name in stack:
        if held_class == lock_class:
            if reentrant or lock_class in _STACKABLE:
                continue
            if lock_class == "table" and held_name is not None \
                    and name is not None and held_name < name:
                continue  # ascending-name nesting: the sorted latch set
            what = (f"table latch {name!r} under table latch "
                    f"{held_name!r} (latch sets must be taken in one "
                    "sorted call)" if lock_class == "table"
                    else f"non-reentrant {lock_class!r} lock it "
                    "already holds")
            raise LockOrderViolation(
                f"thread {threading.current_thread().name!r} "
                f"re-acquires {what}")
        held_rank = ranks.get(held_class)
        if rank is None or held_rank is None:
            continue  # unknown classes carry no constraints
        if rank < held_rank:
            raise LockOrderViolation(
                f"thread {threading.current_thread().name!r} acquires "
                f"{lock_class!r} while holding {held_class!r}, but the "
                f"lock order ranks {lock_class!r} before "
                f"{held_class!r} (see lock_graph.json; regenerate "
                "with `repro lint --write-lock-graph`)")
    stack.append((lock_class, name))


def note_release(lock_class: str, name: Optional[str] = None) -> None:
    """Drop the most recent matching acquisition record.  Tolerates a
    missing entry (the lock may predate :func:`set_active`)."""
    if not _active:
        return
    stack = _stack()
    for idx in range(len(stack) - 1, -1, -1):
        if stack[idx] == (lock_class, name):
            del stack[idx]
            return


class _TrackedLock:
    """Drop-in for ``threading.Lock``/``RLock`` that reports to the
    sentinel.  Never pickled — owners exclude their mutex from
    ``__getstate__`` and rebuild it in ``__setstate__``."""

    __slots__ = ("_inner", "lock_class", "_reentrant")

    def __init__(self, lock_class: str, reentrant: bool = False) -> None:
        self._inner = threading.RLock() if reentrant else threading.Lock()
        self.lock_class = lock_class
        self._reentrant = reentrant

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        note_acquire(self.lock_class, reentrant=self._reentrant)
        ok = self._inner.acquire(blocking, timeout)
        if not ok:
            note_release(self.lock_class)
        return ok

    def release(self) -> None:
        self._inner.release()
        note_release(self.lock_class)

    def __enter__(self) -> "_TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


def tracked_lock(lock_class: str, *,
                 reentrant: bool = False) -> _TrackedLock:
    """A mutex whose acquisitions the sentinel sees (when active)."""
    return _TrackedLock(lock_class, reentrant=reentrant)


def tracking(lock_class: str, name: Optional[str] = None):
    """Context manager for code that acquires a resource by hand but
    wants the sentinel to account for it (e.g. range intents)."""

    class _Note:
        def __enter__(self) -> None:
            note_acquire(lock_class, name)

        def __exit__(self, *exc: object) -> None:
            note_release(lock_class, name)

    return _Note()
