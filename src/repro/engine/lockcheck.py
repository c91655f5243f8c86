"""Runtime lock sentinel (``REPRO_LOCK_CHECK=1``).

Every lock the engine and the server take has a *lock class*:
``catalog``, ``table``, ``intent``, ``pool``, ``pagefile``, and one
``mutex:<Owner>`` per object-guarding mutex.  ``lock_graph.json``,
shipped beside this module, is the hand-kept allowlist of nestings:
its ``edges`` are the (held class, acquired class) pairs the program
may take, and a tier-1 test keeps them acyclic.  With the sentinel on,
every instrumented acquisition records ``(class, name, exclusive)`` on
a per-thread stack and is checked **before blocking**, so a would-be
deadlock — reproducible only under hostile timing — fails at its first
acquisition, on any schedule, with a :class:`LockOrderViolation`:

- **Nesting.**  Taking class B while holding another class A raises
  unless (A, B) is a declared edge.
- **Same class.**  ``table`` latches nest only in ascending lower-cased
  table-name order (the sorted latch set of
  :class:`~repro.engine.latches.LatchManager`); a reentrant mutex (the
  buffer pool's) may re-enter; ``intent`` range intents stack; any
  other re-acquisition of a class already held is the classic
  self-deadlock and raises.
- **Statements latch what they touch.**  While a ``SqlSession`` entry
  point runs (marked :func:`statement`), a ``Table`` mutation must hold
  that table's exclusive latch (:func:`require_write_latch`) and the
  buffer pool's mutex may only be taken under the catalog latch.
  ``Table`` and pool calls made outside a statement — loaders, tests —
  are not checked.
- **No blocking under an exclusive latch.**  ``time.sleep``, socket
  send/recv, ``Future.result`` and ``Thread.join`` raise while the
  calling thread holds a table's write latch or the DDL catalog latch:
  every reader of that table would wait the call out.

Off by default: each check is then one global boolean test, and the
statement markers and blocking-call checks are not installed at all.
Enable with the environment variable, or with :func:`set_active`
(tests).
"""

from __future__ import annotations

import functools
import json
import os
import socket
import threading
import time
from typing import Any, Callable, Optional

__all__ = [
    "LockOrderViolation",
    "is_active",
    "set_active",
    "note_acquire",
    "note_release",
    "held",
    "tracked_lock",
    "load_graph",
    "statement",
    "require_write_latch",
]


class LockOrderViolation(RuntimeError):
    """A lock was taken, or a call made, against the locking
    discipline this module checks."""


#: Classes whose same-class re-acquisition is always allowed.
_STACKABLE = frozenset({"intent"})

_active = os.environ.get("REPRO_LOCK_CHECK", "").strip() == "1"
_edges: frozenset[tuple[str, str]] | None = None
_tls = threading.local()

#: ``(owner, attribute, original, checked)``: what :func:`set_active`
#: swaps in while the sentinel is on and back out when it goes off.
_patches: list[tuple[Any, str, Any, Any]] = []
_blocking_registered = False


def load_graph(path: Optional[str] = None) -> frozenset[tuple[str, str]]:
    """The declared nestings of ``lock_graph.json`` (package data next
    to this module) as ``(held, acquired)`` pairs.  A missing file
    raises ``OSError``; a malformed one, or an edge naming a class
    that is not a node, ``ValueError``."""
    if path is None:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "lock_graph.json")
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    nodes = data.get("nodes") if isinstance(data, dict) else None
    edges = data.get("edges") if isinstance(data, dict) else None
    if not (isinstance(nodes, list) and isinstance(edges, list)):
        raise ValueError(f"{path}: no lock graph")
    pairs = set()
    for edge in edges:
        if not (isinstance(edge, list) and len(edge) == 2
                and all(cls in nodes for cls in edge)):
            raise ValueError(f"{path}: bad edge {edge!r}")
        pairs.add((edge[0], edge[1]))
    return frozenset(pairs)


def _edge_set() -> frozenset[tuple[str, str]]:
    global _edges
    if _edges is None:
        _edges = load_graph()
    return _edges


def is_active() -> bool:
    return _active


def set_active(flag: bool) -> None:
    """Enable/disable the sentinel at runtime (tests).  Clears this
    thread's held stack so a test starts from a clean slate."""
    global _active, _blocking_registered
    _active = bool(flag)
    _tls.stack = []
    _tls.statements = 0
    if _active and not _blocking_registered:
        _blocking_registered = True
        _patches.extend(_blocking_patches())
    for owner, attr, original, checked in _patches:
        setattr(owner, attr, checked if _active else original)


def _stack() -> list[tuple[str, Optional[str], bool]]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


def held() -> tuple[tuple[str, Optional[str]], ...]:
    """This thread's instrumented (class, name) stack, outermost first."""
    return tuple((cls, name) for cls, name, _excl in _stack())


def _where() -> str:
    return f"thread {threading.current_thread().name!r}"


def note_acquire(lock_class: str, name: Optional[str] = None, *,
                 reentrant: bool = False, exclusive: bool = False,
                 blocking: bool = True) -> None:
    """Validate and record one acquisition.  Call **before** blocking
    on the real lock; raises :class:`LockOrderViolation` without
    recording anything, so there is nothing to roll back on failure.
    If the real acquisition then fails (timeout), undo the record with
    :func:`note_release`.  A try-lock (``blocking=False``) never waits,
    so it cannot deadlock: it is recorded, not checked.
    """
    if not _active:
        return
    stack = _stack()
    edges = _edge_set()
    for held_class, held_name, _excl in stack if blocking else ():
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
            raise LockOrderViolation(f"{_where()} re-acquires {what}")
        if (held_class, lock_class) not in edges:
            raise LockOrderViolation(
                f"{_where()} acquires {lock_class!r} while holding "
                f"{held_class!r}, a nesting lock_graph.json does not "
                "declare")
    if lock_class == "pool" and getattr(_tls, "statements", 0) and \
            not any(cls == "catalog" for cls, _name, _excl in stack):
        raise LockOrderViolation(
            f"{_where()} reads the buffer pool in a statement that "
            "holds no catalog latch")
    stack.append((lock_class, name, exclusive))


def note_release(lock_class: str, name: Optional[str] = None) -> None:
    """Drop the most recent matching acquisition record.  Tolerates a
    missing entry (the lock may predate :func:`set_active`)."""
    if not _active:
        return
    stack = _stack()
    for idx in range(len(stack) - 1, -1, -1):
        if stack[idx][:2] == (lock_class, name):
            del stack[idx]
            return


def require_write_latch(table: str) -> None:
    """In a statement, raise unless this thread holds ``table``'s
    exclusive latch — the check each ``Table`` mutation makes."""
    if not _active or not getattr(_tls, "statements", 0):
        return
    if ("table", table.lower(), True) not in _stack():
        raise LockOrderViolation(
            f"{_where()} mutates table {table!r} in a statement without "
            "holding its write latch")


class statement:
    """Marks a ``SqlSession`` method as a statement entry point: while
    it runs, the calling thread's ``Table`` mutations and pool reads
    are checked against the latches it holds.  Nothing wraps the
    method while the sentinel is off."""

    def __init__(self, method: Callable[..., Any]) -> None:
        self.method = method

    def __set_name__(self, owner: type, attr: str) -> None:
        method = self.method

        @functools.wraps(method)
        def checked(*args: Any, **kwargs: Any) -> Any:
            _tls.statements = getattr(_tls, "statements", 0) + 1
            try:
                return method(*args, **kwargs)
            finally:
                _tls.statements -= 1

        _patches.append((owner, attr, method, checked))
        setattr(owner, attr, checked if _active else method)


def _refuse_blocking(owner: Any, attr: str) -> tuple[Any, str, Any, Any]:
    original = getattr(owner, attr)
    what = f"{owner.__name__}.{attr}"

    @functools.wraps(original)
    def checked(*args: Any, **kwargs: Any) -> Any:
        for cls, name, exclusive in _stack():
            if exclusive:
                raise LockOrderViolation(
                    f"{_where()} calls {what} while holding the "
                    f"exclusive {cls!r} latch"
                    + (f" of {name!r}" if name else ""))
        return original(*args, **kwargs)

    return owner, attr, original, checked


def _blocking_patches() -> list[tuple[Any, str, Any, Any]]:
    from concurrent.futures import Future

    return [_refuse_blocking(owner, attr) for owner, attr in (
        (time, "sleep"), (threading.Thread, "join"), (Future, "result"),
        (socket.socket, "send"), (socket.socket, "sendall"),
        (socket.socket, "sendmsg"), (socket.socket, "recv"),
        (socket.socket, "recv_into"))]


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
        note_acquire(self.lock_class, reentrant=self._reentrant,
                     blocking=blocking)
        ok = self._inner.acquire(blocking, timeout)
        if not ok:
            note_release(self.lock_class)
        return ok

    def release(self) -> None:
        self._inner.release()
        note_release(self.lock_class)

    def __enter__(self) -> "_TrackedLock":
        if _active:
            note_acquire(self.lock_class, reentrant=self._reentrant)
        self._inner.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self._inner.release()
        if _active:
            note_release(self.lock_class)


def tracked_lock(lock_class: str, *,
                 reentrant: bool = False) -> _TrackedLock:
    """A mutex whose acquisitions the sentinel sees (when active)."""
    return _TrackedLock(lock_class, reentrant=reentrant)


if _active:
    set_active(True)
