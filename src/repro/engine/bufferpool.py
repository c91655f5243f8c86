"""Buffer pool: the page cache between queries and the page file.

Every page access in the engine goes through the pool — by id
(:meth:`BufferPool.fetch`, ``fetch_many``) or, on the MVCC read path,
as an already-resolved page version (``fetch_page``, ``fetch_pages``)
— and all four charge through one accounting body.
A miss is a *physical read* — the IO the paper's Table 1 measures in
MB/s — and a hit is a *logical read*.  The paper cleared the server
cache before each test run ("The database server cache was explicitly
cleared before each performance test run"); :meth:`clear` reproduces
that, and the accounting distinguishes sequential from random physical
reads so the cost model can charge them differently.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass
from typing import Any, Union

from . import lockcheck
from .constants import PAGE_SIZE
from .page import Page, PageFile

#: Maximum forward page-id jump still treated as part of a sequential
#: read stream (32 MB — well within one read-ahead queue depth).
SEQ_READ_WINDOW = 4096

#: What the cache is keyed by: a plain page id, or ``(id, pv)`` for a
#: page version a copy-on-write writer has stamped.
CacheKey = Union[int, tuple[int, int]]

__all__ = ["BufferPool", "IoCounters"]


@dataclass
class IoCounters:
    """Read counters accumulated by a buffer pool.

    Attributes:
        logical_reads: Page fetches served, hit or miss.
        physical_reads: Fetches that missed the cache.
        sequential_reads: Physical reads whose page id immediately
            follows the previous physical read (read-ahead friendly).
        random_reads: The remaining physical reads (seek-bound).
    """

    logical_reads: int = 0
    physical_reads: int = 0
    sequential_reads: int = 0
    random_reads: int = 0

    @property
    def physical_bytes(self) -> int:
        return self.physical_reads * PAGE_SIZE

    def snapshot(self) -> "IoCounters":
        """Copy the current counter values."""
        return IoCounters(self.logical_reads, self.physical_reads,
                          self.sequential_reads, self.random_reads)

    def delta_since(self, before: "IoCounters") -> "IoCounters":
        """Counters accumulated since a snapshot."""
        return IoCounters(
            self.logical_reads - before.logical_reads,
            self.physical_reads - before.physical_reads,
            self.sequential_reads - before.sequential_reads,
            self.random_reads - before.random_reads,
        )


class _ThreadIoState:
    """One thread's private IO accounting: its own counters plus the
    page id of its own previous physical read (per-stream sequential
    classification).

    ``cold_seen`` is the thread's *cold view* (see
    :meth:`BufferPool.begin_cold_view`): while set, the thread's first
    touch of every key is charged as a physical read — in both scopes —
    without evicting the shared cache, so a cold query's counters come
    out exactly as a serial cold run's while concurrent queries keep
    their warm hits.
    """

    __slots__ = ("counters", "last_physical", "cold_seen", "__weakref__")

    def __init__(self) -> None:
        self.counters = IoCounters()
        self.last_physical: int | None = None
        self.cold_seen: set[CacheKey] | None = None


class BufferPool:
    """LRU page cache with physical/logical read accounting.

    Thread-safe: :meth:`fetch`, :meth:`clear` and
    :meth:`reset_counters` are serialized on an internal lock, so
    concurrent sessions (the :mod:`repro.server` connection threads)
    never corrupt the LRU structure and the counter invariant
    ``physical == sequential + random <= logical`` always holds.

    Accounting is kept at two scopes.  The *global* counters
    (:meth:`snapshot_counters`) aggregate every access by every thread
    — the server-level view.  The *per-thread* counters
    (:meth:`snapshot_thread_counters`) accumulate only the calling
    thread's accesses, so a query executing on one thread can
    diff them around its scan and get exact per-query IO even while
    other queries run concurrently.  Sequential/random classification
    is per-scope: global counters judge a read against the previous
    physical read by *anyone* (the disk-arm view), thread counters
    against the thread's own previous read (the per-stream read-ahead
    view, which is what a query's own metrics should reflect).

    Args:
        pagefile: The page address space to serve.
        capacity_pages: Cache size; ``None`` means unbounded (everything
            stays hot after first touch, like a server with more RAM
            than data).
    """

    def __init__(self, pagefile: PageFile,
                 capacity_pages: int | None = None) -> None:
        self._pagefile = pagefile
        self._capacity = capacity_pages
        self._cached: OrderedDict[CacheKey, None] = OrderedDict()
        self.counters = IoCounters()
        self._last_physical: int | None = None
        self._lock = lockcheck.tracked_lock("pool", reentrant=True)
        self._thread = threading.local()
        # Every live thread's IO state, so a cache clear can reset
        # *all* threads' sequential-stream positions, not just the
        # clearing thread's.  Weak: states die with their threads.
        # Mutated and iterated only under the lock (WeakSet is not
        # thread-safe).
        self._thread_states: "weakref.WeakSet[_ThreadIoState]" = \
            weakref.WeakSet()

    def __getstate__(self) -> dict[str, Any]:
        """Pickle everything but the locks, cache contents and
        accounting state (used by :meth:`Database.save` snapshots).
        The unpickled pool starts *cold* — empty cache, zero counters
        — so a process opening a snapshot charges its reads exactly
        like a freshly started server would."""
        state = self.__dict__.copy()
        state["_lock"] = None
        state["_thread"] = None
        state["_thread_states"] = None
        state["_cached"] = OrderedDict()
        state["counters"] = IoCounters()
        state["_last_physical"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = lockcheck.tracked_lock("pool", reentrant=True)
        self._thread = threading.local()
        self._thread_states = weakref.WeakSet()

    def _thread_state(self) -> "_ThreadIoState":
        state: _ThreadIoState | None = getattr(self._thread, "state",
                                                None)
        if state is None:
            state = _ThreadIoState()
            with self._lock:
                self._thread_states.add(state)
            self._thread.state = state
        return state

    @property
    def pagefile(self) -> PageFile:
        return self._pagefile

    @property
    def cached_pages(self) -> int:
        return len(self._cached)

    @staticmethod
    def _key_for(page: Page) -> CacheKey:
        """Cache key of a page object: plain id for never-versioned
        pages, ``(id, pv)`` for pages a
        copy-on-write writer has stamped — distinct versions of one
        page id are distinct cache residents."""
        return page.page_id if page.pv == 0 else (page.page_id, page.pv)

    def _charge(self, accesses: Iterable[tuple[CacheKey, int]]) -> None:
        """Account a run of accesses, each a ``(cache key, page id)``
        pair (classification uses the page id) — the one place a read
        is classified.  Per access, in order: cold view, LRU touch or
        miss, stream classification in both scopes, eviction; the
        counters and stream positions are written back once, under the
        same single lock acquisition."""
        mine = self._thread_state()
        with self._lock:
            cached = self._cached
            cold = mine.cold_seen
            capacity = self._capacity
            last, my_last = self._last_physical, mine.last_physical
            logical = physical = sequential = my_sequential = 0
            for key, page_id in accesses:
                logical += 1
                if cold is not None and key not in cold:
                    cold.add(key)  # first touch in a cold view: a miss
                elif key in cached:
                    cached.move_to_end(key)
                    continue
                physical += 1
                # Short forward jumps ride the read-ahead/elevator
                # stream (skipping another object's extent costs no
                # seek); backward or long jumps are seeks.
                if last is not None and \
                        0 < page_id - last <= SEQ_READ_WINDOW:
                    sequential += 1
                if my_last is not None and \
                        0 < page_id - my_last <= SEQ_READ_WINDOW:
                    my_sequential += 1
                last = my_last = page_id
                cached[key] = None
                cached.move_to_end(key)
                if capacity is not None and len(cached) > capacity:
                    cached.popitem(last=False)
            everyone, me = self.counters, mine.counters
            everyone.logical_reads += logical
            me.logical_reads += logical
            if physical:
                self._last_physical, mine.last_physical = last, my_last
                everyone.physical_reads += physical
                everyone.sequential_reads += sequential
                everyone.random_reads += physical - sequential
                me.physical_reads += physical
                me.sequential_reads += my_sequential
                me.random_reads += physical - my_sequential

    def fetch(self, page_id: int) -> Page:
        """Fetch a page, counting the access.

        Returns the page object; whether the fetch was physical is
        visible in :attr:`counters` (and in the calling thread's
        counters, see :meth:`snapshot_thread_counters`).  The page is
        looked up before it is charged, so a bad id raises with the
        accounting untouched.
        """
        page = self._pagefile.get(page_id)
        self._charge(((page_id, page_id),))
        return page

    def fetch_many(self, page_ids: Iterable[int]) -> list[Page]:
        """Fetch a run of pages under a single lock acquisition.

        Classifies and charges each page id exactly as a sequence of
        :meth:`fetch` calls would — same logical/physical counts, same
        sequential/random classification at both the global and the
        per-thread scope — but takes the lock once for the whole run;
        a bad id anywhere in the run raises before anything is charged.
        """
        ids = list(page_ids)
        get = self._pagefile.get
        pages = [get(page_id) for page_id in ids]
        self._charge(zip(ids, ids))
        return pages

    def fetch_page(self, page: Page) -> Page:
        """Charge one access to an already-resolved page object.

        The MVCC read path resolves pages against a pinned version
        *before* charging (``PageFile.resolve``), so the pool cannot
        look them up by id; it charges the resolved object under its
        version-aware cache key instead.
        """
        self._charge(((self._key_for(page), page.page_id),))
        return page

    def fetch_pages(self, pages: Iterable[Page]) -> list[Page]:
        """Charge a run of resolved page objects under one lock
        acquisition — :meth:`fetch_many` for the MVCC read path (the
        pin-batch API of the vectorized scan: a leaf run of N pages
        costs one lock round-trip instead of N)."""
        run = list(pages)
        key_for = self._key_for
        self._charge([(key_for(page), page.page_id) for page in run])
        return run

    # -- cold views (MVCC cold queries) ---------------------------------------

    def begin_cold_view(self) -> None:
        """Enter a per-thread cold view: until :meth:`end_cold_view`,
        the calling thread's first touch of every cache key is charged
        as a physical read (in both counter scopes, entering the
        physical log) *without* evicting the shared cache.

        This replaces :meth:`clear` for MVCC cold queries: the thread's
        own counters come out exactly as a serial post-clear run's —
        same misses, same sequential/random classification against the
        reset stream position — while concurrent warm queries keep
        their hits instead of eating the re-fetch charge (the wart the
        :meth:`clear` docstring describes).
        """
        mine = self._thread_state()
        with self._lock:
            mine.cold_seen = set()
            mine.last_physical = None
            self._last_physical = None

    def end_cold_view(self) -> None:
        """Leave the cold view; subsequent accesses are charged
        normally against the real cache."""
        mine = self._thread_state()
        with self._lock:
            mine.cold_seen = None

    def discard_keys(self, keys: Iterable[CacheKey]) -> None:
        """Evict specific cache keys — version retirement drops the
        ``(page_id, pv)`` residents of dead page versions, and every
        key of a freed page, so the cache never leaks retired versions
        and a reused page id is never a false hit."""
        with self._lock:
            for key in keys:
                self._cached.pop(key, None)

    def clear(self) -> None:
        """Drop every cached page — the paper's explicit cache clear
        before each performance run (DBCC DROPCLEANBUFFERS).

        Note this evicts pages *other* threads' scans are mid-way
        through; their subsequent fetches become physical reads.  A
        ``cold`` query issued concurrently with others therefore
        perturbs their physical-read counts (the counts stay accurate —
        the evictions are real — but cold-cache isolation as in the
        paper's runs needs concurrency 1).

        Every thread's sequential-stream position is reset, not just
        the calling thread's: after the clear, *anyone's* next physical
        read starts a new stream (it cannot ride a read-ahead window
        opened against the pre-clear cache), so classifying it as
        sequential against a pre-clear page would be a lie.
        """
        with self._lock:
            self._cached.clear()
            self._last_physical = None
            for state in self._thread_states:
                state.last_physical = None

    def snapshot_counters(self) -> IoCounters:
        """Consistent copy of the global counters (taken under the
        lock, so a concurrent fetch can never be seen half-applied)."""
        with self._lock:
            return self.counters.snapshot()

    def snapshot_thread_counters(self) -> IoCounters:
        """Copy of the *calling thread's* counters.

        Diffing two of these around a query isolates that query's IO
        even with other threads fetching concurrently — the global
        counters would attribute everyone's reads to everyone.
        """
        mine = self._thread_state()
        with self._lock:
            return mine.counters.snapshot()

    def reset_counters(self) -> IoCounters:
        """Zero the global counters, returning the values they had.

        Per-thread counters are unaffected (they are monotonic and
        only ever consumed as deltas), but every thread's
        sequential-stream position restarts — the same all-threads
        reset :meth:`clear` does, so post-reset classification never
        chains onto a pre-reset read."""
        with self._lock:
            old = self.counters
            self.counters = IoCounters()
            self._last_physical = None
            for state in self._thread_states:
                state.last_physical = None
            return old
