"""Slotted 8 kB pages and the page file that holds them.

A :class:`Page` is a fixed-size byte buffer with a slot array growing
backwards from the end, exactly like a SQL Server data page: records are
appended to the body and located through 2-byte slot entries, so records
can be variable length and pages report precisely how full they are.

The :class:`PageFile` is the flat page address space ("the database
file"); every page is reachable by id.  All access goes through the
buffer pool (:mod:`repro.engine.bufferpool`) so reads are counted and
charged to the IO model.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from . import lockcheck
from .constants import (
    EXTENT_PAGES,
    PAGE_BODY_SIZE,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
    SLOT_SIZE,
)

__all__ = ["Page", "PageFile", "PageFullError"]

_HEADER_STRUCT = struct.Struct("<IBBHiiH")  # page_id, kind, level,
# slot_count, prev_page, next_page, free_offset


class PageFullError(Exception):
    """Raised when a record does not fit in the page's free space."""


class Page:
    """One fixed-size slotted page.

    Attributes:
        page_id: Address of this page in the page file.
        kind: One of the ``PAGE_*`` tags from
            :mod:`repro.engine.constants`.
        level: B-tree level (0 for leaves and plain data pages).
        prev_page / next_page: Sibling links for leaf-level scans
            (-1 when absent).
        pv: Table version that created this page object (0 for pages
            never touched by an MVCC writer).  The page *id* is stable
            across versions — copy-on-write clones keep the id and bump
            only ``pv`` — so sibling and parent links never need
            cross-page rewrites when a page is versioned.
    """

    __slots__ = ("page_id", "kind", "level", "prev_page", "next_page",
                 "pv", "_body", "_slots", "_dense")

    def __init__(self, page_id: int, kind: int, level: int = 0,
                 pv: int = 0):
        self.page_id = page_id
        self.kind = kind
        self.level = level
        self.prev_page = -1
        self.next_page = -1
        self.pv = pv
        self._body = bytearray()
        self._slots: list[tuple[int, int]] = []  # (offset, length)
        # Dense marker, kept in O(1) by every mutator: the common
        # record length L > 0 when the body is exactly the records in
        # slot order (slot i at offset i*L, no garbage), 0 for an empty
        # page with an empty body, -1 otherwise.  (Dropping a
        # zero-length record leaves no garbage behind, so that one case
        # rescans.)
        self._dense = 0

    def __setstate__(self, state):
        _dict, slots = state
        for name, value in slots.items():
            setattr(self, name, value)
        if "_dense" not in slots:  # pickled before the marker existed
            self._dense = self._scan_dense()

    def _scan_dense(self) -> int:
        """The dense marker recomputed from the slot array and body."""
        if not self._slots:
            return -1 if self._body else 0
        length = self._slots[0][1]
        if length == 0 or len(self._body) != length * len(self._slots):
            return -1
        for i, slot in enumerate(self._slots):
            if slot != (i * length, length):
                return -1
        return length

    def clone(self, pv: int) -> "Page":
        """Copy-on-write twin: same id and content, new version stamp."""
        twin = Page(self.page_id, self.kind, self.level, pv=pv)
        twin.prev_page = self.prev_page
        twin.next_page = self.next_page
        twin._body = bytearray(self._body)
        twin._slots = list(self._slots)
        twin._dense = self._dense
        return twin

    # -- capacity ---------------------------------------------------------

    @property
    def slot_count(self) -> int:
        return len(self._slots)

    @property
    def record_bytes(self) -> int:
        """Bytes of the records themselves (garbage not counted)."""
        if self._dense >= 0:
            return len(self._body)
        return sum(length for _offset, length in self._slots)

    @property
    def used_bytes(self) -> int:
        """Bytes consumed, header and slot array included."""
        return (PAGE_HEADER_SIZE + len(self._body)
                + SLOT_SIZE * len(self._slots))

    @property
    def free_bytes(self) -> int:
        return PAGE_SIZE - self.used_bytes

    def fits(self, record_size: int) -> bool:
        """Whether a record of ``record_size`` bytes fits (with its
        slot entry)."""
        return record_size + SLOT_SIZE <= self.free_bytes

    # -- records ------------------------------------------------------------

    def add_record(self, record: bytes) -> int:
        """Append a record; returns its slot number.

        Raises:
            PageFullError: if the record does not fit.
        """
        self._check_fits(len(record))
        offset = len(self._body)
        self._body += record
        self._slots.append((offset, len(record)))
        self._note_append(len(record))
        return len(self._slots) - 1

    def _check_fits(self, length: int) -> None:
        if length > PAGE_BODY_SIZE:
            raise PageFullError(
                f"record of {length} bytes can never fit a page "
                f"(body is {PAGE_BODY_SIZE} bytes)")
        if not self.fits(length):
            raise PageFullError(
                f"record of {length} bytes does not fit in "
                f"{self.free_bytes} free bytes")

    def add_records(self, records: Sequence[bytes]) -> None:
        """Append a run of records with one body append; the page ends
        up exactly as after :meth:`add_record` on each of them.

        Raises:
            PageFullError: if the run does not fit (nothing is added).
        """
        lengths = [len(record) for record in records]
        need = sum(lengths) + SLOT_SIZE * len(lengths)
        if need > self.free_bytes:
            raise PageFullError(f"records of {need} bytes with their slots "
                                f"do not fit in {self.free_bytes} free bytes")
        offset = len(self._body)
        self._body += b"".join(records)
        self._slots.extend(zip(accumulate(lengths[:-1], initial=offset),
                               lengths))
        if lengths:
            first = lengths[0]
            uniform = first > 0 and lengths.count(first) == len(lengths)
            self._dense = first if uniform and self._dense in (0, first) \
                else -1

    def _note_append(self, length: int) -> None:
        """Update the dense marker for a record that was just appended
        to the body *and* to the end of the slot array."""
        if length == 0:
            self._dense = -1
        elif self._dense == 0:
            self._dense = length
        elif self._dense != length:
            self._dense = -1

    def insert_record(self, slot: int, record: bytes) -> None:
        """Insert a record at a slot position, shifting later slots
        (B-tree pages keep records in key order)."""
        self._check_fits(len(record))
        offset = len(self._body)
        self._body += record
        if slot >= len(self._slots):
            self._note_append(len(record))
        else:  # body order no longer matches slot order
            self._dense = -1
        self._slots.insert(slot, (offset, len(record)))

    def get_record(self, slot: int) -> bytes:
        """Read the record in one slot."""
        offset, length = self._slots[slot]
        return bytes(self._body[offset:offset + length])

    def replace_record(self, slot: int, record: bytes) -> None:
        """Replace the record in a slot (used by B-tree maintenance).

        The old bytes are left as garbage in the body, like a real
        slotted page before compaction; compaction happens implicitly on
        :meth:`split_records`.
        """
        growth = len(record)
        if growth + SLOT_SIZE > self.free_bytes + 0:
            raise PageFullError("replacement record does not fit")
        offset = len(self._body)
        self._body += record
        old_length = self._slots[slot][1]
        self._slots[slot] = (offset, len(record))
        self._dense = -1 if old_length else self._scan_dense()

    def delete_record(self, slot: int) -> None:
        """Remove a slot (bytes become garbage until compaction; the
        last record out takes the garbage with it, so an emptied page
        — B-tree leaves are unlinked, never reused — holds no body)."""
        self.delete_records(slot, slot + 1)

    def delete_records(self, start: int, stop: int) -> None:
        """Remove the run of slots ``[start, stop)`` as one slice of
        the slot array; the page ends up exactly as after
        :meth:`delete_record` on each of them."""
        if not 0 <= start < stop <= len(self._slots):
            raise IndexError(
                f"slots [{start}, {stop}) out of range for a page of "
                f"{len(self._slots)} records")
        garbage = any(length for _offset, length
                      in self._slots[start:stop])
        del self._slots[start:stop]
        if not self._slots:
            self._body = bytearray()
            self._dense = 0
        else:
            self._dense = -1 if garbage else self._scan_dense()

    def records(self) -> Iterator[bytes]:
        """Iterate all records in slot order."""
        for offset, length in self._slots:
            yield bytes(self._body[offset:offset + length])

    def take_all_records(self) -> list[bytes]:
        """Return all records and clear the page (used when splitting)."""
        records = list(self.records())
        self._body = bytearray()
        self._slots = []
        self._dense = 0
        return records

    def compact(self) -> None:
        """Rewrite the body dropping garbage left by replace/delete."""
        self.add_records(self.take_all_records())

    def record_block(self) -> "tuple[int, bytearray | np.ndarray] | None":
        """All records as ``(L, buffer)``: one buffer of ``slot_count *
        L`` bytes holding the records back to back in slot order, or
        ``None`` when the page is empty or its records differ in
        length.

        A dense page (see ``_dense``) hands over its body itself — the
        caller copies out of it (``join``) and keeps no view, since a
        live view would pin the ``bytearray`` against the next insert;
        any other page its :meth:`record_matrix` (already a copy).
        """
        if self._dense > 0:
            return self._dense, self._body
        matrix = self.record_matrix()
        return None if matrix is None else (matrix.shape[1], matrix)

    def record_matrix(self) -> "np.ndarray | None":
        """All records gathered into one ``(slot_count, L)`` ``uint8``
        matrix in slot order — one fancy-index copy, whatever holes or
        out-of-order records the body has — or ``None`` when the page
        is empty or its records differ in length."""
        if not self._slots:
            return None
        slots = np.array(self._slots, dtype=np.intp)
        length = int(slots[0, 1])
        if length == 0 or (slots[:, 1] != length).any():
            return None
        body = np.frombuffer(self._body, dtype=np.uint8)
        return body[slots[:, :1] + np.arange(length)]

    def header_bytes(self) -> bytes:
        """Serialize the page header (for size accounting and tests)."""
        return _HEADER_STRUCT.pack(
            self.page_id, self.kind, self.level, len(self._slots),
            self.prev_page, self.next_page, len(self._body))


class PageFile:
    """The flat page address space of one database.

    Pages are allocated from per-tag *extents*
    (:data:`~repro.engine.constants.EXTENT_PAGES` contiguous pages per
    extent): all pages carrying the same allocation tag — one table's
    B-tree, one blob store — form long contiguous runs even when several
    objects are loaded concurrently, so clustered scans read
    sequentially.  ``page_count * PAGE_SIZE`` is the database size,
    unused extent slack included (as in a real data file).
    """

    def __init__(self):
        self._pages: list[Page | None] = []
        self._extents: dict[str | None, list[int]] = {}
        # Superseded page versions, keyed by page id, ascending ``pv``.
        # Written only by MVCC writers (under their table's exclusive
        # mutate step) and pruned by version retirement; readers resolve
        # against it without any lock — every update replaces the list
        # object wholesale, so a racing reader holding an old list still
        # sees a consistent chain.
        self._history: dict[int, list[Page]] = {}
        # Leaf mutex: extent bookkeeping is shared across tables (and
        # all tables' blobs share one allocation tag), so overlapping
        # writers — legal under per-table latches — must serialize
        # allocation.  Nothing is acquired while it is held.
        self._lock = lockcheck.tracked_lock("pagefile")

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_lock"] = None
        # Snapshots ship only the committed current pages; version
        # history is a live-process structure (pins die with the
        # process, so a worker could never resolve into it anyway).
        state["_history"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = lockcheck.tracked_lock("pagefile")

    @property
    def page_count(self) -> int:
        return len(self._pages)

    @property
    def allocated_page_count(self) -> int:
        """Pages actually holding data (extent slack excluded)."""
        return sum(1 for p in self._pages if p is not None)

    @property
    def total_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE

    def allocate(self, kind: int, level: int = 0,
                 tag: str | None = None, pv: int = 0) -> Page:
        """Allocate a fresh page of the given kind within ``tag``'s
        current extent (a new extent is opened when it fills).
        Thread-safe: concurrent writers on different tables allocate
        under the internal mutex."""
        with self._lock:
            free = self._extents.get(tag)
            if not free:
                start = len(self._pages)
                self._pages.extend([None] * EXTENT_PAGES)
                # Keep ascending order so pages of one tag are read
                # forward.
                free = list(range(start + EXTENT_PAGES - 1, start - 1, -1))
                self._extents[tag] = free
            page_id = free.pop()
            page = Page(page_id, kind, level, pv=pv)
            self._pages[page_id] = page
            return page

    def get(self, page_id: int) -> Page:
        """Fetch a page by id (no IO accounting — use the buffer pool)."""
        page = self._pages[page_id]
        if page is None:
            raise IndexError(f"page {page_id} is unallocated extent slack")
        return page

    # -- copy-on-write versions (MVCC) ----------------------------------------

    def get_for_write(self, page_id: int, version: int
                      ) -> tuple[Page, bool]:
        """Writable page for a mutation publishing ``version``.

        If the current page was already created at ``version`` it is
        returned as-is; otherwise it is cloned (same id, ``pv`` set to
        ``version``), the old page is chained into the version history,
        and the clone is installed as current.  Returns ``(page,
        cloned)``.  The install order — history first, then the clone —
        is what keeps latch-free readers safe: a reader that sees the
        too-new clone is guaranteed to find the superseded page in the
        history already.  Both happen under the mutex, so a concurrent
        :meth:`prune_history` never sees the superseded page in the
        history while it is still current (it would read the entry as
        serving no version and drop the page the tip reads).
        """
        page = self.get(page_id)
        if page.pv == version:
            return page, False
        clone = page.clone(version)
        with self._lock:
            hist = self._history.get(page_id)
            self._history[page_id] = ([*hist, page] if hist else [page])
            self._pages[page_id] = clone
        return clone, True

    def resolve(self, page_id: int, version: int) -> Page:
        """The newest page for ``page_id`` visible at ``version``
        (``page.pv <= version``), walking the version history when the
        current page is too new.  Latch-free: see :meth:`get_for_write`
        for the ordering argument.
        """
        page = self.get(page_id)
        if page.pv <= version:
            return page
        for old in reversed(self._history.get(page_id, ())):
            if old.pv <= version:
                return old
        raise KeyError(
            f"page {page_id} has no version visible at {version} "
            "(pin retired too early?)")

    def history_len(self, page_id: int) -> int:
        """Superseded versions currently retained for one page."""
        return len(self._history.get(page_id, ()))

    def prune_history(self, page_ids, live_versions
                      ) -> list[tuple[int, int]]:
        """Drop history entries no live pinned version can resolve to.

        ``live_versions`` are the owning table's currently pinned
        versions (readers at the published tip resolve to the current
        pages and never need history).  Returns the ``(page_id, pv)``
        pairs dropped, so the buffer pool can evict their cache entries.
        Lists are replaced wholesale, never mutated, so racing readers
        stay consistent.
        """
        live = sorted(live_versions)
        dropped: list[tuple[int, int]] = []
        with self._lock:
            for pid in page_ids:
                hist = self._history.get(pid)
                if not hist:
                    continue
                current = self._pages[pid]
                bounds = [p.pv for p in hist[1:]]
                bounds.append(current.pv if current is not None
                              else hist[-1].pv + 1)
                keep = []
                for page, until in zip(hist, bounds):
                    # The entry serves reads pinned in [page.pv, until).
                    if any(page.pv <= v < until for v in live):
                        keep.append(page)
                    else:
                        dropped.append((pid, page.pv))
                if keep:
                    self._history[pid] = keep
                else:
                    del self._history[pid]
        return dropped
