"""B+tree over slotted pages: the clustered index structure.

SQL Server stores a clustered table as a B+tree whose leaf level *is*
the data.  This implementation does the same over
:class:`~repro.engine.page.Page` objects: leaves hold ``(key, payload)``
records and are chained with sibling links for ordered scans; internal
levels hold ``(separator_key, child_page_id)`` records.  Inserts split
full pages and grow the tree upward, so arbitrary insert orders work,
while the common bulk-load path (ascending keys) naturally produces the
right-packed tree a clustered index scan reads sequentially.

Reads go through the buffer pool so queries are charged for the pages
they touch; writes go straight to the page file (the paper's evaluation
measures read scans, not load time).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, count
from operator import le
from typing import Iterator, Sequence

from .bufferpool import BufferPool
from .constants import PAGE_BODY_SIZE, PAGE_INDEX, SLOT_SIZE
from .page import Page, PageFile, PageFullError

__all__ = ["BTree", "BTreeReader", "DuplicateKeyError"]

_KEY_STRUCT = struct.Struct("<q")
_CHILD_STRUCT = struct.Struct("<qi")


def _descend_slot(page: Page, key: int) -> int:
    """Child slot to follow in an internal page: the rightmost record
    past slot 0 whose separator key is <= ``key`` (slot 0 if none).
    Slot 0 takes everything below slot 1 whatever its own separator
    says: once the leaf to its left is unlinked it holds smaller keys
    too, and a split of it then files a separator *below* slot 0's."""
    lo, hi = 1, page.slot_count - 1
    best = 0
    while lo <= hi:
        mid = (lo + hi) // 2
        sep, _child = _child_fields(page.get_record(mid))
        if sep <= key:
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def _leaf_slot(page: Page, key: int, lo: int = 0) -> tuple[int, bool]:
    """Binary search a leaf from slot ``lo`` on: ``(slot, found)``
    where slot is the insertion position when not found."""
    hi = page.slot_count
    while lo < hi:
        mid = (lo + hi) // 2
        k = _leaf_key(page.get_record(mid))
        if k < key:
            lo = mid + 1
        elif k > key:
            hi = mid
        else:
            return mid, True
    return lo, False


def _victim_slots(page: Page, victims: list[int]) -> list[list[int]]:
    """Slot runs ``[start, stop)`` of ``page`` holding keys of the
    ascending ``victims``.  Consecutive integers are settled by two end
    slots: if slot ``start`` holds ``lo`` and slot ``stop - 1`` holds
    ``lo + stop - 1 - start``, the distinct ascending keys between are
    every integer in between.  Other victims are looked up one by
    one, adjacent slots merged."""
    first, last = victims[0], victims[-1]
    filled = page.slot_count
    if filled and last - first == len(victims) - 1:
        head = _leaf_key(page.get_record(0))
        lo, start, found = first, 0, True
        if first <= head:
            lo = head
        else:
            start, found = _leaf_slot(page, first)
        stop = min(start + last - lo + 1, filled)
        if stop <= start:
            return []
        if found and _leaf_key(page.get_record(stop - 1)) == \
                lo + stop - 1 - start:
            return [[start, stop]]
    runs: list[list[int]] = []
    slot = 0
    for key in victims:
        # Keys next to each other usually sit in neighbouring slots:
        # look there before searching.
        if slot >= filled or _leaf_key(page.get_record(slot)) != key:
            slot, found = _leaf_slot(page, key, slot)
            if not found:
                continue
        if runs and runs[-1][1] == slot:
            runs[-1][1] = slot + 1
        else:
            runs.append([slot, slot + 1])
        slot += 1
    return runs


class DuplicateKeyError(Exception):
    """Raised on inserting a key that already exists (clustered primary
    keys are unique)."""


def leaf_record(key: int, payload: bytes) -> bytes:
    """The leaf record of ``(key, payload)``: 8 key bytes, then the
    payload."""
    return _KEY_STRUCT.pack(key) + payload


def _run_sizes(records: Sequence[bytes]) -> list[int]:
    """Prefix sums of the records' bytes with their slots: records
    ``[i, j)`` take ``sizes[j] - sizes[i]`` bytes of a page."""
    return list(accumulate(map(SLOT_SIZE.__add__, map(len, records)),
                           initial=0))


def _fitting(sizes: list[int], i: int, room: int) -> int:
    """End of the longest run of records from ``i`` that fits in
    ``room`` free bytes (``i`` when not even one does)."""
    return bisect_right(sizes, sizes[i] + room, i) - 1


def _descents(keys: Sequence[int]) -> list[int]:
    """Positions where a key is not above the one before it, then
    ``len(keys)``: each ascending run of ``keys`` ends at the next
    one."""
    drops = list(compress(count(1), map(le, keys[1:], keys)))
    drops.append(len(keys))
    return drops


def _leaf_key(record: bytes) -> int:
    """The key of a leaf record — or the separator of a child record,
    whose first 8 bytes it is too."""
    return _KEY_STRUCT.unpack_from(record)[0]


def _leaf_payload(record: bytes) -> bytes:
    return record[_KEY_STRUCT.size:]


def _child_record(key: int, child: int) -> bytes:
    return _CHILD_STRUCT.pack(key, child)


def _child_fields(record: bytes) -> tuple[int, int]:
    return _CHILD_STRUCT.unpack(record)


class BTree:
    """A B+tree keyed by signed 64-bit integers with byte payloads.

    Args:
        pagefile: Page space to allocate from.
        leaf_kind: Page kind tag for leaf pages (data pages for a
            clustered index, blob pages for a blob tree).
    """

    def __init__(self, pagefile: PageFile, leaf_kind: int,
                 tag: str | None = None):
        self._pagefile = pagefile
        self._leaf_kind = leaf_kind
        self._tag = tag
        root = pagefile.allocate(leaf_kind, level=0, tag=tag)
        self._root_id = root.page_id
        self._height = 1
        self._count = 0
        # Copy-on-write state: while a version is open via
        # :meth:`begin_write`, every page obtained through :meth:`_wget`
        # is cloned at that version before mutation and the superseded
        # page ids are logged for retirement bookkeeping.
        self._wv: int | None = None
        self._cow: set[int] = set()

    # -- copy-on-write plumbing (MVCC) ---------------------------------------

    def begin_write(self, version: int) -> None:
        """Open a copy-on-write scope: until :meth:`end_write`, pages
        touched by mutators are cloned at ``version`` (stable ids, new
        ``pv``) so concurrent readers pinned at older versions keep
        resolving the superseded pages."""
        self._wv = version
        self._cow = set()

    def end_write(self) -> set[int]:
        """Close the copy-on-write scope; returns the page ids that
        gained a history entry during it (the owning table tracks them
        for version retirement)."""
        pids, self._cow = self._cow, set()
        self._wv = None
        return pids

    def _wget(self, page_id: int) -> Page:
        """A page for mutation: the current page outside a write scope
        (in place: standalone trees and an index's backfill), its
        version-``_wv`` clone inside one."""
        if self._wv is None:
            return self._pagefile.get(page_id)
        page, cloned = self._pagefile.get_for_write(page_id, self._wv)
        if cloned:
            self._cow.add(page_id)
        return page

    def _alloc(self, kind: int, level: int = 0) -> Page:
        """Allocate a page stamped with the open write version (0
        outside a write scope)."""
        return self._pagefile.allocate(kind, level, tag=self._tag,
                                       pv=self._wv or 0)

    # -- introspection ------------------------------------------------------

    @property
    def root_page_id(self) -> int:
        return self._root_id

    @property
    def height(self) -> int:
        """Number of levels, leaves included."""
        return self._height

    @property
    def count(self) -> int:
        """Number of stored records."""
        return self._count

    def leaf_page_ids(self) -> list[int]:
        """Leaf page ids in key order (the current pages: every version
        is below 2**63)."""
        return BTreeReader(self._pagefile, 2 ** 63, self._root_id,
                           self._height, self._count).leaf_page_ids()

    # -- search ------------------------------------------------------------

    def _find_leaf(self, key: int, pool: BufferPool | None) -> Page:
        get = pool.fetch if pool is not None else self._pagefile.get
        page = get(self._root_id)
        while page.level > 0:
            slot = _descend_slot(page, key)
            _sep, child = _child_fields(page.get_record(slot))
            page = get(child)
        return page

    def search(self, key: int, pool: BufferPool | None = None
               ) -> bytes | None:
        """Point lookup; returns the payload or ``None``.

        Pass a buffer pool to have the traversal's page touches counted.
        """
        leaf = self._find_leaf(key, pool)
        slot, found = _leaf_slot(leaf, key)
        if not found:
            return None
        return _leaf_payload(leaf.get_record(slot))

    def scan(self, pool: BufferPool | None = None,
             start: int | None = None, stop: int | None = None
             ) -> Iterator[tuple[int, bytes]]:
        """Ordered scan of ``(key, payload)`` pairs in ``[start, stop)``.

        With a buffer pool, every visited leaf (and the descent to the
        first one) is counted — the clustered index scan of Table 1.
        """
        get = pool.fetch if pool is not None else self._pagefile.get
        if start is None:
            page = get(self._root_id)
            while page.level > 0:
                _sep, child = _child_fields(page.get_record(0))
                page = get(child)
            slot = 0
        else:
            page = self._find_leaf(start, pool)
            slot, _found = _leaf_slot(page, start)
        while True:
            while slot < page.slot_count:
                record = page.get_record(slot)
                key = _leaf_key(record)
                if stop is not None and key >= stop:
                    return
                yield key, _leaf_payload(record)
                slot += 1
            if page.next_page < 0:
                return
            page = get(page.next_page)
            slot = 0

    def scan_leaf_batches(self, pool: BufferPool | None = None,
                          start: int | None = None,
                          batch_pages: int = 64) -> Iterator[list[Page]]:
        """Yield runs of up to ``batch_pages`` leaf pages in key order.

        Charges exactly the page touches :meth:`scan` would: the descent
        to the first leaf page by page, then every leaf once, in sibling
        chain order.  Leaves after the first of each run are charged
        through :meth:`BufferPool.fetch_many` — one lock acquisition per
        run instead of one per page — so the logical/physical counters
        (and their sequential/random classification) come out identical
        to a row-at-a-time scan of the same tree.
        """
        get = pool.fetch if pool is not None else self._pagefile.get
        if start is None:
            page = get(self._root_id)
            while page.level > 0:
                _sep, child = _child_fields(page.get_record(0))
                page = get(child)
        else:
            page = self._find_leaf(start, pool)
        lookup = self._pagefile.get
        while True:
            batch = [page]
            while len(batch) < batch_pages and page.next_page >= 0:
                # Follow the sibling link through the page file; the
                # pool charge for the whole run lands in fetch_many.
                page = lookup(page.next_page)
                batch.append(page)
            if pool is not None and len(batch) > 1:
                pool.fetch_many([p.page_id for p in batch[1:]])
            yield batch
            if page.next_page < 0:
                return
            page = get(page.next_page)

    # -- insert ------------------------------------------------------------

    def bulk_load(self, keys: Sequence[int],
                  records: Sequence[bytes]) -> int:
        """Load leaf ``records`` (key bytes first, then the payload;
        see :func:`leaf_record`) with strictly ascending ``keys`` into
        an empty tree, packing pages bottom-up: each leaf takes the
        longest run of records that fits it, in one body append.

        Produces the same page layout the incremental :meth:`insert`
        path yields for ascending keys (split-right packs pages full),
        but without re-descending the tree per record, and with leaf
        pages allocated contiguously — the layout a clustered index
        scan reads sequentially.

        Returns the number of records loaded.

        Raises:
            ValueError: if the tree is not empty or keys are not
                strictly ascending (nothing is loaded).
            PageFullError: for a record no page can hold.
        """
        if self._count != 0:
            raise ValueError("bulk_load requires an empty tree")
        page = self._wget(self._root_id)
        if page.level != 0 or page.slot_count != 0:
            raise ValueError("bulk_load requires an empty tree")
        if _descents(keys) != [len(keys)]:
            raise ValueError("bulk_load requires strictly ascending keys")
        if not keys:
            return 0
        nodes = self._pack(page, keys, records)
        while len(nodes) > 1:
            nodes = self._pack(
                self._alloc(PAGE_INDEX, level=page.level + 1),
                [key for key, _child in nodes],
                [_child_record(key, child) for key, child in nodes])
            page = self._pagefile.get(nodes[0][1])
        self._root_id = nodes[0][1]
        self._height = page.level + 1
        self._count = len(keys)
        return len(keys)

    def _pack(self, page: Page, keys: Sequence[int],
              records: Sequence[bytes]) -> list[tuple[int, int]]:
        """Fill ``page``, then fresh pages of its kind and level (leaves
        chained as siblings), with ``records`` in order, each page
        taking the longest run that fits it; returns ``(first key,
        page id)`` of every page."""
        sizes = _run_sizes(records)
        nodes = []
        i = 0
        while True:
            end = _fitting(sizes, i, page.free_bytes)
            if end == i:  # not one record fits a fresh page
                raise PageFullError(f"record {keys[i]} fits no page")
            page.add_records(records[i:end])
            nodes.append((keys[i], page.page_id))
            if end == len(records):
                return nodes
            new_page = self._alloc(page.kind, level=page.level)
            if page.level == 0:
                new_page.prev_page = page.page_id
                page.next_page = new_page.page_id
            page, i = new_page, end

    def insert(self, key: int, payload: bytes) -> None:
        """Insert a record, splitting pages as needed.

        Raises:
            DuplicateKeyError: if ``key`` is already present.
        """
        self._insert_record(key, leaf_record(key, payload))

    def _insert_record(self, key: int, record: bytes) -> None:
        split = self._insert_into(self._wget(self._root_id), key, record)
        if split is not None:
            sep_key, new_page_id = split
            old_root = self._pagefile.get(self._root_id)
            new_root = self._alloc(PAGE_INDEX, level=old_root.level + 1)
            first_key = self._smallest_key(old_root)
            new_root.add_record(_child_record(first_key, old_root.page_id))
            new_root.add_record(_child_record(sep_key, new_page_id))
            self._root_id = new_root.page_id
            self._height += 1
        self._count += 1

    def _descend(self, key: int
                 ) -> tuple[Page, list[tuple[Page, int]], int | None]:
        """Walk from the root to the leaf ``key`` belongs to, cloning
        nothing: ``(leaf, path, fence)``.  ``path`` lists the
        ``(internal page, child slot)`` steps taken; ``fence`` is the
        smallest separator met to the right of them (``None`` on the
        tree's right edge) — every key from ``key`` up to the fence
        descends to this same leaf."""
        path: list[tuple[Page, int]] = []
        fence: int | None = None
        page = self._pagefile.get(self._root_id)
        while page.level > 0:
            slot = _descend_slot(page, key)
            path.append((page, slot))
            if slot + 1 < page.slot_count:
                sep, _child = _child_fields(page.get_record(slot + 1))
                if fence is None or sep < fence:
                    fence = sep
            _sep, child = _child_fields(page.get_record(slot))
            page = self._pagefile.get(child)
        return page, path, fence

    def insert_many(self, keys: Sequence[int],
                    records: Sequence[bytes]) -> None:
        """Insert leaf ``records`` (see :func:`leaf_record`) under
        ``keys``, descending once per *leaf*: the ascending run of keys
        past the leaf's last one that stays below its upper fence and
        fits its free space goes in with one body append, a key inside
        the leaf's range into its slot, a record that does not fit
        through the splitting insert (after which, as after any key
        outside the leaf's interval, the next key descends afresh).
        Records land exactly where per-key :meth:`insert` calls would
        put them (same slots, same splits, same pages).

        Raises:
            DuplicateKeyError: at the first key already present; the
                records before it stay inserted (and counted).
        """
        n = len(keys)
        sizes = _run_sizes(records)
        descents = _descents(keys)  # where each ascending run ends
        leaf: Page | None = None
        low = 0  # ``leaf`` takes keys in ``[low, fence)``
        fence: int | None = None
        last: int | None = None  # largest key in ``leaf``
        i = 0
        while i < n:
            key = keys[i]
            if leaf is None or key < low or (
                    fence is not None and key >= fence):
                page, _path, fence = self._descend(key)
                leaf = self._wget(page.page_id)
                low = key
                last = (_leaf_key(leaf.get_record(leaf.slot_count - 1))
                        if leaf.slot_count else None)
            if last is None or key > last:
                end = descents[bisect_right(descents, i)]
                if fence is not None:
                    end = bisect_left(keys, fence, i, end)
                end = min(end, _fitting(sizes, i, leaf.free_bytes))
                if end > i:
                    leaf.add_records(records[i:end])
                    self._count += end - i
                    last, i = keys[end - 1], end
                    continue
            else:
                slot, found = _leaf_slot(leaf, key)
                if found:
                    raise DuplicateKeyError(f"key {key} already exists")
                if leaf.fits(len(records[i])):
                    leaf.insert_record(slot, records[i])
                    self._count += 1
                    i += 1
                    continue
            self._insert_record(key, records[i])
            leaf = None  # the split moved the fences
            i += 1

    def _smallest_key(self, page: Page) -> int:
        while page.level > 0:
            _sep, child = _child_fields(page.get_record(0))
            page = self._pagefile.get(child)
        return _leaf_key(page.get_record(0))

    def _insert_into(self, page: Page, key: int, record: bytes
                     ) -> tuple[int, int] | None:
        """Recursive insert of a leaf record; returns ``(separator,
        new_page_id)`` when this page split, else ``None``."""
        if page.level == 0:
            slot, found = _leaf_slot(page, key)
            if found:
                raise DuplicateKeyError(f"key {key} already exists")
            if page.fits(len(record)):
                page.insert_record(slot, record)
                return None
            return self._split(page, slot, record)

        slot = _descend_slot(page, key)
        _sep, child_id = _child_fields(page.get_record(slot))
        split = self._insert_into(self._wget(child_id), key, record)
        if split is None:
            return None
        sep_key, new_child = split
        record = _child_record(sep_key, new_child)
        if page.fits(len(record)):
            page.insert_record(slot + 1, record)
            return None
        return self._split(page, slot + 1, record)

    def _split(self, page: Page, slot: int, record: bytes
               ) -> tuple[int, int]:
        """Split a full ``page`` as ``record`` goes in at ``slot``: the
        records from the middle on move to a new page of the same kind
        and level; returns ``(separator, new_page_id)``.  A half no page
        holds raises before anything changes.

        Ascending-key loads split "to the right": the old page keeps
        everything and only the new record moves, so bulk loads in key
        order produce full pages (as SQL Server does for monotonically
        increasing clustered keys); a garbage-free old page is not even
        rebuilt, since that would leave it byte for byte as it is."""
        left = None
        right = [record]
        if slot < page.slot_count or page._dense <= 0:
            records = list(page.records())
            records.insert(slot, record)
            mid = (len(records) - 1 if slot == len(records) - 1
                   else len(records) // 2)
            left, right = records[:mid], records[mid:]
        for half in (left or (), right):
            if (size := _run_sizes(half)[-1]) > PAGE_BODY_SIZE:
                raise PageFullError(f"a split of page {page.page_id} "
                                    f"leaves {size} bytes on one side")
        new_page = self._alloc(page.kind, level=page.level)
        if left is not None:
            page.take_all_records()
            page.add_records(left)
        new_page.add_records(right)
        if page.level == 0:
            new_page.next_page = page.next_page
            new_page.prev_page = page.page_id
            if page.next_page >= 0:
                # The right neighbour's back link changes too, so it is
                # cloned as well under copy-on-write.
                self._wget(page.next_page).prev_page = new_page.page_id
            page.next_page = new_page.page_id
        return _leaf_key(right[0]), new_page.page_id

    def delete(self, key: int) -> bool:
        """Delete a record by key; returns whether it existed (the
        one-key call of :meth:`delete_many`)."""
        return self.delete_many((key,)) == 1

    def delete_many(self, keys) -> int:
        """Delete the records of ``keys`` (any order; repeats and
        absent keys are skipped); returns how many existed.

        Descends once per leaf: the keys below the leaf's upper fence
        are all its victims.  When they are consecutive integers the
        leaf's slots from the first of them are checked by the two end
        slots alone; other victims are looked up key by key.  Victims
        in adjacent slots leave as one slot slice, and only a leaf that
        loses a record — and the parents of one that empties — is
        cloned under copy-on-write.

        Pages are never merged (like SQL Server's ghost-record
        deletes, space is reclaimed by rewrites); an emptied leaf is
        unlinked from the sibling chain and its parent entry removed,
        so scans stay correct.
        """
        keys = sorted(set(keys))
        deleted = 0
        i = 0
        while i < len(keys):
            page, path, fence = self._descend(keys[i])
            end = len(keys) if fence is None else bisect_left(
                keys, fence, i)
            runs = _victim_slots(page, keys[i:end])
            i = end
            if not runs:
                continue
            leaf = self._wget(page.page_id)
            for start, stop in reversed(runs):
                leaf.delete_records(start, stop)
                self._count -= stop - start
                deleted += stop - start
            if leaf.slot_count == 0 and path:
                self._unlink_leaf(leaf, path)
        return deleted

    def _unlink_leaf(self, leaf: Page,
                     path: list[tuple[Page, int]]) -> None:
        """Remove an empty leaf from the sibling chain and the tree."""
        if leaf.prev_page >= 0:
            self._wget(leaf.prev_page).next_page = leaf.next_page
        if leaf.next_page >= 0:
            self._wget(leaf.next_page).prev_page = leaf.prev_page
        leaf.prev_page = leaf.next_page = -1
        # Remove the parent entries bottom-up while pages empty out.
        for parent, slot in reversed(path):
            parent = self._wget(parent.page_id)
            parent.delete_record(slot)
            if parent.slot_count > 0:
                return
        # The root itself ran out of children: collapse to a fresh
        # empty leaf-rooted tree.
        root = self._alloc(self._leaf_kind, level=0)
        self._root_id = root.page_id
        self._height = 1

    def update(self, key: int, payload: bytes) -> bool:
        """Replace the payload of an existing key in place; returns
        whether the key existed.

        If the new record does not fit the page, it is deleted and
        re-inserted (a row-forwarding rewrite).
        """
        leaf = self._wget(self._find_leaf(key, None).page_id)
        slot, found = _leaf_slot(leaf, key)
        if not found:
            return False
        record = leaf_record(key, payload)
        try:
            leaf.replace_record(slot, record)
            leaf.compact()
        except PageFullError:
            self.delete(key)
            self.insert(key, payload)
        return True


class BTreeReader:
    """Latch-free read view of a B+tree frozen at one table version.

    Constructed from a pinned snapshot's ``(version, root_id, height,
    count)``; every page is resolved against that version — the current
    page when old enough, else the copy-on-write history
    (:meth:`PageFile.resolve`) — and charged to the pool under the
    version-aware cache key (:meth:`BufferPool.fetch_page`; a leaf run
    as one :meth:`BufferPool.fetch_pages` charge).  Because
    copy-on-write keeps superseded pages reachable while the version is
    pinned, no latch is needed for the traversal: a concurrent writer
    mutates clones, never the pages this view resolves.

    Mirrors the read API of :class:`BTree` (``search``/``scan``/
    ``leaf_page_ids``/``scan_leaf_batches``) so the executor's scan and
    point paths take either interchangeably.
    """

    def __init__(self, pagefile: PageFile, version: int, root_id: int,
                 height: int, count: int):
        self._pagefile = pagefile
        self.version = version
        self._root_id = root_id
        self._height = height
        self._count = count

    @property
    def root_page_id(self) -> int:
        return self._root_id

    @property
    def height(self) -> int:
        return self._height

    @property
    def count(self) -> int:
        return self._count

    def _get(self, page_id: int) -> Page:
        return self._pagefile.resolve(page_id, self.version)

    def _getter(self, pool: BufferPool | None):
        if pool is None:
            return self._get
        resolve = self._pagefile.resolve
        version = self.version
        fetch_page = pool.fetch_page
        return lambda pid: fetch_page(resolve(pid, version))

    def _find_leaf(self, key: int, pool: BufferPool | None) -> Page:
        get = self._getter(pool)
        page = get(self._root_id)
        while page.level > 0:
            slot = _descend_slot(page, key)
            _sep, child = _child_fields(page.get_record(slot))
            page = get(child)
        return page

    def search(self, key: int, pool: BufferPool | None = None
               ) -> bytes | None:
        """Point lookup at the pinned version; see :meth:`BTree.search`."""
        leaf = self._find_leaf(key, pool)
        slot, found = _leaf_slot(leaf, key)
        if not found:
            return None
        return _leaf_payload(leaf.get_record(slot))

    def scan(self, pool: BufferPool | None = None,
             start: int | None = None, stop: int | None = None
             ) -> Iterator[tuple[int, bytes]]:
        """Ordered scan at the pinned version; page touches are charged
        exactly as :meth:`BTree.scan` charges them."""
        get = self._getter(pool)
        if start is None:
            page = get(self._root_id)
            while page.level > 0:
                _sep, child = _child_fields(page.get_record(0))
                page = get(child)
            slot = 0
        else:
            page = self._find_leaf(start, pool)
            slot, _found = _leaf_slot(page, start)
        while True:
            while slot < page.slot_count:
                record = page.get_record(slot)
                key = _leaf_key(record)
                if stop is not None and key >= stop:
                    return
                yield key, _leaf_payload(record)
                slot += 1
            if page.next_page < 0:
                return
            page = get(page.next_page)
            slot = 0

    def leaf_page_ids(self) -> list[int]:
        """Leaf page ids in key order, as of the pinned version."""
        page = self._get(self._root_id)
        while page.level > 0:
            first_child = _child_fields(page.get_record(0))[1]
            page = self._get(first_child)
        ids = []
        while page is not None:
            ids.append(page.page_id)
            page = (self._get(page.next_page)
                    if page.next_page >= 0 else None)
        return ids

    def charge_scan_descent(self, pool: BufferPool) -> list[int]:
        """Charge the root-to-first-leaf descent exactly as a scan
        would, returning the page ids touched in order."""
        touched = []
        page = pool.fetch_page(self._get(self._root_id))
        touched.append(page.page_id)
        while page.level > 0:
            _sep, child = _child_fields(page.get_record(0))
            page = pool.fetch_page(self._get(child))
            touched.append(page.page_id)
        return touched

    def scan_leaf_batches(self, pool: BufferPool | None = None,
                          start: int | None = None,
                          batch_pages: int = 64,
                          stop: int | None = None
                          ) -> Iterator[list[Page]]:
        """Yield runs of up to ``batch_pages`` leaf pages at the pinned
        version, charging exactly as :meth:`BTree.scan_leaf_batches`
        does (descent page by page, leaves after the first of each run
        through one :meth:`BufferPool.fetch_pages` charge).  Every
        sibling is resolved once, uncharged; the charge lands when it
        joins a run or starts the next one.  With ``stop``, the scan
        ends before the first leaf whose keys all lie at or past it."""
        get = self._getter(pool)
        if start is None:
            page = get(self._root_id)
            while page.level > 0:
                _sep, child = _child_fields(page.get_record(0))
                page = get(child)
        else:
            page = self._find_leaf(start, pool)
        resolve = self._pagefile.resolve
        version = self.version
        while True:
            batch = [page]
            peek = None
            while page.next_page >= 0:
                peek = resolve(page.next_page, version)
                if stop is not None and \
                        _leaf_key(peek.get_record(0)) >= stop:
                    peek = None
                    break
                if len(batch) == batch_pages:
                    break
                batch.append(peek)
                page, peek = peek, None
            if pool is not None and len(batch) > 1:
                pool.fetch_pages(batch[1:])
            yield batch
            if peek is None:
                return
            page = peek if pool is None else pool.fetch_page(peek)
