"""Clustered tables: schema, row codec, insert and scan paths.

A table is a B+tree clustered on a ``bigint`` primary key — the layout
of both evaluation tables in the paper (Section 6.2: "an ID (Int64,
clustered index)").  Rows are encoded with a SQL Server-flavoured
format: a fixed per-row overhead, a null bitmap, packed fixed-width
columns, then variable-width columns with length prefixes.
``VARBINARY(MAX)`` values larger than the in-row limit are replaced by a
16-byte pointer into the out-of-page blob store
(:mod:`repro.engine.blob`).

The size accounting is real — every byte of overhead exists in the
encoded records — which is what lets the storage-overhead benchmark
reproduce the paper's "43 % bigger" observation from first principles.
"""

from __future__ import annotations

import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import lockcheck
from .blob import BlobRef, BlobStore, BlobTreeStream
from .bufferpool import BufferPool
from .btree import _KEY_STRUCT, BTree, BTreeReader, leaf_record
from .constants import (
    MAX_IN_ROW_BYTES,
    PAGE_BODY_SIZE,
    PAGE_DATA,
    ROW_OVERHEAD,
    SLOT_SIZE,
)
from .indexes import IndexReader, SecondaryIndex
from .page import PageFile

__all__ = ["Column", "MaxBlobHandle", "Table", "TableSnapshot",
           "SchemaError"]

#: Sentinel bounds for write intents covering an unbounded key range.
_KEY_MIN = -(2 ** 63)
_KEY_MAX = 2 ** 63


class SchemaError(Exception):
    """Raised for invalid schemas or rows that do not match the schema."""


_FIXED_TYPES = {
    "bigint": struct.Struct("<q"),
    "int": struct.Struct("<i"),
    "smallint": struct.Struct("<h"),
    "tinyint": struct.Struct("<b"),
    "float": struct.Struct("<d"),
    "real": struct.Struct("<f"),
}
_VAR_TYPES = {"varbinary", "varbinary_max"}

#: The longest ``varbinary(max)`` value kept in the row.
_MAX_INLINE = MAX_IN_ROW_BYTES - 64
#: The longest leaf record a page holds (an empty page's body, less the
#: record's slot).
_MAX_RECORD = PAGE_BODY_SIZE - SLOT_SIZE


@dataclass(frozen=True)
class Column:
    """One column of a table schema.

    Attributes:
        name: Column name.
        type: ``bigint``/``int``/``smallint``/``tinyint``/``float``/
            ``real``/``varbinary``/``varbinary_max``.
        cap: Byte capacity for ``varbinary`` (ignored otherwise);
            values above the cap are rejected, like ``VARBINARY(n)``.
    """

    name: str
    type: str
    cap: int = 0

    def __post_init__(self):
        if self.type not in _FIXED_TYPES and self.type not in _VAR_TYPES:
            raise SchemaError(f"unknown column type {self.type!r}")
        if self.type == "varbinary" and not 0 < self.cap <= MAX_IN_ROW_BYTES:
            raise SchemaError(
                f"varbinary cap must be in (0, {MAX_IN_ROW_BYTES}], "
                f"got {self.cap}")


class _TableLayout:
    """Byte offsets of a table's columns inside a leaf record (the
    8 key bytes, then the payload).

    Only meaningful when every record in a batch has the same length
    (no NULL-shortened variable sections), which is when the record
    matrix applies.
    """

    __slots__ = ("bitmap_offset", "fixed", "var", "var_offset")

    def __init__(self, table: "Table"):
        self.bitmap_offset = _KEY_STRUCT.size + ROW_OVERHEAD
        pos = self.bitmap_offset + table._bitmap_bytes
        #: name -> (record offset, null-bitmap slot, little-endian dtype)
        self.fixed: dict[str, tuple[int, int, np.dtype]] = {}
        self.var: list[tuple[str, int, str]] = []
        for i, col in enumerate(table._nonkey):
            packer = _FIXED_TYPES.get(col.type)
            if packer is not None:
                self.fixed[col.name] = (pos, i, np.dtype(packer.format))
                pos += packer.size
            else:
                self.var.append((col.name, i, col.type))
        self.var_offset = pos


def _layout(table: "Table") -> _TableLayout:
    layout = getattr(table, "_vec_layout", None)
    if layout is None:
        layout = _TableLayout(table)
        table._vec_layout = layout
    return layout


@dataclass(frozen=True)
class MaxBlobHandle:
    """Value returned for an out-of-page ``varbinary_max`` cell.

    The blob is *not* materialized on scan; callers either stream it
    (:meth:`open_stream`, the partial-read path) or read it fully
    (:meth:`read_all`).
    """

    store: BlobStore
    ref: BlobRef

    @property
    def length(self) -> int:
        return self.ref.length

    def open_stream(self, pool: BufferPool) -> BlobTreeStream:
        """Open a random-access stream (reads charged to ``pool``)."""
        return self.store.open(self.ref, pool)

    def read_all(self, pool: BufferPool) -> bytes:
        """Materialize the whole blob through the stream wrapper."""
        return self.store.read_all(self.ref, pool)


class Table:
    """A clustered table.

    Args:
        name: Table name (for messages and metrics).
        columns: Schema; the first column must be the ``bigint``
            primary key.
        pagefile: Page space shared by the database.
        blob_store: Out-of-page blob store (required if the schema has a
            ``varbinary_max`` column).
    """

    def __init__(self, name: str, columns: Sequence[Column],
                 pagefile: PageFile, blob_store: BlobStore | None = None):
        if not columns:
            raise SchemaError("a table needs at least one column")
        if columns[0].type != "bigint":
            raise SchemaError("the first column must be the bigint "
                              "primary key")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self.name = name
        self.columns = tuple(columns)
        self._by_name = {c.name: i for i, c in enumerate(columns)}
        self._pagefile = pagefile
        self._blob_store = blob_store
        if any(c.type == "varbinary_max" for c in columns) and \
                blob_store is None:
            raise SchemaError(
                f"table {name} has a varbinary_max column but no blob "
                "store")
        self._tree = BTree(pagefile, PAGE_DATA, tag=name)
        self._nonkey = self.columns[1:]
        self._bitmap_bytes = (len(self._nonkey) + 7) // 8
        self._indexes: dict[str, SecondaryIndex] = {}
        #: Last published version; 0 is the empty table as created.
        #: Mutators copy-on-write the pages they touch — rows and
        #: secondary indexes alike — and publish a new version
        #: atomically; readers pin frozen snapshots instead of latching
        #: the table.
        self.version = 0
        #: ``version -> (root_page_id, height, count, indexes)`` (see
        #: :meth:`_tip`) for the current version plus every version
        #: still pinned by a reader.
        self._published: dict[int, tuple] = {0: self._tip()}
        self._pins: dict[int, int] = {}
        self._pin_lock = lockcheck.tracked_lock("mutex:Table.pin")
        #: Serializes copy-on-write mutations for direct ``Table``
        #: users; under SQL the session's write latch already does, so
        #: it is uncontended there.
        self._mutate_lock = lockcheck.tracked_lock("mutex:Table.mutate")
        self._intent_cond = threading.Condition()
        self._intents: list[tuple[int, int, int]] = []
        self._intent_seq = 0
        #: Page ids that currently carry version history — the pruning
        #: work-list for retirement.
        self._cow_pids: set[int] = set()
        #: Buffer pool to purge retired page versions from (wired by
        #: the owning database; ``None`` for standalone tables).
        self._pool_ref: BufferPool | None = None

    def __getstate__(self):
        state = self.__dict__.copy()
        # Locks are process-local, and pins and intents die with the
        # process — a saved snapshot is the committed tip only.
        state["_pin_lock"] = None
        state["_mutate_lock"] = None
        state["_intent_cond"] = None
        state["_pool_ref"] = None
        state["_pins"] = {}
        state["_intents"] = []
        state["_cow_pids"] = set()
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        if any(len(tip) == 3 for tip in self._published.values()):
            # Saved before indexes were versioned, when an index keyed
            # a value as given: rebuilt, keyed as stored.
            self._indexes = {name: SecondaryIndex(self, name, self._pagefile)
                             for name in self._indexes}
            self._reindex((), ((row[0], row) for row in self.scan()))
        # The tip is all a saved file can be read at.
        self._published = {self.version: self._tip()}
        self._pin_lock = lockcheck.tracked_lock("mutex:Table.pin")
        self._mutate_lock = lockcheck.tracked_lock("mutex:Table.mutate")
        self._intent_cond = threading.Condition()

    # -- metadata -----------------------------------------------------------

    @property
    def row_count(self) -> int:
        return self._tree.count

    @property
    def tree(self) -> BTree:
        return self._tree

    def column_index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name} has no column {name!r}")

    def data_page_ids(self) -> list[int]:
        """Leaf (data) page ids in key order."""
        return self._tree.leaf_page_ids()

    def data_bytes(self) -> int:
        """Bytes of leaf-level pages — what a clustered index scan
        reads."""
        from .constants import PAGE_SIZE
        return len(self.data_page_ids()) * PAGE_SIZE

    # -- row codec ------------------------------------------------------------

    def _key(self, value) -> int:
        """A primary-key cell as the integer the tree stores; a
        fraction, a NULL, a string or a number past 64 bits is refused,
        never truncated."""
        try:
            key = int(value)
            if key == value and _KEY_MIN <= key < _KEY_MAX:
                return key
        except (TypeError, ValueError, OverflowError):
            pass
        raise SchemaError(
            f"primary key column {self.columns[0].name} takes a 64-bit "
            f"integer, got {value!r}")

    def _encode_row(self, values: Sequence) -> bytes:
        if len(values) != len(self.columns):
            raise SchemaError(
                f"row has {len(values)} values for {len(self.columns)} "
                "columns")
        bitmap = bytearray(self._bitmap_bytes)
        fixed = bytearray()
        variable = bytearray()
        for i, (col, value) in enumerate(zip(self._nonkey, values[1:])):
            if value is None:
                bitmap[i // 8] |= 1 << (i % 8)
                if col.type in _FIXED_TYPES:
                    fixed += bytes(_FIXED_TYPES[col.type].size)
                elif col.type == "varbinary":
                    variable += struct.pack("<H", 0)
                else:  # varbinary_max: inline flag + zero length
                    variable += struct.pack("<BH", 0, 0)
                continue
            if col.type in _FIXED_TYPES:
                try:
                    fixed += _FIXED_TYPES[col.type].pack(value)
                except (struct.error, OverflowError) as exc:
                    raise SchemaError(
                        f"value {value!r} does not fit {col.type} "
                        f"column {col.name}: {exc}") from None
                continue
            if not isinstance(value, (bytes, bytearray, memoryview)):
                # (``bytes(7)`` is seven NULs, ``bytes(2 * 10**9)`` 2 GB.)
                raise SchemaError(
                    f"{col.type} column {col.name} takes bytes, got "
                    f"{value!r}")
            if col.type == "varbinary":
                data = bytes(value)
                if len(data) > col.cap:
                    raise SchemaError(
                        f"value of {len(data)} bytes exceeds "
                        f"varbinary({col.cap}) column {col.name}")
                variable += struct.pack("<H", len(data)) + data
            else:  # varbinary_max
                data = bytes(value)
                if len(data) <= _MAX_INLINE:
                    variable += struct.pack("<BH", 0, len(data)) + data
                else:
                    ref = self._blob_store.store(data)
                    variable += struct.pack(
                        "<BHiq", 1, 0, ref.first_pointer_page, ref.length)
        # ROW_OVERHEAD bytes of record header make the stored sizes
        # honest; contents are irrelevant.
        return bytes(ROW_OVERHEAD) + bytes(bitmap) + bytes(fixed) \
            + bytes(variable)

    def _encode_records(self, rows: list, keys: list[int]
                        ) -> "np.ndarray | None":
        """The batch as one ``(n, L)`` ``uint8`` matrix of leaf records
        written a column at a time, or ``None`` — decided before any
        copy — when a cell is one it would not write bit for bit as
        :meth:`_encode_row` does: any type but ``int`` / ``float`` /
        ``bytes`` (no ``bool``, no NumPy scalar), a number out of range,
        binary cells of differing length (a NULL one too), an
        out-of-page blob.  A NULL fixed-width cell is zeros plus its
        bitmap bit, as there."""
        if set(map(len, rows)) != {len(self.columns)}:
            return None
        layout = _layout(self)
        fixed = []  # (record offset, little-endian array)
        nulls = []  # (bitmap byte, bit, NULL lanes)
        var = []  # (size header, cells, size)
        for col, cells in zip(self._nonkey, list(zip(*rows))[1:]):
            kinds = set(map(type, cells))
            spec = layout.fixed.get(col.name)
            if spec is not None:
                offset, slot, dtype = spec
                if type(None) in kinds:
                    kinds.discard(type(None))
                    lanes = [cell is None for cell in cells]
                    nulls.append((layout.bitmap_offset + slot // 8,
                                  slot % 8, np.array(lanes)))
                    cells = [0 if cell is None else cell for cell in cells]
                if dtype.kind == "i" and kinds <= {int}:
                    info = np.iinfo(dtype)
                    if not info.min <= min(cells) <= max(cells) <= info.max:
                        return None
                    array = np.array(cells, dtype=dtype)
                elif dtype.kind == "f" and kinds <= {float}:
                    array = np.array(cells, dtype="<f8")
                    if dtype.itemsize == 4:
                        if not (np.abs(array) <= np.finfo(dtype).max).all():
                            return None  # overflow, inf, NaN
                        array = array.astype(dtype)
                else:
                    return None
                fixed.append((offset, array))
                continue
            lengths = set(map(len, cells)) if kinds == {bytes} else ()
            in_row = col.cap if col.type == "varbinary" else _MAX_INLINE
            if len(lengths) != 1 or max(lengths) > in_row:
                return None
            size = lengths.pop()
            flag = b"" if col.type == "varbinary" else b"\0"
            var.append((flag + struct.pack("<H", size), cells, size))
        n = len(rows)
        length = layout.var_offset + sum(
            len(head) + size for head, _cells, size in var)
        matrix = np.zeros((n, length), dtype=np.uint8)
        matrix[:, :_KEY_STRUCT.size] = np.array(
            keys, dtype="<i8").view(np.uint8).reshape(n, -1)
        for at, bit, lanes in nulls:
            matrix[:, at] |= lanes.astype(np.uint8) << bit
        for offset, array in fixed:
            matrix[:, offset:offset + array.itemsize] = \
                array.view(np.uint8).reshape(n, -1)
        pos = layout.var_offset
        for head, cells, size in var:
            matrix[:, pos:pos + len(head)] = np.frombuffer(head, np.uint8)
            pos += len(head)
            if size:
                matrix[:, pos:pos + size] = np.frombuffer(
                    b"".join(cells), np.uint8).reshape(n, size)
                pos += size
        return matrix

    def _check_fits(self, key: int, length: int) -> None:
        """Refuse a leaf record no page holds before the tree sees it."""
        if length > _MAX_RECORD:
            raise SchemaError(
                f"row {key} of table {self.name} takes {length} bytes; "
                f"a page holds a row of at most {_MAX_RECORD}")

    def decode(self, key: int, payload: bytes) -> tuple:
        """Decode a raw leaf payload into a row tuple (what a batch of
        records of differing lengths decodes its columns from)."""
        pos = ROW_OVERHEAD
        bitmap = payload[pos:pos + self._bitmap_bytes]
        pos += self._bitmap_bytes
        out = [key]
        var_cols = []
        for i, col in enumerate(self._nonkey):
            is_null = bool(bitmap[i // 8] >> (i % 8) & 1)
            if col.type in _FIXED_TYPES:
                s = _FIXED_TYPES[col.type]
                out.append(None if is_null
                           else s.unpack_from(payload, pos)[0])
                pos += s.size
            else:
                out.append(None)  # placeholder, filled below in order
                var_cols.append((len(out) - 1, col, is_null))
        for out_index, col, is_null in var_cols:
            if col.type == "varbinary":
                (length,) = struct.unpack_from("<H", payload, pos)
                pos += 2
                value = None if is_null else payload[pos:pos + length]
                pos += length
                out[out_index] = value
            else:
                (flag,) = struct.unpack_from("<B", payload, pos)
                pos += 1
                if flag == 0:
                    (length,) = struct.unpack_from("<H", payload, pos)
                    pos += 2
                    value = None if is_null else payload[pos:pos + length]
                    pos += length
                else:
                    (_zero, ptr, length) = struct.unpack_from(
                        "<Hiq", payload, pos)
                    pos += 2 + 4 + 8
                    value = MaxBlobHandle(self._blob_store,
                                          BlobRef(ptr, length))
                out[out_index] = value
        return tuple(out)

    def page_fill_stats(self) -> dict:
        """Leaf-page utilization (a DBCC SHOWCONTIG-style summary).

        Returns row count, leaf pages, data bytes, average page fill
        fraction, and the B-tree height.
        """
        from .constants import PAGE_SIZE
        leaf_ids = self.data_page_ids()
        used = sum(self._pagefile.get(pid).used_bytes
                   for pid in leaf_ids)
        return {
            "rows": self.row_count,
            "leaf_pages": len(leaf_ids),
            "data_bytes": len(leaf_ids) * PAGE_SIZE,
            "avg_fill": (used / (len(leaf_ids) * PAGE_SIZE)
                         if leaf_ids else 0.0),
            "height": self._tree.height,
            "indexes": sorted(self._indexes),
        }

    # -- secondary indexes --------------------------------------------------

    def create_index(self, column_name: str) -> SecondaryIndex:
        """Create (and backfill) a nonclustered index on one column,
        published as a new version: snapshots pinned before it have no
        index on the column.

        The index is maintained automatically by insert/delete/update.
        """
        if column_name in self._indexes:
            raise SchemaError(
                f"column {column_name!r} is already indexed")
        if self.column_index(column_name) == 0:
            raise SchemaError(
                "the primary key is the clustered index already")
        index = SecondaryIndex(self, column_name, self._pagefile)
        col = self.column_index(column_name)
        with self._mutate_lock:
            # A fresh tree no published version reaches: built in place.
            for row in self.scan():
                index.add(row[col], row[0])
            self._indexes[column_name] = index
            self._publish(self.version + 1)
        return index

    def index_on(self, column_name: str) -> SecondaryIndex | None:
        """The index on a column, if one exists."""
        return self._indexes.get(column_name)

    # -- MVCC: version chain, pins, retirement ------------------------------

    def pin_snapshot(self) -> "TableSnapshot":
        """Pin the current published version and return a frozen read
        view over it.

        The pin keeps every page of that version (including superseded
        pages in the version history) resolvable until
        :meth:`TableSnapshot.unpin`; the snapshot itself is scanned
        without holding any table latch.
        """
        with self._pin_lock:
            version = self.version
            published = self._published[version]
            self._pins[version] = self._pins.get(version, 0) + 1
        return TableSnapshot(self, version, *published)

    def unpin(self, version: int,
              pool: BufferPool | None = None) -> None:
        """Drop one pin on ``version``; when it was the last, retire
        page versions nothing can read any more."""
        with self._pin_lock:
            remaining = self._pins.get(version, 0) - 1
            if remaining > 0:
                self._pins[version] = remaining
                return
            self._pins.pop(version, None)
        self._retire(pool)

    def pinned_versions(self) -> dict[int, int]:
        """Current pin counts by version (diagnostics and tests)."""
        with self._pin_lock:
            return dict(self._pins)

    @contextmanager
    def _write_scope(self, version: int) -> Iterator[None]:
        """The copy-on-write scope at ``version`` of the table's tree
        and of every secondary index's, always closed: the page ids it
        cloned go to retirement whether or not the caller then
        publishes — a write that failed part-way still superseded the
        pages it cloned."""
        trees = [self._tree, *(ix._tree for ix in self._indexes.values())]
        for tree in trees:
            tree.begin_write(version)
        try:
            yield
        finally:
            cow = set().union(*(tree.end_write() for tree in trees))
            with self._pin_lock:
                self._cow_pids |= cow

    def _tip(self) -> tuple:
        """What a publish records: the ``(root_page_id, height, count)``
        of the clustered tree, then of each secondary index by column."""
        def shape(tree):
            return tree.root_page_id, tree.height, tree.count
        return (*shape(self._tree), {name: shape(ix._tree) for name, ix
                                     in self._indexes.items()})

    def _publish(self, version: int) -> None:
        """Atomically expose a completed mutation as the new tip.

        This is the only point where readers change what they pin: a
        ``pin_snapshot`` racing this publish gets either the old or the
        new version, never a torn mix, because the trees' triples swap
        under ``_pin_lock``.
        """
        lockcheck.require_write_latch(self.name)
        with self._pin_lock:
            self._published[version] = self._tip()
            self.version = version
        self._retire(None)

    def _reindex(self, removed, added) -> None:
        """Secondary-index upkeep inside a write scope: drop the entries
        of the ``removed`` rows (as decoded), then index the ``(key,
        row)`` pairs of ``added`` by each value as stored."""
        added = list(added) if self._indexes else ()
        for name, index in self._indexes.items():
            col = self._by_name[name]
            packer = _FIXED_TYPES[self.columns[col].type]
            for row in removed:
                index.remove(row[col], row[0])
            for key, row in added:
                value = row[col]
                index.add(value if value is None else
                          packer.unpack(packer.pack(value))[0], key)

    def _retire(self, pool: BufferPool | None) -> None:
        """Drop version metadata and page history nothing can read.

        A history entry stays live while a pinned version — or the
        published tip, whose readers may still race an in-flight
        writer's fresh clones — falls inside the half-open version
        window the entry serves.
        """
        if pool is None:
            pool = self._pool_ref
        with self._pin_lock:
            live = set(self._pins)
            live.add(self.version)
            for version in [v for v in self._published
                            if v not in live]:
                del self._published[version]
            if not self._cow_pids:
                return
            dropped = self._pagefile.prune_history(
                list(self._cow_pids), live)
            self._cow_pids = {
                pid for pid in self._cow_pids
                if self._pagefile.history_len(pid)}
        if pool is not None and dropped:
            pool.discard_keys(
                [pid if pv == 0 else (pid, pv) for pid, pv in dropped])

    # -- MVCC: row-level write intents --------------------------------------

    def acquire_intent(self, lo: int | None, hi: int | None) -> int:
        """Declare intent to write keys in ``[lo, hi)`` (``None`` =
        unbounded on that side); blocks while an overlapping intent is
        held, so disjoint-range writers overlap and overlapping ones
        serialize before either takes the table's write latch.  Returns
        a token for :meth:`release_intent`.
        """
        lo = _KEY_MIN if lo is None else int(lo)
        hi = _KEY_MAX if hi is None else int(hi)
        # Validate-before-block: the sentinel raises here if any latch
        # or leaf mutex is already held (intents rank above them all).
        lockcheck.note_acquire("intent", self.name)
        try:
            with self._intent_cond:
                while any(lo < other_hi and other_lo < hi
                          for other_lo, other_hi, _ in self._intents):
                    self._intent_cond.wait()
                self._intent_seq += 1
                token = self._intent_seq
                self._intents.append((lo, hi, token))
                return token
        except BaseException:
            lockcheck.note_release("intent", self.name)
            raise

    def release_intent(self, token: int) -> None:
        """Release a held write intent and wake blocked writers."""
        with self._intent_cond:
            self._intents = [entry for entry in self._intents
                             if entry[2] != token]
            self._intent_cond.notify_all()
        lockcheck.note_release("intent", self.name)

    # -- data access ------------------------------------------------------------

    def insert(self, values: Sequence) -> None:
        """Insert one row (values in schema order, PK first)."""
        self.apply_insert(self.prepare_insert([values]))

    def prepare_insert(self, rows) -> "_PreparedInsert":
        """Encode rows — blob writes included — without touching the
        tree: the part of an INSERT that needs no latch, so two writers
        of one table overlap their encoding work."""
        rows = [row if isinstance(row, (tuple, list)) else tuple(row)
                for row in rows]
        keys = [row[0] if type(row[0]) is int else self._key(row[0])
                for row in rows]
        if keys and not _KEY_MIN <= min(keys) <= max(keys) < _KEY_MAX:
            for key in keys:
                self._key(key)  # raises at the first one out of range
        matrix = self._encode_records(rows, keys) if rows else None
        if matrix is not None:
            self._check_fits(keys[0], matrix.shape[1])
            records = matrix.view(f"V{matrix.shape[1]}").ravel().tolist()
        else:
            records = [leaf_record(key, self._encode_row(row))
                       for key, row in zip(keys, rows)]
            for key, record in zip(keys, records):
                self._check_fits(key, len(record))
        return _PreparedInsert(rows, keys, records)

    def apply_insert(self, prep: "_PreparedInsert") -> int:
        """Copy-on-write the tree with prepared rows and publish one
        new version — the (briefly) latched step of an INSERT.

        When the table is empty and the keys arrive strictly ascending
        (the clustered-key bulk-load pattern both evaluation tables
        use), rows are packed page-at-a-time through
        :meth:`BTree.bulk_load`; every other batch goes through
        :meth:`BTree.insert_many`, which walks the tree once per leaf
        it writes — same page layout, same duplicate-key semantics as
        one descent per row.  On a mid-statement error (say a duplicate
        key) the rows already inserted are published and stay visible.
        """
        keys = prep.keys
        if not keys:
            return 0
        lockcheck.require_write_latch(self.name)
        with self._mutate_lock:
            version = self.version + 1
            tree = self._tree
            before = tree.count
            try:
                with self._write_scope(version):
                    try:
                        if before == 0 and all(
                                b > a for a, b in zip(keys, keys[1:])):
                            tree.bulk_load(keys, prep.records)
                        else:
                            tree.insert_many(keys, prep.records)
                    finally:
                        self._reindex((), zip(keys[:tree.count - before],
                                              prep.rows))
            finally:
                done = tree.count - before
                if done:
                    self._publish(version)
        return done

    def insert_many(self, rows) -> int:
        """Insert an iterable of rows as one published version;
        returns how many were inserted (see :meth:`apply_insert`)."""
        return self.apply_insert(self.prepare_insert(rows))

    def delete(self, key: int) -> bool:
        """Delete a row by primary key; returns whether it existed
        (the one-key call of :meth:`delete_many`)."""
        return self.delete_many((key,)) == 1

    def delete_many(self, keys) -> int:
        """Delete the rows of ``keys`` as *one* published version;
        returns how many existed.  A snapshot reader sees all of them
        or none — a DELETE statement is atomic to it.

        Out-of-page blob pages referenced by the rows are left in
        place (like deallocated-lazily LOB pages); the rows themselves
        disappear from every scan and from every secondary index.
        """
        keys = [int(key) for key in keys]
        lockcheck.require_write_latch(self.name)
        with self._mutate_lock:
            old = [row for row in map(self.get, set(keys))
                   if row is not None] if self._indexes else ()
            version = self.version + 1
            with self._write_scope(version):
                deleted = self._tree.delete_many(keys)
                self._reindex(old, ())
            if deleted:
                self._publish(version)
        return deleted

    def update(self, values: Sequence) -> bool:
        """Replace an existing row (matched by its primary key);
        returns whether the key existed."""
        key = self._key(values[0])
        payload = self._encode_row(values)
        self._check_fits(key, _KEY_STRUCT.size + len(payload))
        lockcheck.require_write_latch(self.name)
        with self._mutate_lock:
            old = self.get(key) if self._indexes else None
            version = self.version + 1
            with self._write_scope(version):
                updated = self._tree.update(key, payload)
                if updated:
                    self._reindex((old,), ((key, values),))
            if updated:
                self._publish(version)
        return updated

    def get(self, key: int, pool: BufferPool | None = None
            ) -> tuple | None:
        """Point lookup by primary key."""
        payload = self._tree.search(int(key), pool)
        if payload is None:
            return None
        return self.decode(int(key), payload)

    def scan(self, pool: BufferPool | None = None,
             start: int | None = None, stop: int | None = None
             ) -> Iterator[tuple]:
        """Clustered index scan yielding decoded rows in key order."""
        for key, payload in self._tree.scan(pool, start, stop):
            yield self.decode(key, payload)

    def scan_batches(self, pool: BufferPool | None = None,
                     batch_pages: int | None = None,
                     columns: bool = True) -> Iterator:
        """Clustered index scan yielding columnar
        :class:`~repro.engine.vectorized.RowBatch` chunks.

        Each batch covers a run of whole leaf pages.  Page touches are
        charged to the pool exactly as :meth:`scan` charges them (the
        descent, then every leaf once, in chain order), so a batch scan
        and a row scan of the same table produce identical IO counters.
        ``columns=False``: the caller reads no column, and each batch
        is :meth:`~repro.engine.vectorized.RowBatch.counted`.
        """
        return _scan_batches(self, self._tree, pool, batch_pages, columns)


def _scan_batches(table: Table, tree, pool: BufferPool | None,
                  batch_pages: int | None, columns: bool) -> Iterator:
    """Leaf runs of ``tree`` (the table's live tree or a pinned
    version's reader) decoded into ``RowBatch``es of ``table``."""
    from .vectorized import DEFAULT_BATCH_PAGES, RowBatch

    if batch_pages is None:
        batch_pages = DEFAULT_BATCH_PAGES
    make = RowBatch.from_pages if columns else RowBatch.counted
    for pages in tree.scan_leaf_batches(pool, batch_pages=batch_pages):
        batch = make(table, pages)
        if batch.n:
            yield batch


@dataclass(frozen=True)
class _PreparedInsert:
    """Rows encoded ahead of the latched apply step of an INSERT: one
    leaf record (key bytes, then the payload) a row."""

    rows: list[tuple]
    keys: list[int]
    records: list[bytes]


class TableSnapshot:
    """A pinned, frozen ``(table → version)`` read view.

    Duck-types the read surface of :class:`Table` that the executor and
    the vectorized scan kernels use — ``scan_batches``, ``tree`` (a
    :class:`~repro.engine.btree.BTreeReader`), ``data_page_ids``,
    ``get``/``scan``, ``row_count``, ``index_on`` — so query plans run
    against it unchanged.  All page reads resolve through the page
    file's version history, never blocking on (or being torn by) a
    concurrent writer.  Must be unpinned exactly once; use it as a
    context manager or call :meth:`unpin` in a ``finally``.
    """

    def __init__(self, table: Table, version: int, root_id: int,
                 height: int, count: int, indexes: dict):
        self.table = table
        self.version = version
        self._reader = BTreeReader(table._pagefile, version, root_id,
                                   height, count)
        self._indexes = indexes
        self._unpinned = False

    # -- lifecycle ----------------------------------------------------------

    def unpin(self, pool: BufferPool | None = None) -> None:
        """Release the pin (idempotent); the last unpin of a dead
        version retires its pages from the page file and ``pool``."""
        if not self._unpinned:
            self._unpinned = True
            self.table.unpin(self.version, pool)

    def __enter__(self) -> "TableSnapshot":
        return self

    def __exit__(self, *exc) -> None:
        self.unpin()

    # -- Table read surface -------------------------------------------------

    @property
    def name(self) -> str:
        return self.table.name

    @property
    def columns(self):
        return self.table.columns

    @property
    def row_count(self) -> int:
        return self._reader.count

    @property
    def tree(self) -> BTreeReader:
        return self._reader

    def column_index(self, name: str) -> int:
        return self.table.column_index(name)

    def index_on(self, column_name: str) -> IndexReader | None:
        """The index on a column as this version published it, if any."""
        shape = self._indexes.get(column_name)
        if shape is None:
            return None
        return IndexReader(
            BTreeReader(self.table._pagefile, self.version, *shape),
            self.table._indexes[column_name]._is_float)

    def data_page_ids(self) -> list[int]:
        return self._reader.leaf_page_ids()

    def get(self, key: int, pool: BufferPool | None = None
            ) -> tuple | None:
        payload = self._reader.search(int(key), pool)
        if payload is None:
            return None
        return self.table.decode(int(key), payload)

    def scan(self, pool: BufferPool | None = None,
             start: int | None = None, stop: int | None = None
             ) -> Iterator[tuple]:
        for key, payload in self._reader.scan(pool, start, stop):
            yield self.table.decode(key, payload)

    def scan_batches(self, pool: BufferPool | None = None,
                     batch_pages: int | None = None,
                     columns: bool = True) -> Iterator:
        """Columnar scan of the pinned version; IO charges match
        :meth:`Table.scan_batches` page for page."""
        return _scan_batches(self.table, self._reader, pool, batch_pages,
                             columns)
