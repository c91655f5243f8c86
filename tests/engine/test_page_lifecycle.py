"""Pages no version can reach are freed, and freed ids are reused.

A write records the pages it orphans — leaves it unlinked, interior
pages that emptied with them, a root the tree collapsed away from, the
blob pages of the rows it removed — with the version whose publish
orphaned them; the table frees them once no live version (pins and
tip) is older.  A dropped table's pages go the same way once its pins
drain, and the blob pages of rows an INSERT wrote but never published
go at once.  ``PageFile.allocate`` hands out the tag's lowest free id
before it opens a new extent.

* :func:`test_a_churning_table_stays_at_its_live_size` — 1 000 ops of
  the ``churn_rw`` workload (a 256-row INSERT at the head of a sliding
  8 192-row window, a 256-row range DELETE at its tail, point reads, a
  counting scan) with a snapshot pinned across every 10th op;
* :class:`TestPageLifecycle` — a state machine of INSERT, DELETE,
  UPDATE (in-row and out-of-page blob cells) and DROP with snapshots
  pinned and released at random: every page a live version reaches is
  allocated and on no free list, every snapshot reads what it read when
  pinned, and once the last pin is gone the allocated pages are exactly
  the pages the tips reach.
  :func:`test_the_machine_catches_a_page_freed_one_version_early` runs
  it with ``Table._retire`` freeing one version too early.
"""

import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.engine import Database, DuplicateKeyError, SchemaError
from repro.engine import table as table_module
from repro.engine.constants import BLOB_CHUNK_SIZE, EXTENT_PAGES, PAGE_DATA
from repro.engine.page import PageFile
from repro.engine.sqlfront import SqlSession
from repro.engine.table import MaxBlobHandle, Table
from repro.tsql import FloatArray
from tests.mutation import mutated

ROWS, BATCH = 8_192, 256
VECTORS = [FloatArray.Vector_5(i, -i, 0.5 * i, 1.0, 2.0) for i in range(97)]


def _live_pages(table) -> set[int]:
    """Every page the tip of ``table`` reaches: each tree's pages and
    the blob pages of its out-of-page cells."""
    snap = table.pin_snapshot()
    try:
        return _snapshot_pages(snap)
    finally:
        snap.unpin()


def _snapshot_pages(snap) -> set[int]:
    table = snap.table
    pages = set(snap.tree.page_ids())
    for column in table._indexes:
        pages |= set(snap.index_on(column)._tree.page_ids())
    for row in snap.scan():
        for cell in row:
            if isinstance(cell, MaxBlobHandle):
                pages |= set(table._blob_store.page_ids(cell.ref))
    return pages


def _allocated(pagefile) -> set[int]:
    return {pid for pid, page in enumerate(pagefile._pages)
            if page is not None}


def _free_ids(pagefile) -> set[int]:
    return {pid for ids in pagefile._free.values() for pid in ids}


def test_a_churning_table_stays_at_its_live_size():
    db = Database()
    session = SqlSession(db)
    session.execute(
        "CREATE TABLE t (id BIGINT PRIMARY KEY, k INT, v VARBINARY(100))")
    table = db.tables["t"]

    def rows(batch):
        return [(key, key % 97, VECTORS[key % 97])
                for key in range(batch * BATCH, (batch + 1) * BATCH)]

    for batch in range(ROWS // BATCH):
        session.insert_rows(table, rows(batch))
    live = len(table.tree.page_ids())
    rng = random.Random(5)
    peak = 0
    for op in range(1_000):
        snap = table.pin_snapshot() if op % 10 == 0 else None
        head = ROWS // BATCH + op
        session.insert_rows(table, rows(head))
        assert session.execute(f"DELETE FROM t WHERE id >= {op * BATCH} "
                               f"AND id < {(op + 1) * BATCH}") == BATCH
        key = head * BATCH + rng.randrange(BATCH)
        assert session.query(f"SELECT MAX(v) FROM t WHERE id = {key}"
                             )[0][0] == VECTORS[key % 97]
        (count, _total), _m = session.query("SELECT COUNT(*), SUM(k) FROM t")
        assert count == ROWS
        peak = max(peak, db.pagefile.allocated_page_count)
        if snap is not None:
            assert snap.row_count == ROWS
            snap.unpin()
    assert len(table.tree.page_ids()) <= live + 1
    # A pin held across an op keeps the three leaves its DELETE empties
    # while its INSERT adds three: the peak is a few pages over.
    assert peak <= live + 6
    assert _allocated(db.pagefile) == _live_pages(table)
    assert db.pagefile.page_count == EXTENT_PAGES
    assert db.pagefile._history == {}


def test_allocate_hands_out_the_lowest_free_id_of_the_tag():
    f = PageFile()
    a = [f.allocate(PAGE_DATA, tag="a").page_id for _ in range(4)]
    b = f.allocate(PAGE_DATA, tag="b").page_id
    assert a == [0, 1, 2, 3] and b == EXTENT_PAGES
    f.free([("a", 2), ("a", 1)])
    assert f.allocated_page_count == 3
    assert [f.allocate(PAGE_DATA, tag="a").page_id for _ in range(3)] \
        == [1, 2, 4]
    assert f.allocate(PAGE_DATA, tag="b").page_id == EXTENT_PAGES + 1
    with pytest.raises(ValueError, match="already free"):
        f.free([("a", 7)])


def _blob_table():
    db = Database()
    session = SqlSession(db)
    session.execute("CREATE TABLE m (id BIGINT PRIMARY KEY, k INT, "
                    "mb VARBINARY(MAX))")
    return db, session, db.tables["m"]


BIG = bytes(range(256)) * 40  # out of page: two chunks


def test_a_freed_page_leaves_the_buffer_pool():
    """Blob pages are cached under their bare ids: once freed, a blob
    stored at the same ids is read physically, not taken for the one
    cached before."""
    db, session, table = _blob_table()
    session.insert_rows(table, [(1, 1, BIG)])
    point = "SELECT MAX(mb) FROM m WHERE id = {}"
    assert session.query(point.format(1), cold=False)[0][0] == BIG
    blob_ids = _allocated(db.pagefile) - set(table.tree.page_ids())
    assert blob_ids <= set(db.pool._cached)
    session.execute("DELETE FROM m WHERE id = 1")
    assert not blob_ids & _allocated(db.pagefile)
    assert not blob_ids & set(db.pool._cached)
    session.insert_rows(table, [(2, 2, BIG[::-1])])
    assert _allocated(db.pagefile) - set(table.tree.page_ids()) == blob_ids
    before = db.pool.snapshot_counters().physical_reads
    assert session.query(point.format(2), cold=False)[0][0] == BIG[::-1]
    # The leaf (a new version) and every blob page.
    assert db.pool.snapshot_counters().physical_reads - before \
        == 1 + len(blob_ids)


def test_a_delete_and_an_update_free_the_blob_pages_they_remove():
    db, session, table = _blob_table()
    session.insert_rows(table, [(i, i, BIG) for i in range(4)])
    snap = table.pin_snapshot()
    try:
        session.execute("DELETE FROM m WHERE id < 2")
        table.update((2, 2, b"in row"))
        # The pinned version still reads every blob it reached.
        assert [cell.read_all(db.pool) for _i, _k, cell in snap.scan()] \
            == [BIG] * 4
    finally:
        snap.unpin()
    assert _allocated(db.pagefile) == _live_pages(table)
    pages_per_blob = 1 + -(-len(BIG) // BLOB_CHUNK_SIZE)
    blob_pages = _allocated(db.pagefile) - set(table.tree.page_ids())
    assert len(blob_pages) == pages_per_blob


def test_a_failed_insert_frees_the_blobs_it_never_published():
    db, session, table = _blob_table()
    session.insert_rows(table, [(5, 5, BIG)])
    # A duplicate key part-way: the rows before it are published, the
    # blobs of the rest were written and are freed again.
    with pytest.raises(DuplicateKeyError):
        session.insert_rows(table, [(1, 1, BIG), (5, 5, BIG), (6, 6, BIG)])
    assert table.row_count == 2
    assert _allocated(db.pagefile) == _live_pages(table)
    # A row that does not encode after a blob was stored.
    settled = _allocated(db.pagefile)
    with pytest.raises(SchemaError):
        table.prepare_insert([(7, 7, BIG), (8, 1.5, BIG)])
    assert not table.update((99, 1, BIG))  # no such key
    assert _allocated(db.pagefile) == settled


def test_a_dropped_table_frees_its_pages_once_its_pins_drain():
    db, session, table = _blob_table()
    table.create_index("k")
    session.insert_rows(table, [(i, i % 3, BIG if i % 2 else b"x" * 40)
                                for i in range(300)])
    session.execute("CREATE TABLE keep (id BIGINT PRIMARY KEY, k INT)")
    keep = db.tables["keep"]
    session.insert_rows(keep, [(i, i) for i in range(10)])
    snap = table.pin_snapshot()
    session.execute("DROP TABLE m")
    assert snap.get(7)[2].read_all(db.pool) == BIG  # still pinned
    assert len(_allocated(db.pagefile)) > len(_live_pages(keep))
    snap.unpin()
    assert _allocated(db.pagefile) == _live_pages(keep)
    assert db.pagefile._history == {}
    # A new table of the name, and new blobs, take the freed ids.
    extents = db.pagefile.page_count
    session.execute("CREATE TABLE m (id BIGINT PRIMARY KEY, k INT, "
                    "mb VARBINARY(MAX))")
    session.insert_rows(db.tables["m"], [(i, i, BIG) for i in range(100)])
    assert db.pagefile.page_count == extents


# -- the state machine ------------------------------------------------------

SIZES = [None, 0, 40, 1_500, 9_000]  # NULL, in row, out of page
NAMES = ["a", "b"]


class PageLifecycleMachine(RuleBasedStateMachine):
    """Writes, drops, pins and unpins in any order; see the module
    docstring for what is checked after every step."""

    def __init__(self):
        super().__init__()
        self.db = Database()
        self.session = SqlSession(self.db)
        self.snaps = []  # (snapshot, rows it read when pinned)

    def _table(self, name):
        return self.db.tables.get(name)

    @precondition(lambda self: len(self.db.tables) < len(NAMES))
    @rule(data=st.data())
    def create(self, data):
        name = data.draw(st.sampled_from(
            [n for n in NAMES if n not in self.db.tables]))
        self.session.execute(f"CREATE TABLE {name} (id BIGINT PRIMARY "
                             "KEY, k INT, mb VARBINARY(MAX))")
        if data.draw(st.booleans()):
            self.db.tables[name].create_index("k")

    @precondition(lambda self: self.db.tables)
    @rule(data=st.data(),
          rows=st.lists(st.tuples(st.integers(0, 60), st.integers(0, 4),
                                  st.sampled_from(SIZES)),
                        min_size=1, max_size=20,
                        unique_by=lambda row: row[0]))
    def insert(self, data, rows):
        table = self._table(data.draw(st.sampled_from(sorted(
            self.db.tables))))
        cells = [(key, k, None if size is None else bytes([key]) * size)
                 for key, k, size in rows]
        try:
            self.session.insert_rows(table, cells)
        except DuplicateKeyError:
            pass

    @precondition(lambda self: self.db.tables)
    @rule(data=st.data(), lo=st.integers(0, 60), width=st.integers(1, 30))
    def delete(self, data, lo, width):
        name = data.draw(st.sampled_from(sorted(self.db.tables)))
        self.session.execute(
            f"DELETE FROM {name} WHERE id >= {lo} AND id < {lo + width}")

    @precondition(lambda self: self.db.tables)
    @rule(data=st.data(), key=st.integers(0, 60), k=st.integers(0, 4),
          size=st.sampled_from(SIZES))
    def update(self, data, key, k, size):
        table = self._table(data.draw(st.sampled_from(sorted(
            self.db.tables))))
        table.update((key, k, None if size is None
                      else bytes([key + 1]) * size))

    @precondition(lambda self: self.db.tables)
    @rule(data=st.data())
    def drop(self, data):
        name = data.draw(st.sampled_from(sorted(self.db.tables)))
        self.session.execute(f"DROP TABLE {name}")

    @precondition(lambda self: self.db.tables)
    @rule(data=st.data())
    def pin(self, data):
        table = self._table(data.draw(st.sampled_from(sorted(
            self.db.tables))))
        snap = table.pin_snapshot()
        self.snaps.append((snap, self._read(snap)))

    @precondition(lambda self: self.snaps)
    @rule(data=st.data())
    def unpin(self, data):
        snap, _rows = self.snaps.pop(data.draw(
            st.integers(0, len(self.snaps) - 1)))
        snap.unpin(self.db.pool)

    def _read(self, snap):
        return [tuple(cell.read_all(self.db.pool)
                      if isinstance(cell, MaxBlobHandle) else cell
                      for cell in row) for row in snap.scan()]

    @invariant()
    def reachable_pages_are_allocated_and_snapshots_unchanged(self):
        pagefile = self.db.pagefile
        reachable = set()
        for table in self.db.tables.values():
            reachable |= _live_pages(table)
        for snap, rows in self.snaps:
            reachable |= _snapshot_pages(snap)
            assert self._read(snap) == rows
        assert reachable <= _allocated(pagefile)
        assert not reachable & _free_ids(pagefile)

    def teardown(self):
        while self.snaps:
            self.snaps.pop()[0].unpin(self.db.pool)
        tips = set()
        for table in self.db.tables.values():
            tips |= _live_pages(table)
        assert _allocated(self.db.pagefile) == tips


TestPageLifecycle = PageLifecycleMachine.TestCase
TestPageLifecycle.settings = settings(max_examples=40,
                                      stateful_step_count=30,
                                      deadline=None)


def test_the_machine_catches_a_page_freed_one_version_early(monkeypatch):
    early = mutated(table_module, "if version <= oldest]",
                    "if version <= oldest + 1]")
    monkeypatch.setattr(Table, "_retire", early.Table._retire)
    with pytest.raises((AssertionError, IndexError, KeyError)):
        run_state_machine_as_test(
            PageLifecycleMachine,
            settings=settings(max_examples=60, stateful_step_count=30,
                              deadline=None, derandomize=True,
                              database=None, report_multiple_bugs=False))
