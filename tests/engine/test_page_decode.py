"""The page-at-a-time leaf decoder: ``Page``'s dense marker,
``RowBatch.from_pages`` against the per-record reference, snapshots
written before the marker existed, and buffer ownership.
"""

import os
import pickle
import random

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine import Column, Database, MaxBlobHandle, Page, PageFullError
from repro.engine.btree import leaf_record
from repro.engine.constants import PAGE_DATA
from repro.engine.sqlfront import SqlSession
from repro.engine import vectorized
from repro.engine.vectorized import RowBatch, to_pylist
from repro.server.columnar import Column as ColumnarColumn
from repro.server.columnar import Columns
from repro.tsql import FloatArray
from tests.engine import row_oracle

LEGACY_DB = os.path.join(os.path.dirname(__file__), "data",
                         "parent_commit.db")


# -- (a) the dense marker ----------------------------------------------------


def dense_from_layout(page: Page) -> int:
    """The dense marker's definition, read off ``_slots``/``_body``
    (independent of ``Page._scan_dense``)."""
    slots, body = page._slots, page._body
    if not slots:
        return 0 if not body else -1
    lengths = {length for _offset, length in slots}
    if len(lengths) != 1:
        return -1
    (length,) = lengths
    ordered = [offset for offset, _length in slots] == [
        i * length for i in range(len(slots))]
    if length > 0 and ordered and len(body) == length * len(slots):
        return length
    return -1


RECORDS = st.one_of(
    st.sampled_from([b"", b"a" * 12, b"b" * 12, b"c" * 12, b"d" * 40]),
    st.binary(max_size=30))


class PageMachine(RuleBasedStateMachine):
    """Every mutator keeps ``_dense`` equal to its definition, and the
    records always read back as the model's."""

    def __init__(self):
        super().__init__()
        self.page = Page(3, PAGE_DATA)
        self.model: list[bytes] = []

    def _slot(self, data, extra=0):
        return data.draw(st.integers(0, len(self.model) - 1 + extra))

    @rule(record=RECORDS)
    def add(self, record):
        try:
            self.page.add_record(record)
        except PageFullError:
            return
        self.model.append(record)

    @rule(records=st.lists(RECORDS, max_size=40))
    def add_run(self, records):
        """One body append leaves the page as one ``add_record`` per
        record would — or, when they do not all fit, untouched."""
        twin = self.page.clone(self.page.pv)
        try:
            for record in records:
                twin.add_record(record)
        except PageFullError:
            twin = None
        before = (list(self.page._slots), bytes(self.page._body),
                  self.page._dense)
        try:
            self.page.add_records(records)
        except PageFullError:
            assert twin is None
            assert (self.page._slots, self.page._body,
                    self.page._dense) == before
            return
        self.model.extend(records)
        assert (self.page._slots, self.page._body, self.page._dense) \
            == (twin._slots, twin._body, twin._dense)

    @rule(record=RECORDS, data=st.data())
    def insert(self, record, data):
        slot = self._slot(data, extra=1)
        try:
            self.page.insert_record(slot, record)
        except PageFullError:
            return
        self.model.insert(slot, record)

    @precondition(lambda self: self.model)
    @rule(record=RECORDS, data=st.data())
    def replace(self, record, data):
        slot = self._slot(data)
        try:
            self.page.replace_record(slot, record)
        except PageFullError:
            return
        self.model[slot] = record

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        slot = self._slot(data)
        self.page.delete_record(slot)
        del self.model[slot]

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete_run(self, data):
        """A slot slice leaves the page as one ``delete_record`` per
        slot would."""
        start = self._slot(data)
        stop = data.draw(st.integers(start + 1, len(self.model)))
        twin = self.page.clone(self.page.pv)
        for _ in range(start, stop):
            twin.delete_record(start)
        self.page.delete_records(start, stop)
        del self.model[start:stop]
        assert (self.page._slots, self.page._body, self.page._dense) \
            == (twin._slots, twin._body, twin._dense)
        for bad in ((start, start), (-1, 1), (0, len(self.model) + 1)):
            with pytest.raises(IndexError):
                self.page.delete_records(*bad)

    @rule()
    def compact(self):
        self.page.compact()

    @rule()
    def take_all(self):
        assert self.page.take_all_records() == self.model
        self.model = []

    @rule()
    def clone(self):
        self.page = self.page.clone(self.page.pv + 1)

    @rule()
    def pickle_round_trip(self):
        self.page = pickle.loads(pickle.dumps(self.page))

    @invariant()
    def marker_matches_layout(self):
        page = self.page
        assert page._dense == dense_from_layout(page) \
            == page._scan_dense()
        assert list(page.records()) == self.model

    @invariant()
    def block_and_matrix_match_records(self):
        page = self.page
        block, matrix = page.record_block(), page.record_matrix()
        lengths = {len(r) for r in self.model}
        if len(lengths) == 1 and lengths != {0}:
            assert [bytes(row) for row in matrix] == self.model
            assert matrix.flags.owndata  # a gather, never a body view
            length, buffer = block
            assert {length} == lengths
            assert bytes(buffer) == b"".join(self.model)
            # Rung 1: a dense page hands over the body itself.
            assert (buffer is page._body) == (page._dense > 0)
        else:
            assert block is None and matrix is None


PageMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
TestPageDenseMarker = PageMachine.TestCase


def test_page_state_without_the_marker_is_recomputed():
    page = Page(1, PAGE_DATA)
    for _ in range(3):
        page.add_record(b"r" * 16)
    cls, args, state = page.__reduce_ex__(2)[:3]
    del state[1]["_dense"]
    old = cls(*args)
    old.__setstate__(state)
    assert old._dense == 16
    old.delete_record(1)
    del state[1]["_slots"][1]
    older = cls(*args)
    older.__setstate__(state)
    assert older._dense == -1
    assert list(older.records()) == list(old.records())


# -- (b) from_pages against the per-record path ------------------------------


def reference_batch(table, pages) -> RowBatch:
    """The batch the per-record slot loop builds (the pre-decoder
    path, kept here as the reference)."""
    keys, payloads = [], []
    for page in pages:
        for slot in range(page.slot_count):
            record = page.get_record(slot)
            keys.append(int.from_bytes(record[:8], "little", signed=True))
            payloads.append(record[8:])
    return RowBatch(table, keys, payloads)


def same_cell(a, b) -> bool:
    if isinstance(a, MaxBlobHandle) or isinstance(b, MaxBlobHandle):
        return isinstance(a, MaxBlobHandle) \
            and isinstance(b, MaxBlobHandle) and a.ref == b.ref
    if isinstance(a, float) and isinstance(b, float):
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return type(a) is type(b) and a == b


def assert_same_column(got, want, label):
    """The same cells and the same NULL mask, whatever each side's
    representation (a uniform binary column is a ``V{size}`` array
    where the per-record reference holds ``bytes`` objects)."""
    (gv, gm), (wv, wm) = got, want
    assert (gm is None) == (wm is None), label
    if gm is not None:
        assert gm.dtype == wm.dtype == bool and (gm == wm).all(), label
    assert gv.shape == wv.shape, label
    n = len(gv)
    assert all(map(same_cell, to_pylist(gv, gm, n),
                   to_pylist(wv, wm, n))), label


def assert_binary_matrix(values, size, n, records=None):
    """A uniform in-row binary column: one ``V{size}`` array, a cell a
    row — a strided view of the batch's record matrix ``records``, or,
    carried through ``compact`` (which gathers the cells), a byte
    matrix of its own."""
    assert values.dtype == np.dtype(f"V{size}") and values.shape == (n,)
    if records is not None:
        assert np.shares_memory(values, records)
        assert values.strides == (records.shape[1],)
    else:
        owner = values if values.base is None else values.base
        assert isinstance(owner, np.ndarray) and owner.flags.owndata
    assert values[:, None].view(np.uint8).shape == (n, size)


def assert_batches_identical(table, pages):
    got = RowBatch.from_pages(table, pages)
    want = reference_batch(table, pages)
    assert got.n == want.n
    assert got.keys.tolist() == want.keys.tolist()
    assert got.payload_bytes == want.payload_bytes
    counted = RowBatch.counted(table, pages)  # what COUNT(*) scans
    assert (counted.n, counted.payload_bytes) == (got.n, got.payload_bytes)
    # Columns first: they must decode without ``payloads`` having
    # been materialized.
    for col in table.columns:
        assert_same_column(got.column(col.name), want.column(col.name),
                           col.name)
    assert got.payloads == want.payloads
    assert all(type(p) is bytes for p in got.payloads)
    for g, w in zip(got.rows(), want.rows()):
        assert len(g) == len(w) and all(map(same_cell, g, w))
    if got.n:
        keep = np.arange(got.n) % 3 != 1
        fresh = RowBatch.from_pages(table, pages)
        for a, b in ((got, want),                      # columns cached
                     (fresh, reference_batch(table, pages))):
            a, b = a.compact(keep), b.compact(keep)
            assert a.n == b.n and a.keys.tolist() == b.keys.tolist()
            assert a.payloads == b.payloads
            assert a.payload_bytes == b.payload_bytes
            for col in table.columns:
                assert_same_column(a.column(col.name),
                                   b.column(col.name), col.name)
    return got


def leaf_pages(table):
    return [table._pagefile.get(pid) for pid in table.data_page_ids()]


def key_at(page, slot=0) -> int:
    return int.from_bytes(page.get_record(slot)[:8], "little", signed=True)


def make_table():
    db = Database()
    table = db.create_table(
        "t", [Column("id", "bigint"), Column("x", "float"),
              Column("r", "real"), Column("k", "int"),
              Column("s", "smallint"), Column("b", "varbinary", cap=64),
              Column("mb", "varbinary_max")])
    return db, table


def row(i, rng, b=b"v" * 24, mb=b"w" * 100):
    return (i, None if rng.random() < 0.2 else rng.uniform(-9, 9),
            rng.uniform(-1, 1), None if rng.random() < 0.2 else i % 7,
            i % 300 - 150, b, mb)


class TestFromPagesShapes:
    def test_dense_bulk_loaded_pages(self):
        _db, table = make_table()
        rng = random.Random(1)
        table.insert_many([row(i, rng) for i in range(500)])
        pages = leaf_pages(table)
        assert len(pages) > 2 and all(p._dense > 0 for p in pages)
        batch = assert_batches_identical(table, pages)
        assert batch._records is not None
        assert_binary_matrix(batch.column("b")[0], 24, 500, batch._records)
        assert_binary_matrix(batch.column("mb")[0], 100, 500,
                             batch._records)
        kept = batch.compact(np.arange(500) % 2 == 0)
        assert_binary_matrix(kept.column("b")[0], 24, 250)

    def test_holed_and_reordered_pages_after_churn(self):
        _db, table = make_table()
        rng = random.Random(2)
        table.insert_many([row(i * 2, rng) for i in range(500)])
        # Holes and out-of-order inserts below key 600; updates (a
        # replace + compact, which leaves the page dense) above it.
        for key in rng.sample(range(0, 600, 2), 90):
            table.delete(key)
        for key in rng.sample(range(1, 600, 2), 60):
            table.insert(row(key, rng))
        for key in range(600, 1000, 18):
            table.update(row(key, rng))
        pages = leaf_pages(table)
        markers = {p._dense > 0 for p in pages}
        assert markers == {True, False}  # both rungs in one run
        batch = assert_batches_identical(table, pages)
        assert batch._records is not None
        for page in pages:  # and one page at a time
            assert_batches_identical(table, [page])

    def test_null_shortened_var_columns_take_the_per_record_path(self):
        _db, table = make_table()
        rng = random.Random(3)
        table.insert_many([
            row(i, rng, b=None if i % 5 == 0 else b"v" * (i % 3 + 1),
                mb=None if i % 7 == 0 else b"w" * 10)
            for i in range(300)])
        pages = leaf_pages(table)
        batch = assert_batches_identical(table, pages)
        assert batch._records is None

    def test_equal_length_rows_with_different_var_shapes(self):
        # b and mb trade bytes: every record is the same length, but
        # the size fields differ, so the uniform var path must decline.
        _db, table = make_table()
        rng = random.Random(4)
        table.insert_many([
            row(i, rng, b=b"v" * (10 + i % 4), mb=b"w" * (10 - i % 4))
            for i in range(200)])
        batch = assert_batches_identical(table, leaf_pages(table))
        assert batch._records is not None
        assert batch.column("b")[0].dtype == object

    def test_mixed_inline_and_out_of_page_varbinary_max(self):
        db, table = make_table()
        rng = random.Random(5)
        big = bytes(range(256)) * 40
        table.insert_many([
            row(i, rng, mb=big if i % 2 else b"w" * 14)
            for i in range(120)])
        # Inline 14 bytes + 3 of header == the 15-byte pointer + 2:
        # lengths differ, so mixed rows go per-record ...
        batch = assert_batches_identical(table, leaf_pages(table))
        handles = [v for v in batch.column("mb")[0]
                   if isinstance(v, MaxBlobHandle)]
        assert len(handles) == 60
        assert handles[0].read_all(db.pool) == big
        # ... and all-out-of-page rows take the uniform var path.
        _db2, table2 = make_table()
        table2.insert_many([row(i, rng, mb=big + bytes([i]))
                            for i in range(120)])
        batch = assert_batches_identical(table2, leaf_pages(table2))
        assert batch._records is not None
        assert all(isinstance(v, MaxBlobHandle)
                   for v in batch.column("mb")[0])

    def test_equal_length_mix_of_inline_and_pointer_cells(self):
        # A 12-byte inline value (3 + 12) is exactly as long as an
        # out-of-page pointer cell (15): one record matrix, but the
        # flag bytes differ, so the var columns walk row by row.
        _db, table = make_table()
        rng = random.Random(6)
        big = b"z" * 9000
        table.insert_many([row(i, rng, mb=big if i % 3 else b"w" * 12)
                           for i in range(90)])
        batch = assert_batches_identical(table, leaf_pages(table))
        assert batch._records is not None

    def test_empty_pages_and_empty_runs(self):
        _db, table = make_table()
        assert RowBatch.from_pages(table, []).n == 0
        assert list(table.scan_batches()) == []
        rng = random.Random(7)
        table.insert_many([row(i, rng) for i in range(40)])
        empty = Page(99, PAGE_DATA)
        holed_empty = Page(98, PAGE_DATA)
        holed_empty.add_record(b"x" * 16)
        holed_empty.delete_record(0)
        assert holed_empty._dense == 0 and not holed_empty._body
        # Snapshots written before this PR can hold an emptied leaf
        # that still carries its garbage.
        holed_empty._body += b"x" * 16
        holed_empty._dense = holed_empty._scan_dense()
        assert holed_empty._dense == -1
        pages = [empty, *leaf_pages(table), holed_empty]
        batch = assert_batches_identical(table, pages)
        assert batch.n == 40 and batch._records is not None
        assert RowBatch.from_pages(table, [empty, holed_empty]).n == 0
        none = batch.compact(np.zeros(batch.n, dtype=bool))
        assert none.n == 0 and none.payloads == []
        assert none.column("x")[0].shape == (0,)

    def test_dense_and_holed_pages_of_one_length_join_one_run(self):
        _db, table = make_table()
        rng = random.Random(9)
        table.insert_many([row(i, rng) for i in range(300)])
        table.delete(5)  # a hole in the first leaf only
        pages = leaf_pages(table)
        assert [p._dense > 0 for p in pages[:3]] == [False, True, True]
        batch = assert_batches_identical(table, pages)
        assert batch._records is not None and batch.n == 299
        assert_batches_identical(table, pages[1:] + pages[:1])

    def test_two_dense_lengths_in_one_run_go_per_record(self):
        _db, table = make_table()
        _db2, longer = make_table()
        rng = random.Random(10)
        table.insert_many([row(i, rng) for i in range(200)])
        longer.insert_many([row(i, rng, b=b"v" * 30)
                            for i in range(200, 400)])
        pages = leaf_pages(table)[:2] + leaf_pages(longer)[:2]
        assert all(p._dense > 0 for p in pages)
        assert len({p._dense for p in pages}) == 2
        batch = assert_batches_identical(table, pages)
        assert batch._records is None
        for same in (pages[:2], pages[2:]):
            assert RowBatch.from_pages(table, same)._records is not None

    def test_empty_pages_first_between_and_last(self):
        _db, table = make_table()
        rng = random.Random(11)
        table.insert_many([row(i, rng) for i in range(200)])
        pages = leaf_pages(table)
        assert len(pages) >= 3
        whole = assert_batches_identical(table, pages)
        empties = [Page(90 + i, PAGE_DATA) for i in range(4)]
        spread = [empties[0], pages[0], empties[1], empties[2],
                  *pages[1:], empties[3]]
        batch = assert_batches_identical(table, spread)
        assert batch._records is not None
        assert batch._records.tobytes() == whole._records.tobytes()

    @pytest.mark.parametrize("mvcc", [False, True])
    def test_one_page_runs_and_batch_pages_1(self, mvcc):
        db, table = make_table()
        rng = random.Random(12)
        table.insert_many([row(i, rng) for i in range(300)])
        pages = leaf_pages(table)
        for page in pages:
            one = assert_batches_identical(table, [page])
            assert one.n == page.slot_count and one._records is not None
        with table.pin_snapshot() as snap:
            source = snap if mvcc else table
            batches = list(source.scan_batches(db.pool, batch_pages=1))
        assert [b.n for b in batches] == [p.slot_count for p in pages]
        assert [r for b in batches for r in b.rows()] == list(table.scan())

    @pytest.mark.parametrize("batch_pages", [1, 3, 64])
    def test_a_stop_on_off_and_past_a_run_boundary(self, batch_pages):
        db, table = make_table()
        rng = random.Random(13)
        table.insert_many([row(i, rng) for i in range(600)])
        pages = leaf_pages(table)
        firsts = [key_at(p) for p in pages]
        assert len(pages) >= 8
        pool = db.pool
        with table.pin_snapshot() as snap:
            descent = len(snap.tree.charge_scan_descent(pool))
            # The first leaf of runs 2 and 3 (a boundary when the run
            # length divides it), a key inside a leaf, past the end.
            for stop in (firsts[3], firsts[6], firsts[4] + 1,
                         firsts[1], firsts[0], firsts[-1] + 10_000):
                want = [p for p, first in zip(pages, firsts)
                        if first < stop or p is pages[0]]
                before = pool.snapshot_thread_counters()
                runs = list(snap.tree.scan_leaf_batches(
                    pool, batch_pages=batch_pages, stop=stop))
                charged = pool.snapshot_thread_counters().delta_since(
                    before).logical_reads
                assert [p for run in runs for p in run] == want
                assert all(len(run) == batch_pages for run in runs[:-1])
                # The leaf that ended the scan was looked at, never
                # charged: the descent, then each yielded leaf once.
                assert charged == descent + len(want) - 1


# -- (c) snapshots written before the marker existed -------------------------


def test_database_saved_by_the_parent_commit_loads_and_scans():
    db = Database.open(LEGACY_DB)
    table = db.tables["legacy"]
    pages = leaf_pages(table)
    assert all(p._dense == dense_from_layout(p) for p in pages)
    assert {p._dense > 0 for p in pages} == {True, False}
    expected = {i * 2: (i * 2, i * 0.5, bytes([i % 251]) * 24)
                for i in range(400)}
    for key in range(100, 160, 6):
        del expected[key]
    expected[301] = (301, -1.0, b"m" * 24)
    expected[20] = (20, 99.0, b"u" * 24)
    expected[700] = (700, None, None)
    assert list(table.scan()) == [expected[k] for k in sorted(expected)]
    rows = [r for batch in table.scan_batches(batch_pages=1)
            for r in batch.rows()]
    assert rows == list(table.scan())
    for page in pages:
        assert_batches_identical(table, [page])
    session = SqlSession(db)
    sql = "SELECT COUNT(*), SUM(x) FROM legacy WHERE id < 700"
    assert session.query(sql)[0] == row_oracle.query(session, sql)[0]
    # The loaded pages stay writable and the marker keeps tracking.
    table.insert((9001, 1.0, b"n" * 24))
    assert all(p._dense == dense_from_layout(p)
               for p in leaf_pages(table))


# -- no page-body view escapes from_pages ------------------------------------


@pytest.mark.parametrize("leaves", ["one", "many"])
def test_a_kept_batch_does_not_pin_the_leaf(leaves):
    db, table = make_table()
    rng = random.Random(8)
    # Dense leaves with room to spare: the kept batches were cut from
    # exactly the pages the inserts below land in.
    if leaves == "one":
        table.insert_many([row(i * 4, rng) for i in range(20)])
        assert len(table.data_page_ids()) == 1
    else:
        table.insert_many([row(i * 4, rng) for i in range(200)])
        for page in leaf_pages(table):  # split every full leaf in two
            if not page.fits(page._dense):
                table.insert(row(key_at(page) + 1, rng))
        assert len(table.data_page_ids()) >= 8
    rows = table.row_count
    pages = leaf_pages(table)
    assert all(p._dense > 0 and p.fits(4 * p._dense) for p in pages)
    middles = [key_at(p, 2) + 1 for p in pages]
    # Two keys past each leaf's last one, short of the next leaf's.
    runs = [key_at(p, p.slot_count - 1) + step for p in pages
            for step in (1, 2)]
    batches = list(table.scan_batches(db.pool))
    with table.pin_snapshot() as snap:
        batches += list(snap.scan_batches(db.pool))
    assert [b._records is not None for b in batches] == [True] * 2
    before = [(b.keys.copy(), b.column("x")[0].copy(),
               b.column("b")[0].tolist(), list(b.payloads))
              for b in batches]
    # Without MVCC — the bare tree, in place: growing a body some view
    # still exported would raise ``BufferError`` — a run appended to
    # every leaf in one body append each ...
    bodies = [id(p._body) for p in pages]
    table._tree.insert_many(runs, [
        leaf_record(key, table._encode_row(row(key, rng))) for key in runs])
    assert [id(p._body) for p in leaf_pages(table)] == bodies
    assert all(p._dense > 0 for p in pages)
    # ... a record into the middle of every leaf ...
    for page, key in zip(pages, middles):
        encoded = table._encode_row(row(key, rng))
        table._tree.insert(key, encoded)
        assert table._pagefile.get(page.page_id) is page
        assert page._dense == -1
    # ... and with it (copy-on-write clones), again into every leaf.
    table.insert(row(100_001, rng))     # append to the last leaf
    for key in middles:
        table.insert(row(key + 1, rng))
    SqlSession(db).execute("DELETE FROM t WHERE id = 4")
    assert table.row_count == rows + 4 * len(pages)
    for batch, (keys, xs, bs, payloads) in zip(batches, before):
        assert batch.n == rows
        assert (batch.keys == keys).all()
        assert batch.column("x")[0].tobytes() == xs.tobytes()
        assert batch.column("b")[0].tolist() == bs
        assert batch.payloads == payloads
        assert_binary_matrix(batch.column("b")[0], 24, rows,
                             batch._records)
    assert [r[0] for r in table.scan()] == sorted(
        set(keys.tolist()) - {4} | set(middles) | set(runs)
        | {key + 1 for key in middles} | {100_001})


# -- binary cells stay a matrix on the Table 1 scans -------------------------


def test_q4_and_q5_build_no_bytes_cells(monkeypatch):
    """Q4 and Q5 read ``v`` through its ``V{size}`` matrix only: no
    call makes ``bytes`` of a matrix's rows, and no batch caches an
    object column for ``v`` — 0 cells built for 2 000 rows a scan."""
    db = Database()
    tvector = db.create_table(
        "Tvector", [Column("id", "bigint"),
                    Column("v", "varbinary", cap=100)])
    rng = np.random.default_rng(7)
    tvector.insert_many([(i, FloatArray.Vector_5(*rng.standard_normal(5)))
                         for i in range(2000)])
    session = SqlSession(db)
    queries = [
        "SELECT SUM(FloatArray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)",
        "SELECT SUM(dbo.EmptyFunction(v, 0)) FROM Tvector WITH (NOLOCK)"]
    want = [row_oracle.query(session, sql)[0] for sql in queries]

    made = []
    row_bytes = vectorized._row_bytes
    monkeypatch.setattr(vectorized, "_row_bytes",
                        lambda matrix: made.append(len(matrix))
                        or row_bytes(matrix))
    cached = []
    column = RowBatch.column

    def spy_column(self, name):
        out = column(self, name)
        if name == "v":
            cached.append(self._columns["v"][0].dtype)
        return out

    monkeypatch.setattr(RowBatch, "column", spy_column)
    for sql, expected in zip(queries, want):
        assert session.query(sql, cold=True)[0] == expected
    assert made == []
    size = len(FloatArray.Vector_5(0, 0, 0, 0, 0))
    assert cached and set(cached) == {np.dtype(f"V{size}")}


# -- a statement that reads no column joins no page --------------------------


@pytest.mark.parametrize("sql, joins", [
    ("SELECT COUNT(*) FROM t", False),
    ("SELECT COUNT(*), COUNT(*) FROM t", False),
    ("SELECT COUNT(*) FROM t WHERE x > 0", True),
    ("SELECT COUNT(*), SUM(x) FROM t", True),
    ("SELECT k, COUNT(*) FROM t GROUP BY k", True),
])
def test_count_star_scans_counted_batches(monkeypatch, sql, joins):
    db, table = make_table()
    rng = random.Random(10)
    table.insert_many([row(i, rng) for i in range(3000)])
    for key in range(0, 3000, 7):  # holed leaves: no dense marker
        table.delete(key)
    session = SqlSession(db)
    want = row_oracle.query(session, sql)
    blocks = []
    record_block = Page.record_block
    monkeypatch.setattr(Page, "record_block",
                        lambda page: blocks.append(page)
                        or record_block(page))
    got = session.query(sql)
    assert got[0] == want[0]
    assert want[1].rows == 3000 - 429
    # Same rows, payload bytes (in the CPU charge) and page reads.
    got, want = got[1].to_dict(), want[1].to_dict()
    for key in ("wall_seconds", "engine"):
        del got[key], want[key]
    assert got == want
    assert bool(blocks) == joins


# -- no state kept past a batch is a view of its record matrix ---------------


def arrays_in(obj):
    """Every NumPy array an object holds (wire columns, nested)."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, Columns):
        yield from arrays_in(obj.columns)
    elif isinstance(obj, ColumnarColumn):
        for part in (obj.values, obj.sizes, obj.nulls):
            yield from arrays_in(part)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays_in(item)


@pytest.mark.parametrize("sql", [
    "SELECT id, SUM(FloatArray.Item_1(v, 0)), MAX(v), COUNT(*) FROM t "
    "WHERE id > 5 GROUP BY id",
    "SELECT k, AVG(FloatArray.Item_1(v, 2)), MIN(v), MAX(x) FROM t "
    "GROUP BY k",
])
def test_no_state_kept_past_a_batch_views_its_records(monkeypatch, sql):
    db = Database()
    table = db.create_table(
        "t", [Column("id", "bigint"), Column("x", "float"),
              Column("k", "int"), Column("v", "varbinary", cap=400)])
    rng = np.random.default_rng(11)
    table.insert_many([
        (i, float(rng.standard_normal()), i % 5,
         FloatArray.Vector([float(x) for x in rng.standard_normal(35)]))
        for i in range(4000)])
    seen = []
    init = RowBatch.__init__

    def spy(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self._records is not None:
            seen.append(self._records)

    monkeypatch.setattr(RowBatch, "__init__", spy)
    groups = SqlSession(db).query_partial(sql)["groups"]
    assert len(seen) >= 3  # several batches, compacted ones too
    kept = list(groups._keys.parts)
    for column in groups.columns:
        values = getattr(column, "_values", None)  # a count has none
        kept += column._counts.parts + ([] if values is None
                                        else values.parts)
    kept += arrays_in(Columns.from_group_arrays(*groups.arrays()))
    assert kept
    assert not [a for a in kept for records in seen
                if np.shares_memory(a, records)]
