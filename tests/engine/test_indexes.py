"""Secondary (nonclustered) index tests."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.engine import (
    Column,
    Database,
    DuplicateKeyError,
    SchemaError,
    SqlSession,
    float_to_ordered_int,
    ordered_int_to_float,
)
from repro.engine.constants import PAGE_INDEX
from tests.engine import row_oracle


class TestFloatKeyTransform:
    @settings(max_examples=200)
    @given(a=st.floats(allow_nan=False), b=st.floats(allow_nan=False))
    def test_order_preserving(self, a, b):
        ka, kb = float_to_ordered_int(a), float_to_ordered_int(b)
        if a < b:
            assert ka < kb
        elif a > b:
            assert ka > kb

    @settings(max_examples=200)
    @given(v=st.floats(allow_nan=False))
    def test_roundtrip(self, v):
        assert ordered_int_to_float(float_to_ordered_int(v)) == v

    def test_extremes(self):
        import math
        assert float_to_ordered_int(-math.inf) < \
            float_to_ordered_int(-1e308) < \
            float_to_ordered_int(0.0) < \
            float_to_ordered_int(5e-324) < \
            float_to_ordered_int(math.inf)


@pytest.fixture
def indexed_table():
    db = Database()
    t = db.create_table("m", [Column("id", "bigint"),
                              Column("temp", "float"),
                              Column("cat", "int")])
    rng = np.random.default_rng(1)
    temps = rng.uniform(0.0, 100.0, 500)
    cats = rng.integers(0, 8, 500)
    for i in range(500):
        t.insert((i, float(temps[i]), int(cats[i])))
    t.create_index("temp")
    t.create_index("cat")
    return db, t, temps, cats


class TestMaintenance:
    def test_backfill_counts(self, indexed_table):
        _db, t, _temps, cats = indexed_table
        assert t.index_on("cat").entry_count == 500
        assert t.index_on("cat").distinct_keys == len(np.unique(cats))

    def test_seek_equality(self, indexed_table):
        _db, t, _temps, cats = indexed_table
        for value in range(8):
            got = sorted(t.index_on("cat").seek(value))
            want = sorted(np.nonzero(cats == value)[0])
            assert got == want

    def test_range_scan_floats(self, indexed_table):
        _db, t, temps, _cats = indexed_table
        got = sorted(t.index_on("temp").range(25.0, 50.0))
        want = sorted(np.nonzero((temps >= 25.0) & (temps < 50.0))[0])
        assert got == want

    def test_open_ranges(self, indexed_table):
        _db, t, temps, _cats = indexed_table
        assert sorted(t.index_on("temp").range(hi=10.0)) == \
            sorted(np.nonzero(temps < 10.0)[0])
        assert sorted(t.index_on("temp").range(lo=90.0)) == \
            sorted(np.nonzero(temps >= 90.0)[0])

    def test_delete_removes_entries(self, indexed_table):
        _db, t, _temps, cats = indexed_table
        victim_cat = int(cats[10])
        assert 10 in t.index_on("cat").seek(victim_cat)
        t.delete(10)
        assert 10 not in t.index_on("cat").seek(victim_cat)
        assert t.index_on("cat").entry_count == 499

    def test_delete_many_removes_entries_of_the_rows_that_existed(
            self, indexed_table):
        _db, t, temps, cats = indexed_table
        version = t.version
        doomed = list(range(100, 300)) + [7, 7, -1, 9999]
        assert t.delete_many(doomed) == 201
        assert t.version == version + 1  # one published version
        kept = np.ones(500, dtype=bool)
        kept[100:300] = False
        kept[7] = False
        for value in range(8):
            assert sorted(t.index_on("cat").seek(value)) == \
                sorted(np.nonzero((cats == value) & kept)[0])
        assert sorted(t.index_on("temp").range(0.0, 101.0)) == \
            sorted(np.nonzero(kept)[0])
        assert t.index_on("cat").entry_count == 299
        assert t.delete_many(doomed) == 0
        assert t.version == version + 1  # nothing to publish

    def test_insert_many_indexes_the_rows_before_a_duplicate(
            self, indexed_table):
        _db, t, _temps, _cats = indexed_table
        rows = [(1000 + i, 200.0 + i, 9) for i in range(50)]
        rows[30] = (250, 0.0, 9)  # key 250 exists
        with pytest.raises(DuplicateKeyError):
            t.insert_many(rows)
        assert t.row_count == 530
        assert sorted(t.index_on("cat").seek(9)) == \
            [1000 + i for i in range(30)]
        assert sorted(t.index_on("temp").range(200.0, 300.0)) == \
            [1000 + i for i in range(30)]

    def test_update_moves_entries(self, indexed_table):
        _db, t, temps, cats = indexed_table
        t.update((5, 999.0, int(cats[5])))
        assert 5 not in sorted(t.index_on("temp").range(0.0, 100.0))
        assert t.index_on("temp").seek(999.0) == [5]

    def test_null_values_not_indexed(self):
        db = Database()
        t = db.create_table("t", [Column("id", "bigint"),
                                  Column("x", "int")])
        t.create_index("x")
        t.insert((1, None))
        t.insert((2, 7))
        assert t.index_on("x").entry_count == 1
        assert t.index_on("x").seek(None) == []

    def test_duplicate_values_share_posting_list(self):
        db = Database()
        t = db.create_table("t", [Column("id", "bigint"),
                                  Column("x", "int")])
        t.create_index("x")
        for i in range(20):
            t.insert((i, 42))
        idx = t.index_on("x")
        assert idx.distinct_keys == 1
        assert sorted(idx.seek(42)) == list(range(20))


class TestSchemaRules:
    def test_cannot_index_pk(self, indexed_table):
        _db, t, _temps, _cats = indexed_table
        with pytest.raises(SchemaError):
            t.create_index("id")

    def test_cannot_index_twice(self, indexed_table):
        _db, t, _temps, _cats = indexed_table
        with pytest.raises(SchemaError):
            t.create_index("temp")

    def test_cannot_index_varbinary(self):
        db = Database()
        t = db.create_table("t", [Column("id", "bigint"),
                                  Column("v", "varbinary", cap=10)])
        with pytest.raises(SchemaError):
            t.create_index("v")


class TestPlanner:
    def test_equality_uses_index(self, indexed_table):
        db, t, _temps, cats = indexed_table
        s = SqlSession(db)
        (n,), m = s.query("SELECT COUNT(*) FROM m WHERE cat = 3")
        assert n == (cats == 3).sum()
        # Index plan reads far fewer rows than the table holds.
        assert m.rows == n

    def test_range_uses_index(self, indexed_table):
        db, _t, temps, _cats = indexed_table
        s = SqlSession(db)
        (n,), m = s.query(
            "SELECT COUNT(*) FROM m WHERE temp >= 10 AND temp < 20")
        assert n == ((temps >= 10) & (temps < 20)).sum()
        assert m.rows == n  # only qualifying rows touched

    def test_scan_fallback_same_answer(self, indexed_table):
        db, _t, temps, _cats = indexed_table
        s = SqlSession(db)
        # '>' is not index-plannable here; falls back to a scan.
        (n,), m = s.query(
            "SELECT COUNT(*) FROM m WHERE temp > 10 AND temp < 20")
        assert n == ((temps > 10) & (temps < 20)).sum()
        assert m.rows == 500  # full scan touched every row

    def test_unindexed_column_scans(self, indexed_table):
        db, _t, _temps, _cats = indexed_table
        s = SqlSession(db)
        (n,), m = s.query("SELECT COUNT(*) FROM m WHERE id >= 0")
        assert m.rows == 500

    def test_aggregate_over_index_plan(self, indexed_table):
        db, _t, temps, cats = indexed_table
        s = SqlSession(db)
        (avg,), _m = s.query(
            "SELECT AVG(temp) FROM m WHERE cat = 2")
        assert avg == pytest.approx(temps[cats == 2].mean())

    def test_a_null_constant_plans_a_scan(self):
        db = Database()
        t = db.create_table("t", [Column("id", "bigint"),
                                  Column("x", "float")])
        t.insert_many([(1, 0.0), (2, None)])
        t.create_index("x")
        s = SqlSession(db)
        sql = "SELECT COUNT(*) FROM t WHERE x = NULL"
        assert s.plan_select(sql).kind == "scan"
        assert s.query(sql)[0] == (0,)


# -- the index plan against the scan ------------------------------------------

#: Constants a corpus statement compares the column with: both zeros'
#: spelling, fractions an integer column holds none of, values a REAL
#: column rounds, and bounds outside the data.
EQUALS = ["0", "0.0", "0.1", "0.5", "1", "2", "2.5", "3", "7.25", "1000",
          "1e308", "NULL"]
RANGES = [("0", "1"), ("0.0", "1.0"), ("0.1", "0.5"), ("1.5", "3"),
          ("1", "2.5"), ("2", "3"), ("0.25", "300"), ("10.0", "300.0"),
          ("5", "1"), ("1000", "2000"), ("0", "1e308"), ("1e-300", "1")]
CORPUS = [f"x = {c}" for c in EQUALS] + \
    [f"x >= {lo} AND x < {hi}" for lo, hi in RANGES]
SELECT = "SELECT COUNT(*), SUM(y), AVG(y), MIN(x), MAX(x), SUM(id) FROM {} " \
    "WHERE {}"


def _bits(values):
    """A result with every float as its exact bits."""
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def _column_values(column_type, rng):
    if column_type == "int":
        return [None, 0, 1, 2, 3, 7, 1000]
    return [None, 0.0, -0.0, 0.1, 0.5, 2.0, 2.5, 7.25, 1000.0,
            float(rng.uniform(0.0, 400.0))]


def _twin_db(column_type, backfill, seed=5):
    """Tables ``plain`` and ``indexed``, one schema, taken through the
    same inserts, deletes, re-inserts and updates; only ``indexed``
    has an index on ``x`` — created first, or backfilled last."""
    rng = np.random.default_rng(seed)
    db = Database()
    tables = [db.create_table(name, [Column("id", "bigint"),
                                     Column("x", column_type),
                                     Column("y", "float")])
              for name in ("plain", "indexed")]
    if not backfill:
        tables[1].create_index("x")
    session = SqlSession(db)

    def rows(keys):
        out = []
        for key in keys:
            pick = _column_values(column_type, rng)
            x = pick[rng.integers(len(pick))] if rng.random() < 0.5 \
                else (int(rng.integers(0, 300)) if column_type == "int"
                      else float(rng.uniform(0.0, 400.0)))
            out.append((key, x, float(rng.uniform(-1.0, 1.0)
                                      * 10.0 ** rng.integers(-3, 4))))
        return out

    def both(write):
        for table in tables:
            write(table)

    first = rows(range(400))
    both(lambda t: session.insert_rows(t, first))
    for lo, hi in ((50, 90), (200, 230)):
        both(lambda t: session.execute(
            f"DELETE FROM {t.name} WHERE id >= {lo} AND id < {hi}"))
    again = rows(range(60, 80))
    both(lambda t: session.insert_rows(t, again))
    for row in rows(range(300, 340, 3)):
        both(lambda t: t.update(row))
    if backfill:
        tables[1].create_index("x")
    return db, session


@pytest.mark.parametrize("backfill", [False, True],
                         ids=["kept-up", "backfilled"])
@pytest.mark.parametrize("column_type", ["float", "real", "int"])
def test_an_index_plan_answers_as_the_scan_bit_for_bit(column_type,
                                                      backfill):
    db, session = _twin_db(column_type, backfill)
    index = db.tables["indexed"].index_on("x")
    stored = [row[1] for row in db.tables["indexed"].scan()]
    assert index.entry_count == sum(x is not None for x in stored)
    for where in CORPUS:
        indexed = SELECT.format("indexed", where)
        want = session.query(SELECT.format("plain", where))[0]
        assert _bits(row_oracle.query(
            session, SELECT.format("plain", where))[0]) == _bits(want)
        kind = session.plan_select(indexed).kind
        assert kind == ("scan" if where.endswith("NULL") else "index")
        assert _bits(session.query(indexed)[0]) == _bits(want), where


@pytest.mark.parametrize("column_type, rows, where, count", [
    ("float", [(1, 0.0), (2, -0.0), (3, 0.5)], "x = 0.0", 2),
    ("float", [(1, 0.0), (2, -0.0), (3, 0.5)], "x >= 0.0 AND x < 1.0", 3),
    ("int", [(1, 1), (2, 2), (3, 3)], "x = 2.5", 0),
    ("int", [(1, 1), (2, 2), (3, 3)], "x >= 1.5 AND x < 3", 1),
    ("int", [(1, 1), (2, 2), (3, 3)], "x >= 1 AND x < 2.5", 2),
    ("real", [(1, 0.1)], "x = 0.1", 0),
])
def test_the_index_compares_as_the_scan(column_type, rows, where, count):
    db = Database()
    t = db.create_table("t", [Column("id", "bigint"),
                              Column("x", column_type)])
    t.create_index("x")
    t.insert_many(rows)
    session = SqlSession(db)
    sql = f"SELECT COUNT(*) FROM t WHERE {where}"
    assert session.plan_select(sql).kind == "index"
    assert session.query(sql)[0] == (count,)


def test_a_real_index_forgets_a_deleted_row():
    db = Database()
    t = db.create_table("t", [Column("id", "bigint"),
                              Column("x", "real")])
    t.create_index("x")
    session = SqlSession(db)
    session.execute("INSERT INTO t VALUES (1, 0.1)")
    session.execute("DELETE FROM t WHERE id = 1")
    assert t.index_on("x").entry_count == 0
    session.execute("INSERT INTO t VALUES (1, 0.5)")
    assert session.query(
        "SELECT COUNT(*), MAX(x) FROM t WHERE x = 0.1")[0] == (0, None)


# -- versioned with the table -------------------------------------------------

def _index_pages_in_history(db):
    return sorted(pid for pid, pages in db.pagefile._history.items()
                  if pages and pages[0].kind == PAGE_INDEX)


def test_a_snapshot_reads_the_index_it_was_published_with():
    db = Database()
    t = db.create_table("t", [Column("id", "bigint"), Column("k", "int")])
    t.insert_many((i, i % 4) for i in range(300))
    before_index = t.pin_snapshot()
    t.create_index("k")
    snap = t.pin_snapshot()
    try:
        assert before_index.index_on("k") is None
        t.delete_many(range(0, 300, 2))
        t.insert_many((1000 + i, 1) for i in range(50))
        t.update((1, 3))
        assert sorted(snap.index_on("k").seek(1)) == \
            [i for i in range(300) if i % 4 == 1]
        assert sorted(snap.index_on("k").range(0, 4)) == list(range(300))
        assert sorted(t.index_on("k").seek(1)) == \
            [i for i in range(5, 300, 4)] + list(range(1000, 1050))
        assert _index_pages_in_history(db)
    finally:
        snap.unpin(db.pool)
        before_index.unpin(db.pool)
    assert _index_pages_in_history(db) == []
    assert db.pagefile._history == {}


def test_an_index_saved_by_the_parent_commit_loads_and_answers():
    """``parent_index.db`` was written by the commit before secondary
    indexes were versioned (``_published`` entries were 3-tuples); its
    index plans answer as they did there, and it stays writable."""
    db = Database.open(os.path.join(os.path.dirname(__file__), "data",
                                    "parent_index.db"))
    table = db.tables["ix"]
    assert sorted(table._indexes) == ["k", "r", "x"]
    session = SqlSession(db)
    answers = {  # as the parent commit's index plans gave them
        "k = 3": (91, -13880.5, 10, 699),
        "x = 99.0": (3, 11),
        "x >= 10.0 AND x < 60.0": (87, 3215.0, 310.0),
        "r >= 1.5 AND r < 4.0": (119, 54606),
        "k >= 2 AND k < 5": (172, -9297.0),
        "r = 7.5": (2,),
    }
    items = {
        "k = 3": "COUNT(*), SUM(x), MIN(id), MAX(id)",
        "x = 99.0": "COUNT(*), SUM(k)",
        "x >= 10.0 AND x < 60.0": "COUNT(*), SUM(x), SUM(r)",
        "r >= 1.5 AND r < 4.0": "COUNT(*), SUM(id)",
        "k >= 2 AND k < 5": "COUNT(*), SUM(x)",
        "r = 7.5": "COUNT(*)",
    }
    for where, want in answers.items():
        sql = f"SELECT {items[where]} FROM ix WHERE {where}"
        assert session.plan_select(sql).kind == "index"
        assert session.query(sql)[0] == want, where
    snap = table.pin_snapshot()
    try:
        session.execute("INSERT INTO ix VALUES (5000, 99.0, 3, 7.5)")
        session.execute("DELETE FROM ix WHERE id = 20")
        assert session.query(
            "SELECT COUNT(*) FROM ix WHERE x = 99.0")[0] == (3,)
        assert session.query(
            "SELECT COUNT(*) FROM ix WHERE r = 7.5")[0] == (2,)
        assert sorted(snap.index_on("x").seek(99.0)) == [20, 22, 476]
        assert sorted(table.index_on("x").seek(99.0)) == [22, 476, 5000]
    finally:
        snap.unpin(db.pool)


def test_a_negative_bound_plans_an_index_range():
    """``x >= -10.0 AND x < 30.0`` on ``parent_index.db``'s table is an
    index plan (a negative literal is a constant) answering as the
    scan of the same rows."""
    db = Database.open(os.path.join(os.path.dirname(__file__), "data",
                                    "parent_index.db"))
    session = SqlSession(db)
    sql = "SELECT COUNT(*), SUM(id) FROM ix WHERE x >= -10.0 AND x < 30.0"
    assert session.plan_select(sql).kind == "index"
    assert session.explain(sql) == \
        "index range scan on ix.x ([-10.0, 30.0))"
    rows = [row for row in db.tables["ix"].scan()
            if row[1] is not None and -10.0 <= row[1] < 30.0]
    assert rows and any(row[1] < 0 for row in rows)
    assert session.query(sql)[0] == (len(rows), sum(r[0] for r in rows))


def test_an_index_saved_before_versioning_is_rebuilt_as_stored():
    """``parent_reindex.db`` was written by the commit before indexes
    were versioned, with rows ``(1, 0.1, 0.0)`` and ``(2, 0.5, -0.0)``
    in ``t(id, x REAL, y FLOAT)`` and both columns indexed: the REAL
    index keyed ``0.1`` as given and the FLOAT one ``-0.0`` apart from
    ``0.0``.  Loaded, both are rebuilt from the rows, keyed as
    stored."""
    db = Database.open(os.path.join(os.path.dirname(__file__), "data",
                                    "parent_reindex.db"))
    session = SqlSession(db)
    table = db.tables["t"]
    sql = "SELECT COUNT(*) FROM t WHERE y = 0.0"
    assert session.plan_select(sql).kind == "index"
    assert session.query(sql)[0] == (2,)
    assert session.query("SELECT COUNT(*) FROM t WHERE x = 0.1")[0] == (0,)
    session.execute("DELETE FROM t WHERE id = 1")
    assert table.index_on("x").entry_count == 1
    assert table.index_on("y").entry_count == 1
    assert session.query(sql)[0] == (1,)


XS = [None, 0.0, -0.0, 0.5, 1.0, 2.5, 3.0]
KS = [None, 0, 1, 2, 5]


class IndexSnapshotMachine(RuleBasedStateMachine):
    """INSERT, DELETE and UPDATE interleaved with pinned snapshots:
    each snapshot's index seeks and ranges equal a filtered scan of
    that snapshot, and once every pin is gone no index page is left in
    the version history."""

    def __init__(self):
        super().__init__()
        self.db = Database()
        self.table = self.db.create_table(
            "t", [Column("id", "bigint"), Column("x", "float"),
                  Column("k", "int")])
        for column in ("x", "k"):
            self.table.create_index(column)
        self.session = SqlSession(self.db)
        self.snaps = []

    @rule(rows=st.lists(st.tuples(st.integers(0, 120),
                                  st.sampled_from(XS),
                                  st.sampled_from(KS)),
                        max_size=25, unique_by=lambda row: row[0]))
    def insert(self, rows):
        rows = [row for row in rows if self.table.get(row[0]) is None]
        self.session.insert_rows(self.table, rows)

    @rule(lo=st.integers(0, 120), width=st.integers(1, 40))
    def delete(self, lo, width):
        self.session.execute(
            f"DELETE FROM t WHERE id >= {lo} AND id < {lo + width}")

    @rule(key=st.integers(0, 120), x=st.sampled_from(XS),
          k=st.sampled_from(KS))
    def update(self, key, x, k):
        self.table.update((key, x, k))

    @rule()
    def pin(self):
        self.snaps.append(self.table.pin_snapshot())

    @precondition(lambda self: self.snaps)
    @rule(data=st.data())
    def unpin(self, data):
        snap = self.snaps.pop(data.draw(
            st.integers(0, len(self.snaps) - 1)))
        snap.unpin(self.db.pool)

    @invariant()
    def snapshots_read_their_own_index(self):
        tip = self.table.pin_snapshot()
        try:
            for snap in [*self.snaps, tip]:
                rows = list(snap.scan())
                for col, values in ((1, XS), (2, KS)):
                    index = snap.index_on(("x", "k")[col - 1])
                    for value in values:
                        assert sorted(index.seek(value)) == [
                            row[0] for row in rows
                            if row[col] is not None and row[col] == value]
                    for lo, hi in ((0, 1), (0.5, 3), (1, 6)):
                        assert sorted(index.range(lo, hi)) == [
                            row[0] for row in rows if row[col] is not None
                            and lo <= row[col] < hi]
        finally:
            tip.unpin(self.db.pool)

    def teardown(self):
        while self.snaps:
            self.snaps.pop().unpin(self.db.pool)
        assert _index_pages_in_history(self.db) == []


TestIndexSnapshots = IndexSnapshotMachine.TestCase
TestIndexSnapshots.settings = settings(max_examples=40,
                                       stateful_step_count=30,
                                       deadline=None)
