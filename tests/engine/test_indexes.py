"""Secondary (nonclustered) index tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    Column,
    Database,
    DuplicateKeyError,
    SchemaError,
    SqlSession,
    float_to_ordered_int,
    ordered_int_to_float,
)


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
