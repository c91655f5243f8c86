"""Clustered table tests: schema validation, row codec, blob routing."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.engine import (
    BlobStore,
    BufferPool,
    Column,
    DuplicateKeyError,
    MaxBlobHandle,
    PageFile,
    SchemaError,
    Table,
)
from repro.engine.btree import _KEY_STRUCT
from repro.engine.constants import MAX_IN_ROW_BYTES


@pytest.fixture
def db():
    f = PageFile()
    return f, BlobStore(f), BufferPool(f)


def _table(f, store, columns):
    return Table("t", columns, f, store)


class TestSchema:
    def test_pk_must_be_bigint(self, db):
        f, store, _pool = db
        with pytest.raises(SchemaError):
            _table(f, store, [Column("id", "int")])

    def test_no_columns(self, db):
        f, store, _pool = db
        with pytest.raises(SchemaError):
            _table(f, store, [])

    def test_duplicate_names(self, db):
        f, store, _pool = db
        with pytest.raises(SchemaError):
            _table(f, store, [Column("id", "bigint"),
                              Column("id", "float")])

    def test_unknown_type(self):
        with pytest.raises(SchemaError):
            Column("x", "text")

    def test_varbinary_cap_required(self):
        with pytest.raises(SchemaError):
            Column("v", "varbinary")  # cap 0
        with pytest.raises(SchemaError):
            Column("v", "varbinary", cap=MAX_IN_ROW_BYTES + 1)

    def test_max_column_needs_blob_store(self, db):
        f, _store, _pool = db
        with pytest.raises(SchemaError):
            Table("t", [Column("id", "bigint"),
                        Column("v", "varbinary_max")], f, None)


class TestRowCodec:
    def test_fixed_columns_roundtrip(self, db):
        f, store, pool = db
        t = _table(f, store, [
            Column("id", "bigint"), Column("a", "int"),
            Column("b", "smallint"), Column("c", "tinyint"),
            Column("d", "float"), Column("e", "real")])
        t.insert((1, -7, 300, -5, 2.5, 1.25))
        assert t.get(1) == (1, -7, 300, -5, 2.5, 1.25)

    def test_nulls_roundtrip(self, db):
        f, store, pool = db
        t = _table(f, store, [
            Column("id", "bigint"), Column("a", "int"),
            Column("v", "varbinary", cap=10),
            Column("m", "varbinary_max")])
        t.insert((1, None, None, None))
        assert t.get(1) == (1, None, None, None)
        t.insert((2, 5, b"xy", b"zz"))
        assert t.get(2) == (2, 5, b"xy", b"zz")

    def test_varbinary_cap_enforced(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("v", "varbinary", cap=4)])
        with pytest.raises(SchemaError):
            t.insert((1, b"12345"))

    def test_a_binary_cell_must_be_bytes(self, db):
        """``bytes(7)`` is seven NUL bytes and ``bytes(20_000_000)`` a
        20 MB blob: an integer in a binary column was zero-filled."""
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("v", "varbinary", cap=100),
                              Column("m", "varbinary_max")])
        with mock.patch.object(store, "store",
                               wraps=store.store) as stored:
            for row in [(1, 7, None), (1, None, 20_000_000),
                        (1, None, 2_000_000_000), (1, 1.5, None),
                        (1, None, [1, 2]), (1, "text", None)]:
                with pytest.raises(SchemaError, match="column [vm] takes"):
                    t.insert(row)
        assert not stored.called and t.row_count == 0
        t.insert((1, bytearray(b"ab"), memoryview(b"cd")))
        assert t.get(1) == (1, b"ab", b"cd")

    @pytest.mark.parametrize("key", [1.5, None, "7", b"7", float("nan"),
                                     float("inf"), 2 ** 63, -2 ** 63 - 1])
    def test_a_key_must_be_a_64_bit_integer(self, db, key):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        with pytest.raises(SchemaError, match="primary key column id"):
            t.insert((key, 1.0))
        with pytest.raises(SchemaError, match="primary key column id"):
            t.insert_many([(1, 1.0), (key, 1.0)])
        with pytest.raises(SchemaError, match="primary key column id"):
            t.update((key, 1.0))
        assert t.row_count == 0

    def test_integral_keys_of_other_types_are_kept(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        t.insert_many([(np.int64(3), 1.0), (4.0, 2.0), (-2 ** 63, 3.0),
                       (2 ** 63 - 1, 4.0)])
        assert [row[0] for row in t.scan()] == [-2 ** 63, 3, 4, 2 ** 63 - 1]

    @pytest.mark.parametrize("row, column", [
        ((1, 1.5, 1.0), "a"), ((1, 2 ** 31, 1.0), "a"),
        ((1, "x", 1.0), "a"), ((1, 1, "x"), "d"), ((1, 1, 10 ** 400), "d")])
    def test_a_fixed_cell_that_does_not_fit_names_its_column(
            self, db, row, column):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"), Column("a", "int"),
                              Column("d", "float")])
        with pytest.raises(SchemaError, match=f"column {column}: "):
            t.insert(row)

    def test_a_real_that_would_overflow_names_its_column(self, db):
        """``struct`` raises ``OverflowError``, not ``struct.error``,
        for a ``real`` past float32's range; it surfaced unwrapped."""
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"), Column("r", "real")])
        for rows in ([(1, 1e39)], [(1, 1.0), (2, -1e39)]):
            with pytest.raises(SchemaError, match="real column r: "):
                t.insert_many(rows)
        t.insert_many([(1, float("inf")), (2, float("nan"))])
        assert t.get(1)[1] == float("inf") and t.get(2)[1] != t.get(2)[1]

    def test_a_row_no_page_can_hold_is_refused_before_the_tree(self):
        """Two 5 000-byte cells make a 10 020-byte record.  It used to
        reach the tree, where the split emptied the leaf before the page
        refused the record: the scan lost rows 4, 6 and 8 while
        ``COUNT(*)`` still said 5, and the wire answered ``INTERNAL``."""
        from repro.engine import Database
        from repro.engine.sqlfront import SqlSession
        from repro.server import SQL_ERROR
        from repro.server.server import _wire_error

        db = Database()
        session = SqlSession(db)
        session.execute("CREATE TABLE x (id BIGINT PRIMARY KEY, "
                        "a VARBINARY(6000), b VARBINARY(6000))")
        session.execute("INSERT INTO x VALUES " + ", ".join(
            f"({k}, 'a{k}', 'b{k}')" for k in (0, 2, 4, 6, 8)))
        table = db.tables["x"]

        def layout():
            pages = [db.pagefile.get(pid) for pid in table.data_page_ids()]
            return (db.pagefile.allocated_page_count, table.version,
                    [(p.page_id, p.pv, list(p._slots), bytes(p._body))
                     for p in pages])

        before = layout()
        cell = "'" + "c" * 5000 + "'"
        with pytest.raises(SchemaError,
                           match="row 3 of table x takes 10020 bytes"
                           ) as refused:
            session.execute(f"INSERT INTO x VALUES (3, {cell}, {cell})")
        assert _wire_error(refused.value).code == SQL_ERROR
        with pytest.raises(SchemaError, match="row 4 of table x"):
            table.update((4, b"c" * 5000, b"c" * 5000))
        assert layout() == before
        assert [row[0] for row in table.scan()] == [0, 2, 4, 6, 8]
        assert session.query("SELECT COUNT(*) FROM x")[0] == (5,)
        assert session.execute("INSERT INTO x VALUES (3, 'a', 'b')") == 1
        assert [row[0] for row in table.scan()] == [0, 2, 3, 4, 6, 8]

    def test_wrong_arity(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        with pytest.raises(SchemaError):
            t.insert((1,))

    def test_small_max_value_stays_inline(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("m", "varbinary_max")])
        t.insert((1, b"small"))
        assert t.get(1)[1] == b"small"

    def test_large_max_value_goes_out_of_page(self, db):
        f, store, pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("m", "varbinary_max")])
        big = np.random.default_rng(0).bytes(50_000)
        t.insert((1, big))
        handle = t.get(1)[1]
        assert isinstance(handle, MaxBlobHandle)
        assert handle.length == 50_000
        assert handle.read_all(pool) == big

    def test_empty_varbinary_vs_null(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("v", "varbinary", cap=8)])
        t.insert((1, b""))
        t.insert((2, None))
        assert t.get(1)[1] == b""
        assert t.get(2)[1] is None


class TestScan:
    def test_scan_in_key_order(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        for k in (5, 1, 3):
            t.insert((k, float(k)))
        assert [row[0] for row in t.scan()] == [1, 3, 5]

    def test_scan_range(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        for k in range(20):
            t.insert((k, float(k)))
        got = [r[0] for r in t.scan(start=5, stop=10)]
        assert got == [5, 6, 7, 8, 9]

    def test_get_missing(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        assert t.get(42) is None

    def test_column_index(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        assert t.column_index("a") == 1
        with pytest.raises(SchemaError):
            t.column_index("zz")


class TestSizeAccounting:
    def test_vector_table_is_about_43_percent_bigger(self, db):
        """Reproduces the Section 6.2 claim from first principles."""
        from repro.tsql import FloatArray

        f, store, _pool = db
        ts = Table("Tscalar",
                   [Column("id", "bigint")] +
                   [Column(f"v{i}", "float") for i in range(1, 6)],
                   f, store)
        tv = Table("Tvector",
                   [Column("id", "bigint"),
                    Column("v", "varbinary", cap=100)], f, store)
        rng = np.random.default_rng(0)
        for i in range(4000):
            vals = rng.standard_normal(5)
            ts.insert((i, *vals))
            tv.insert((i, FloatArray.Vector_5(*vals)))
        ratio = tv.data_bytes() / ts.data_bytes()
        # Paper reports 43 %; the exact overhead depends on per-row
        # bookkeeping, so accept the 35-55 % band.
        assert 1.35 < ratio < 1.55


class TestDeleteUpdate:
    def test_delete_row(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        t.insert((1, 1.0))
        t.insert((2, 2.0))
        assert t.delete(1)
        assert t.get(1) is None
        assert t.row_count == 1
        assert not t.delete(1)

    def test_delete_many_is_one_version(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        t.insert_many((k, float(k)) for k in range(2000))
        version = t.version
        snap = t.pin_snapshot()
        try:
            assert t.delete_many(range(500, 1500)) == 1000
            assert t.version == version + 1
            assert t.row_count == 1000
            # The pinned version still reads every row.
            assert snap.row_count == 2000
            assert [row[0] for row in snap.scan()] == list(range(2000))
        finally:
            snap.unpin()
        assert [row[0] for row in t.scan()] == \
            list(range(500)) + list(range(1500, 2000))
        assert not any(f.history_len(pid) for pid in range(f.page_count))
        assert t.delete_many([3, 3.0, np.int64(4)]) == 2
        assert t.delete_many([]) == 0 and t.version == version + 2

    def test_insert_many_publishes_the_rows_before_a_duplicate(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        t.insert_many((k, float(k)) for k in range(0, 1000, 2))
        version = t.version
        rows = [(k, -1.0) for k in range(1, 400, 2)]
        rows[150] = (100, -1.0)  # already there
        with pytest.raises(DuplicateKeyError, match="key 100 "):
            t.insert_many(rows)
        assert t.version == version + 1
        assert t.row_count == 500 + 150
        assert t.get(299) == (299, -1.0) and t.get(303) is None
        with pytest.raises(DuplicateKeyError):
            t.insert_many([(0, 0.0)])
        assert t.version == version + 1  # nothing went in

    def test_batches_store_the_pages_single_rows_would(self):
        """What keeps the stored-bytes metric exact: a batch into a
        non-empty table allocates the pages its rows would one by
        one — as a ``Table.insert_many`` batch, as a SQL ``INSERT``,
        and through the row-at-a-time encoder alike."""
        from repro.engine import Database
        from repro.engine.sqlfront import SqlSession

        rng = np.random.default_rng(2)
        batches = [
            [(int(k), float(k), b"v%04d" % k) for k in range(6000, 6500)],
            [(int(k), 0.5, b"w") for k in
             rng.permutation(3000)[:700] * 2 + 1],
            [(int(k), 1.5, b"") for k in range(-1, -400, -1)],
            [(int(k), None, b"nul") for k in range(7000, 7300)]]
        sizes = []
        for how in ("rows", "batch", "sql", "row-encoder batch"):
            db = Database()
            t = db.create_table("t", [Column("id", "bigint"),
                                      Column("a", "float"),
                                      Column("v", "varbinary", cap=8)])
            t.insert_many((k, float(k), b"base") for k in range(0, 6000, 2))
            session = SqlSession(db)
            for batch in batches:
                if how == "rows":
                    for row in batch:
                        t.insert(row)
                elif how == "batch":
                    assert t.insert_many(batch) == len(batch)
                elif how == "sql":
                    assert session.execute("INSERT INTO t VALUES " + ", ".join(
                        f"({k}, {'NULL' if a is None else a}, "
                        f"'{v.decode()}')" for k, a, v in batch)) == len(batch)
                else:
                    with mock.patch.object(Table, "_encode_records",
                                           return_value=None):
                        assert t.insert_many(batch) == len(batch)
            sizes.append((db.pagefile.allocated_page_count,
                          t.data_page_ids(),
                          [(bytes(db.pagefile.get(pid)._body),
                            db.pagefile.get(pid)._slots)
                           for pid in t.data_page_ids()]))
        assert sizes[1:] == sizes[:1] * 3

    def test_update_row(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("v", "varbinary", cap=50)])
        t.insert((1, b"old"))
        assert t.update((1, b"new value"))
        assert t.get(1)[1] == b"new value"
        assert not t.update((99, b"x"))

    def test_scan_after_mixed_mutations(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        for k in range(50):
            t.insert((k, float(k)))
        for k in range(0, 50, 2):
            t.delete(k)
        t.update((1, -1.0))
        rows = list(t.scan())
        assert [r[0] for r in rows] == list(range(1, 50, 2))
        assert rows[0][1] == -1.0


class TestCodecProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _col_types = st.sampled_from(
        ["int", "smallint", "tinyint", "float", "real", "varbinary",
         "varbinary_max"])

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_schema_roundtrip(self, data):
        """Any schema, any rows (NULLs included) round-trip exactly."""
        st = self.st
        f = PageFile()
        store = BlobStore(f)
        pool = BufferPool(f)
        n_cols = data.draw(st.integers(1, 6))
        columns = [Column("id", "bigint")]
        for i in range(n_cols):
            ctype = data.draw(self._col_types)
            cap = data.draw(st.integers(1, 64)) \
                if ctype == "varbinary" else 0
            columns.append(Column(f"c{i}", ctype, cap=cap))
        table = Table("t", columns, f, store)

        rows = []
        for key in range(data.draw(st.integers(1, 12))):
            row = [key]
            for col in columns[1:]:
                if data.draw(st.booleans()) and data.draw(st.booleans()):
                    row.append(None)
                elif col.type == "varbinary":
                    row.append(data.draw(st.binary(max_size=col.cap)))
                elif col.type == "varbinary_max":
                    row.append(data.draw(st.binary(max_size=200)))
                elif col.type in ("float", "real"):
                    value = data.draw(st.floats(
                        allow_nan=False, allow_infinity=False,
                        width=32 if col.type == "real" else 64))
                    row.append(value)
                else:
                    bits = {"int": 31, "smallint": 15, "tinyint": 7}
                    b = bits[col.type]
                    row.append(data.draw(
                        st.integers(-(2 ** b), 2 ** b - 1)))
            rows.append(tuple(row))
            table.insert(rows[-1])
        for row in rows:
            assert table.get(row[0], pool) == row


def _nan(bits):
    """A float64 NaN with payload ``bits`` (quiet or signalling)."""
    return struct.unpack("<d", struct.pack("<Q", 0x7FF0_0000_0000_0000
                                           | bits))[0]


#: Cells no column takes as they are, or takes only row by row.
_HOSTILE = [None, True, False, np.int64(3), np.int32(-4), np.float64(1.5),
            np.float32(2.0), np.bytes_(b"np"), 2 ** 70, -2 ** 63 - 1,
            2 ** 31, 1e39, -1e39, float("inf"), _nan(1), _nan(1 << 51),
            -0.0, 1.5, 7, "x", b"", b"hostile", bytearray(b"ab"),
            memoryview(b"cd"), [1, 2], b"z" * 9000]

_INT_BITS = {"bigint": 63, "int": 31, "smallint": 15, "tinyint": 7}


class TestEncodersAgree:
    """The record matrix writes what the row encoder writes, bit for
    bit; a batch it declines goes to the row encoder, which then
    raises as it always has."""

    @staticmethod
    def _cells(col, size):
        if col.type in _INT_BITS:
            b = _INT_BITS[col.type]
            return st.integers(-(2 ** b), 2 ** b - 1)
        if col.type == "float":
            return st.one_of(st.floats(), st.integers(0, 2 ** 52).map(_nan))
        if col.type == "real":
            return st.floats(width=32)
        return st.binary(min_size=size, max_size=size)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_the_matrix_writes_what_the_row_encoder_writes(self, data):
        columns = [Column("id", "bigint")]
        sizes = []
        for i, ctype in enumerate(data.draw(st.lists(st.sampled_from(
                [*_INT_BITS, "float", "real", "varbinary",
                 "varbinary_max"]), min_size=1, max_size=6))):
            cap = data.draw(st.integers(1, 40))
            columns.append(Column(f"c{i}", ctype, cap=cap))
            sizes.append(data.draw(st.integers(0, cap)))
        hostile = data.draw(st.integers(0, 3)) == 0
        rows = []
        for key in data.draw(st.lists(
                st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1,
                max_size=8, unique=True)):
            row = [key]
            for col, size in zip(columns[1:], sizes):
                cell = self._cells(col, size)
                if hostile:
                    cell = st.one_of(cell, st.sampled_from(_HOSTILE))
                row.append(data.draw(cell))
            if hostile and data.draw(st.integers(0, 9)) == 0:
                row = row[:data.draw(st.integers(1, len(row)))]
            rows.append(tuple(row))
        keys = [row[0] for row in rows]

        def fresh():
            f = PageFile()
            return Table("t", columns, f, BlobStore(f))

        want, want_exc = [], None
        reference = fresh()
        try:
            for key, row in zip(keys, rows):
                want.append(_KEY_STRUCT.pack(key)
                            + reference._encode_row(row))
        except Exception as exc:  # the row encoder's verdict, any type
            want_exc = (type(exc), str(exc), len(want))
        matrix = fresh()._encode_records(rows, keys)
        event("record matrix" if matrix is not None else
                   "row encoder raises" if want_exc else "row encoder")
        if matrix is not None:
            assert want_exc is None
            assert [bytes(r) for r in matrix] == want
        table = fresh()
        try:
            got = table.prepare_insert(rows).records
        except Exception as exc:
            assert want_exc is not None
            assert (type(exc), str(exc)) == want_exc[:2]
        else:
            assert want_exc is None and got == want

    def test_clean_batches_take_the_matrix(self):
        f = PageFile()
        t = Table("t", [Column("id", "bigint"), Column("a", "int"),
                        Column("x", "float"), Column("r", "real"),
                        Column("v", "varbinary", cap=8),
                        Column("m", "varbinary_max")], f, BlobStore(f))
        rows = [(k, None if k % 3 else -k, -0.0 if k % 2 else None,
                 k / 7, b"%08d" % k, b"m" * 100) for k in range(50)]
        with mock.patch.object(Table, "_encode_row") as per_row:
            records = t.prepare_insert(rows).records
        assert not per_row.called
        assert records == [_KEY_STRUCT.pack(row[0]) + t._encode_row(row)
                           for row in rows]


class TestStats:
    def test_page_fill_stats(self, db):
        f, store, _pool = db
        t = _table(f, store, [Column("id", "bigint"),
                              Column("a", "float")])
        for k in range(2000):
            t.insert((k, float(k)))
        stats = t.page_fill_stats()
        assert stats["rows"] == 2000
        assert stats["leaf_pages"] > 1
        assert 0.5 < stats["avg_fill"] <= 1.0
        assert stats["height"] >= 2
        assert stats["indexes"] == []

    def test_database_report(self):
        from repro.engine import Database
        db = Database()
        t = db.create_table("things", [Column("id", "bigint"),
                                       Column("x", "float")])
        for k in range(100):
            t.insert((k, float(k)))
        t.create_index("x")
        report = db.report()
        assert "things" in report
        assert "100" in report
        assert "x" in report.splitlines()[1]
