"""Tests for SQL DDL/DML and GROUP BY in the front-end."""

import struct
from unittest import mock

import numpy as np
import pytest

from repro.engine import Database, SqlSession, SqlSyntaxError
from repro.engine.vectorized import RowBatch
from repro.tsql import FloatArray

_KEY = struct.Struct("<q")


@pytest.fixture
def session():
    return SqlSession(Database())


class TestCreateTable:
    def test_all_types(self, session):
        t = session.execute(
            "CREATE TABLE t (id BIGINT PRIMARY KEY, a INT, "
            "b SMALLINT, c TINYINT, d FLOAT, e REAL, "
            "f VARBINARY(100), g VARBINARY(MAX))")
        assert [c.type for c in t.columns] == [
            "bigint", "int", "smallint", "tinyint", "float", "real",
            "varbinary", "varbinary_max"]
        assert t.columns[6].cap == 100

    def test_registered_in_catalog(self, session):
        session.execute("CREATE TABLE t (id BIGINT, x FLOAT)")
        assert "t" in session.db.tables

    def test_primary_key_only_on_first(self, session):
        with pytest.raises(SqlSyntaxError):
            session.execute(
                "CREATE TABLE t (id BIGINT, x FLOAT PRIMARY KEY)")

    def test_unknown_type(self, session):
        with pytest.raises(SqlSyntaxError):
            session.execute("CREATE TABLE t (id BIGINT, x TEXT)")

    def test_varbinary_needs_size(self, session):
        with pytest.raises(SqlSyntaxError):
            session.execute("CREATE TABLE t (id BIGINT, v VARBINARY)")


class TestDropTable:
    def test_drop_removes_from_catalog(self, session):
        session.execute("CREATE TABLE t (id BIGINT, x FLOAT)")
        assert session.execute("DROP TABLE t") == 0
        assert "t" not in session.db.tables

    def test_drop_is_case_insensitive(self, session):
        session.execute("CREATE TABLE Weather (id BIGINT, x FLOAT)")
        session.execute("DROP TABLE weather")
        assert session.db.tables == {}

    def test_drop_unknown_table(self, session):
        with pytest.raises(SqlSyntaxError):
            session.execute("DROP TABLE nowhere")

    def test_drop_then_recreate_round_trip(self, session):
        session.execute("CREATE TABLE t (id BIGINT, x FLOAT)")
        session.execute("INSERT INTO t VALUES (1, 2.5)")
        session.execute("DROP TABLE t")
        session.execute("CREATE TABLE t (id BIGINT, y FLOAT, z INT)")
        assert session.execute(
            "INSERT INTO t VALUES (1, 0.5, 3)") == 1
        (count,), _m = session.execute("SELECT COUNT(*) FROM t")
        assert count == 1

    def test_drop_invalidates_cached_plans(self, session):
        session.execute("CREATE TABLE t (id BIGINT, x FLOAT)")
        session.execute("INSERT INTO t VALUES (1, 1.0)")
        session.query("SELECT COUNT(*) FROM t")
        session.execute("DROP TABLE t")
        with pytest.raises(SqlSyntaxError):
            session.query("SELECT COUNT(*) FROM t")


class TestInsert:
    def test_literals_and_nulls(self, session):
        session.execute("CREATE TABLE t (id BIGINT, x FLOAT)")
        n = session.execute(
            "INSERT INTO t VALUES (1, 2.5), (2, NULL), (3, -4.5)")
        assert n == 3
        (count, total), _m = session.execute(
            "SELECT COUNT(*), SUM(x) FROM t")
        assert count == 3
        assert total == pytest.approx(-2.0)

    def test_array_constructor_values(self, session):
        session.execute("CREATE TABLE t (id BIGINT, v VARBINARY(100))")
        session.execute(
            "INSERT INTO t VALUES (1, FloatArray.Vector_3(1, 2, 3))")
        (item,), _m = session.execute(
            "SELECT SUM(FloatArray.Item_1(v, 1)) FROM t")
        assert item == 2.0

    def test_string_value(self, session):
        session.execute("CREATE TABLE t (id BIGINT, v VARBINARY(20))")
        session.execute("INSERT INTO t VALUES (1, 'abc')")
        assert session.db.tables["t"].get(1)[1] == b"abc"

    def test_insert_into_unknown_table(self, session):
        with pytest.raises(SqlSyntaxError):
            session.execute("INSERT INTO nope VALUES (1)")

    def test_full_workflow_sql_only(self, session):
        """The paper's workflow with no Python API at all."""
        session.execute(
            "CREATE TABLE Tvector (id BIGINT PRIMARY KEY, "
            "v VARBINARY(100))")
        for i in range(50):
            session.execute(
                f"INSERT INTO Tvector VALUES ({i}, "
                f"FloatArray.Vector_2({i}, {i * 2}))")
        (total,), m = session.execute(
            "SELECT SUM(FloatArray.Item_1(v, 1)) FROM Tvector "
            "WITH (NOLOCK)")
        assert total == sum(i * 2 for i in range(50))
        assert m.udf_calls == 50


class TestGroupBy:
    @pytest.fixture
    def loaded(self, session):
        session.execute("CREATE TABLE s (id BIGINT, zbin INT, "
                        "flux FLOAT)")
        rng = np.random.default_rng(0)
        data = []
        for i in range(200):
            zbin = int(rng.integers(0, 4))
            flux = float(rng.standard_normal() + zbin * 10)
            data.append((zbin, flux))
            session.execute(
                f"INSERT INTO s VALUES ({i}, {zbin}, {flux})")
        return session, data

    def test_group_means(self, loaded):
        session, data = loaded
        rows, _m = session.execute(
            "SELECT zbin, COUNT(*), AVG(flux) FROM s GROUP BY zbin")
        assert [r[0] for r in rows] == [0, 1, 2, 3]
        for zbin, count, avg in rows:
            members = [f for z, f in data if z == zbin]
            assert count == len(members)
            assert avg == pytest.approx(np.mean(members))

    def test_group_with_where(self, loaded):
        session, data = loaded
        rows, _m = session.execute(
            "SELECT zbin, COUNT(*) FROM s WHERE flux > 0 "
            "GROUP BY zbin")
        for zbin, count in rows:
            assert count == sum(1 for z, f in data
                                if z == zbin and f > 0)

    def test_group_expression(self, loaded):
        session, data = loaded
        rows, _m = session.execute(
            "SELECT zbin * 2, COUNT(*) FROM s GROUP BY zbin * 2")
        assert [r[0] for r in rows] == [0, 2, 4, 6]

    def test_group_selection_must_match(self, loaded):
        session, _data = loaded
        with pytest.raises(SqlSyntaxError):
            session.execute(
                "SELECT flux, COUNT(*) FROM s GROUP BY zbin")

    def test_group_needs_aggregate(self, loaded):
        session, _data = loaded
        with pytest.raises(SqlSyntaxError):
            session.execute("SELECT zbin FROM s GROUP BY zbin")

    def test_plain_expr_without_group_rejected(self, loaded):
        session, _data = loaded
        with pytest.raises(SqlSyntaxError):
            session.execute("SELECT zbin FROM s")

    def test_composite_by_redshift_query_shape(self, session):
        """Section 2.2's motivating query: composites grouped by
        redshift bin, via a UDF-built scalar per row."""
        session.execute("CREATE TABLE spectra (id BIGINT, zbin INT, "
                        "flux VARBINARY(200))")
        rng = np.random.default_rng(1)
        for i in range(60):
            zbin = i % 3
            values = rng.standard_normal(8) + 5 * zbin
            blob = FloatArray.Vector(values)
            session.db.tables["spectra"].insert((i, zbin, blob))
        rows, _m = session.execute(
            "SELECT zbin, AVG(FloatArray.Mean(flux)), COUNT(*) "
            "FROM spectra GROUP BY zbin")
        means = [r[1] for r in rows]
        assert means[0] < means[1] < means[2]
        assert all(r[2] == 20 for r in rows)


class TestDelete:
    def test_delete_with_predicate(self, session):
        session.execute("CREATE TABLE d (id BIGINT, x FLOAT)")
        session.execute(
            "INSERT INTO d VALUES (1, 1.0), (2, -1.0), (3, 5.0)")
        assert session.execute("DELETE FROM d WHERE x < 0") == 1
        (n,), _m = session.execute("SELECT COUNT(*) FROM d")
        assert n == 2

    def test_delete_by_key_uses_seek(self, session):
        session.execute("CREATE TABLE d2 (id BIGINT, x FLOAT)")
        for i in range(20):
            session.execute(f"INSERT INTO d2 VALUES ({i}, {i}.0)")
        assert session.execute("DELETE FROM d2 WHERE id = 7") == 1
        assert session.execute("DELETE FROM d2 WHERE id = 7") == 0
        (n,), _m = session.execute("SELECT COUNT(*) FROM d2")
        assert n == 19

    def test_delete_by_a_constant_that_is_no_key(self, session):
        session.execute("CREATE TABLE d5 (id BIGINT, x FLOAT)")
        session.execute("INSERT INTO d5 VALUES (0, 0.0), (1, 1.0), "
                        "(2, 2.0), (3, 3.0)")
        for const in ("1.5", "1e999", "0.5"):
            assert session.execute(
                f"DELETE FROM d5 WHERE id = {const}") == 0, const
        assert [row[0] for row in session.db.tables["d5"].scan()] == \
            [0, 1, 2, 3]
        assert session.execute("DELETE FROM d5 WHERE id = 1.0") == 1
        assert session.execute("DELETE FROM d5 WHERE id = -0.0") == 1
        assert [row[0] for row in session.db.tables["d5"].scan()] == \
            [2, 3]

    def test_delete_all(self, session):
        session.execute("CREATE TABLE d3 (id BIGINT, x FLOAT)")
        session.execute("INSERT INTO d3 VALUES (1, 1.0), (2, 2.0)")
        assert session.execute("DELETE FROM d3") == 2
        (n,), _m = session.execute("SELECT COUNT(*) FROM d3")
        assert n == 0

    def test_delete_maintains_indexes(self, session):
        session.execute("CREATE TABLE d4 (id BIGINT, cat INT)")
        for i in range(10):
            session.execute(f"INSERT INTO d4 VALUES ({i}, {i % 2})")
        table = session.db.tables["d4"]
        table.create_index("cat")
        session.execute("DELETE FROM d4 WHERE cat = 0")
        assert table.index_on("cat").seek(0) == []
        (n,), _m = session.execute(
            "SELECT COUNT(*) FROM d4 WHERE cat = 1")
        assert n == 5


class TestRangeDelete:
    """A DELETE whose predicate bounds the primary key decodes only the
    leaves of that key interval; victims and rowcount equal the
    full-scan answer."""

    ROWS = 4000  # a dozen leaves

    # One value: the ids keep the ``[on-...]`` prefix they had while
    # this also ran with MVCC off, so they stay comparable across the
    # removal of that mode.
    @pytest.fixture(params=["on"])
    def probe(self):
        """(session, model rows, spy on the page -> batch decoder)."""
        session = SqlSession(Database())
        session.execute("CREATE TABLE r (id BIGINT, k INT)")
        rows = [(i, i % 5) for i in range(self.ROWS)]
        session.db.tables["r"].insert_many(rows)
        with mock.patch.object(RowBatch, "from_pages",
                               wraps=RowBatch.from_pages) as decoder:
            yield session, rows, decoder

    @pytest.mark.parametrize("where, keep, bound", [
        pytest.param("id >= 100 AND id < 140 AND k = 3",
                     lambda i, k: not (100 <= i < 140 and k == 3),
                     (100, 140), id="both-bounds-and-residual"),
        pytest.param("k = 3 AND id < 37",
                     lambda i, k: not (k == 3 and i < 37),
                     (0, 37), id="upper-only"),
        pytest.param("id > 350.5", lambda i, k: not i > 350.5,
                     (351, ROWS), id="lower-only-float"),
        pytest.param("id <= 20 AND id >= 10 AND id <> 15",
                     lambda i, k: not (10 <= i <= 20 and i != 15),
                     (10, 21), id="closed-interval"),
        pytest.param("id >= 90 AND id < 80", lambda i, k: True,
                     (90, 80), id="empty-interval"),
        pytest.param("id = 1.5 AND k >= 0", lambda i, k: True,
                     (0, 0), id="fractional-key"),
        pytest.param("id < 50 OR id >= 390",
                     lambda i, k: 50 <= i < 390,
                     (0, ROWS), id="top-level-or"),
        pytest.param("k = 4", lambda i, k: k != 4,
                     (0, ROWS), id="no-key-conjunct"),
        pytest.param("NOT id < 395", lambda i, k: i < 395,
                     (0, ROWS), id="negated"),
    ])
    def test_victims_match_the_full_scan_answer(self, probe, where,
                                                keep, bound):
        session, rows, decoder = probe
        survivors = [row for row in rows if keep(*row)]
        table = session.db.tables["r"]
        lo, hi = bound
        overlapping = [
            pid for pid in table.data_page_ids()
            if any(lo <= _KEY.unpack_from(record)[0] < hi
                   for record in session.db.pagefile.get(pid).records())]
        assert len(overlapping) < 3 or bound[1] == self.ROWS
        deleted = session.execute(f"DELETE FROM r WHERE {where}")
        # Exactly the leaves of the predicate's key interval were
        # decoded, each once.
        assert [page.page_id for call in decoder.call_args_list
                for page in call.args[1]] == overlapping
        assert deleted == len(rows) - len(survivors)
        assert list(session.db.tables["r"].scan()) == survivors
