"""SQL front-end tests: the paper's queries, verbatim."""

import numpy as np
import pytest

from repro.engine import Column, Database, SqlSession, SqlSyntaxError
from repro.tsql import FloatArray

N = 2000


@pytest.fixture(scope="module")
def session():
    db = Database()
    ts = db.create_table(
        "Tscalar", [Column("id", "bigint")] +
        [Column(f"v{i}", "float") for i in range(1, 6)])
    tv = db.create_table(
        "Tvector", [Column("id", "bigint"),
                    Column("v", "varbinary", cap=100)])
    rng = np.random.default_rng(0)
    values = rng.standard_normal((N, 5))
    for i in range(N):
        ts.insert((i, *values[i]))
        tv.insert((i, FloatArray.Vector_5(*values[i])))
    return SqlSession(db), values


class TestPaperQueries:
    """All five Table 1 query texts parse and produce correct values."""

    def test_query1(self, session):
        s, _v = session
        (n,), m = s.query("SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)")
        assert n == N
        assert m.label.startswith("SELECT COUNT(*)")

    def test_query2(self, session):
        s, _v = session
        (n,), _m = s.query("SELECT COUNT(*) FROM Tvector WITH (NOLOCK)")
        assert n == N

    def test_query3(self, session):
        s, values = session
        (total,), _m = s.query("SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)")
        assert total == pytest.approx(values[:, 0].sum())

    def test_query4(self, session):
        s, values = session
        (total,), m = s.query(
            "SELECT SUM(FloatArray.Item_1(v, 0)) FROM Tvector "
            "WITH (NOLOCK)")
        assert total == pytest.approx(values[:, 0].sum())
        assert m.udf_calls == N

    def test_query5(self, session):
        s, _v = session
        (total,), m = s.query(
            "SELECT SUM(dbo.EmptyFunction(v, 0)) FROM Tvector "
            "WITH (NOLOCK)")
        assert total == 0.0
        assert m.udf_calls == N


class TestExpressions:
    def test_arithmetic(self, session):
        s, values = session
        (out,), _m = s.query("SELECT MAX(v1 * 2 + 1) FROM Tscalar")
        assert out == pytest.approx(values[:, 0].max() * 2 + 1)

    def test_parenthesized_expression(self, session):
        s, values = session
        (out,), _m = s.query("SELECT SUM((v1 + v2) / 2) FROM Tscalar")
        assert out == pytest.approx(
            ((values[:, 0] + values[:, 1]) / 2).sum())

    def test_unary_minus(self, session):
        s, values = session
        (out,), _m = s.query("SELECT MIN(-v1) FROM Tscalar")
        assert out == pytest.approx((-values[:, 0]).min())

    def test_multiple_aggregates(self, session):
        s, values = session
        (n, total, avg), _m = s.query(
            "SELECT COUNT(*), SUM(v3), AVG(v3) FROM Tscalar")
        assert n == N
        assert total == pytest.approx(values[:, 2].sum())
        assert avg == pytest.approx(values[:, 2].mean())

    def test_case_insensitive_columns_and_tables(self, session):
        s, values = session
        (total,), _m = s.query("SELECT SUM(V1) FROM tscalar")
        assert total == pytest.approx(values[:, 0].sum())

    def test_nested_function_calls(self, session):
        s, _v = session
        (out,), _m = s.query(
            "SELECT MAX(FloatArray.Sum(v)) FROM Tvector")
        assert np.isfinite(out)


class TestWhere:
    def test_comparison(self, session):
        s, values = session
        (n,), _m = s.query("SELECT COUNT(*) FROM Tscalar WHERE v1 > 0")
        assert n == (values[:, 0] > 0).sum()

    def test_and_or_not(self, session):
        s, values = session
        (n,), _m = s.query(
            "SELECT COUNT(*) FROM Tscalar "
            "WHERE (v1 > 1 OR v2 < 0) AND NOT id = 5")
        mask = (values[:, 0] > 1) | (values[:, 1] < 0)
        expected = int(mask.sum()) - (1 if mask[5] else 0)
        assert n == expected

    def test_where_on_id_range(self, session):
        s, _v = session
        (n,), _m = s.query(
            "SELECT COUNT(*) FROM Tscalar WHERE id >= 10 AND id < 20")
        assert n == 10

    def test_key_equals_a_constant_that_is_no_key(self, session):
        """``id = c`` seeks only when ``c`` is a finite integral
        number; otherwise it answers like the equivalent range."""
        s, _v = session
        for const, rows in [("1.5", 0), ("1e999", 0), ("1.0", 1),
                            ("-0.0", 1), ("7", 1)]:
            for where in (f"id = {const}", f"{const} = id",
                          f"id >= {const} AND id <= {const}"):
                sql = f"SELECT COUNT(*), MIN(id) FROM Tscalar WHERE {where}"
                (n, low), _m = s.query(sql)
                assert n == rows, sql
                assert low == (int(float(const)) if rows else None), sql
        assert s.explain(
            "SELECT COUNT(*) FROM Tscalar WHERE id = 1.0") == \
            "clustered index seek on Tscalar (id = 1)"
        assert s.explain(
            "SELECT COUNT(*) FROM Tscalar WHERE id = 1.5").startswith(
                "clustered index scan")

    def test_udf_in_where(self, session):
        s, values = session
        (n,), m = s.query(
            "SELECT COUNT(*) FROM Tvector "
            "WHERE FloatArray.Item_1(v, 1) > 0")
        assert n == (values[:, 1] > 0).sum()
        assert m.udf_calls == N

    def test_is_null(self, session):
        s, _v = session
        db = s.db
        t = db.create_table("with_nulls", [Column("id", "bigint"),
                                           Column("x", "float")])
        t.insert((1, 1.0))
        t.insert((2, None))
        (n,), _m = s.query(
            "SELECT COUNT(*) FROM with_nulls WHERE x IS NULL")
        assert n == 1
        (n,), _m = s.query(
            "SELECT COUNT(*) FROM with_nulls WHERE x IS NOT NULL")
        assert n == 1


class TestRegisteredFunctions:
    def test_custom_function(self, session):
        s, values = session
        s.register_function("dbo.FirstPlusOne",
                            lambda blob, i: FloatArray.Item_1(blob, i)
                            + 1.0)
        (total,), _m = s.query(
            "SELECT SUM(dbo.FirstPlusOne(v, 0)) FROM Tvector")
        assert total == pytest.approx(values[:, 0].sum() + N)


class TestErrors:
    def test_unknown_table(self, session):
        s, _v = session
        with pytest.raises(SqlSyntaxError):
            s.query("SELECT COUNT(*) FROM nosuch")

    def test_unknown_column(self, session):
        s, _v = session
        with pytest.raises(SqlSyntaxError):
            s.query("SELECT SUM(zz) FROM Tscalar")

    def test_unknown_function(self, session):
        s, _v = session
        with pytest.raises(SqlSyntaxError):
            s.query("SELECT SUM(dbo.NoSuch(v)) FROM Tvector")

    def test_syntax_errors(self, session):
        s, _v = session
        for bad in ["SELECT FROM Tscalar",
                    "SELECT COUNT(*)",
                    "SELECT COUNT(v1) FROM Tscalar",
                    "SELECT SUM(v1 FROM Tscalar",
                    "SELECT SUM(v1) FROM Tscalar trailing",
                    "COUNT(*) FROM Tscalar"]:
            with pytest.raises(SqlSyntaxError):
                s.query(bad)

    def test_metrics_match_programmatic_api(self, session):
        """The SQL path charges exactly what the programmatic plan
        does."""
        from repro.engine import Col, Count, Executor, Sum
        s, _v = session
        (_n,), via_sql = s.query(
            "SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)")
        table = s.db.tables["Tscalar"]
        (_n2,), direct = Executor(s.db).run(table, [Sum(Col("v1"))])
        assert via_sql.sim_cpu_core_seconds == pytest.approx(
            direct.sim_cpu_core_seconds)
        assert via_sql.io_bytes == direct.io_bytes


class TestExplain:
    def test_plans(self, session):
        s, _v = session
        assert s.explain("SELECT COUNT(*) FROM Tscalar") == \
            "clustered index scan on Tscalar"
        assert "residual predicate" in s.explain(
            "SELECT COUNT(*) FROM Tscalar WHERE v1 > 0")
        assert s.explain(
            "SELECT SUM(v1) FROM Tscalar WHERE id = 5") == \
            "clustered index seek on Tscalar (id = 5)"
        assert "hash aggregate" in s.explain(
            "SELECT id, COUNT(*) FROM Tscalar GROUP BY id")

    def test_index_plans(self, session):
        s, _v = session
        table = s.db.tables["Tscalar"]
        if table.index_on("v2") is None:
            table.create_index("v2")
        assert "index range scan" in s.explain(
            "SELECT COUNT(*) FROM Tscalar WHERE v2 >= 0 AND v2 < 1")
        assert "index seek" in s.explain(
            "SELECT COUNT(*) FROM Tscalar WHERE v2 = 0.5")


class TestParserFuzz:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    _alphabet = "SELECTFROMWHEREGROUPBYANDORNT()*,+-<>=.'0123456789abcv_ "

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet=_alphabet, min_size=0, max_size=80))
    def test_random_text_never_crashes_unexpectedly(self, session,
                                                    text):
        """Arbitrary input produces SqlSyntaxError (or parses cleanly),
        never an internal exception."""
        s, _v = session
        try:
            s.explain(text)
        except SqlSyntaxError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_valid_queries(self, session, data):
        """Token-level mutations of a valid query stay in the error
        contract."""
        s, _v = session
        base = "SELECT COUNT(*) FROM Tscalar WHERE v1 > 0 AND id < 10"
        tokens = base.split()
        st = self.st
        i = data.draw(st.integers(0, len(tokens) - 1))
        action = data.draw(st.sampled_from(["drop", "dup", "swap"]))
        if action == "drop":
            tokens = tokens[:i] + tokens[i + 1:]
        elif action == "dup":
            tokens = tokens[:i] + [tokens[i]] + tokens[i:]
        else:
            j = data.draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        try:
            s.explain(" ".join(tokens))
        except SqlSyntaxError:
            pass


class TestPlanCacheBound:
    """The prepared-plan cache is a small LRU: statement texts that
    differ only in a literal are distinct keys, and a client looping
    point SELECTs over keys used to leave a plan behind per key."""

    def test_distinct_statements_leave_at_most_the_bound(self, session):
        from unittest import mock

        from repro.engine.sqlfront import PLAN_CACHE_SIZE

        s = SqlSession(session[0].db)
        hot = "SELECT COUNT(*) FROM Tscalar WHERE id = 7"
        with mock.patch.object(s, "plan_select",
                               side_effect=s.plan_select) as planned:
            for key in range(5000):
                (n,), _m = s.query(
                    f"SELECT COUNT(*) FROM Tvector WHERE id = {key}")
                assert n == (key < N)
                assert s.query(hot)[0] == (1,)
        assert len(s._plan_cache) == PLAN_CACHE_SIZE
        texts = [call.args[0] for call in planned.call_args_list]
        assert texts.count(hot) == 1 and len(texts) == 5001

    @pytest.mark.parametrize("sql", [
        "SELECT SUM(v1), COUNT(*) FROM Tscalar",
        "SELECT id, MAX(v1) FROM Tscalar WHERE id < 9 GROUP BY id",
        "SELECT MAX(v) FROM Tvector WHERE id = 3",
    ], ids=["scalar", "grouped", "point"])
    def test_a_repeated_partial_statement_is_planned_once(self, session,
                                                          sql):
        from unittest import mock

        s = SqlSession(session[0].db)
        with mock.patch.object(s, "plan_select",
                               side_effect=s.plan_select) as planned:
            first = s.query_partial(sql)
            again = s.query_partial(sql)
            assert planned.call_count == 1
            s.query(sql)  # the plan a partial left is the query's
        assert planned.call_count == 1
        assert first["states"] == again["states"]
        assert list(first["groups"] or []) == list(again["groups"] or [])

    def test_ddl_still_empties_the_cache(self):
        s = SqlSession(Database())
        s.execute("CREATE TABLE a (id BIGINT PRIMARY KEY, x FLOAT)")
        s.prepare("SELECT COUNT(*) FROM a")
        assert len(s._plan_cache) == 1
        s.execute("CREATE TABLE b (id BIGINT PRIMARY KEY, x FLOAT)")
        assert s._plan_cache == {}
        s.prepare("SELECT COUNT(*) FROM a")
        s.execute("DROP TABLE b")
        assert s._plan_cache == {}


class TestNegativeConstants:
    """A negative literal is a constant, so it plans as a positive one
    does: ``id = -5`` is a one-row seek and ``id >= -5 AND id < 3``
    bounds the key range."""

    @pytest.fixture(scope="class")
    def signed(self):
        db = Database()
        db.create_table("t", [Column("id", "bigint"),
                              Column("x", "float")]).insert_many(
            (i, i * 0.5) for i in range(-500, 500))
        return SqlSession(db)

    def test_a_negative_key_is_a_one_row_seek(self, signed):
        sql = "SELECT COUNT(*), SUM(x) FROM t WHERE id = -5"
        assert signed.explain(sql) == "clustered index seek on t (id = -5)"
        assert signed.plan_select(sql).key == -5
        values, metrics = signed.query(sql)
        assert values == (1, -2.5) and metrics.rows == 1

    def test_a_negative_bound_is_a_key_range(self, signed):
        sql = "SELECT COUNT(*), SUM(x) FROM t WHERE id >= -5 AND id < 3"
        assert signed.plan_select(sql).pk_range == (-5, 3)
        assert signed.query(sql)[0] == (8, -6.0)
        assert signed.plan_select(
            "SELECT COUNT(*) FROM t WHERE id < -(3)").pk_range == (None, -3)

    def test_the_folded_constant_is_what_the_minus_computed(self, signed):
        for sql, want in [
                ("SELECT COUNT(*) FROM t WHERE x = -0.0", (1,)),
                ("SELECT MIN(x * -2) FROM t", (-499.0,)),
                ("SELECT COUNT(*) FROM t WHERE x > - -1.5", (496,)),
                ("SELECT COUNT(*) FROM t WHERE -x > 249", (2,))]:
            assert signed.query(sql)[0] == want, sql
        where = signed.plan_select(
            "SELECT COUNT(*) FROM t WHERE x = -0.0").where
        assert repr(where.right.value) == "0.0"
