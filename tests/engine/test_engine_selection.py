"""One engine: every plan runs a batch at a time and reports
``"vector"``, and no entry point takes an ``engine`` argument any more.

A statement runs serially in the calling process, so any Python
callable registered as a UDF — a lambda, a closure over mutable state,
a bound method — runs on the engine and on the row oracle
(:mod:`tests.engine.row_oracle`) and returns bit-identical values."""

import functools
import struct

import pytest

from repro.engine import Col, Column, Count, Database, Executor, Sum
from repro.engine.sqlfront import SqlSession
from tests.engine import row_oracle

ROWS = 400


def _bits(value):
    """Bit-exact comparison key: floats by their IEEE-754 pattern."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


@pytest.fixture(scope="module")
def session():
    db = Database()
    table = db.create_table(
        "t", [Column("id", "bigint"), Column("x", "float"),
              Column("k", "int")])
    table.insert_many(
        (i, None if i % 7 == 0 else i * 0.25 - 30.0,
         None if i % 11 == 0 else i % 5) for i in range(ROWS))
    table.create_index("k")
    return SqlSession(db)


class TestReportedEngine:
    def test_a_call_that_names_no_engine_runs_on_vector(self, session):
        _vals, m = session.query("SELECT SUM(x), COUNT(*) FROM t")
        assert m.engine == "vector"

    @pytest.mark.parametrize("sql", [
        "SELECT SUM(x), COUNT(*) FROM t",
        "SELECT k, SUM(x), COUNT(*) FROM t GROUP BY k",
        "SELECT SUM(x) FROM t WHERE id = 7",
        "SELECT SUM(x), COUNT(*) FROM t WHERE k = 3",
    ], ids=["scan", "grouped", "clustered", "secondary"])
    def test_every_plan_runs_on_the_batch_path(self, session, sql):
        # A seek is a one-batch source: the records it found.
        vals, m = session.query(sql)
        assert m.engine == "vector"
        ref, _ = row_oracle.query(session, sql)
        assert _bits(vals) == _bits(ref)


class TestNoEngineArgument:
    """The ``engine`` option is gone from every entry point that took
    it: naming one is a ``TypeError`` before any page is touched."""

    SQL = "SELECT SUM(x), COUNT(*) FROM t"

    @pytest.mark.parametrize("entry", [
        "run", "run_grouped", "query", "execute", "query_partial",
    ])
    def test_engine_is_not_an_argument(self, session, entry):
        db = session.db
        table = db.tables["t"]
        ex = Executor(db)
        calls = {
            "run": lambda: ex.run(table, [Sum(Col("x"))], engine="row"),
            "run_grouped": lambda: ex.run_grouped(
                table, Col("k"), [Count()], engine="row"),
            "query": lambda: session.query(self.SQL, engine="row"),
            "execute": lambda: session.execute(self.SQL, engine="row"),
            "query_partial": lambda: session.query_partial(
                self.SQL, engine="row"),
        }
        before = db.pool.counters.logical_reads
        with pytest.raises(TypeError, match="engine"):
            calls[entry]()
        assert db.pool.counters.logical_reads == before


class _Scaler:
    def __init__(self, factor):
        self.factor = factor
        self.calls = 0

    def scale(self, v):
        self.calls += 1
        return v * self.factor


def _times(factor, v):
    return v * factor


class TestAnyCallableIsAUdf:
    """A UDF runs in the process that registered it, on the engine and
    on the oracle: a closure sees the caller's state as it is when the
    statement runs, and a stateful object observes every call."""

    SQL = "SELECT SUM(dbo.F(x)), COUNT(*) FROM t WHERE x IS NOT NULL"

    @pytest.mark.parametrize("side", ["oracle", "engine"])
    @pytest.mark.parametrize("kind", [
        "lambda", "closure", "bound_method", "partial"])
    def test_udf_kind_runs(self, kind, side):
        db = Database()
        table = db.create_table("t", [Column("id", "bigint"),
                                      Column("x", "float")])
        table.insert_many((i, None if i % 9 == 0 else i * 0.5)
                          for i in range(ROWS))
        session = SqlSession(db)
        box = {"factor": 2.0}
        scaler = _Scaler(3.0)
        funcs = {
            "lambda": (lambda v: v * 2.0, 2.0),
            "closure": (lambda v: v * box["factor"], 5.0),
            "bound_method": (scaler.scale, 3.0),
            "partial": (functools.partial(_times, 4.0), 4.0),
        }
        func, factor = funcs[kind]
        box["factor"] = 5.0  # read at call time, not at registration
        session.register_function("dbo.F", func)
        query = row_oracle.query if side == "oracle" else \
            SqlSession.query
        (total, n), m = query(session, self.SQL)
        assert m.engine == ("row" if side == "oracle" else "vector")
        xs = [i * 0.5 for i in range(ROWS) if i % 9 != 0]
        assert n == len(xs)
        assert total == sum(x * factor for x in xs)
        if kind == "bound_method":
            assert scaler.calls == len(xs)
