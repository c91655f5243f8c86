"""Engine selection: the two execution paths (``row`` and ``vector``),
how a call picks one, which one a plan reports, and that every entry
point taking ``engine=`` refuses any other name.

Both engines run a statement serially in the calling process, so any
Python callable registered as a UDF — a lambda, a closure over mutable
state, a bound method — runs on either engine and returns bit-identical
values."""

import functools
import struct

import pytest

from repro.engine import Col, Column, Count, Database, Executor, Sum
from repro.engine.sqlfront import SqlSession

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

    @pytest.mark.parametrize("engine", ["row", "vector"])
    @pytest.mark.parametrize("sql", [
        "SELECT SUM(x), COUNT(*) FROM t",
        "SELECT k, SUM(x), COUNT(*) FROM t GROUP BY k",
    ], ids=["scan", "grouped"])
    def test_a_scan_reports_the_engine_it_ran_on(self, session, engine,
                                                 sql):
        vals, m = session.query(sql, engine=engine)
        assert m.engine == engine
        other = "row" if engine == "vector" else "vector"
        ref, _ = session.query(sql, engine=other)
        assert _bits(vals) == _bits(ref)

    @pytest.mark.parametrize("engine", ["row", "vector"])
    @pytest.mark.parametrize("sql", [
        "SELECT SUM(x) FROM t WHERE id = 7",
        "SELECT SUM(x), COUNT(*) FROM t WHERE k = 3",
    ], ids=["clustered", "secondary"])
    def test_a_seek_plan_runs_on_the_row_path(self, session, engine,
                                              sql):
        # A seek touches a handful of scattered rows: there is no batch
        # to vectorize, whichever engine was asked for.
        vals, m = session.query(sql, engine=engine)
        assert m.engine == "row"
        ref, _ = session.query(sql, engine="row")
        assert _bits(vals) == _bits(ref)


class TestUnknownEngineRefused:
    """``"parallel"`` is no longer an engine: every entry point that
    takes ``engine=`` refuses it before touching a page."""

    SQL = "SELECT SUM(x), COUNT(*) FROM t"

    @pytest.mark.parametrize("entry", [
        "run", "run_grouped", "query", "execute", "query_partial",
    ])
    def test_parallel_is_refused(self, session, entry):
        db = session.db
        table = db.tables["t"]
        ex = Executor(db)
        calls = {
            "run": lambda: ex.run(table, [Sum(Col("x"))],
                                  engine="parallel"),
            "run_grouped": lambda: ex.run_grouped(
                table, Col("k"), [Count()], engine="parallel"),
            "query": lambda: session.query(self.SQL, engine="parallel"),
            "execute": lambda: session.execute(self.SQL,
                                               engine="parallel"),
            "query_partial": lambda: session.query_partial(
                self.SQL, engine="parallel"),
        }
        before = db.pool.counters.logical_reads
        with pytest.raises(ValueError, match="'row' or 'vector'"):
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
    """A UDF runs in the process that registered it, on both engines:
    a closure sees the caller's state as it is when the statement runs,
    and a stateful object observes every call."""

    SQL = "SELECT SUM(dbo.F(x)), COUNT(*) FROM t WHERE x IS NOT NULL"

    @pytest.mark.parametrize("engine", ["row", "vector"])
    @pytest.mark.parametrize("kind", [
        "lambda", "closure", "bound_method", "partial"])
    def test_udf_kind_runs_on_engine(self, kind, engine):
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
        (total, n), m = session.query(self.SQL, engine=engine)
        assert m.engine == engine
        xs = [i * 0.5 for i in range(ROWS) if i % 9 != 0]
        assert n == len(xs)
        assert total == sum(x * factor for x in xs)
        if kind == "bound_method":
            assert scaler.calls == len(xs)
