"""A statement that fails part-way leaves nothing behind.

A UDF that raises on its third call stops a SELECT in the middle of its
row loop or vector scan.  Whatever the plan — scan, grouped, point
seek, index seek, or the shard side's partial scalar and grouped scans
— and whichever engine ran it, the error reaches the caller and the
statement's read view is gone with it:

* no table version is still pinned (``pinned_versions() == {}``);
* the calling thread's cold view of the buffer pool is closed
  (``cold_seen is None``), so
* the same statement run warm twice reads no page physically the
  second time.

A ``DELETE`` whose predicate raises while its victims are chosen on a
pinned snapshot leaves no pin either, and deletes nothing.

An ``INSERT`` or ``DELETE`` whose B-tree write raises after it cloned a
page — between clone and publish — leaves its table's copy-on-write
scope closed, the next write to the table works, and once every pin is
gone no superseded page is left in the page file's version history.

``test_the_checks_catch_an_unpin_outside_finally`` runs the executor
with ``snap.unpin`` moved out of ``_read_view``'s ``finally``, and
``test_the_checks_catch_an_end_write_outside_finally`` the table with
``end_write`` moved out of ``_write_scope``'s (in-memory copies of the
modules; the checkout is never written); each shows the checks fail.
"""

import pytest

from repro.engine import Column, Database, executor, table as table_module
from repro.engine.btree import BTree
from repro.engine.sqlfront import SqlSession
from repro.engine.table import Table
from tests.mutation import mutated

ROWS = 300

#: name -> (statement, session method, plan kind).  Three UDF calls in
#: the point plan's select list, so its one row reaches the third.
PLANS = {
    "scan": ("SELECT SUM(dbo.Boom(x)), COUNT(*) FROM t", "query", "scan"),
    "grouped": ("SELECT k, SUM(dbo.Boom(x)) FROM t GROUP BY k", "query",
                "grouped"),
    "point": ("SELECT SUM(dbo.Boom(x)), MAX(dbo.Boom(x)), "
              "MIN(dbo.Boom(x)) FROM t WHERE id = 7", "query", "point"),
    "index": ("SELECT SUM(dbo.Boom(x)), COUNT(*) FROM t WHERE k = 3",
              "query", "index"),
    "partial_scalar": ("SELECT SUM(dbo.Boom(x)), COUNT(*) FROM t",
                       "query_partial", "scan"),
    "partial_grouped": ("SELECT k, AVG(dbo.Boom(x)) FROM t GROUP BY k",
                        "query_partial", "grouped"),
}


class Boom(Exception):
    pass


class ThirdCallRaises:
    def __init__(self):
        self.calls = 0
        self.armed = True

    def __call__(self, value):
        self.calls += 1
        if self.armed and self.calls == 3:
            raise Boom(f"call {self.calls}")
        return value


@pytest.fixture
def udf():
    return ThirdCallRaises()


@pytest.fixture
def session(udf):
    db = Database()
    table = db.create_table("t", [Column("id", "bigint"),
                                  Column("k", "int"),
                                  Column("x", "float")])
    table.insert_many((i, i % 7, i * 0.5) for i in range(ROWS))
    table.create_index("k")
    session = SqlSession(db)
    session.register_function("dbo.Boom", udf)
    return session


def _run(session, plan, engine, cold):
    sql, method, _kind = PLANS[plan]
    result = getattr(session, method)(sql, cold=cold, engine=engine)
    return result["metrics"] if method == "query_partial" else result[1]


def _left_behind(session, udf, plan, engine) -> list[str]:
    """Fail the statement once, then list what it left behind."""
    with pytest.raises(Boom):
        _run(session, plan, engine, cold=True)
    found = []
    table = session.db.tables["t"]
    if table.pinned_versions():
        found.append(f"pinned versions {table.pinned_versions()}")
    if session.db.pool._thread_state().cold_seen is not None:
        found.append("an open cold view")
    udf.armed = False
    _run(session, plan, engine, cold=False)
    again = _run(session, plan, engine, cold=False)
    if again.physical_reads:
        found.append(f"{again.physical_reads} physical reads warm")
    return found


@pytest.mark.parametrize("engine", ["row", "vector"])
@pytest.mark.parametrize("plan", list(PLANS))
def test_a_failed_statement_leaves_nothing_behind(session, udf, plan,
                                                  engine):
    sql, _method, kind = PLANS[plan]
    assert session.plan_select(sql).kind == kind
    assert _left_behind(session, udf, plan, engine) == []
    assert udf.calls > 3


def test_a_failed_delete_leaves_no_pin(session, udf):
    table = session.db.tables["t"]
    with pytest.raises(Boom):
        session.execute("DELETE FROM t WHERE dbo.Boom(x) > 10")
    assert table.pinned_versions() == {}
    udf.armed = False
    (n,), _metrics = session.query("SELECT COUNT(*) FROM t")
    assert n == ROWS


def _unpin_outside_finally():
    """``Executor._read_view`` with the unpin moved after its
    ``finally``."""
    return mutated(executor,
                   "        finally:\n"
                   "            if snap is not None:\n"
                   "                snap.unpin(pool)\n",
                   "        finally:\n"
                   "            pass\n"
                   "        if snap is not None:\n"
                   "            snap.unpin(pool)\n").Executor._read_view


@pytest.mark.parametrize("engine", ["row", "vector"])
def test_the_checks_catch_an_unpin_outside_finally(session, udf, engine,
                                                   monkeypatch):
    monkeypatch.setattr(executor.Executor, "_read_view",
                        _unpin_outside_finally())
    table = session.db.tables["t"]
    try:
        found = _left_behind(session, udf, "scan", engine)
        assert found and found[0].startswith("pinned versions")
    finally:
        # The leak is the point of this test: release it by hand.
        for version, count in table.pinned_versions().items():
            for _ in range(count):
                table.unpin(version, session.db.pool)


# -- an exception between clone and publish ---------------------------------

#: name -> (statement, rows it leaves once the write goes through).
WRITES = {
    "insert": ("INSERT INTO t VALUES (1001, 1, 1.0), (1003, 3, 3.0)",
               ROWS + 2),
    "delete": ("DELETE FROM t WHERE id >= 100 AND id < 200", ROWS - 100),
}


def _clone_then_raise(monkeypatch):
    """Make the B-tree's next write raise as soon as it has cloned a
    page, before it changes a record."""
    wget = BTree._wget

    def failing(tree, page_id):
        page = wget(tree, page_id)
        if tree._cow:
            monkeypatch.setattr(BTree, "_wget", wget)
            raise Boom(f"after cloning page {page_id}")
        return page

    monkeypatch.setattr(BTree, "_wget", failing)


def _after_a_failed_write(session, write, monkeypatch) -> list[str]:
    """Fail one write between clone and publish under a reader's pin,
    write again, unpin; list what was left behind."""
    sql, rows = WRITES[write]
    table = session.db.tables["t"]
    table.insert_many([(1000, 0, 0.0)])  # clones only once it is pinned
    reader = table.pin_snapshot()
    _clone_then_raise(monkeypatch)
    with pytest.raises(Boom):
        session.execute(sql)
    found = []
    if table._tree._wv is not None:
        found.append(f"write scope still open at {table._tree._wv}")
    try:
        if session.execute(sql) != rows - ROWS and write == "insert":
            found.append("the next insert lost rows")
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        found.append(f"the next {write} raised {exc!r}")
    (n,), _metrics = session.query("SELECT COUNT(*) FROM t")
    if n != rows + 1:
        found.append(f"{n} rows after the next {write}, not {rows + 1}")
    if sum(1 for _ in reader.scan()) != ROWS + 1:
        found.append("the pinned reader's rows changed")
    reader.unpin(session.db.pool)
    history = session.db.pagefile._history
    if history:
        found.append(f"history left for pages {sorted(history)}")
    return found


@pytest.mark.parametrize("write", list(WRITES))
def test_a_write_failing_between_clone_and_publish_leaves_nothing(
        session, write, monkeypatch):
    assert _after_a_failed_write(session, write, monkeypatch) == []


@pytest.mark.parametrize("write", list(WRITES))
def test_the_checks_catch_an_end_write_outside_finally(session, write,
                                                       monkeypatch):
    scope = mutated(table_module,
                    "        try:\n"
                    "            yield\n"
                    "        finally:\n"
                    "            cow = tree.end_write()\n"
                    "            with self._pin_lock:\n"
                    "                self._cow_pids |= cow\n",
                    "        yield\n"
                    "        cow = tree.end_write()\n"
                    "        with self._pin_lock:\n"
                    "            self._cow_pids |= cow\n"
                    ).Table._write_scope
    monkeypatch.setattr(Table, "_write_scope", scope)
    found = _after_a_failed_write(session, write, monkeypatch)
    assert found and found[0].startswith("write scope still open")
