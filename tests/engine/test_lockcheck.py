"""Unit tests for the runtime lock sentinel (``repro.engine.lockcheck``).

Undeclared nestings raise with both lock classes named, declared ones
pass, and the same-class rules (sorted table latch sets, reentrant pool
mutex, stackable intents) mirror the engine's discipline.  A statement
must hold the write latch of a table it mutates and the catalog latch
while it reads the pool; a thread holding an exclusive latch may not
block.

Each rule is also caught in the act on real code: the ``*_is_caught``
tests run an in-memory copy of a ``src/`` module with the shape of bug
the rule exists for seeded into it (the checkout is never written).
"""

import concurrent.futures
import json
import os
import re
import socket
import threading
import time
from unittest import mock

import pytest

from repro.engine import Column, Database, lockcheck, sqlfront
from repro.engine.lockcheck import (
    LockOrderViolation,
    load_graph,
    note_acquire,
    note_release,
    tracked_lock,
)
from repro.engine.locks import RWLock
from repro.engine.sqlfront import SqlSession
from repro.server import ArrayClient, ServerThread, server as server_module
from tests.mutation import mutated

INSERT = "INSERT INTO t VALUES (5000, 1.0, 1)"


@pytest.fixture(autouse=True)
def _sentinel_on():
    was = lockcheck.is_active()
    lockcheck.set_active(True)
    yield
    lockcheck.set_active(was)


def make_db(rows=2000):
    db = Database()
    table = db.create_table("t", [Column("id", "bigint"),
                                  Column("x", "float"),
                                  Column("k", "int")])
    table.insert_many((i, float(i), i % 3) for i in range(rows))
    return db


# -- nesting ----------------------------------------------------------------

def test_in_order_stack_passes():
    for cls in ("catalog", "table", "pool"):
        note_acquire(cls)
    assert [cls for cls, _ in lockcheck.held()] == \
        ["catalog", "table", "pool"]
    for cls in ("pool", "table", "catalog"):
        note_release(cls)
    assert lockcheck.held() == ()


def test_out_of_order_raises_naming_both_classes():
    note_acquire("pool")
    with pytest.raises(LockOrderViolation) as exc:
        note_acquire("table")  # (pool, table) is not declared
    message = str(exc.value)
    assert "'table'" in message
    assert "'pool'" in message
    # Nothing was recorded for the failed acquisition.
    assert [cls for cls, _ in lockcheck.held()] == ["pool"]


def test_latch_under_pagefile_raises():
    note_acquire("pagefile")
    with pytest.raises(LockOrderViolation):
        note_acquire("table", "t")


def test_an_undeclared_class_nests_under_nothing():
    note_acquire("experimental")  # alone: nothing to nest under
    with pytest.raises(LockOrderViolation):
        note_acquire("pool")
    note_release("experimental")
    note_acquire("pool")
    with pytest.raises(LockOrderViolation):
        note_acquire("experimental")


def test_a_try_lock_is_recorded_not_checked():
    lock = tracked_lock("mutex:_Connection")
    note_acquire("pool")
    assert lock.acquire(blocking=False)  # a try-lock never waits
    assert [cls for cls, _ in lockcheck.held()] == \
        ["pool", "mutex:_Connection"]
    lock.release()
    with pytest.raises(LockOrderViolation):
        lock.acquire()


# -- same-class rules -------------------------------------------------------

def test_non_reentrant_same_class_raises():
    note_acquire("catalog")
    with pytest.raises(LockOrderViolation) as exc:
        note_acquire("catalog")
    assert "re-acquires" in str(exc.value)


def test_table_latches_nest_only_ascending():
    note_acquire("table", "aaa")
    note_acquire("table", "bbb")  # sorted latch-set order: fine
    with pytest.raises(LockOrderViolation) as exc:
        note_acquire("table", "abc")  # out of sorted order
    assert "'abc'" in str(exc.value)


def test_same_table_latch_twice_raises():
    note_acquire("table", "t")
    with pytest.raises(LockOrderViolation):
        note_acquire("table", "t")


def test_intents_stack():
    note_acquire("intent", "a")
    note_acquire("intent", "a")
    note_acquire("intent", "b")


def test_reentrant_pool_mutex_nests():
    lock = tracked_lock("pool", reentrant=True)
    with lock:
        with lock:
            assert [cls for cls, _ in lockcheck.held()] == ["pool", "pool"]
    assert lockcheck.held() == ()


# -- tracked locks and instrumented RWLocks ---------------------------------

def test_tracked_lock_timeout_rolls_back_record():
    lock = tracked_lock("pool")
    grabbed = threading.Event()
    release = threading.Event()

    def holder():
        with lock:
            grabbed.set()
            release.wait(timeout=5.0)

    thread = threading.Thread(target=holder)
    thread.start()
    assert grabbed.wait(timeout=5.0)
    assert lock.acquire(timeout=0.05) is False
    # The failed acquisition left no stale record behind.
    assert lockcheck.held() == ()
    release.set()
    thread.join(timeout=5.0)


def test_rwlock_acquisitions_are_instrumented():
    latch = RWLock()
    latch.lock_class = "table"
    latch.lock_name = "t"
    catalog = RWLock()
    catalog.lock_class = "catalog"
    latch.acquire_read()
    try:
        with pytest.raises(LockOrderViolation) as exc:
            catalog.acquire_read()  # catalog under a table latch
        assert "'catalog'" in str(exc.value)
        assert "'table'" in str(exc.value)
    finally:
        latch.release_read()
    assert lockcheck.held() == ()


@pytest.mark.parametrize("engine", ["row", "vector"])
@pytest.mark.parametrize("sql", [
    "SELECT COUNT(*) FROM t",
    "SELECT k, COUNT(*) FROM t GROUP BY k",
    "SELECT SUM(x) FROM t WHERE id = 7",
], ids=["scan", "grouped", "seek"])
def test_a_select_reads_its_snapshot_without_a_table_latch(engine, sql):
    """A SELECT takes the shared catalog latch, then only the pool
    mutex and its table's pin mutex: it scans a pinned snapshot, so no
    table latch is held while it reads, on either engine."""
    db = make_db()
    with mock.patch.object(lockcheck, "note_acquire",
                           wraps=lockcheck.note_acquire) as spy:
        SqlSession(db).query(sql, engine=engine)
    seen = [call.args[0] for call in spy.call_args_list]
    assert seen[0] == "catalog"
    assert set(seen[1:]) == {"pool", "mutex:Table.pin"}
    assert lockcheck.held() == ()


def test_inactive_fast_path_checks_nothing():
    lockcheck.set_active(False)
    note_acquire("pool")
    note_acquire("table")  # would raise when active
    assert lockcheck.held() == ()


# -- the declared graph -----------------------------------------------------

def test_the_declared_graph_is_acyclic():
    """No two threads that take only declared nestings can deadlock:
    the graph has a topological order."""
    edges = load_graph()
    order, left = [], {cls for edge in edges for cls in edge}
    while left:
        free = sorted(cls for cls in left
                      if not any(a in left and b == cls for a, b in edges))
        assert free, f"lock_graph.json has a cycle among {sorted(left)}"
        order += free
        left -= set(free)
    assert order.index("catalog") < order.index("table") \
        < order.index("pool")


EDGES = sorted(load_graph())
EDGE_IDS = [f"{held}->{acquired}" for held, acquired in EDGES]
SRC = os.path.dirname(os.path.abspath(lockcheck.__file__))
with open(os.path.join(SRC, "lock_graph.json"), encoding="utf-8") as _f:
    NODES = sorted(json.load(_f)["nodes"])
# A literal lock class handed to the sentinel: a tracked mutex, a
# latch's class tag, or a direct record.
_CLASS_LITERAL = re.compile(
    r"(?:tracked_lock\(|note_acquire\(|lock_class = )\s*\"([^\"]+)\"")


def _classes_named_in_src():
    """Every lock class ``src/repro`` hands the sentinel.  The sentinel
    itself and the generic ``RWLock`` (whose placeholder class every
    owner overwrites) are left out."""
    root = os.path.dirname(SRC)
    skip = {os.path.join(SRC, "lockcheck.py"), os.path.join(SRC, "locks.py")}
    found = set()
    for folder, _dirs, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            if name.endswith(".py") and path not in skip:
                with open(path, encoding="utf-8") as handle:
                    found.update(_CLASS_LITERAL.findall(handle.read()))
    return sorted(found)


def _take(lock_class):
    note_acquire(lock_class, "t" if lock_class == "table" else None)


@pytest.mark.parametrize("held, acquired", EDGES, ids=EDGE_IDS)
def test_every_declared_nesting_is_allowed(held, acquired):
    _take(held)
    _take(acquired)
    assert [cls for cls, _ in lockcheck.held()] == [held, acquired]


@pytest.mark.parametrize("held, acquired", EDGES, ids=EDGE_IDS)
def test_the_reverse_of_every_declared_nesting_raises(held, acquired):
    """The inverse order is the other half of a deadlock: the sentinel
    refuses it at its first acquisition, naming both classes."""
    _take(acquired)
    with pytest.raises(LockOrderViolation) as exc:
        _take(held)
    assert repr(held) in str(exc.value)
    assert repr(acquired) in str(exc.value)
    assert [cls for cls, _ in lockcheck.held()] == [acquired]


@pytest.mark.parametrize("lock_class", _classes_named_in_src())
def test_every_lock_class_in_src_is_a_node(lock_class):
    """A class the graph does not know nests under nothing, so a typo
    in a ``tracked_lock`` name would fail its first nested use."""
    assert lock_class in NODES


@pytest.mark.parametrize("lock_class", NODES)
def test_every_node_is_a_lock_class_src_takes(lock_class):
    """The hand-kept graph carries no stale class."""
    assert lock_class in _classes_named_in_src()


def test_load_graph_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_graph(str(tmp_path / "absent.json"))


@pytest.mark.parametrize("graph", [
    {"order": ["catalog"]},
    {"nodes": ["catalog"], "edges": [["catalog", "pool"]]},
], ids=["no-graph", "edge-off-the-nodes"])
def test_load_graph_rejects_a_malformed_graph(tmp_path, graph):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    with pytest.raises(ValueError):
        load_graph(str(path))


# -- statements latch what they touch ---------------------------------------

MUTATIONS = {
    "insert": lambda table: table.insert_many([(5000, 1.0, 1)]),
    "delete": lambda table: table.delete_many([7]),
    "update": lambda table: table.update((7, 7.5, 1)),
    "publish": lambda table: table._publish(table.version),
}


class _BareSession(SqlSession):
    @lockcheck.statement
    def bare(self, mutation):
        """A statement that mutates ``t`` under whatever latches the
        caller holds."""
        return MUTATIONS[mutation](self.db.tables["t"])


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_direct_table_writes_are_not_statements(mutation):
    """Loaders and tests write tables without any latch; outside a
    ``SqlSession`` statement that is allowed."""
    MUTATIONS[mutation](make_db().tables["t"])


def test_a_statement_writes_under_its_table_latch():
    session = SqlSession(make_db())
    assert session.execute(INSERT) == 1
    assert session.execute("DELETE FROM t WHERE id >= 5000") == 1


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_statement_mutation_under_its_write_latch_passes(mutation):
    db = make_db()
    with db.latches.write_latch("t"):
        _BareSession(db).bare(mutation)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_a_statement_mutation_without_its_write_latch_raises(mutation):
    db = make_db()
    db.create_table("u", [Column("id", "bigint")])
    table = db.tables["t"]
    before = table.version, table.row_count, table.get(7)
    session = _BareSession(db)
    with pytest.raises(LockOrderViolation) as exc:
        session.bare(mutation)
    assert "write latch" in str(exc.value)
    with db.latches.read_latch("t"), pytest.raises(LockOrderViolation):
        session.bare(mutation)  # shared is not enough
    with db.latches.write_latch("u"), pytest.raises(LockOrderViolation):
        session.bare(mutation)  # nor is another table's
    assert (table.version, table.row_count, table.get(7)) == before


def test_a_statement_reads_the_pool_under_the_catalog_latch():
    db = make_db()

    class Session(SqlSession):
        @lockcheck.statement
        def bare_fetch(self):
            return db.pool.fetch(db.tables["t"].tree.root_page_id)

    with pytest.raises(LockOrderViolation) as exc:
        Session(db).bare_fetch()
    assert "catalog latch" in str(exc.value)
    db.pool.fetch(db.tables["t"].tree.root_page_id)  # not a statement


def test_an_insert_without_its_write_latch_is_caught(monkeypatch):
    """The seeded bug: ``insert_rows`` applies the batch without taking
    the table's write latch."""
    copy = mutated(sqlfront,
                   "            with self.db.latches.write_latch("
                   "table.name):\n"
                   "                return table.apply_insert(prep)\n",
                   "            return table.apply_insert(prep)\n")
    monkeypatch.setattr(SqlSession, "insert_rows",
                        copy.SqlSession.insert_rows)
    session = SqlSession(make_db())
    with pytest.raises(LockOrderViolation):
        session.execute(INSERT)


# -- no blocking under an exclusive latch -----------------------------------

BLOCKING_CALLS = ["future", "join", "recv", "recv_into", "send",
                  "sendall", "sendmsg", "sleep"]


@pytest.fixture
def blocking_call(request):
    """One of the calls the sentinel refuses under an exclusive latch,
    armed so that it returns at once when it is allowed."""
    left, right = socket.socketpair()
    right.sendall(b"x")
    done = concurrent.futures.Future()
    done.set_result(1)
    thread = threading.Thread(target=lambda: None)
    thread.start()
    calls = {
        "future": lambda: done.result(),
        "join": lambda: thread.join(),
        "recv": lambda: left.recv(1),
        "recv_into": lambda: left.recv_into(bytearray(1)),
        "send": lambda: left.send(b"y"),
        "sendall": lambda: left.sendall(b"y"),
        "sendmsg": lambda: left.sendmsg([b"y"]),
        "sleep": lambda: time.sleep(0),
    }
    yield calls[request.param]
    thread.join()
    left.close()
    right.close()


@pytest.mark.parametrize("latch", ["write", "ddl"])
@pytest.mark.parametrize("blocking_call", BLOCKING_CALLS, indirect=True)
def test_a_blocking_call_raises_under_an_exclusive_latch(blocking_call,
                                                         latch):
    db = make_db()
    guard = (db.latches.write_latch("t") if latch == "write"
             else db.latches.ddl_latch())
    with guard, pytest.raises(LockOrderViolation) as exc:
        blocking_call()
    assert "exclusive" in str(exc.value)


@pytest.mark.parametrize("blocking_call", BLOCKING_CALLS, indirect=True)
def test_a_blocking_call_passes_under_a_shared_latch(blocking_call):
    """A shared latch blocks no reader, so it may be held across a
    blocking call."""
    db = make_db()
    with db.latches.read_latch("t"):
        blocking_call()


def test_checks_are_uninstalled_when_off():
    """Off, the sentinel leaves no wrapper on a statement entry point
    or a blocking call."""
    checked = time.sleep, socket.socket.recv, SqlSession.execute
    lockcheck.set_active(False)
    plain = time.sleep, socket.socket.recv, SqlSession.execute
    assert all(a is not b for a, b in zip(checked, plain))
    lockcheck.set_active(True)
    assert (time.sleep, socket.socket.recv, SqlSession.execute) == checked


def test_a_sleep_under_the_write_latch_is_caught(monkeypatch):
    """The seeded bug: a statement sleeps while it holds its table's
    write latch."""
    copy = mutated(sqlfront,
                   "            with self.db.latches.write_latch("
                   "table.name):\n"
                   "                return table.apply_insert(prep)\n",
                   "            with self.db.latches.write_latch("
                   "table.name):\n"
                   "                import time\n"
                   "                time.sleep(0)\n"
                   "                return table.apply_insert(prep)\n")
    monkeypatch.setattr(SqlSession, "insert_rows",
                        copy.SqlSession.insert_rows)
    session = SqlSession(make_db())
    with pytest.raises(LockOrderViolation) as exc:
        session.execute(INSERT)
    assert "sleep" in str(exc.value)


# -- undeclared nestings off the calling thread -----------------------------

def _connection_thread_errors(monkeypatch, serve):
    """Open and close one client connection served by ``serve``; what
    its connection thread raised."""
    errors = []

    def recording(server, conn):
        try:
            serve(server, conn)
        except LockOrderViolation as exc:
            errors.append(exc)
            conn.sock.close()

    monkeypatch.setattr(server_module.ArrayServer, "_serve_connection",
                        recording)
    with ServerThread(make_db(100)) as handle:
        with ArrayClient("127.0.0.1", handle.port) as client:
            client.ping()
    return errors


def test_a_clean_connection_raises_nothing(monkeypatch):
    serve = server_module.ArrayServer._serve_connection
    assert _connection_thread_errors(monkeypatch, serve) == []


def test_a_stats_call_under_the_connection_set_lock_is_caught(
        monkeypatch):
    """The seeded bug: a connection thread records its session's end
    while holding the server's connection-set mutex — a nesting the
    graph does not declare, raised off the test's thread."""
    copy = mutated(server_module,
                   "            self.stats.session_closed(session_id)\n"
                   "            with self._connections_lock:\n"
                   "                self._connections.discard(conn)\n",
                   "            with self._connections_lock:\n"
                   "                self.stats.session_closed(session_id)\n"
                   "                self._connections.discard(conn)\n")
    errors = _connection_thread_errors(monkeypatch,
                                       copy.ArrayServer._serve_connection)
    assert [type(error) for error in errors] == [LockOrderViolation]
    assert "'mutex:ServerStats'" in str(errors[0])
    assert "'mutex:ArrayServer'" in str(errors[0])
