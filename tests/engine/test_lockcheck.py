"""Unit tests for the runtime lock-order sentinel
(``repro.engine.lockcheck``): out-of-order acquisitions raise with the
offending lock classes named, in-order stacks pass, and the same-class
rules (sorted table latch sets, reentrant pool mutex, stackable
intents) mirror the engine's discipline."""

import json
import os
import threading
from unittest import mock

import pytest

from repro import analysis
from repro.engine import Column, Database, lockcheck
from repro.engine.lockcheck import (
    LockOrderViolation,
    load_order,
    note_acquire,
    note_release,
    tracked_lock,
)
from repro.engine.locks import RWLock
from repro.engine.sqlfront import SqlSession


@pytest.fixture(autouse=True)
def _sentinel_on():
    was = lockcheck.is_active()
    lockcheck.set_active(True)
    yield
    lockcheck.set_active(was)


# -- ordering ---------------------------------------------------------------

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
        note_acquire("table")  # table ranks before pool
    message = str(exc.value)
    assert "'table'" in message
    assert "'pool'" in message
    # Nothing was recorded for the failed acquisition.
    assert [cls for cls, _ in lockcheck.held()] == ["pool"]


def test_latch_under_pagefile_raises():
    note_acquire("pagefile")
    with pytest.raises(LockOrderViolation):
        note_acquire("table", "t")


def test_unknown_classes_carry_no_constraints():
    note_acquire("pool")
    note_acquire("experimental")  # not in the exported order: allowed
    note_acquire("catalog2")


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
    """A SELECT takes the shared catalog latch and then only the pool
    mutex: it scans a pinned snapshot, so no table latch is held while
    it reads, on either engine."""
    db = Database()
    table = db.create_table("t", [Column("id", "bigint"),
                                  Column("x", "float"),
                                  Column("k", "int")])
    table.insert_many((i, float(i), i % 3) for i in range(2000))
    with mock.patch.object(lockcheck, "note_acquire",
                           wraps=lockcheck.note_acquire) as spy:
        SqlSession(db).query(sql, engine=engine)
    seen = [call.args[0] for call in spy.call_args_list]
    assert seen[0] == "catalog"
    assert set(seen[1:]) == {"pool"}
    assert lockcheck.held() == ()


def test_inactive_fast_path_checks_nothing():
    lockcheck.set_active(False)
    note_acquire("pool")
    note_acquire("table")  # would raise when active
    assert lockcheck.held() == ()


# -- order loading ----------------------------------------------------------

def test_load_order_matches_checked_in_graph():
    order = load_order()
    graph_path = os.path.join(os.path.dirname(analysis.__file__),
                              "lock_graph.json")
    with open(graph_path, encoding="utf-8") as handle:
        assert list(order) == json.load(handle)["order"]
    assert order.index("catalog") < order.index("table")
    assert order.index("table") < order.index("pool")


def test_load_order_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        load_order(str(tmp_path / "absent.json"))


def test_load_order_without_an_order_raises(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text('{"order": []}')
    with pytest.raises(ValueError):
        load_order(str(path))
