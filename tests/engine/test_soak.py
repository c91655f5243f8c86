"""The soak leg: a minute of churn with a reader holding snapshots.

Deselected from the default run (``addopts`` carries ``-m "not
soak"``); CI runs it as its own step under the lock-order sentinel::

    REPRO_LOCK_CHECK=1 PYTHONPATH=src python -m pytest tests -m soak

The writer runs the ``churn_rw`` workload's statements (a 256-row
INSERT at the head of a sliding 8 192-row window, the range DELETE of
its tail, point reads, a counting scan) and, beside them, DELETEs and
UPDATEs on a ``VARBINARY(MAX)`` table whose cells are in row or out of
page.  A reader thread runs SELECTs throughout and holds a snapshot of
both tables across every 10th op, checking that it still reads what it
read when it pinned.  At the end no pin is left, no page history, the
allocated pages are exactly the pages the tips reach (and never more
than a few dozen over them on the way), and the process holds the
threads and file descriptors it started with.
"""

import os
import random
import threading
import time

import pytest

from repro.engine import Database
from repro.engine.sqlfront import SqlSession
from repro.engine.table import MaxBlobHandle
from tests.engine.test_page_lifecycle import _allocated, _live_pages

pytestmark = pytest.mark.soak

SECONDS = 60
ROWS, BATCH = 8_192, 256
BLOB_ROWS = 64


def _fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _insert_sql(batch: int) -> str:
    rng = random.Random(batch)
    return "INSERT INTO t VALUES " + ", ".join(
        "({}, {}, FloatArray.Vector_5({}))".format(
            key, key % 97,
            ", ".join(repr(rng.uniform(-1, 1)) for _ in range(5)))
        for key in range(batch * BATCH, (batch + 1) * BATCH))


def _blob(key: int, rng) -> bytes | None:
    size = rng.choice([None, 40, 2_000, 9_000, 20_000])
    return None if size is None else bytes([key % 251]) * size


class _Reader(threading.Thread):
    """SELECTs in a loop; on request, pins both tables until told to
    release, then checks the pinned versions read as they did."""

    def __init__(self, db):
        super().__init__(name="soak-reader", daemon=True)
        self.db = db
        self.session = SqlSession(db)
        self.pin_now = threading.Event()
        self.pinned = threading.Event()
        self.release = threading.Event()
        self.released = threading.Event()
        self.stop = threading.Event()
        self.errors: list[BaseException] = []

    def _read(self, snap):
        pool = self.db.pool
        return [tuple(cell.read_all(pool)
                      if isinstance(cell, MaxBlobHandle) else cell
                      for cell in row) for row in snap.scan()]

    def run(self):
        try:
            while not self.stop.is_set():
                if self.pin_now.wait(0.001):
                    self.pin_now.clear()
                    snaps = [self.db.tables[name].pin_snapshot()
                             for name in ("t", "m")]
                    try:
                        before = [self._read(snap) for snap in snaps]
                        self.pinned.set()
                        self.release.wait(30)
                        self.release.clear()
                        after = [self._read(snap) for snap in snaps]
                        assert after == before
                    finally:
                        for snap in snaps:
                            snap.unpin(self.db.pool)
                        self.released.set()
                (count, _total), _m = self.session.query(
                    "SELECT COUNT(*), SUM(k) FROM t", cold=False)
                assert count in (ROWS, ROWS + BATCH)  # between statements
                self.session.query("SELECT COUNT(*) FROM m WHERE mb IS "
                                   "NOT NULL", cold=False)
        except BaseException as exc:  # reported by the test
            self.errors.append(exc)
            self.pinned.set()
            self.released.set()


def test_a_minute_of_churn_keeps_the_store_at_its_live_size():
    db = Database()
    session = SqlSession(db)
    session.execute(
        "CREATE TABLE t (id BIGINT PRIMARY KEY, k INT, v VARBINARY(100))")
    session.execute("CREATE TABLE m (id BIGINT PRIMARY KEY, k INT, "
                    "mb VARBINARY(MAX))")
    t, m = db.tables["t"], db.tables["m"]
    for batch in range(ROWS // BATCH):
        session.execute(_insert_sql(batch))
    rng = random.Random(3)
    session.insert_rows(m, [(key, key, _blob(key, rng))
                            for key in range(BLOB_ROWS)])
    fds, threads = _fds(), threading.active_count()
    reader = _Reader(db)
    reader.start()
    op = 0
    peak = 0
    deadline = time.monotonic() + SECONDS
    try:
        while time.monotonic() < deadline and not reader.errors:
            held = op % 10 == 0
            if held:
                reader.pin_now.set()
                assert reader.pinned.wait(30)
                reader.pinned.clear()
            head = ROWS // BATCH + op
            assert session.execute(_insert_sql(head)) == BATCH
            assert session.execute(f"DELETE FROM t WHERE id >= {op * BATCH}"
                                   f" AND id < {(op + 1) * BATCH}") == BATCH
            key = head * BATCH + rng.randrange(BATCH)
            assert session.query(f"SELECT MAX(v) FROM t WHERE id = {key}"
                                 )[0][0] is not None
            # The blob table: the oldest two rows out, two new in, one
            # rewritten in place.
            low = op * 2
            session.execute(f"DELETE FROM m WHERE id >= {low} "
                            f"AND id < {low + 2}")
            fresh = low + BLOB_ROWS
            session.insert_rows(m, [(key, key, _blob(key, rng))
                                    for key in (fresh, fresh + 1)])
            victim = low + 2 + rng.randrange(BLOB_ROWS - 2)
            with db.latches.write_latch("m"):
                assert m.update((victim, op, _blob(victim, rng)))
            peak = max(peak, db.pagefile.allocated_page_count)
            if held:
                reader.release.set()
                assert reader.released.wait(30)
                reader.released.clear()
            op += 1
    finally:
        reader.stop.set()
        reader.release.set()
        reader.join(30)
    assert not reader.is_alive()
    if reader.errors:
        raise reader.errors[0]
    assert op > 100
    assert t.pinned_versions() == {} and m.pinned_versions() == {}
    assert db.pagefile._history == {}
    live = _live_pages(t) | _live_pages(m)
    assert _allocated(db.pagefile) == live
    assert peak <= len(live) + 64
    assert (_fds(), threading.active_count()) == (fds, threads)
