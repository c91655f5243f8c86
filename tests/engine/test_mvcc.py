"""MVCC copy-on-write page versions: latch-free snapshot readers,
intra-table reader/writer overlap, version retirement, write intents.

The randomized parity test is the core correctness bar: with writers
and readers interleaving freely on ONE table, every value a reader
observes must be bit-identical to some serial prefix of the write
history — a snapshot can be stale, never torn.
"""

import os
import pickle
import random
import sys
import threading
import time
from unittest import mock

import pytest

from repro.engine import Column, Database, PageFile
from repro.engine.constants import PAGE_DATA
from repro.engine.sqlfront import SqlSession
from repro.tsql import FloatArray

READ_SQL = ("SELECT SUM(FloatArray.Item_1(v, 0)), COUNT(*) "
            "FROM ta WITH (NOLOCK)")


def build_db(rows=300):
    db = Database()
    t = db.create_table(
        "ta", [Column("id", "bigint"),
               Column("v", "varbinary", cap=100)])
    for i in range(rows):
        t.insert((i, FloatArray.Vector_3(float(i), 2.0, 3.0)))
    return db, t


def insert_sql(*keys):
    return "INSERT INTO ta VALUES " + ", ".join(
        f"({key}, FloatArray.Vector_3({float(key)!r}, 2.0, 3.0))"
        for key in keys)


# -- reader/writer overlap on one table -------------------------------------

class TestIntraTableOverlap:
    def test_reader_completes_while_writer_holds_table_latch(self):
        """The acceptance bar: a SELECT on T finishes while a writer
        on T is parked mid-statement (exclusive table latch held)."""
        db, _ = build_db()
        acquired = threading.Event()
        release = threading.Event()

        def writer_mid_statement():
            with db.latches.write_latch("ta"):
                acquired.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=writer_mid_statement)
        holder.start()
        assert acquired.wait(timeout=10)
        result = []
        reader = threading.Thread(target=lambda: result.append(
            SqlSession(db).query(READ_SQL, cold=False)))
        reader.start()
        reader.join(timeout=15)
        try:
            assert result, "reader blocked behind the held write latch"
            (s, n), _ = result[0]
            assert n == 300
            assert s == pytest.approx(float(sum(range(300))))
        finally:
            release.set()
            holder.join(timeout=10)

    def test_writer_completes_while_snapshot_pinned(self):
        db, t = build_db()
        snap = t.pin_snapshot()
        try:
            session = SqlSession(db)
            assert session.execute(insert_sql(1000)) == 1
            assert session.execute("DELETE FROM ta WHERE id = 0") == 1
            # The pinned snapshot still reads its frozen version.
            assert snap.row_count == 300
            assert snap.get(0) is not None
            assert snap.get(1000) is None
        finally:
            snap.unpin(db.pool)
        assert t.get(0) is None
        assert t.get(1000) is not None

    def test_snapshot_consistent_across_mid_scan_publish(self):
        db, t = build_db()
        snap = t.pin_snapshot()
        try:
            it = snap.scan()
            seen = [next(it) for _ in range(100)]
            session = SqlSession(db)
            session.execute("DELETE FROM ta WHERE id < 150")
            session.execute(insert_sql(2000))
            seen.extend(it)
        finally:
            snap.unpin(db.pool)
        assert [row[0] for row in seen] == list(range(300))
        assert t.row_count == 151

    def test_randomized_serial_prefix_parity(self):
        """Interleaved writers/readers on one table: every read is
        bit-identical to some serial prefix of the write history — a
        prefix of whole *statements*: a multi-row INSERT or a range
        DELETE is all there or not at all."""
        db, t = build_db(rows=400)
        rng = random.Random(0xC0117)
        live = set(range(400))
        next_key = 400
        ops = []  # (sql, rowcount, keys added, keys removed)
        for _ in range(120):
            roll = rng.random()
            if live and roll < 0.25:
                key = rng.choice(sorted(live))
                ops.append((f"DELETE FROM ta WHERE id = {key}", 1,
                            (), (key,)))
            elif live and roll < 0.5:
                lo = rng.choice(sorted(live))
                hi = lo + rng.randrange(2, 150)
                gone = tuple(k for k in live if lo <= k < hi)
                ops.append((f"DELETE FROM ta WHERE id >= {lo} "
                            f"AND id < {hi}", len(gone), (), gone))
            else:
                n = 1 if roll < 0.75 else rng.randrange(2, 80)
                keys = tuple(range(next_key, next_key + n))
                next_key += n
                ops.append((insert_sql(*keys), n, keys, ()))
            live.update(ops[-1][2])
            live.difference_update(ops[-1][3])
        assert sum(1 for op in ops if op[1] > 1) > 40
        # Serial prefix states (sum is exact: integer-valued floats).
        count, total = 400, sum(range(400))
        prefix_states = {(count, total)}
        for _sql, _n, added, removed in ops:
            count += len(added) - len(removed)
            total += sum(added) - sum(removed)
            prefix_states.add((count, total))

        done = threading.Event()
        observed = []
        errors = []

        def writer():
            session = SqlSession(db)
            try:
                for sql, rowcount, _added, _removed in ops:
                    assert session.execute(sql) == rowcount
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                done.set()

        def reader():
            session = SqlSession(db)
            try:
                while not done.is_set():
                    (s, n), _ = session.query(READ_SQL, cold=False)
                    observed.append((n, int(s)))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        # Readers first, and the writer only once one of them has
        # answered: a short statement can finish inside a single GIL
        # slice, before a reader thread was ever scheduled — so the
        # slices are cut short too, and a statement that publishes
        # more than once gets a reader in between.
        threads = [threading.Thread(target=reader) for _ in range(2)]
        threads.append(threading.Thread(target=writer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads[:-1]:
                thread.start()
            deadline = time.monotonic() + 60
            while not observed and not errors \
                    and time.monotonic() < deadline:
                time.sleep(0.001)
            threads[-1].start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert observed, "readers never completed a query"
        stray = [state for state in observed
                 if state not in prefix_states]
        assert not stray, f"torn reads: {stray[:5]}"
        final = SqlSession(db).query(READ_SQL)[0]
        assert (final[1], int(final[0])) == (count, total)
        # Nothing is left behind: no pin, no superseded page.
        assert t.pinned_versions() == {}
        assert not any(db.pagefile.history_len(pid)
                       for pid in range(db.pagefile.page_count))

    def test_a_range_delete_is_one_version(self):
        """A reader counting rows while one DELETE removes thousands
        of them sees the count before or the count after, nothing in
        between."""
        db, t = build_db(rows=0)
        t.insert_many((i, FloatArray.Vector_3(float(i), 2.0, 3.0))
                      for i in range(12_000))
        version = t.version
        seen = set()
        errors = []
        started = threading.Event()
        moved = threading.Event()
        done = threading.Event()

        def reader():
            session = SqlSession(db)
            try:
                while not done.is_set():
                    (n,), _ = session.query(
                        "SELECT COUNT(*) FROM ta", cold=False)
                    seen.add(n)
                    started.set()
                    if n != 12_000:
                        moved.set()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
                moved.set()

        thread = threading.Thread(target=reader)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            thread.start()
            assert started.wait(timeout=60)
            try:
                assert SqlSession(db).execute(
                    "DELETE FROM ta WHERE id >= 1000 AND id < 11000"
                ) == 10_000
                assert moved.wait(timeout=60)
            finally:
                done.set()
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive() and not errors
        assert seen == {12_000, 2_000}
        assert t.version == version + 1


# -- version chain retirement ------------------------------------------------

class TestVersionRetirement:
    def test_unpinned_versions_retire_immediately(self):
        db, t = build_db(rows=100)
        session = SqlSession(db)
        for i in range(10):
            session.execute(insert_sql(1000 + i))
            session.execute(f"DELETE FROM ta WHERE id = {i}")
        # No pins: every superseded version retires at publish.
        assert list(t._published) == [t.version]
        assert not any(t._pagefile._history.values())
        # Cached versioned keys all belong to live current pages.
        live = {(page.page_id, page.pv)
                for page in t._pagefile._pages if page is not None}
        for key in list(db.pool._cached):
            if isinstance(key, tuple):
                assert key in live, f"dead version {key} still cached"

    def test_pinned_version_survives_then_retires(self):
        db, t = build_db(rows=100)
        session = SqlSession(db)
        snap = t.pin_snapshot()
        pinned = snap.version
        session.execute(insert_sql(500))
        session.execute(insert_sql(501))
        assert pinned in t._published
        assert t.version != pinned
        assert any(t._pagefile._history.values())
        # The frozen version still reads consistently under churn.
        assert snap.row_count == 100
        assert snap.get(500) is None
        snap.unpin(db.pool)
        assert pinned not in t._published
        assert not any(t._pagefile._history.values())
        assert t.pinned_versions() == {}

    def test_a_prune_racing_a_clone_keeps_the_page_the_tip_reads(self):
        """A reader's unpin prunes the history while a writer clones a
        page: the prune must not run between the superseded page going
        into the history and the clone becoming current, where that
        page looks as if it served no version and is dropped."""
        pf = PageFile()
        pid = pf.allocate(PAGE_DATA).page_id
        pf.get_for_write(pid, 1)  # published tip: version 1
        tip_page = pf.get(pid)
        pruner = []

        class Hooked(list):
            def __setitem__(self, index, value):
                if not pruner:  # a reader unpins mid-clone
                    thread = threading.Thread(
                        target=pf.prune_history, args=([pid], {1}))
                    pruner.append(thread)
                    thread.start()
                    thread.join(timeout=0.3)
                super().__setitem__(index, value)

        pf._pages = Hooked(pf._pages)
        pf.get_for_write(pid, 2)  # the next write, not yet published
        pruner[0].join(timeout=10)
        assert pf.resolve(pid, 1) is tip_page

    def test_snapshot_unpin_idempotent(self):
        db, t = build_db(rows=20)
        snap = t.pin_snapshot()
        snap.unpin(db.pool)
        snap.unpin(db.pool)  # second unpin is a no-op
        assert t.pinned_versions() == {}
        with t.pin_snapshot() as ctx_snap:
            assert ctx_snap.row_count == 20
        assert t.pinned_versions() == {}


# -- write intents -----------------------------------------------------------

class TestWriteIntents:
    def test_disjoint_ranges_overlap(self):
        _, t = build_db(rows=10)
        token_a = t.acquire_intent(0, 100)
        token_b = t.acquire_intent(100, 200)  # disjoint: no blocking
        t.release_intent(token_a)
        t.release_intent(token_b)

    def test_overlapping_range_blocks_until_release(self):
        _, t = build_db(rows=10)
        token_a = t.acquire_intent(0, 100)
        entered = threading.Event()
        finished = threading.Event()
        tokens = []

        def contender():
            entered.set()
            tokens.append(t.acquire_intent(50, 150))
            finished.set()

        thread = threading.Thread(target=contender)
        thread.start()
        assert entered.wait(timeout=5)
        assert not finished.wait(timeout=0.3), \
            "overlapping intent did not block"
        t.release_intent(token_a)
        assert finished.wait(timeout=10)
        t.release_intent(tokens[0])
        thread.join(timeout=5)

    def test_unbounded_intent_blocks_everything(self):
        _, t = build_db(rows=10)
        token = t.acquire_intent(None, None)
        blocked = threading.Event()

        def contender():
            inner = t.acquire_intent(7, 8)
            t.release_intent(inner)
            blocked.set()

        thread = threading.Thread(target=contender)
        thread.start()
        assert not blocked.wait(timeout=0.3)
        t.release_intent(token)
        assert blocked.wait(timeout=10)
        thread.join(timeout=5)


# -- persistence -------------------------------------------------------------

class _DiesAfterBlocks:
    """A snapshot file whose writer is killed after ``blocks`` 4 KiB
    blocks have reached it."""

    def __init__(self, f, blocks):
        self._f = f
        self._left = 4096 * blocks

    def write(self, data):
        data = memoryview(data).cast("B")
        self._f.write(data[:self._left])
        if len(data) > self._left:
            self._f.flush()
            raise OSError("writer killed mid-save")
        self._left -= len(data)
        return len(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


class TestSnapshotRoundtrip:
    def test_save_open_round_trip(self, tmp_path):
        db, _ = build_db(rows=50)
        path = str(tmp_path / "db.snap")
        db.save(path)
        clone = Database.open(path)
        ref, _ = SqlSession(db).query(READ_SQL)
        vals, _ = SqlSession(clone).query(READ_SQL)
        assert vals == ref

    def test_snapshot_pools_start_cold(self):
        # A pickled buffer pool must not inherit the saved database's
        # cache, or a reopened snapshot's reads would become hits.
        db, _ = build_db(rows=50)
        SqlSession(db).query(READ_SQL, cold=False)
        pool2 = pickle.loads(pickle.dumps(db.pool))
        assert not pool2._cached
        assert pool2.counters.logical_reads == 0

    @pytest.mark.parametrize("blocks", [0, 1, 4])
    def test_a_killed_save_keeps_the_previous_snapshot(self, tmp_path,
                                                       blocks):
        db, _ = build_db(rows=300)
        path = tmp_path / "db.snap"
        db.save(str(path))
        before = path.read_bytes()
        assert len(before) > 4096 * (blocks + 1)
        SqlSession(db).execute(insert_sql(900))
        fdopen = os.fdopen
        with mock.patch("os.fdopen", lambda fd, mode: _DiesAfterBlocks(
                fdopen(fd, mode), blocks)):
            with pytest.raises(OSError, match="killed mid-save"):
                db.save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["db.snap"]  # no temp file left
        (_s, n), _ = SqlSession(Database.open(str(path))).query(READ_SQL)
        assert n == 300

    @pytest.mark.parametrize("step", ["os.fsync", "os.replace"])
    def test_a_save_failing_after_the_write_keeps_the_previous_snapshot(
            self, tmp_path, step):
        db, _ = build_db(rows=100)
        path = tmp_path / "db.snap"
        db.save(str(path))
        before = path.read_bytes()
        SqlSession(db).execute(insert_sql(900))
        with mock.patch(step, side_effect=OSError("disk gone")):
            with pytest.raises(OSError, match="disk gone"):
                db.save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["db.snap"]

    def test_a_failed_first_save_leaves_no_file(self, tmp_path):
        db, _ = build_db(rows=100)
        fdopen = os.fdopen
        with mock.patch("os.fdopen", lambda fd, mode: _DiesAfterBlocks(
                fdopen(fd, mode), 1)):
            with pytest.raises(OSError, match="killed mid-save"):
                db.save(str(tmp_path / "db.snap"))
        assert os.listdir(tmp_path) == []

    def test_a_save_replaces_a_longer_snapshot_whole(self, tmp_path):
        big, _ = build_db(rows=300)
        small, _ = build_db(rows=20)
        path = str(tmp_path / "db.snap")
        big.save(path)
        small.save(path)
        (_s, n), _ = SqlSession(Database.open(path)).query(READ_SQL)
        assert n == 20

    def test_open_refuses_a_pickle_that_is_not_a_database(self, tmp_path):
        path = tmp_path / "other.snap"
        path.write_bytes(pickle.dumps({"tables": {}}))
        with pytest.raises(TypeError, match="not a Database snapshot"):
            Database.open(str(path))

    def test_save_reload_keeps_only_live_version(self, tmp_path):
        db, t = build_db(rows=50)
        session = SqlSession(db)
        path = str(tmp_path / "db.snap")
        snap = t.pin_snapshot()  # a pin must not leak into the file
        try:
            session.execute(insert_sql(500))
            db.save(path)
        finally:
            snap.unpin(db.pool)
        clone = Database.open(path)
        t2 = clone.tables["ta"]
        assert t2.pinned_versions() == {}
        assert list(t2._published) == [t2.version]
        assert t2.row_count == 51
        (s, n), _ = SqlSession(clone).query(READ_SQL)
        assert n == 51
        assert s == pytest.approx(float(sum(range(50)) + 500))
        # The clone is writable again (locks were re-created).
        assert SqlSession(clone).execute(insert_sql(600)) == 1
