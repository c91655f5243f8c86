"""The latch layer: readers take only the shared catalog latch, so no
writer blocks them; writers of different tables overlap, acquisition
order prevents deadlock, and DDL excludes everything."""

import pickle
import threading

import pytest

from repro.engine import Column, Database, lockcheck
from repro.engine.latches import LatchManager
from repro.engine.sqlfront import SqlSession
from repro.tsql import FloatArray


def _blocked(fn, settle=0.2):
    """Run ``fn`` on a thread; report whether it is still blocked after
    ``settle`` seconds.  Returns (thread, done_event)."""
    done = threading.Event()

    def run():
        fn()
        done.set()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t, done, not done.wait(settle)


class TestLatchManagerUnit:
    @pytest.fixture(autouse=True)
    def _no_sentinel(self):
        # Unit tests probe blocking with same-thread timeout attempts
        # (acquire while already holding) — the exact shape the runtime
        # order sentinel rejects, so it is suspended here.
        was = lockcheck.is_active()
        lockcheck.set_active(False)
        yield
        lockcheck.set_active(was)

    def _manager(self):
        return LatchManager()

    def test_latch_is_case_insensitive(self):
        lm = self._manager()
        assert lm.latch_for("Ta") is lm.latch_for("ta")
        assert lm.latch_for("TA") is lm.latch_for("ta")

    def test_forget_drops_the_latch(self):
        lm = self._manager()
        first = lm.latch_for("x")
        lm.forget("X")
        assert lm.latch_for("x") is not first

    def test_write_latch_requires_a_table(self):
        lm = self._manager()
        with pytest.raises(ValueError):
            with lm.write_latch():
                pass

    def test_writer_does_not_block_a_reader_of_the_same_table(self):
        lm = self._manager()
        with lm.write_latch("a"):
            def read():
                with lm.catalog_latch():
                    pass
            t, done, blocked = _blocked(read)
            assert not blocked, "reader blocked behind a table's writer"
        t.join(timeout=10)

    def test_writer_does_not_block_reader_of_other_table(self):
        lm = self._manager()
        with lm.write_latch("b"):
            def read():
                with lm.catalog_latch():
                    pass
            t, done, blocked = _blocked(read)
            assert not blocked, "reader of A blocked behind writer of B"
        t.join(timeout=10)

    def test_writers_of_the_same_table_serialize(self):
        lm = self._manager()
        with lm.write_latch("a"):
            def write():
                with lm.write_latch("A"):
                    pass
            t, done, blocked = _blocked(write)
            assert blocked
        assert done.wait(10)
        t.join(timeout=10)

    def test_writers_of_distinct_tables_overlap(self):
        lm = self._manager()
        with lm.write_latch("a"):
            def write_other():
                with lm.write_latch("b"):
                    pass
            t, done, blocked = _blocked(write_other)
            assert not blocked
        t.join(timeout=10)

    def test_sorted_acquisition_order_prevents_deadlock(self):
        """Two threads latching the same pair in opposite textual order
        never deadlock: both sets are acquired in sorted-name order."""
        lm = self._manager()
        errors = []

        def worker(names):
            try:
                for _ in range(200):
                    with lm.write_latch(*names):
                        pass
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(("a", "b"),)),
                   threading.Thread(target=worker, args=(("b", "a"),))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "latch deadlock"
        assert not errors

    def test_ddl_excludes_readers_and_writers(self):
        lm = self._manager()
        with lm.ddl_latch():
            def read():
                with lm.catalog_latch():
                    pass
            def write():
                with lm.write_latch("b"):
                    pass
            tr, doner, blockedr = _blocked(read)
            tw, donew, blockedw = _blocked(write)
            assert blockedr and blockedw
        assert doner.wait(10) and donew.wait(10)
        tr.join(timeout=10)
        tw.join(timeout=10)

    def test_statements_exclude_ddl(self):
        lm = self._manager()
        with lm.catalog_latch():
            def ddl():
                with lm.ddl_latch():
                    pass
            t, done, blocked = _blocked(ddl)
            assert blocked
        assert done.wait(10)
        t.join(timeout=10)


def _two_table_db():
    db = Database()
    for name in ("Ta", "Tb"):
        t = db.create_table(
            name, [Column("id", "bigint"),
                   Column("v", "varbinary", cap=100)])
        for i in range(200):
            t.insert((i, FloatArray.Vector_3(float(i), 2.0, 3.0)))
    return db


class TestStatementsOverlap:
    """A SELECT on A proceeds while a writer holds B."""

    def _query_ta(self, db, results):
        (n,), _ = SqlSession(db).query(
            "SELECT COUNT(*) FROM Ta WITH (NOLOCK)", cold=False)
        results.append(n)

    def test_reader_of_a_proceeds_while_writer_holds_b(self):
        db = _two_table_db()
        results = []
        with db.latches.write_latch("Tb"):
            t, done, blocked = _blocked(
                lambda: self._query_ta(db, results), settle=2.0)
            assert not blocked, \
                "SELECT on Ta blocked behind a write latch on Tb"
        t.join(timeout=10)
        assert results == [200]

    def test_latch_set_planning(self):
        """What a SELECT holds while it runs, as the lock-order
        sentinel sees it from inside ``finalize``: the shared catalog
        latch only, whatever the plan — an index plan reads its pinned
        snapshot's index like any other."""
        db = _two_table_db()
        tc = db.create_table("Tc", [Column("id", "bigint"),
                                    Column("k", "int")])
        tc.insert_many((i, i % 5) for i in range(50))
        tc.create_index("k")
        session = SqlSession(db)
        held = {}

        def probe(name):
            def finalize(result):
                held[name] = lockcheck.held()
                return result
            return finalize

        was = lockcheck.is_active()
        lockcheck.set_active(True)
        try:
            session.query("SELECT COUNT(*) FROM Ta WITH (NOLOCK)",
                          cold=False, finalize=probe("scan"))
            session.query("SELECT COUNT(*) FROM Ta WHERE id = 7",
                          finalize=probe("point"))
            assert session.explain(
                "SELECT COUNT(*) FROM Tc WHERE k = 3").startswith(
                    "index seek")
            session.query("SELECT COUNT(*) FROM Tc WHERE k = 3",
                          finalize=probe("index"))
        finally:
            lockcheck.set_active(was)
        assert held["scan"] == held["point"] == held["index"] \
            == (("catalog", None),)

    @pytest.mark.parametrize("where", ["k = 3", "k >= 1 AND k < 4"])
    def test_an_index_plan_reads_while_a_writer_holds_its_table(
            self, where):
        db = _two_table_db()
        tc = db.create_table("Tc", [Column("id", "bigint"),
                                    Column("k", "int")])
        tc.insert_many((i, i % 5) for i in range(50))
        tc.create_index("k")
        sql = f"SELECT COUNT(*), SUM(id) FROM Tc WHERE {where}"
        session = SqlSession(db)
        assert session.plan_select(sql).kind == "index"
        want = session.query(sql)[0]
        results = []
        with db.latches.write_latch("Tc"):
            t, done, blocked = _blocked(
                lambda: results.append(session.query(sql)[0]),
                settle=2.0)
            assert not blocked, \
                "an index plan blocked behind its table's write latch"
        t.join(timeout=10)
        assert results == [want]

    def test_ddl_via_sql_excludes_concurrent_reader(self):
        db = _two_table_db()
        holder = SqlSession(db)
        entered = threading.Event()
        release = threading.Event()

        def long_read():
            def hold(result):
                entered.set()
                release.wait(10)
                return result
            holder.query("SELECT COUNT(*) FROM Ta WITH (NOLOCK)",
                         cold=False, finalize=hold)

        reader = threading.Thread(target=long_read, daemon=True)
        reader.start()
        assert entered.wait(10)
        t, done, blocked = _blocked(
            lambda: SqlSession(db).execute(
                "CREATE TABLE Tc (id bigint)"))
        assert blocked, "CREATE TABLE ran inside a reader's statement"
        release.set()
        assert done.wait(10)
        reader.join(timeout=10)
        t.join(timeout=10)
        assert "tc" in {n.lower() for n in db.tables}


class TestMixedTrafficStress:
    def test_readers_on_a_while_writer_churns_b(self):
        """Readers of A must see bit-stable values while a writer
        mutates B the whole time — a torn read would surface as a
        wrong COUNT or SUM."""
        db = _two_table_db()
        expected_sum = float(sum(range(200)))
        errors = []
        reads = []
        writer_done = threading.Event()

        def reader():
            session = SqlSession(db)
            try:
                while not writer_done.is_set():
                    (n,), _ = session.query(
                        "SELECT COUNT(*) FROM Ta WITH (NOLOCK)",
                        cold=False)
                    (s,), _ = session.query(
                        "SELECT SUM(FloatArray.Item_1(v, 0)) FROM Ta "
                        "WITH (NOLOCK)", cold=False)
                    reads.append((n, s))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer():
            session = SqlSession(db)
            try:
                for i in range(40):
                    session.execute(
                        f"INSERT INTO Tb VALUES ({1000 + i}, "
                        "FloatArray.Vector_3(1.0, 2.0, 3.0))")
                    if i % 10 == 9:
                        session.execute(
                            f"DELETE FROM Tb WHERE id = {1000 + i}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)
            finally:
                writer_done.set()

        threads = [threading.Thread(target=reader) for _ in range(3)]
        threads.append(threading.Thread(target=writer))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert reads, "readers never completed a query"
        for n, s in reads:
            assert n == 200
            assert s == pytest.approx(expected_sum)
        (nb,), _ = SqlSession(db).query(
            "SELECT COUNT(*) FROM Tb WITH (NOLOCK)")
        assert nb == 200 + 40 - 4

    def test_concurrent_writers_on_distinct_tables(self):
        """Writers of different tables overlap under table latches; the
        page file's extent bookkeeping (shared across tables) must stay
        consistent under that overlap."""
        db = _two_table_db()
        errors = []

        def writer(table, base):
            session = SqlSession(db)
            try:
                for i in range(60):
                    session.execute(
                        f"INSERT INTO {table} VALUES ({base + i}, "
                        f"FloatArray.Vector_3({float(i)}, 0.0, 0.0))")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=("Ta", 5000)),
                   threading.Thread(target=writer, args=("Tb", 6000))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        session = SqlSession(db)
        for table in ("Ta", "Tb"):
            (n,), _ = session.query(
                f"SELECT COUNT(*) FROM {table} WITH (NOLOCK)")
            assert n == 260
            # The inserted vectors decode correctly: no torn blob pages.
            (s,), _ = session.query(
                "SELECT SUM(FloatArray.Item_1(v, 0)) "
                f"FROM {table} WITH (NOLOCK)")
            assert s == pytest.approx(
                float(sum(range(200))) + float(sum(range(60))))


class TestDatabaseIntegration:
    def test_pickle_roundtrip_recreates_latches(self):
        db = _two_table_db()
        clone = pickle.loads(pickle.dumps(db))
        assert clone.latches is not db.latches
        (n,), _ = SqlSession(clone).query(
            "SELECT COUNT(*) FROM Ta WITH (NOLOCK)")
        assert n == 200
