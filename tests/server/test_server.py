"""End-to-end server tests: an in-process server, concurrent clients,
admission control, timeouts, and fault injection."""

import socket
import struct
import threading
import time
from unittest import mock

import numpy as np
import pytest

from repro.engine import Column, Database, SqlSession
from repro.server import (
    NO_TIMEOUT,
    ArrayClient,
    QueryTimeoutError,
    ResultTooLargeError,
    ServerBusyError,
    ServerConfig,
    ServerError,
    ServerThread,
    protocol,
)
from repro.server.client import _parse_result
from repro.server.protocol import write_frame_sock
from tests.conftest import read_frame
from repro.tsql import FloatArray
from tests.engine import row_oracle

ROWS = 300


def make_db() -> Database:
    """The two Table 1 evaluation tables at test scale."""
    db = Database()
    tscalar = db.create_table(
        "Tscalar", [Column("id", "bigint")] +
        [Column(f"v{i}", "float") for i in range(1, 6)])
    tvector = db.create_table(
        "Tvector", [Column("id", "bigint"),
                    Column("v", "varbinary", cap=100)])
    rng = np.random.default_rng(0)
    values = rng.standard_normal((ROWS, 5))
    for i in range(ROWS):
        tscalar.insert((i, *values[i]))
        tvector.insert((i, FloatArray.Vector_5(*values[i])))
    db.expected_sum_v1 = float(values[:, 0].sum())
    db.expected_vector_7 = values[7]
    return db


@pytest.fixture(scope="module")
def server():
    with ServerThread(make_db()) as handle:
        yield handle


@pytest.fixture
def client(server):
    with ArrayClient("127.0.0.1", server.port) as c:
        yield c


class TestBasicConversation:
    def test_hello_carries_identity(self, server):
        with ArrayClient("127.0.0.1", server.port) as c:
            assert c.server_name == "repro-array-server"
            assert isinstance(c.session_id, int)

    def test_ping(self, client):
        client.ping()

    def test_scalar_query_with_metrics(self, client):
        result = client.query(
            "SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)")
        assert result.scalar() == ROWS
        m = result.metrics
        assert m["rows"] == ROWS
        assert m["physical_reads"] > 0
        assert m["sim_exec_seconds"] > 0
        assert result.metrics_obj().rows == ROWS

    def test_array_udf_query_returns_blob(self, client, server):
        """A Table 1-style UDF query whose result is an array blob."""
        blob = client.query(
            "SELECT MAX(v) FROM Tvector WHERE id = 7").scalar()
        assert isinstance(blob, bytes)
        assert FloatArray.Item_1(blob, 0) == pytest.approx(
            server.server.db.expected_vector_7[0])

    def test_query_array_decodes_to_numpy(self, client, server):
        arr = client.query_array("SELECT MAX(v) FROM Tvector "
                                 "WHERE id = 7")
        np.testing.assert_allclose(
            arr, server.server.db.expected_vector_7)

    def test_sql_error_keeps_connection(self, client):
        with pytest.raises(ServerError) as err:
            client.query("SELECT FROM nowhere")
        assert err.value.code == protocol.SQL_ERROR
        # Still usable afterwards.
        assert client.query("SELECT COUNT(*) FROM Tscalar "
                            "WITH (NOLOCK)").scalar() == ROWS

    def test_ddl_dml_round_trip(self, client):
        created = client.query(
            "CREATE TABLE Twire (id BIGINT PRIMARY KEY, x FLOAT)")
        assert created.kind == "ok"
        inserted = client.query(
            "INSERT INTO Twire VALUES (1, 1.5), (2, 2.5)")
        assert inserted.rowcount == 2
        total = client.query(
            "SELECT SUM(x) FROM Twire WITH (NOLOCK)").scalar()
        assert total == pytest.approx(4.0)
        deleted = client.query("DELETE FROM Twire WHERE x > 2.0")
        assert deleted.rowcount == 1

    def test_a_bad_row_is_the_statements_fault_not_the_engines(
            self, client):
        """A duplicate key or a cell that does not fit its column used
        to answer ``INTERNAL`` ("an engine bug"); the 33-byte INSERT
        allocated 20 MB of zeroes."""
        client.query("CREATE TABLE Tbad (id BIGINT PRIMARY KEY, k INT, "
                     "m VARBINARY(MAX))")
        assert client.query(
            "INSERT INTO Tbad VALUES (1, 1, NULL)").rowcount == 1
        for sql, said in [
                ("INSERT INTO Tbad VALUES (2, 3, 20000000)",
                 "column m takes bytes"),
                ("INSERT INTO Tbad VALUES (1, 1, NULL)",
                 "key 1 already exists"),
                ("INSERT INTO Tbad VALUES (1.5, 1, NULL)",
                 "primary key column id"),
                ("INSERT INTO Tbad VALUES (NULL, 1, NULL)",
                 "primary key column id"),
                ("INSERT INTO Tbad VALUES (3, 2.5, NULL)", "column k: "),
                ("INSERT INTO Tbad VALUES (3, 99999999999, NULL)",
                 "column k: "),
                ("INSERT INTO Tbad VALUES (3, 1)", "2 values for 3")]:
            with pytest.raises(ServerError) as err:
                client.query(sql)
            assert err.value.code == protocol.SQL_ERROR, sql
            assert said in str(err.value), sql
        # Nothing of them went in, and the connection is still good.
        assert client.query("SELECT COUNT(*), SUM(k) FROM Tbad"
                            ).rows == [(1, 1)]

    def test_unknown_message_type_is_answered(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port))
        try:
            assert read_frame(sock)[0]["type"] == "hello"
            write_frame_sock(sock, {"type": "bogus"})
            header, _ = read_frame(sock)
            assert header["type"] == "error"
            assert header["code"] == protocol.BAD_FRAME
            # Connection survives an unknown type.
            write_frame_sock(sock, {"type": "ping"})
            assert read_frame(sock)[0]["type"] == "pong"
        finally:
            sock.close()


class TestStats:
    def test_snapshot_shape(self, client):
        client.query("SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)")
        s = client.stats()
        assert s["queries_ok"] >= 1
        assert s["sessions_active"] >= 1
        assert s["latency_p50"] is not None
        assert s["latency_p95"] >= s["latency_p50"] * 0.0
        assert s["io_totals"]["physical_reads"] > 0
        assert s["pool_counters"]["physical_reads"] > 0
        assert s["pool_counters"]["physical_reads"] == \
            s["pool_counters"]["sequential_reads"] + \
            s["pool_counters"]["random_reads"]
        assert s["admission"]["max_workers"] == 4
        assert str(client.session_id) in s["per_session_queries"] or \
            client.session_id in s["per_session_queries"]

    def test_closed_sessions_pruned_from_per_session_map(self, server):
        """per_session_queries only tracks live sessions; closed ones
        fold into closed_session_queries so the map (and the stats
        frame) cannot grow without bound."""
        with ArrayClient("127.0.0.1", server.port) as c:
            c.query("SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)")
            closed_id = c.session_id
        with ArrayClient("127.0.0.1", server.port) as c2:
            # The close is processed asynchronously server-side.
            deadline = time.time() + 10
            while time.time() < deadline:
                s = c2.stats()
                ids = {int(k) for k in s["per_session_queries"]}
                if closed_id not in ids:
                    break
                time.sleep(0.05)
            assert closed_id not in ids
            assert s["closed_session_queries"] >= 1
            assert c2.session_id in ids


class TestConcurrentClients:
    def test_parallel_table1_queries(self, server):
        """Acceptance path: >= 2 concurrent clients issuing Table
        1-style queries (one returning an array blob) all get correct
        results and populated metrics."""
        expected_sum = server.server.db.expected_sum_v1
        errors = []
        outcomes = []

        def worker(n):
            try:
                with ArrayClient("127.0.0.1", server.port) as c:
                    for _ in range(5):
                        count = c.query(
                            "SELECT COUNT(*) FROM Tscalar "
                            "WITH (NOLOCK)")
                        total = c.query(
                            "SELECT SUM(v1) FROM Tscalar "
                            "WITH (NOLOCK)")
                        blob = c.query(
                            "SELECT MAX(v) FROM Tvector "
                            "WHERE id = 7").scalar()
                        outcomes.append(
                            (count.scalar(), total.scalar(), blob,
                             count.metrics["rows"]))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors
        assert len(outcomes) == 20
        for count, total, blob, mrows in outcomes:
            assert count == ROWS
            assert total == pytest.approx(expected_sum)
            assert isinstance(blob, bytes) and len(blob) > 0
            assert mrows == ROWS


class SlowServer:
    """A 1-worker, 0-queue server with a sleeping UDF for saturation
    and timeout tests."""

    def __init__(self):
        self.query_started = threading.Event()
        db = Database()
        t = db.create_table("Tone", [Column("id", "bigint"),
                                     Column("x", "float")])
        t.insert((1, 1.0))
        self.db = db

    def session_setup(self, session):
        def sleep_udf(seconds):
            self.query_started.set()
            time.sleep(float(seconds))
            return 0.0
        session.register_function("dbo.Sleep", sleep_udf,
                                  body_cost="empty")

    def config(self, **overrides):
        defaults = dict(max_workers=1, queue_limit=0,
                        query_timeout=30.0)
        defaults.update(overrides)
        return ServerConfig(**defaults)


@pytest.fixture
def slow():
    return SlowServer()


class TestAdmissionControl:
    SLEEP_SQL = "SELECT SUM(dbo.Sleep(0.6)) FROM Tone WITH (NOLOCK)"

    def test_server_busy_when_saturated(self, slow):
        """With one worker and no queue, a second concurrent query is
        rejected with SERVER_BUSY — and admission recovers after."""
        with ServerThread(slow.db, slow.config(),
                          session_setup=slow.session_setup) as handle:
            background = []

            def run_slow():
                with ArrayClient("127.0.0.1", handle.port) as c:
                    background.append(c.query(self.SLEEP_SQL))

            t = threading.Thread(target=run_slow)
            t.start()
            assert slow.query_started.wait(timeout=10)
            with ArrayClient("127.0.0.1", handle.port) as c2:
                with pytest.raises(ServerBusyError):
                    c2.query("SELECT COUNT(*) FROM Tone WITH (NOLOCK)")
                t.join(timeout=30)
                # Slot released: the same connection now succeeds.
                assert c2.query("SELECT COUNT(*) FROM Tone "
                                "WITH (NOLOCK)").scalar() == 1
                s = c2.stats()
            assert s["rejected_busy"] == 1
            assert s["admission"]["rejected_total"] == 1
            assert len(background) == 1
            assert background[0].scalar() == pytest.approx(0.0)

    def test_queue_admits_beyond_workers(self, slow):
        """queue_limit=1 lets a second query wait instead of bouncing."""
        with ServerThread(slow.db, slow.config(queue_limit=1),
                          session_setup=slow.session_setup) as handle:
            results = []

            def run_query():
                with ArrayClient("127.0.0.1", handle.port) as c:
                    results.append(c.query(self.SLEEP_SQL).scalar())

            threads = [threading.Thread(target=run_query)
                       for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert results == [pytest.approx(0.0)] * 2

    def test_null_timeout_on_wire_uses_server_default(self, slow):
        """A frame carrying ``"timeout": null`` (what a client whose
        parameter defaults to None used to send) must get the server's
        configured budget, not an infinite one."""
        with ServerThread(slow.db, slow.config(query_timeout=0.15),
                          session_setup=slow.session_setup) as handle:
            sock = socket.create_connection(("127.0.0.1", handle.port))
            try:
                assert read_frame(sock)[0]["type"] == "hello"
                write_frame_sock(sock, {
                    "type": "query", "cold": True, "timeout": None,
                    "sql": self.SLEEP_SQL})
                header, _ = read_frame(sock)
                assert header["type"] == "error"
                assert header["code"] == protocol.QUERY_TIMEOUT
            finally:
                sock.close()

    def test_client_default_timeout_is_server_default(self, slow):
        """Library clients that never mention a timeout still run
        under the server's query_timeout."""
        with ServerThread(slow.db, slow.config(query_timeout=0.15),
                          session_setup=slow.session_setup) as handle:
            with ArrayClient("127.0.0.1", handle.port) as c:
                with pytest.raises(QueryTimeoutError):
                    c.query(self.SLEEP_SQL)

    def test_no_timeout_sentinel_disables_budget(self, slow):
        """NO_TIMEOUT opts out of even a short server default."""
        with ServerThread(slow.db, slow.config(query_timeout=0.15),
                          session_setup=slow.session_setup) as handle:
            with ArrayClient("127.0.0.1", handle.port) as c:
                result = c.query(self.SLEEP_SQL, timeout=NO_TIMEOUT)
                assert result.scalar() == pytest.approx(0.0)

    def test_invalid_timeouts_rejected(self, slow):
        """Garbage timeout values are answered with BAD_FRAME and the
        connection survives."""
        with ServerThread(slow.db, slow.config(),
                          session_setup=slow.session_setup) as handle:
            with ArrayClient("127.0.0.1", handle.port) as c:
                for bad in (-1, 0, "soon", True, [1]):
                    with pytest.raises(ServerError) as err:
                        c.query("SELECT COUNT(*) FROM Tone "
                                "WITH (NOLOCK)", timeout=bad)
                    assert err.value.code == protocol.BAD_FRAME
                assert c.query("SELECT COUNT(*) FROM Tone "
                               "WITH (NOLOCK)").scalar() == 1

    def test_query_timeout(self, slow):
        with ServerThread(slow.db, slow.config(),
                          session_setup=slow.session_setup) as handle:
            with ArrayClient("127.0.0.1", handle.port) as c:
                with pytest.raises(QueryTimeoutError):
                    c.query(self.SLEEP_SQL, timeout=0.1)
                # The abandoned worker finishes in the background and
                # returns its admission slot.
                deadline = time.time() + 10
                while time.time() < deadline:
                    s = c.stats()
                    if s["admission"]["in_flight"] == 0:
                        break
                    time.sleep(0.05)
                assert s["admission"]["in_flight"] == 0
                assert s["timeouts"] == 1
                assert c.query("SELECT COUNT(*) FROM Tone "
                               "WITH (NOLOCK)").scalar() == 1


class TestFaultInjection:
    def test_malformed_frame_rejected_then_closed(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port))
        try:
            assert read_frame(sock)[0]["type"] == "hello"
            # A frame whose header length points past its end.
            sock.sendall(struct.pack("!I", 8) + struct.pack("!I", 4096)
                         + b"{}xx")
            header, _ = read_frame(sock)
            assert header["type"] == "error"
            assert header["code"] == protocol.BAD_FRAME
            assert read_frame(sock) is None  # server hung up
        finally:
            sock.close()

    def test_oversized_frame_rejected(self, slow):
        config = slow.config(max_frame=1024)
        with ServerThread(slow.db, config,
                          session_setup=slow.session_setup) as handle:
            sock = socket.create_connection(("127.0.0.1", handle.port))
            try:
                assert read_frame(sock)[0]["type"] == "hello"
                sock.sendall(struct.pack("!I", 1 << 20))
                header, _ = read_frame(sock)
                assert header["code"] == protocol.BAD_FRAME
            finally:
                sock.close()

    def test_disconnect_mid_query_leaves_server_healthy(self, slow):
        """A client that vanishes while its query runs must not take
        the server (or its admission slot) with it."""
        with ServerThread(slow.db, slow.config(),
                          session_setup=slow.session_setup) as handle:
            sock = socket.create_connection(("127.0.0.1", handle.port))
            assert read_frame(sock)[0]["type"] == "hello"
            write_frame_sock(sock, {
                "type": "query", "cold": True, "timeout": None,
                "sql": "SELECT SUM(dbo.Sleep(0.6)) FROM Tone "
                       "WITH (NOLOCK)"})
            assert slow.query_started.wait(timeout=10)
            sock.close()  # goodbye mid-flight

            # Server stays serviceable once the worker drains.
            deadline = time.time() + 15
            while time.time() < deadline:
                with ArrayClient("127.0.0.1", handle.port) as c:
                    if c.stats()["admission"]["in_flight"] == 0:
                        break
                time.sleep(0.05)
            with ArrayClient("127.0.0.1", handle.port) as c:
                assert c.query("SELECT COUNT(*) FROM Tone "
                               "WITH (NOLOCK)").scalar() == 1
                assert c.stats()["admission"]["in_flight"] == 0

    def test_a_timed_out_read_closes_the_client(self, slow):
        """The reply a client stopped waiting for must not answer its
        next statement: after the socket timeout the client is closed
        and says so, while a fresh client gets the right answer."""
        config = slow.config(max_workers=2, queue_limit=2)
        with ServerThread(slow.db, config,
                          session_setup=slow.session_setup) as handle:
            with ArrayClient("127.0.0.1", handle.port,
                             timeout=0.3) as client:
                with pytest.raises(TimeoutError):
                    client.query("SELECT SUM(dbo.Sleep(0.5)) FROM Tone "
                                 "WITH (NOLOCK)")
                time.sleep(0.4)  # the late reply is on the wire by now
                with pytest.raises(ServerError,
                                   match="closed the connection") as err:
                    client.query("SELECT COUNT(*) FROM Tone WITH (NOLOCK)")
                assert err.value.code == protocol.INTERNAL
            with ArrayClient("127.0.0.1", handle.port) as fresh:
                assert fresh.query("SELECT COUNT(*) FROM Tone "
                                   "WITH (NOLOCK)").scalar() == 1

    def test_disconnect_between_frames(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port))
        assert read_frame(sock)[0]["type"] == "hello"
        sock.close()
        # The server must keep answering others.
        with ArrayClient("127.0.0.1", server.port) as c:
            c.ping()


class TestResultTooLarge:
    """Regression: the frame-size limit was read-side only, so a query
    whose result outgrew ``max_frame`` made the *client* kill the
    connection with a bare ProtocolError.  The server now refuses to
    send the frame and answers RESULT_TOO_LARGE instead."""

    @pytest.fixture
    def big_blob_server(self):
        db = Database()
        t = db.create_table(
            "Tbig", [Column("id", "bigint"),
                     Column("v", "varbinary", cap=8000)])
        t.insert((1, FloatArray.Vector([float(i) for i in range(900)])))
        with ServerThread(db, ServerConfig(max_frame=2048)) as handle:
            yield handle

    def test_oversized_result_answered_with_error(self, big_blob_server):
        with ArrayClient("127.0.0.1", big_blob_server.port) as c:
            with pytest.raises(ResultTooLargeError) as err:
                c.query("SELECT MAX(v) FROM Tbig WITH (NOLOCK)")
            assert err.value.code == protocol.RESULT_TOO_LARGE
            assert "max_frame" in err.value.message
            # Nothing of the oversized frame was sent: the connection
            # survives and keeps serving.
            c.ping()
            assert c.query("SELECT COUNT(*) FROM Tbig "
                           "WITH (NOLOCK)").scalar() == 1

    def test_small_results_unaffected_by_the_limit(self, big_blob_server):
        with ArrayClient("127.0.0.1", big_blob_server.port) as c:
            assert c.query("SELECT COUNT(*) FROM Tbig "
                           "WITH (NOLOCK)").scalar() == 1


class TestServerThreadCrashSurfaced:
    """Regression: a serving-loop crash after startup was stored and
    never read — the daemon thread died silently and ``stop()``
    reported success."""

    @staticmethod
    def _kill_listener(handle):
        """Kill the listener out from under the serving thread: its
        next ``accept`` raises.  The thread is parked inside the real
        call, so one connection wakes it — that one is still served —
        and the call after it dies mid-serve."""
        listener = handle.server._accept_thread
        with mock.patch.object(
                socket.socket, "accept",
                side_effect=RuntimeError("listener lost its socket")):
            with ArrayClient("127.0.0.1", handle.port) as c:
                c.ping()
            listener.join(timeout=10)
        assert not listener.is_alive()

    def test_loop_death_mid_serve_raises_from_stop(self):
        handle = ServerThread(Database()).start()
        try:
            assert handle.port is not None
            self._kill_listener(handle)
        finally:
            with pytest.raises(RuntimeError):
                handle.stop()

    def test_context_manager_surfaces_the_crash(self):
        with pytest.raises(RuntimeError):
            with ServerThread(Database()) as handle:
                self._kill_listener(handle)

    def test_clean_stop_raises_nothing(self):
        handle = ServerThread(Database()).start()
        handle.stop()


class TestOneEngine:
    """Served queries run on the one (batch) engine; ``engine`` is no
    longer a frame key, so a frame that still carries one — like the
    long-gone ``workers`` — has it ignored."""

    SQL = "SELECT SUM(FloatArray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)"

    def test_default_path_is_vectorized(self, client):
        result = client.query(self.SQL)
        assert result.metrics["engine"] == "vector"
        assert result.metrics["udf_calls"] == ROWS

    def test_the_served_answer_is_the_row_oracles(self, client):
        served = client.query(self.SQL)
        want, metrics = row_oracle.query(SqlSession(make_db()), self.SQL)
        # Bit-identical values and identical IO accounting.
        assert struct.pack("<d", served.scalar()) == \
            struct.pack("<d", want[0])
        for key in ("rows", "io_bytes", "physical_reads",
                    "sequential_reads", "random_reads", "stream_calls",
                    "udf_calls"):
            assert served.metrics[key] == getattr(metrics, key), key

    @pytest.mark.parametrize("key, value", [
        ("engine", "row"), ("engine", "columnar"), ("engine", "parallel"),
        ("workers", 2), ("workers", "two")])
    def test_an_undefined_key_is_ignored(self, client, key, value):
        plain = client.query(self.SQL)
        got = _parse_result(*client._request_raw(
            {"type": "query", "sql": self.SQL, "cold": True,
             key: value}))
        assert struct.pack("<d", got.scalar()) == \
            struct.pack("<d", plain.scalar())
        assert dict(got.metrics, wall_seconds=None) == \
            dict(plain.metrics, wall_seconds=None)

    def test_stats_count_queries_per_engine(self, client):
        before = client.stats()["engine_queries"]
        client.query(self.SQL)
        _parse_result(*client._request_raw(
            {"type": "query", "sql": self.SQL, "cold": True,
             "engine": "row"}))
        after = client.stats()["engine_queries"]
        assert after.get("vector", 0) - before.get("vector", 0) == 2
        assert set(after) == {"vector"}
