"""The coordinator on the threaded connection core: a relayed
``bquery`` shares the client socket with the watchdog, a client
connection's replica links live and die with it, and the
coordinator's plan cache is bounded."""

import os
import socket
import time
from unittest import mock

import numpy as np
import pytest

from repro.core import SqlArray
from repro.engine.sqlfront import PLAN_CACHE_SIZE, SqlSession
from repro.server import ArrayClient, protocol
from repro.server.client import QueryTimeoutError
from repro.server.protocol import write_frame_sock
from repro.server.server import ServerConfig, ServerThread
from repro.shard import ShardConfig, ShardFleet, ShardRouter, ShardServer
from tests.conftest import (connection_threads, read_frame, settles,
                            sockets_at_session_close)

BLOB_SQL = "SELECT MAX(m) FROM tb WHERE id = 5"


def sleep_udf(seconds):
    time.sleep(float(seconds))
    return 0.0


def setup_sleep(session):
    """Module-level: pickled into the spawn-context shard processes."""
    session.register_function("dbo.Sleep", sleep_udf, body_cost="empty")


@pytest.fixture(scope="module")
def cluster():
    config = ShardConfig(shards=2, key_lo=0, key_hi=100)
    with ShardFleet(config, session_setup=setup_sleep) as fleet:
        router = ShardRouter(fleet.addresses, config.make_partitioner(),
                             session_setup=setup_sleep)
        try:
            yield router
        finally:
            router.shutdown()


# -- (e) a relay that outlives its timeout -----------------------------------

def test_a_relay_outliving_its_timeout_never_shreds_the_stream(cluster):
    """The connection thread relaying chunks and the watchdog
    answering the timeout both write the client socket.  Whatever the race, the
    client reads whole frames: one ``QUERY_TIMEOUT`` *instead of* chunk
    0, or chunks and then a hang-up, or the whole stream."""
    router = cluster
    router.execute("CREATE TABLE tb (id BIGINT PRIMARY KEY, "
                   "m VARBINARY(MAX))")
    payload = bytes(SqlArray.from_numpy(
        np.random.default_rng(3).random((300, 300))).to_blob())
    assert router.insert_rows("tb", [(5, payload)]) == 1
    coordinator = ShardServer(router, ServerConfig(max_workers=1))
    outcomes = set()
    with ServerThread(server=coordinator) as handle:
        for timeout in (0.0005, 0.002, 0.004, 0.008, 0.016, 0.032):
            sock = socket.create_connection(("127.0.0.1", handle.port))
            sock.settimeout(30)
            assert read_frame(sock)[0]["type"] == "hello"
            write_frame_sock(sock, {"type": "bquery", "sql": BLOB_SQL,
                                    "chunk_bytes": 1024,
                                    "timeout": timeout})
            chunks = []
            while True:
                frame = read_frame(sock)  # ProtocolError = shredded
                if frame is None:
                    assert chunks, "hung up before any chunk"
                    outcomes.add("hang-up")
                    break
                header, blobs = frame
                if header["type"] == "error":
                    assert header["code"] == protocol.QUERY_TIMEOUT
                    assert not chunks, "an error frame after chunk 0"
                    outcomes.add("timeout")
                    # Answered means answered: nothing follows it.
                    write_frame_sock(sock, {"type": "ping"})
                    assert read_frame(sock)[0]["type"] == "pong"
                    break
                assert header["type"] == "bchunk"
                assert header["seq"] == len(chunks)
                chunks.append(bytes(blobs[0]))
                if header["eof"]:
                    assert b"".join(chunks) == payload
                    outcomes.add("whole")
                    break
            sock.close()
            # The abandoned relay read its shard stream to the end, so
            # the link the next statement inherits is still framed.
            with ArrayClient("127.0.0.1", handle.port) as client:
                assert client.query_blob(BLOB_SQL).data == payload
    assert outcomes - {"whole"}, "no relay outlived its timeout"


def test_a_client_that_stops_reading_never_holds_up_a_timeout(cluster):
    """A relay blocked writing to a client that stopped reading holds
    that connection's send lock.  The watchdog must hang that client up
    rather than wait for the lock, and answer another connection's
    timeout on time."""
    router = cluster
    router.execute("CREATE TABLE tw (id BIGINT PRIMARY KEY, "
                   "m VARBINARY(MAX))")
    router.execute("CREATE TABLE tz (id BIGINT PRIMARY KEY, x FLOAT)")
    payload = bytes(SqlArray.from_numpy(
        np.random.default_rng(5).random((300, 300))).to_blob())
    assert len(payload) > 700_000
    assert router.insert_rows("tw", [(5, payload)]) == 1
    assert router.insert_rows("tz", [(1, 1.0)]) == 1
    coordinator = ShardServer(router, ServerConfig(max_workers=2),
                              session_setup=setup_sleep)
    with ServerThread(server=coordinator) as handle:
        with ArrayClient("127.0.0.1", handle.port) as c:
            c.query("SELECT COUNT(*) FROM tz")  # starts the watchdog
        sessions = handle.server.stats.snapshot
        assert settles(lambda: sessions()["sessions_active"], 0) == 0

        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        stalled.connect(("127.0.0.1", handle.port))
        stalled.settimeout(10)
        try:
            assert read_frame(stalled)[0]["type"] == "hello"
            # Small buffers on both ends, so the relay blocks long
            # before the ~800 KB stream is written.
            (conn,) = handle.server._connections
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                 4096)
            write_frame_sock(stalled, {
                "type": "bquery", "sql": "SELECT MAX(m) FROM tw "
                "WHERE id = 5", "chunk_bytes": 1024, "timeout": 0.1})
            time.sleep(0.3)  # its deadline passes while it is stuck
            with ArrayClient("127.0.0.1", handle.port) as c:
                began = time.monotonic()
                with pytest.raises(QueryTimeoutError):
                    c.query("SELECT SUM(dbo.Sleep(0.6)) FROM tz",
                            timeout=0.2)
                assert time.monotonic() - began < 1.0
            received = 0
            try:
                while chunk := stalled.recv(65536):
                    received += len(chunk)
            except ConnectionResetError:
                pass
            assert received < len(payload)  # hung up mid-stream
        finally:
            stalled.close()
        assert settles(lambda: sessions()["sessions_active"], 0) == 0
        assert settles(connection_threads, 0) == 0
    router.execute("DROP TABLE tw")
    router.execute("DROP TABLE tz")


def test_a_client_connections_replica_links_close_with_it(cluster):
    router = cluster
    router.execute("CREATE TABLE tl (id BIGINT PRIMARY KEY, v FLOAT)")
    router.insert_rows("tl", [(1, 0.5), (60, 1.5)])

    def shard_sessions():
        counts = []
        for replica_set in router.addresses:
            for host, port in replica_set:
                with ArrayClient(host, port) as c:
                    counts.append(c.stats()["sessions_active"])
        return counts

    coordinator = ShardServer(router, ServerConfig())
    with ServerThread(server=coordinator) as handle:
        with ArrayClient("127.0.0.1", handle.port) as c:
            c.query("SELECT SUM(v) FROM tl")  # starts the watchdog
        sessions = handle.server.stats.snapshot
        assert settles(lambda: sessions()["sessions_active"], 0) == 0
        assert settles(connection_threads, 0) == 0
        fds = len(os.listdir("/proc/self/fd"))
        baseline = settles(shard_sessions, shard_sessions())
        for _ in range(50):
            with ArrayClient("127.0.0.1", handle.port) as c:
                assert c.query("SELECT SUM(v) FROM tl").scalar() == 2.0
        assert settles(lambda: sessions()["sessions_active"], 0) == 0
        assert settles(lambda: len(os.listdir("/proc/self/fd")),
                       fds) == fds
        assert settles(shard_sessions, baseline) == baseline
    router.execute("DROP TABLE tl")


def test_the_coordinator_refuses_pquery_and_keeps_the_connection(
        cluster):
    """``pquery`` is shard-internal: a coordinator answers it
    ``BAD_FRAME``, and the connection goes on serving queries."""
    router = cluster
    router.execute("CREATE TABLE tq (id BIGINT PRIMARY KEY, v FLOAT)")
    router.insert_rows("tq", [(1, 0.5), (60, 1.5)])
    coordinator = ShardServer(router, ServerConfig())
    with ServerThread(server=coordinator) as handle:
        with ArrayClient("127.0.0.1", handle.port) as c:
            reply, blobs = c._request_raw(
                {"type": "pquery", "sql": "SELECT SUM(v) FROM tq",
                 "cold": False})
            assert (reply["type"], reply["code"]) == \
                ("error", protocol.BAD_FRAME)
            assert "pquery" in reply["message"] and blobs == []
            assert c.query("SELECT SUM(v) FROM tq").scalar() == 2.0
    router.execute("DROP TABLE tq")


def test_a_coordinator_session_is_reported_closed_after_its_socket(
        cluster):
    router = cluster
    router.execute("CREATE TABLE ts (id BIGINT PRIMARY KEY, v FLOAT)")
    router.insert_rows("ts", [(1, 0.5), (60, 1.5)])
    coordinator = ShardServer(router, ServerConfig())
    filenos = sockets_at_session_close(coordinator)
    with ServerThread(server=coordinator) as handle:
        for _ in range(5):
            with ArrayClient("127.0.0.1", handle.port) as c:
                assert c.query("SELECT SUM(v) FROM ts").scalar() == 2.0
        assert settles(lambda: len(filenos), 5) == 5
    assert filenos == [-1] * 5
    router.execute("DROP TABLE ts")


# -- bounded plan caches -----------------------------------------------------

def test_the_coordinator_plan_cache_is_bounded(cluster):
    router = cluster
    router.execute("CREATE TABLE tp (id BIGINT PRIMARY KEY, v FLOAT)")
    assert router._plan_cache == {}
    hot = "SELECT COUNT(*) FROM tp"
    real = SqlSession.plan_select
    with mock.patch.object(SqlSession, "plan_select", autospec=True,
                           side_effect=real) as planned:
        for key in range(5000):
            router.prepare(f"SELECT SUM(v) FROM tp WHERE id = {key}")
            router.prepare(hot)
    assert len(router._plan_cache) <= PLAN_CACHE_SIZE
    texts = [call.args[1] for call in planned.call_args_list]
    assert texts.count(hot) == 1 and len(texts) == 5001
    assert hot in router._plan_cache
    router.execute("DROP TABLE tp")
    assert router._plan_cache == {}


def test_routed_selects_do_not_grow_the_plan_cache(cluster):
    """``_select`` plans every routed SELECT through the cache, not
    only ``pexec``: a client looping point SELECTs over literal keys
    must not leak a plan per key."""
    router = cluster
    router.execute("CREATE TABLE tq (id BIGINT PRIMARY KEY, v FLOAT)")
    router.insert_rows("tq", [(1, 0.5)])
    for key in range(PLAN_CACHE_SIZE + 50):
        rows = router.execute(
            f"SELECT COUNT(*) FROM tq WHERE id = {key}")["rows"]
        assert rows == [(1 if key == 1 else 0,)]
    assert len(router._plan_cache) == PLAN_CACHE_SIZE
    router.execute("DROP TABLE tq")
