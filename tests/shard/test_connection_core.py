"""The coordinator on the threaded connection core: a relayed
``bquery`` shares the client socket between two threads, and the
coordinator's plan cache is bounded."""

import socket
from unittest import mock

import numpy as np
import pytest

from repro.core import SqlArray
from repro.engine.sqlfront import PLAN_CACHE_SIZE, SqlSession
from repro.server import ArrayClient, protocol
from repro.server.protocol import write_frame_sock
from repro.server.server import ServerConfig, ServerThread
from repro.shard import ShardConfig, ShardFleet, ShardRouter, ShardServer
from tests.conftest import read_frame

BLOB_SQL = "SELECT MAX(m) FROM tb WHERE id = 5"


@pytest.fixture(scope="module")
def cluster():
    config = ShardConfig(shards=2, key_lo=0, key_hi=100)
    with ShardFleet(config) as fleet:
        router = ShardRouter(fleet.addresses, config.make_partitioner())
        try:
            yield router
        finally:
            router.shutdown()


# -- (e) a relay that outlives its timeout -----------------------------------

def test_a_relay_outliving_its_timeout_never_shreds_the_stream(cluster):
    """The worker relaying chunks and the connection thread answering
    the timeout both write the client socket.  Whatever the race, the
    client reads whole frames: one ``QUERY_TIMEOUT`` *instead of* chunk
    0, or chunks and then a hang-up, or the whole stream."""
    router = cluster
    router.execute("CREATE TABLE tb (id BIGINT PRIMARY KEY, "
                   "m VARBINARY(MAX))")
    payload = bytes(SqlArray.from_numpy(
        np.random.default_rng(3).random((300, 300))).to_blob())
    assert router.insert_rows("tb", [(5, payload)]) == 1
    # One worker: every statement below runs on the thread — and over
    # the shard link — the abandoned relay before it used.
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
