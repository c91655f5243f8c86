"""Slow, half-open and scripted replica sockets: one retry budget.

A replica that accepts a link and never sends a byte, and one that
answers each request only after the request timeout, are both a
failed exchange to the router.  A SELECT routed to either is answered
by the sibling within the budget the retry policy and the request
timeout allow, ``failovers`` counts the replay, the replica is taken
out of the read rotation as ``SUSPECT``, and no thread or descriptor
is left behind.

The matrix at the end pairs a scripted stub — busy forever, busy once
then an answer, half-open, a typed ``SQL_ERROR`` — with a real
sibling on the three paths that reach a replica (a read, a write, a
relayed ``bquery``) and pins how many requests the stub sees: the
retry policy's ``max_retries + 1`` on a read or a write, whichever
send was first, one on a relay, and one for a typed error, which is
never retried.  A write whose sibling committed succeeds whatever
the stub answered, and the stub is then stale.  The stubs follow the
scripted-server pattern of ``test_retry.py``.
"""

import os
import socket
import threading
import time

import pytest

from repro.engine import Column, Database
from repro.server import ArrayClient, RetryPolicy, protocol
from repro.server.server import ServerThread
from repro.shard import ShardConfig, ShardRouter
from repro.shard.client import ShardLink
from repro.shard.router import LIVE, STALE, SUSPECT
from tests.conftest import connection_threads, settles

REQUEST_TIMEOUT = 0.25
RETRY = RetryPolicy(max_retries=1, backoff_base=0.01, backoff_cap=0.01)
#: The retry policy's attempts on the picked replica (the scatter's
#: send is attempt 0), each waiting out the request timeout, and the
#: backoffs between them; the sibling's answer comes on top.
BUDGET = REQUEST_TIMEOUT * (RETRY.max_retries + 1) + sum(
    RETRY.delay(i) for i in range(RETRY.max_retries))
SIBLING_SLACK = 1.0
SQL = "SELECT SUM(v), COUNT(*) FROM t"
DDL = "CREATE TABLE t (id BIGINT PRIMARY KEY, v FLOAT, b VARBINARY(MAX))"
BLOB = bytes(range(256)) * 3

BUSY = {"type": "error", "code": protocol.SERVER_BUSY,
        "message": "queue full"}
SQL_ERROR = {"type": "error", "code": protocol.SQL_ERROR,
             "message": "the statement is wrong"}
#: A script entry: pass the request to the stub's upstream server and
#: its reply back.
FORWARD = "forward"


class StalledReplica:
    """Accepts every link.  ``delay=None``: never writes a byte, not
    even the greeting (a half-open peer).  A number: greets, then
    answers each request ``delay`` seconds late, with an error frame
    that would fail the statement were it ever read.  ``script``
    instead: greets, then answers the n-th request with the n-th
    entry (repeating the last), where :data:`FORWARD` relays it to the
    server at ``upstream``."""

    def __init__(self, delay=None, script=None, upstream=None):
        self.delay = delay
        self.script = script
        self.upstream = upstream
        self.links = 0
        self.requests = 0
        self._stop = threading.Event()
        self._threads = []
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._accepter = threading.Thread(target=self._accept, daemon=True)
        self._accepter.start()

    @property
    def seen(self) -> int:
        """Requests the router made: a half-open peer never greets, so
        each of its links is one request that could not be sent."""
        if self.script is None and self.delay is None:
            return self.links
        return self.requests

    def _accept(self):
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return  # closed
            self.links += 1
            thread = threading.Thread(target=self._serve, args=(conn,),
                                      daemon=True)
            self._threads.append(thread)
            thread.start()

    def _serve(self, conn):
        upstream = None
        with conn:
            conn.settimeout(10.0)
            try:
                if self.script is None and self.delay is None:
                    while conn.recv(65536):  # until the router hangs up
                        pass
                    return
                protocol.write_frame_sock(conn, {
                    "type": "hello", "server": "stalled", "protocol":
                    protocol.PROTOCOL_VERSION, "session_id": 1})
                frames = protocol.FrameBuffer()
                while True:
                    frame = frames.read(conn.recv)
                    if frame is None:
                        return
                    self.requests += 1
                    if self.script is None:
                        if self._stop.wait(self.delay):
                            return
                        protocol.write_frame_sock(conn, {
                            "type": "error", "code": protocol.INTERNAL,
                            "message": "answered after the budget"})
                        continue
                    entry = self.script[min(self.requests,
                                            len(self.script)) - 1]
                    if entry != FORWARD:
                        protocol.write_frame_sock(conn, entry)
                        continue
                    if upstream is None:
                        upstream = ShardLink(0, "127.0.0.1", self.upstream)
                    upstream.send(*frame)
                    while True:  # one reply, or one chunk stream
                        reply, blobs = upstream.recv()
                        protocol.write_frame_sock(conn, reply, blobs)
                        if reply.get("type") != "bchunk" or \
                                reply.get("eof"):
                            break
            except (OSError, protocol.ProtocolError):
                return  # the router gave up on the link
            finally:
                if upstream is not None:
                    upstream.close()

    def close(self):
        self._stop.set()
        self._sock.shutdown(socket.SHUT_RDWR)  # wakes the accept
        self._sock.close()
        self._accepter.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)


def fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def make_db() -> Database:
    db = Database()
    db.create_table("t", [Column("id", "bigint"), Column("v", "float"),
                          Column("b", "varbinary_max")])
    db.tables["t"].insert_many([(i, 0.5 * i, BLOB[i:]) for i in range(40)])
    return db


@pytest.fixture
def sibling():
    """A real replica, and its twin: a second server holding the same
    rows, for a scripted stub to forward to."""
    with ServerThread(make_db()) as handle, \
            ServerThread(make_db()) as twin:
        for server in (handle, twin):
            with ArrayClient("127.0.0.1", server.port) as client:
                want = client.query(SQL).rows  # starts the watchdog
        assert settles(connection_threads, 0) == 0
        yield handle, want, twin


def make_router(stub, handle, retry=RETRY):
    config = ShardConfig(shards=1, replicas=2, key_lo=0, key_hi=100)
    router = ShardRouter(
        [[("127.0.0.1", stub.port), ("127.0.0.1", handle.port)]],
        config.make_partitioner(), retry=retry, connect_timeout=1.0,
        request_timeout=REQUEST_TIMEOUT, reprobe_interval=60.0)
    router.session.execute(DDL)  # the catalog mirror only
    return router


@pytest.mark.parametrize("delay", [None, 2 * REQUEST_TIMEOUT],
                         ids=["half-open", "slow"])
def test_a_stalled_replica_costs_a_select_at_most_its_budget(sibling,
                                                             delay):
    handle, want, _twin = sibling
    threads, descriptors = threading.active_count(), fds()
    stalled = StalledReplica(delay)
    router = make_router(stalled, handle)
    try:
        # The read rotation starts at replica 0: the stalled one.
        assert router._read_candidates(0)[0].port == stalled.port
        router._rr[0] = 0
        started = time.monotonic()
        got = router.execute(SQL)
        elapsed = time.monotonic() - started
        assert [tuple(r) for r in got["rows"]] == want
        assert BUDGET <= elapsed + 0.05  # the stalled replica had its try
        assert elapsed < BUDGET + SIBLING_SLACK
        assert settles(lambda: stalled.links, RETRY.max_retries + 1) \
            == RETRY.max_retries + 1
        assert router.health()["failovers"] >= 1
        stalled_replica, live = router.replica_sets[0]
        assert (stalled_replica.state, live.state) == (SUSPECT, LIVE)
        # Out of the rotation: the next read goes to the sibling only.
        assert [tuple(r) for r in router.execute(SQL)["rows"]] == want
        assert stalled.links == RETRY.max_retries + 1
    finally:
        router.shutdown()
        stalled.close()
    assert settles(connection_threads, 0) == 0
    assert settles(threading.active_count, threads) == threads
    assert settles(fds, descriptors) == descriptors


# -- the scripted-replica matrix --------------------------------------------

#: Two retries, so a replica that answers its second request is told
#: apart from one that used the whole budget.
MATRIX_RETRY = RetryPolicy(max_retries=2, backoff_base=0.01,
                           backoff_cap=0.01)
ATTEMPTS = MATRIX_RETRY.max_retries + 1
MATRIX_BUDGET = REQUEST_TIMEOUT * ATTEMPTS + sum(
    MATRIX_RETRY.delay(i) for i in range(MATRIX_RETRY.max_retries))

STUBS = {
    "busy": [BUSY],
    "busy-once": [BUSY, FORWARD],
    "half-open": None,
    "sql-error": [SQL_ERROR],
}

#: (path, stub) -> requests the stub sees, its state afterwards, and
#: the failovers counted.  A relay gives each replica one try; a write
#: is never failed over, and a replica that missed what its sibling
#: committed is stale — also when it answered with a typed error, so
#: the write succeeds.
EXPECTED = {
    ("read", "busy"): (ATTEMPTS, SUSPECT, 1),
    ("read", "busy-once"): (2, LIVE, 0),
    ("read", "half-open"): (ATTEMPTS, SUSPECT, 1),
    ("read", "sql-error"): (1, LIVE, 0),
    ("write", "busy"): (ATTEMPTS, STALE, 0),
    ("write", "busy-once"): (2, LIVE, 0),
    ("write", "half-open"): (ATTEMPTS, STALE, 0),
    ("write", "sql-error"): (1, STALE, 0),
    ("relay", "busy"): (1, SUSPECT, 1),
    ("relay", "busy-once"): (1, SUSPECT, 1),
    ("relay", "half-open"): (1, SUSPECT, 1),
    ("relay", "sql-error"): (1, LIVE, 0),
}


def run_path(router, path):
    """One statement down ``path``; returns what it answered."""
    if path == "read":
        return [tuple(r) for r in router.execute(SQL)["rows"]]
    if path == "write":
        return router.insert_rows(
            "t", [(100 + i, float(i), None) for i in range(5)])
    chunks = []
    result = router.relay_bquery(0, {
        "type": "bquery", "sql": "SELECT MAX(b) FROM t WHERE id = 3",
        "cold": False, "offset": 0, "chunk_bytes": 100,
        "timeout": protocol.NO_TIMEOUT},
        lambda header, blobs: chunks.append(bytes(blobs[0])))
    assert result["chunks"] == len(chunks) > 1
    return b"".join(chunks)


@pytest.mark.parametrize("stub_name", list(STUBS))
@pytest.mark.parametrize("path", ["read", "write", "relay"])
def test_a_replica_gets_one_retry_budget_on_every_path(sibling, path,
                                                       stub_name):
    handle, want, twin = sibling
    answers = {"read": want, "write": 5, "relay": BLOB[3:]}
    requests, state, failovers = EXPECTED[path, stub_name]
    threads, descriptors = threading.active_count(), fds()
    stub = StalledReplica(script=STUBS[stub_name], upstream=twin.port)
    router = make_router(stub, handle, MATRIX_RETRY)
    try:
        started = time.monotonic()
        if stub_name == "sql-error" and path != "write":
            with pytest.raises(protocol.WireError) as excinfo:
                run_path(router, path)
            assert excinfo.value.code == protocol.SQL_ERROR
        else:
            assert run_path(router, path) == answers[path]
        elapsed = time.monotonic() - started
        assert settles(lambda: stub.seen, requests) == requests
        stub_replica, live = router.replica_sets[0]
        assert (stub_replica.state, live.state) == (state, LIVE)
        assert router.health()["failovers"] == failovers
        assert elapsed < MATRIX_BUDGET + SIBLING_SLACK
        if stub_name == "half-open" and path != "relay":
            assert MATRIX_BUDGET <= elapsed + 0.05
    finally:
        router.shutdown()
        stub.close()
    assert stub.seen == requests
    assert settles(connection_threads, 0) == 0
    assert settles(threading.active_count, threads) == threads
    assert settles(fds, descriptors) == descriptors


# -- one outcome per replica set --------------------------------------------

INTERNAL = {"type": "error", "code": protocol.INTERNAL,
            "message": "replica-local failure"}


def live_counts(router) -> list[int]:
    """``COUNT(*)`` asked of each ``LIVE`` replica directly."""
    counts = []
    for replica in router.replica_sets[0]:
        if replica.state == LIVE:
            with ArrayClient(replica.host, replica.port) as client:
                counts.append(client.query("SELECT COUNT(*) FROM t")
                              .rows[0][0])
    return counts


def test_a_write_a_sibling_committed_succeeds_past_a_typed_error(sibling):
    """Replica 0 answers ``INTERNAL`` while replica 1 commits: the
    write succeeds, replica 0 is stale, and every live replica holds
    the same rows."""
    handle, _want, twin = sibling
    stub = StalledReplica(script=[INTERNAL], upstream=twin.port)
    router = make_router(stub, handle, MATRIX_RETRY)
    try:
        assert router.insert_rows(
            "t", [(100 + i, float(i), None) for i in range(5)]) == 5
        assert stub.seen == 1
        stub_replica, live = router.replica_sets[0]
        assert (stub_replica.state, live.state) == (STALE, LIVE)
        assert live_counts(router) == [45]
        assert [tuple(r) for r in router.execute(
            "SELECT COUNT(*) FROM t")["rows"]] == [(45,)]
    finally:
        router.shutdown()
        stub.close()


def test_a_statement_every_replica_refuses_leaves_the_set_live(sibling):
    """A duplicate key is refused alike by both real replicas: the
    typed error propagates and neither replica leaves the rotation."""
    handle, _want, twin = sibling
    config = ShardConfig(shards=1, replicas=2, key_lo=0, key_hi=100)
    router = ShardRouter(
        [[("127.0.0.1", handle.port), ("127.0.0.1", twin.port)]],
        config.make_partitioner(), retry=MATRIX_RETRY,
        connect_timeout=1.0, request_timeout=REQUEST_TIMEOUT,
        reprobe_interval=60.0)
    router.session.execute(DDL)
    try:
        with pytest.raises(protocol.WireError) as excinfo:
            router.insert_rows("t", [(3, 1.0, None)])
        assert excinfo.value.code == protocol.SQL_ERROR
        assert [r.state for r in router.replica_sets[0]] == [LIVE, LIVE]
        assert live_counts(router) == [40, 40]
    finally:
        router.shutdown()


def test_replicas_that_fail_differently_raise_the_first_error():
    """No replica acknowledged and the errors differ: the first is
    raised, and the replica that answered otherwise is suspect."""
    stubs = [StalledReplica(script=[INTERNAL]),
             StalledReplica(script=[SQL_ERROR])]
    router = make_router(*stubs, MATRIX_RETRY)
    try:
        with pytest.raises(protocol.WireError) as excinfo:
            router.insert_rows("t", [(100, 1.0, None)])
        assert excinfo.value.code == protocol.INTERNAL
        assert [r.state for r in router.replica_sets[0]] == [LIVE, SUSPECT]
        assert [stub.seen for stub in stubs] == [1, 1]
    finally:
        router.shutdown()
        for stub in stubs:
            stub.close()
