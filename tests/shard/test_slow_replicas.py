"""Slow and half-open replica sockets: a read costs at most its budget.

A replica that accepts a link and never sends a byte, and one that
answers each request only after the request timeout, are both a
failed exchange to the router.  A SELECT routed to either is answered
by the sibling within the budget the retry policy and the request
timeout allow, ``failovers`` counts the replay, the replica is taken
out of the read rotation as ``SUSPECT``, and no thread or descriptor
is left behind.  The stub replicas follow the scripted-server pattern
of ``test_retry.py``.
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
from repro.shard.router import LIVE, SUSPECT
from tests.conftest import connection_threads, settles

REQUEST_TIMEOUT = 0.25
RETRY = RetryPolicy(max_retries=1, backoff_base=0.01, backoff_cap=0.01)
#: The fast path's try on the picked replica, then the retry policy's
#: attempts on it, each waiting out the request timeout, and the
#: backoffs between them; the sibling's answer comes on top.
BUDGET = REQUEST_TIMEOUT * (RETRY.max_retries + 2) + sum(
    RETRY.delay(i) for i in range(RETRY.max_retries))
SIBLING_SLACK = 1.0
SQL = "SELECT SUM(v), COUNT(*) FROM t"
DDL = "CREATE TABLE t (id BIGINT PRIMARY KEY, v FLOAT)"


class StalledReplica:
    """Accepts every link.  ``delay=None``: never writes a byte, not
    even the greeting (a half-open peer).  Otherwise: greets, then
    answers each request ``delay`` seconds late, with an error frame
    that would fail the statement were it ever read."""

    def __init__(self, delay):
        self.delay = delay
        self.links = 0
        self._stop = threading.Event()
        self._threads = []
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(8)
        self.port = self._sock.getsockname()[1]
        self._accepter = threading.Thread(target=self._accept, daemon=True)
        self._accepter.start()

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
        with conn:
            conn.settimeout(10.0)
            try:
                if self.delay is None:
                    while conn.recv(65536):  # until the router hangs up
                        pass
                    return
                protocol.write_frame_sock(conn, {
                    "type": "hello", "server": "stalled", "protocol":
                    protocol.PROTOCOL_VERSION, "session_id": 1})
                frames = protocol.FrameBuffer()
                while frames.read(conn.recv) is not None:
                    if self._stop.wait(self.delay):
                        return
                    protocol.write_frame_sock(conn, {
                        "type": "error", "code": protocol.INTERNAL,
                        "message": "answered after the budget"})
            except (OSError, protocol.ProtocolError):
                return  # the router gave up on the link

    def close(self):
        self._stop.set()
        self._sock.shutdown(socket.SHUT_RDWR)  # wakes the accept
        self._sock.close()
        self._accepter.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=5.0)


def fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def sibling():
    db = Database()
    db.create_table("t", [Column("id", "bigint"), Column("v", "float")])
    db.tables["t"].insert_many([(i, 0.5 * i) for i in range(40)])
    with ServerThread(db) as handle:
        with ArrayClient("127.0.0.1", handle.port) as client:
            want = client.query(SQL).rows  # starts the watchdog
        assert settles(connection_threads, 0) == 0
        yield handle, want


@pytest.mark.parametrize("delay", [None, 2 * REQUEST_TIMEOUT],
                         ids=["half-open", "slow"])
def test_a_stalled_replica_costs_a_select_at_most_its_budget(sibling,
                                                             delay):
    handle, want = sibling
    threads, descriptors = threading.active_count(), fds()
    stalled = StalledReplica(delay)
    config = ShardConfig(shards=1, replicas=2, key_lo=0, key_hi=100)
    router = ShardRouter(
        [[("127.0.0.1", stalled.port), ("127.0.0.1", handle.port)]],
        config.make_partitioner(), retry=RETRY, connect_timeout=1.0,
        request_timeout=REQUEST_TIMEOUT, reprobe_interval=60.0)
    router.session.execute(DDL)  # the catalog mirror only
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
        assert settles(lambda: stalled.links, RETRY.max_retries + 2) \
            == RETRY.max_retries + 2
        assert router.health()["failovers"] >= 1
        stalled_replica, live = router.replica_sets[0]
        assert (stalled_replica.state, live.state) == (SUSPECT, LIVE)
        # Out of the rotation: the next read goes to the sibling only.
        assert [tuple(r) for r in router.execute(SQL)["rows"]] == want
        assert stalled.links == RETRY.max_retries + 2
    finally:
        router.shutdown()
        stalled.close()
    assert settles(connection_threads, 0) == 0
    assert settles(threading.active_count, threads) == threads
    assert settles(fds, descriptors) == descriptors
