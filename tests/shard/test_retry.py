"""Client retry-policy regression tests against a scripted server.

The stub speaks just enough of the wire protocol to count requests
and answer from a canned script, so the tests can pin down exactly
how many times a client re-sends: ``SERVER_BUSY`` is retried only
with an explicit :class:`RetryPolicy` and only up to its cap;
``QUERY_TIMEOUT`` is *never* retried (the statement may have run —
re-issuing doubles the damage).
"""

import socket
import threading

import pytest

from repro.server import (ArrayClient, QueryTimeoutError, RetryPolicy,
                          ServerBusyError, protocol)

BUSY = {"type": "error", "code": protocol.SERVER_BUSY,
        "message": "queue full"}
TIMEOUT = {"type": "error", "code": protocol.QUERY_TIMEOUT,
           "message": "budget exceeded"}
OK_TYPES, OK_BUFFERS = protocol.pack_rows([(7,)])
OK = {"type": "result", "kind": "rows", "rows": OK_TYPES, "rowcount": 1,
      "metrics": None, "elapsed_seconds": 0.0}


class ScriptedServer:
    """One-connection stub: sends hello, then answers each query
    frame from the script (repeating the last entry if it runs dry)."""

    def __init__(self, script):
        self.script = list(script)
        self.requests = 0
        self._sock = socket.socket()
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._sock.accept()
        with conn:
            conn.settimeout(10.0)
            protocol.write_frame_sock(conn, {
                "type": "hello", "server": "stub", "protocol":
                protocol.PROTOCOL_VERSION, "session_id": 1})
            position = 0
            frames = protocol.FrameBuffer()
            while True:
                try:
                    frame = frames.read(conn.recv)
                except (OSError, protocol.ProtocolError):
                    break
                if frame is None:
                    break
                header, _ = frame
                if header.get("type") == "close":
                    protocol.write_frame_sock(conn, {"type": "goodbye"})
                    break
                self.requests += 1
                reply = self.script[min(position,
                                        len(self.script) - 1)]
                position += 1
                protocol.write_frame_sock(
                    conn, reply, OK_BUFFERS if reply is OK else ())

    def close(self):
        self._sock.close()
        self._thread.join(timeout=5.0)


@pytest.fixture
def serve():
    servers = []

    def factory(script):
        server = ScriptedServer(script)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


FAST = RetryPolicy(max_retries=3, backoff_base=0.001, backoff_cap=0.01)


def test_no_policy_fails_fast(serve):
    server = serve([BUSY, OK])
    with ArrayClient("127.0.0.1", server.port) as client:
        with pytest.raises(ServerBusyError):
            client.query("SELECT COUNT(*) FROM t")
    assert server.requests == 1


def test_retry_succeeds_after_busy(serve):
    server = serve([BUSY, BUSY, OK])
    with ArrayClient("127.0.0.1", server.port, retry=FAST) as client:
        result = client.query("SELECT COUNT(*) FROM t")
    assert result.rows == [(7,)]
    assert server.requests == 3


def test_retries_stop_at_the_cap(serve):
    server = serve([BUSY])  # busy forever
    policy = RetryPolicy(max_retries=2, backoff_base=0.001,
                         backoff_cap=0.01)
    with ArrayClient("127.0.0.1", server.port, retry=policy) as client:
        with pytest.raises(ServerBusyError):
            client.query("SELECT COUNT(*) FROM t")
    assert server.requests == 3  # 1 try + 2 retries, then stop


def test_query_timeout_is_never_retried(serve):
    server = serve([TIMEOUT, OK])
    with ArrayClient("127.0.0.1", server.port, retry=FAST) as client:
        with pytest.raises(QueryTimeoutError):
            client.query("SELECT COUNT(*) FROM t")
    assert server.requests == 1


def test_delay_grows_and_caps():
    policy = RetryPolicy(max_retries=8, backoff_base=0.05,
                         backoff_cap=0.4)
    delays = [policy.delay(i) for i in range(6)]
    assert delays[:4] == [0.05, 0.1, 0.2, 0.4]
    assert delays[4] == delays[5] == 0.4
