"""The connection core: a listener thread, a thread per connection
that runs its statements, one send lock, one watchdog, ``stop()``
within a bound.

What the statement tests in ``test_server.py`` / ``test_dataplane.py``
do not look at: that connections leave nothing behind, that ``stop()``
wakes every blocked thread, that the pipelined-``pexec`` drain takes
complete frames only, that two threads can answer on one socket, and
that a statement runs on its connection's thread while the watchdog
answers its timeout without ever waiting on a client.
"""

import os
import socket
import sys
import threading
import time

import pytest

from repro.engine import Column, Database
from repro.server import ArrayClient, ServerConfig, ServerThread, protocol
from repro.server import server as server_module
from repro.server.client import QueryTimeoutError
from repro.server.protocol import write_frame_sock
from repro.server.server import _Connection, _Watchdog
from tests.conftest import (connection_threads, read_frame, settles,
                            sockets_at_session_close)

COUNT_SQL = "SELECT COUNT(*) FROM Tone WITH (NOLOCK)"


def make_db() -> Database:
    db = Database()
    table = db.create_table("Tone", [Column("id", "bigint"),
                                     Column("x", "float")])
    table.insert((1, 1.0))
    return db


def connect(port: int) -> socket.socket:
    """A raw client socket, greeted."""
    sock = socket.create_connection(("127.0.0.1", port))
    sock.settimeout(10)
    assert read_frame(sock)[0]["type"] == "hello"
    return sock


def pexec(sql: str = COUNT_SQL) -> bytes:
    return protocol.encode_frame({"type": "pexec", "sql": sql,
                                  "cold": False})


# -- (a) connections leave nothing behind ------------------------------------

def test_connection_churn_leaks_no_thread_fd_or_session():
    with ServerThread(make_db()) as handle:
        with ArrayClient("127.0.0.1", handle.port) as c:
            c.query(COUNT_SQL)  # starts the server's watchdog thread
        sessions = handle.server.stats.snapshot
        assert settles(lambda: sessions()["sessions_active"], 0) == 0
        assert settles(connection_threads, 0) == 0
        threads = threading.active_count()
        fds = len(os.listdir("/proc/self/fd"))

        for _ in range(200):
            with ArrayClient("127.0.0.1", handle.port) as c:
                assert c.query(COUNT_SQL).scalar() == 1
        whole = protocol.encode_frame({"type": "query", "sql": COUNT_SQL})
        for cut in range(1, 21):  # mid-prefix and mid-payload
            sock = connect(handle.port)
            sock.sendall(whole[:cut])
            sock.close()

        assert settles(lambda: sessions()["sessions_active"], 0) == 0
        assert settles(threading.active_count, threads) == threads
        assert settles(lambda: len(os.listdir("/proc/self/fd")),
                       fds) == fds
        assert sessions()["sessions_opened"] == 221


def test_a_session_is_reported_closed_after_its_socket_closes():
    server = server_module.ArrayServer(make_db())
    filenos = sockets_at_session_close(server)
    with ServerThread(server=server) as handle:
        for _ in range(5):
            with ArrayClient("127.0.0.1", handle.port) as c:
                assert c.query(COUNT_SQL).scalar() == 1
        sock = connect(handle.port)
        sock.close()  # a client that hangs up unasked
        assert settles(lambda: len(filenos), 6) == 6
    assert filenos == [-1] * 6


# -- (b) stop() wakes everything, within its bound ---------------------------

def test_stop_with_idle_connections_closes_them_cleanly():
    handle = ServerThread(make_db()).start()
    socks = [connect(handle.port) for _ in range(3)]
    started = time.monotonic()
    handle.stop()
    assert time.monotonic() - started < 1.0
    for sock in socks:
        assert read_frame(sock) is None  # EOF, not a reset
        sock.close()
    assert handle.server.stats.snapshot()["sessions_active"] == 0
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", handle.port), timeout=2)


def test_stop_with_a_client_half_way_through_a_frame():
    handle = ServerThread(make_db()).start()
    sock = connect(handle.port)
    whole = protocol.encode_frame({"type": "query", "sql": COUNT_SQL})
    sock.sendall(whole[:len(whole) // 2])
    time.sleep(0.05)  # let the connection thread block on the rest
    started = time.monotonic()
    handle.stop()
    assert time.monotonic() - started < 1.0
    assert read_frame(sock) is None
    sock.close()


def test_stop_with_a_statement_in_flight_returns_within_its_bound(
        monkeypatch):
    monkeypatch.setattr(server_module, "_STOP_JOIN_SECONDS", 0.3)
    running, finished = threading.Event(), threading.Event()

    def session_setup(session):
        def sleep_udf(seconds):
            running.set()
            time.sleep(float(seconds))
            finished.set()
            return 0.0
        session.register_function("dbo.Sleep", sleep_udf,
                                  body_cost="empty")

    handle = ServerThread(make_db(), ServerConfig(max_workers=1),
                          session_setup=session_setup).start()
    sock = connect(handle.port)
    write_frame_sock(sock, {
        "type": "query",
        "sql": "SELECT SUM(dbo.Sleep(1.0)) FROM Tone WITH (NOLOCK)"})
    assert running.wait(timeout=10)
    started = time.monotonic()
    handle.stop()
    assert time.monotonic() - started < 0.3 + 0.5
    assert not finished.is_set()  # stop() did not wait the statement out
    assert read_frame(sock) is None
    sock.close()
    # The abandoned statement ends on its own and its connection
    # thread with it.
    assert finished.wait(timeout=10)
    assert settles(
        lambda: handle.server.stats.snapshot()["sessions_active"], 0) == 0


# -- (c) the pipelined-pexec drain -------------------------------------------

@pytest.fixture
def fresh():
    """A server of its own, so ``pipeline.depth_max`` starts at 0."""
    with ServerThread(make_db()) as handle:
        yield handle


def pipeline_stats(handle) -> dict:
    return handle.server.stats.snapshot()["pipeline"]


def test_a_lone_pexec_is_strict_request_response(fresh):
    sock = connect(fresh.port)
    for done in (1, 2):
        sock.sendall(pexec())
        header, _ = read_frame(sock)
        assert header["type"] == "result" and header["rowcount"] == 1
        assert pipeline_stats(fresh) == {
            "batches": done, "statements": done, "depth_max": 1}
    sock.close()


def test_frames_sent_together_run_as_one_batch(fresh):
    sock = connect(fresh.port)
    depth = 7
    sock.sendall(pexec() * depth)
    for _ in range(depth):
        assert read_frame(sock)[0]["type"] == "result"
    assert pipeline_stats(fresh) == {
        "batches": 1, "statements": depth, "depth_max": depth}
    sock.close()


def test_a_partial_frame_behind_a_batch_is_waited_for_after_the_batch(
        fresh):
    sock = connect(fresh.port)
    sock.settimeout(5)
    tail = pexec("SELECT SUM(x) FROM Tone WITH (NOLOCK)")
    sock.sendall(pexec() * 3 + tail[:len(tail) // 2])
    # The three complete frames are answered while the fourth is
    # still half sent: the drain never blocks on a partial frame.
    for _ in range(3):
        assert read_frame(sock)[0]["type"] == "result"
    assert pipeline_stats(fresh) == {
        "batches": 1, "statements": 3, "depth_max": 3}
    time.sleep(0.2)
    sock.sendall(tail[len(tail) // 2:])
    header, blobs = read_frame(sock)
    assert header["type"] == "result"
    assert protocol.unpack_rows(header["rows"], blobs,
                                header["rowcount"]) == [(1.0,)]
    assert pipeline_stats(fresh) == {
        "batches": 2, "statements": 4, "depth_max": 3}
    sock.close()


def test_a_buffered_non_pexec_frame_is_carried_over(fresh):
    sock = connect(fresh.port)
    sock.sendall(pexec() * 2 + protocol.encode_frame({"type": "ping"})
                 + pexec())
    kinds = [read_frame(sock)[0]["type"] for _ in range(4)]
    assert kinds == ["result", "result", "pong", "result"]
    assert pipeline_stats(fresh)["depth_max"] == 2
    sock.close()


# -- (d) one send lock -------------------------------------------------------

def test_two_threads_sending_on_one_connection_interleave_whole_frames():
    ours, theirs = socket.socketpair()
    theirs.settimeout(10)
    conn = _Connection(ours, protocol.MAX_FRAME_BYTES)
    per_thread = 1000
    # Big enough that one sendall() takes several send() calls once
    # the socket buffer fills: without the lock the frames shred.
    payload = [bytes(40_000)]

    def writer(who):
        try:
            for n in range(per_thread):
                conn.send_frame({"type": "bchunk", "who": who, "n": n},
                                payload)
        except OSError:
            pass  # the reader gave up and closed the pair

    writers = [threading.Thread(target=writer, args=(who,))
               for who in (0, 1)]
    seen: list[tuple[int, int]] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in writers:
            t.start()
        for _ in range(2 * per_thread):
            header, blobs = read_frame(theirs)
            assert len(blobs[0]) == len(payload[0])
            seen.append((header["who"], header["n"]))
    finally:
        sys.setswitchinterval(interval)
        ours.close()
        theirs.close()
        for t in writers:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in writers)
    for who in (0, 1):  # every frame whole, each writer's in order
        assert [n for w, n in seen if w == who] == list(range(per_thread))


# -- (f) session ids ---------------------------------------------------------

def test_simultaneous_connects_get_distinct_session_ids():
    with ServerThread(make_db()) as handle:
        barrier = threading.Barrier(32)
        ids: list[int] = []

        def one():
            barrier.wait(timeout=10)
            with ArrayClient("127.0.0.1", handle.port) as c:
                ids.append(c.session_id)

        threads = [threading.Thread(target=one) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert len(ids) == 32 and len(set(ids)) == 32


# -- (g) statements run on the connection thread -----------------------------

class Recorder:
    """``session_setup`` for the tests below: ``dbo.Nap(seconds)``
    sleeps and records the thread it ran on and how many statements of
    its own session were running at that moment."""

    def __init__(self):
        self.setup_threads: dict[int, threading.Thread] = {}
        self.udf_threads: list[tuple[int, threading.Thread]] = []
        self.most_at_once = 0
        self.started = threading.Event()
        self._lock = threading.Lock()

    def session_setup(self, session):
        key = id(session)
        self.setup_threads[key] = threading.current_thread()
        running = [0]

        def nap(seconds):
            with self._lock:
                running[0] += 1
                self.most_at_once = max(self.most_at_once, running[0])
                self.udf_threads.append((key, threading.current_thread()))
            self.started.set()
            try:
                time.sleep(float(seconds))
            finally:
                with self._lock:
                    running[0] -= 1
            return 0.0
        session.register_function("dbo.Nap", nap, body_cost="empty")


def nap_sql(seconds: float) -> str:
    return f"SELECT SUM(dbo.Nap({seconds})) FROM Tone WITH (NOLOCK)"


def test_a_statement_runs_on_the_thread_that_read_it():
    recorder = Recorder()
    with ServerThread(make_db(), ServerConfig(max_workers=2),
                      session_setup=recorder.session_setup) as handle:
        with ArrayClient("127.0.0.1", handle.port) as c:
            assert c.query(nap_sql(0)).scalar() == 0.0
            sock = connect(handle.port)
            sock.sendall(pexec(nap_sql(0)) * 3)
            for _ in range(3):
                assert read_frame(sock)[0]["type"] == "result"
            write_frame_sock(sock, {"type": "pquery", "sql": nap_sql(0)})
            assert read_frame(sock)[0]["type"] == "presult"
            sock.close()
            names = [t.name for t in threading.enumerate()]
    assert len(recorder.udf_threads) == 5
    for key, thread in recorder.udf_threads:
        assert thread is recorder.setup_threads[key]
        assert thread.name == "repro-connection"
    assert not [n for n in names if n.startswith("repro-query")]
    assert names.count("repro-watchdog") == 1


def test_one_connection_runs_one_statement_at_a_time():
    """A statement answered ``QUERY_TIMEOUT`` still runs; the next
    statement the same connection sends at once must not run beside
    it against the same session."""
    recorder = Recorder()
    config = ServerConfig(max_workers=2, queue_limit=2)
    with ServerThread(make_db(), config,
                      session_setup=recorder.session_setup) as handle:
        with ArrayClient("127.0.0.1", handle.port) as c:
            began = time.monotonic()
            with pytest.raises(QueryTimeoutError):
                c.query(nap_sql(0.6), timeout=0.1)
            assert time.monotonic() - began < 0.5  # answered at 0.1 s
            assert c.query(nap_sql(0.3)).scalar() == 0.0
            assert c.stats()["timeouts"] == 1
    assert recorder.most_at_once == 1


def test_a_statement_waiting_past_its_deadline_for_a_permit_times_out():
    recorder = Recorder()
    config = ServerConfig(max_workers=1, queue_limit=1)
    with ServerThread(make_db(), config,
                      session_setup=recorder.session_setup) as handle:
        def hold_the_permit():
            with ArrayClient("127.0.0.1", handle.port) as c:
                c.query(nap_sql(0.8))

        holder = threading.Thread(target=hold_the_permit)
        holder.start()
        assert recorder.started.wait(timeout=10)
        with ArrayClient("127.0.0.1", handle.port) as c:
            began = time.monotonic()
            with pytest.raises(QueryTimeoutError):
                c.query(COUNT_SQL, timeout=0.1)
            assert time.monotonic() - began < 0.6  # not after the nap
            holder.join(timeout=10)
            stats = c.stats()
            assert stats["admission"]["in_flight"] == 0
            assert stats["timeouts"] == 1
            # The permit came back with the nap: the next one runs.
            assert c.query(COUNT_SQL, timeout=0.5).scalar() == 1


def test_a_timed_out_pexec_batch_gets_one_answer_per_frame():
    recorder = Recorder()
    with ServerThread(make_db(), ServerConfig(),
                      session_setup=recorder.session_setup) as handle:
        sock = connect(handle.port)
        frame = protocol.encode_frame({"type": "pexec", "cold": False,
                                       "sql": nap_sql(0.2),
                                       "timeout": 0.05})
        sock.sendall(frame * 3)
        for _ in range(3):
            header, _blobs = read_frame(sock)
            assert header["code"] == protocol.QUERY_TIMEOUT
        # Answered means answered: the batch's results never follow.
        write_frame_sock(sock, {"type": "ping"})
        assert read_frame(sock)[0]["type"] == "pong"
        sock.close()


# -- (h) the watchdog ---------------------------------------------------------

def test_the_watchdog_fires_an_entry_at_its_deadline_once():
    watchdog = _Watchdog()
    fired: list[float] = []
    try:
        late = watchdog.arm(time.monotonic() + 30, lambda: fired.append(0))
        began = time.monotonic()
        early = watchdog.arm(began + 0.05,
                             lambda: fired.append(time.monotonic()))
        assert settles(lambda: len(fired), 1, seconds=5) == 1
        assert 0.05 <= fired[0] - began < 1.0
        assert watchdog.disarm(early) is True  # it had fired
        assert watchdog.disarm(late) is False  # never fired
        quiet = watchdog.arm(time.monotonic() + 0.05,
                             lambda: fired.append(-1))
        assert watchdog.disarm(quiet) is False
        time.sleep(0.15)
        assert len(fired) == 1
    finally:
        watchdog.stop()
    assert not watchdog._thread.is_alive()


def test_a_server_that_never_times_a_statement_starts_no_watchdog():
    with ServerThread(make_db(), ServerConfig(query_timeout=None)) as h:
        with ArrayClient("127.0.0.1", h.port) as c:
            assert c.query(COUNT_SQL).scalar() == 1
        assert h.server._watchdog._thread is None


def test_answer_now_hangs_up_when_the_send_lock_is_held():
    ours, theirs = socket.socketpair()
    theirs.settimeout(10)
    conn = _Connection(ours, protocol.MAX_FRAME_BYTES)
    try:
        with conn.send_lock:  # a relay stuck writing to this client
            began = time.monotonic()
            conn.answer_now(protocol.encode_frame({"type": "pong"}))
            assert time.monotonic() - began < 0.5
        assert conn.hung_up
        assert read_frame(theirs) is None
    finally:
        ours.close()
        theirs.close()


def test_answer_now_hangs_up_on_a_client_that_stopped_reading():
    ours, theirs = socket.socketpair()
    conn = _Connection(ours, protocol.MAX_FRAME_BYTES)
    try:
        ours.setblocking(False)
        with pytest.raises(BlockingIOError):
            while True:  # fill both socket buffers
                ours.send(bytes(65536))
        ours.setblocking(True)
        began = time.monotonic()
        conn.answer_now(protocol.encode_frame({"type": "pong"}))
        assert time.monotonic() - began < 0.5
        assert conn.hung_up
    finally:
        ours.close()
        theirs.close()


def test_answer_now_writes_a_whole_frame_to_a_reading_client():
    ours, theirs = socket.socketpair()
    theirs.settimeout(10)
    conn = _Connection(ours, protocol.MAX_FRAME_BYTES)
    try:
        conn.answer_now(protocol.encode_frame({"type": "pong"}) * 2)
        assert not conn.hung_up
        assert [read_frame(theirs)[0]["type"] for _ in range(2)] == \
            ["pong", "pong"]
    finally:
        ours.close()
        theirs.close()
