"""The array-database server: a thread per connection, statements run
on it.

One process holds one shared :class:`~repro.engine.executor.Database`.
A listener thread accepts; each TCP connection gets a daemon thread and
its own :class:`~repro.engine.sqlfront.SqlSession` (per-session UDF
registry, like a SQL Server SPID).  The connection thread reads a frame
from its blocking socket, validates and dispatches it, runs the
statement itself and writes the reply — no thread hand-off between the
frame and its reply.  The admission controller bounds how many
statements run at once (one run permit each) and how many may wait for
a permit; statements run under the database's latches
(:mod:`repro.engine.latches`): a writer takes only its own table's
latch, so writers of different tables overlap, and every SELECT pins a
copy-on-write page-version snapshot and reads it latch-free, so
readers overlap any writer, of the *same* table too.  ``ping``, ``stats`` and
``prepare`` take no permit, so they answer while every permit is held.

The connection protocol is strict request/response for every frame type
except ``pexec``: the connection thread reads one frame, answers it,
and only then reads the next, so one connection runs one statement at
a time.  ``pexec`` frames may be *pipelined* — a client sends N of them
back-to-back, the connection thread drains the contiguous run already
sitting in its receive buffer into one batch (one admission slot, one
permit, statements sequential) and answers with N result frames in
request order.  ``bquery`` replies are a *stream* of bounded ``bchunk``
frames: the blob slice is resolved and read under the table latch,
then shipped chunk by chunk, so a corner of a huge blob never trips the
frame-size limit.  A statement that outlives its timeout is answered
``QUERY_TIMEOUT`` at its deadline by the server's one watchdog thread
(:class:`_Watchdog`), which never waits on a client; the statement
finishes on its connection thread, its result is dropped, and its slot
and permit are returned only when it actually ends, so timeouts cannot
be used to stampede past the concurrency bound.  (Why a thread per
connection: ``docs/SERVER.md``.)

Embedders (tests, benchmarks, the CLI client's self-serve mode) use
:class:`ServerThread` to start a server and stop it again::

    with ServerThread(db) as handle:
        client = ArrayClient("127.0.0.1", handle.port)
        ...
"""

from __future__ import annotations

import itertools
import math
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable

from ..core.errors import BoundsError, ShapeError
from ..core.header import HeaderError
from ..core.partial import BytesBlobStream, read_window_blob
from ..engine import lockcheck
from ..engine.btree import DuplicateKeyError
from ..engine.executor import Database
from ..engine.sqlfront import SqlSession, SqlSyntaxError
from ..engine.table import MaxBlobHandle, SchemaError, Table
from . import protocol
from .admission import AdmissionController
from .stats import ServerStats

__all__ = ["ServerConfig", "ArrayServer", "ServerThread"]

#: Longest :meth:`ArrayServer.stop` waits, in all, for connection
#: threads to end; only one with a statement still running takes any.
_STOP_JOIN_SECONDS = 2.0


@dataclass
class ServerConfig:
    """Deployment knobs for one server process.

    Attributes:
        host / port: Listen address (port 0 picks a free port; the
            bound port is on :attr:`ArrayServer.port` after start).
        max_workers: Statements executing concurrently (run permits;
            each runs on its own connection thread).
        queue_limit: Admitted statements allowed to wait for a run
            permit; beyond ``max_workers + queue_limit`` clients get
            ``SERVER_BUSY``.
        query_timeout: Default per-query wall-clock budget in seconds,
            applied whenever a query frame omits ``timeout`` (or sends
            ``null``).  A frame may override it with its own positive
            budget or disable it with the ``"none"`` sentinel;
            ``None`` here means no default budget.
        max_frame: Largest accepted/emitted frame in bytes.
        name: Server name reported in the hello frame.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_workers: int = 4
    queue_limit: int = 8
    query_timeout: float | None = 30.0
    max_frame: int = protocol.MAX_FRAME_BYTES
    name: str = "repro-array-server"


class _Connection:
    """One accepted socket.  Frames are cut from a
    :class:`protocol.FrameBuffer` the connection owns, so a pipelined
    run can be drained without touching the socket; every write takes
    one send lock, because two threads may answer on one socket — the
    connection thread and the watchdog answering its statement's
    timeout."""

    def __init__(self, sock: socket.socket, max_frame: int):
        self.sock = sock
        self.frames = protocol.FrameBuffer(max_frame)
        self.send_lock = lockcheck.tracked_lock("mutex:_Connection")
        self.thread: threading.Thread | None = None
        self.hung_up = False

    def send(self, data: bytes) -> None:
        with self.send_lock:
            self.sock.sendall(data)

    def send_frame(self, header: dict, blobs=(),
                   max_frame: int = protocol.MAX_FRAME_BYTES) -> None:
        """Write one frame; :class:`protocol.FrameTooLargeError` —
        before a byte is sent — if it exceeds ``max_frame``."""
        with self.send_lock:
            protocol.write_frame_sock(self.sock, header, blobs, max_frame)

    def answer_now(self, data: bytes,
                   started: Callable[[], int] | None = None) -> None:
        """Write ``data`` if it goes out at once, else hang up: the
        watchdog's write, which must never wait on a client.

        The send lock is taken without waiting (a relay blocked on a
        client that stopped reading holds it) and the bytes go out with
        ``MSG_DONTWAIT``; a client that cannot take them whole at once
        is hung up on.  ``started``, called under the send lock, says
        whether a reply is already part-way out (a relayed stream's
        chunks): then there is no frame boundary to answer at, and the
        client is hung up on too.
        """
        if self.send_lock.acquire(blocking=False):
            try:
                if started is None or not started():
                    try:
                        if self.sock.send(data, socket.MSG_DONTWAIT) \
                                == len(data):
                            return
                    except OSError:
                        pass  # would block, or the peer is gone
            finally:
                self.send_lock.release()
        self.hung_up = True
        _shut_down(self.sock)  # the connection thread closes it


class _Answered(Exception):
    """The watchdog answered this statement (``QUERY_TIMEOUT``, or a
    hang-up) while it ran: its result is dropped."""


class _Watchdog:
    """The server's one timeout thread, started on the first
    :meth:`arm`.

    A statement arms an entry with its deadline before it runs and
    disarms it when it ends; an entry still armed at its deadline is
    popped and its ``fire`` called on the watchdog thread.  The thread
    sleeps until the earliest deadline it knows of, and :meth:`arm`
    wakes it only for an earlier one, so statements under a budget of
    seconds never wake it.
    """

    def __init__(self):
        self._cond = threading.Condition(threading.Lock())
        self._entries: dict[int, tuple[float, Callable[[], None]]] = {}
        self._tokens = itertools.count(1)
        self._planned = math.inf  # when the thread next wakes
        self._thread: threading.Thread | None = None
        self._stopped = False

    def arm(self, deadline: float, fire: Callable[[], None]) -> int:
        """Call ``fire`` at ``deadline`` (``time.monotonic``) unless
        :meth:`disarm` comes first; returns the entry's token."""
        with self._cond:
            token = next(self._tokens)
            self._entries[token] = (deadline, fire)
            if self._thread is None and not self._stopped:
                self._thread = threading.Thread(
                    target=self._run, daemon=True, name="repro-watchdog")
                self._thread.start()
            elif deadline < self._planned:
                self._cond.notify()
        return token

    def disarm(self, token: int) -> bool:
        """Drop an entry; True when it had already fired."""
        with self._cond:
            return self._entries.pop(token, None) is None

    def stop(self) -> None:
        """End the thread; entries not yet due never fire."""
        with self._cond:
            self._stopped = True
            self._cond.notify()
            thread = self._thread
        if thread is not None:
            thread.join(timeout=_STOP_JOIN_SECONDS)

    def _run(self) -> None:
        while True:
            with self._cond:
                now = time.monotonic()
                due = [token for token, (deadline, _fire)
                       in self._entries.items() if deadline <= now]
                fires = [self._entries.pop(token)[1] for token in due]
                if not fires:
                    if self._stopped:
                        return
                    self._planned = min(
                        (deadline for deadline, _fire
                         in self._entries.values()), default=math.inf)
                    self._cond.wait(None if self._planned == math.inf
                                    else self._planned - now)
                    continue
            for fire in fires:
                fire()


class ArrayServer:
    """Serves the wire protocol over one shared database.

    Args:
        db: The shared database (statements run under ``db.latches``).
        config: Deployment knobs; defaults are test-friendly.
        session_setup: Optional callable invoked with each new
            connection's :class:`SqlSession` — the hook deployments use
            to register extra UDFs server-side.
    """

    def __init__(self, db: Database, config: ServerConfig | None = None,
                 session_setup: Callable[[SqlSession], None] | None = None):
        self.db = db
        self.config = config or ServerConfig()
        self.session_setup = session_setup
        self.stats = ServerStats()
        self.admission = AdmissionController(self.config.max_workers,
                                             self.config.queue_limit)
        self._watchdog = _Watchdog()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = False
        self._crash: BaseException | None = None
        self._session_ids = itertools.count(1)  # next() is atomic
        self._connections: set[_Connection] = set()
        self._connections_lock = lockcheck.tracked_lock("mutex:ArrayServer")

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[1]

    def start(self) -> None:
        """Bind and start accepting connections on a listener thread
        (returns immediately)."""
        host = self.config.host
        self._listener = socket.create_server(
            (host, self.config.port), backlog=100,
            family=socket.AF_INET6 if ":" in host else socket.AF_INET)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="repro-listener")
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Start (if needed) and block until :meth:`stop` — from
        another thread — ends the listener or a signal handler's
        exception unwinds through here.  Re-raises a listener crash."""
        if self._accept_thread is None:
            self.start()
        self._accept_thread.join()
        self._raise_crash()

    def stop(self) -> None:
        """Stop accepting, hang up on live connections, stop the
        watchdog.  Idempotent, and returns within a bound: a statement
        still running finishes in the background.  Re-raises whatever
        the listener thread died of — a crash after a successful start
        would otherwise vanish with its daemon thread."""
        self._stopping = True
        if self._accept_thread is not None:
            # Joined before the sweep so nothing is accepted behind it.
            _shut_down(self._listener)
            self._accept_thread.join(timeout=_STOP_JOIN_SECONDS)
            self._listener.close()
        with self._connections_lock:
            live = list(self._connections)
        for conn in live:
            _shut_down(conn.sock)  # its own thread closes it
        deadline = time.monotonic() + _STOP_JOIN_SECONDS
        for conn in live:
            conn.thread.join(max(0.0, deadline - time.monotonic()))
        self._watchdog.stop()
        self._raise_crash()

    def _raise_crash(self) -> None:
        """Raise the listener's pending crash, if any (raise-once)."""
        crash, self._crash = self._crash, None
        if crash is not None:
            raise crash

    def _accept_loop(self) -> None:
        try:
            while True:
                try:
                    sock, _address = self._listener.accept()
                except ConnectionAbortedError:
                    continue  # that peer gave up while still queued
                except OSError:
                    if self._stopping:
                        return
                    raise
                # Without it Nagle + delayed ACK put 40 ms on every reply.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn = _Connection(sock, self.config.max_frame)
                conn.thread = threading.Thread(
                    target=self._serve_connection, args=(conn,),
                    daemon=True, name="repro-connection")
                with self._connections_lock:
                    self._connections.add(conn)
                conn.thread.start()
        except BaseException as exc:
            self._crash = exc  # held for serve_forever()/stop()

    # -- connection handling ------------------------------------------------

    def _serve_connection(self, conn: _Connection) -> None:
        """The body of one connection thread: greet, then read a
        frame, answer it, read the next, until either side hangs up."""
        session_id = next(self._session_ids)
        self.stats.session_opened(session_id)
        try:
            session = SqlSession(self.db)
            if self.session_setup is not None:
                self.session_setup(session)
            conn.send_frame({
                "type": "hello", "server": self.config.name,
                "protocol": protocol.PROTOCOL_VERSION,
                "session_id": session_id})
            while not conn.hung_up:
                try:
                    frame = conn.frames.read(conn.sock.recv)
                    if frame is None:
                        break
                    batch, frame = self._drain_pexec(conn, frame)
                except protocol.ProtocolError as exc:
                    # One best-effort diagnostic, then hang up: framing
                    # is broken, so the stream cannot be resynced.
                    conn.send_frame(_error_frame(_bad_frame(str(exc))))
                    break
                if batch:
                    self._run_pexec_batch(conn, session, session_id,
                                          batch)
                if frame is not None and self._dispatch(
                        conn, session, session_id, *frame):
                    break
        except OSError:
            pass  # the peer (or stop()) hung up; nothing to answer
        finally:
            self._connection_ended()
            # Closed before the session is reported closed: whoever
            # sees ``sessions_active`` fall sees the socket gone too.
            conn.sock.close()
            self.stats.session_closed(session_id)
            with self._connections_lock:
                self._connections.discard(conn)

    def _connection_ended(self) -> None:
        """Called on a connection thread as it ends, before its socket
        closes: release what the thread's statements kept per thread
        (nothing here; a coordinator's replica links)."""

    @staticmethod
    def _drain_pexec(conn: _Connection, frame: tuple
                     ) -> tuple[list[dict], tuple | None]:
        """Split what the client has in flight into ``(batch, frame)``:
        the contiguous run of pipelined ``pexec`` headers that starts
        at ``frame``, and the frame to dispatch once that batch is
        answered (or None).

        Only frames *complete* in the connection's receive buffer are
        taken — an incomplete one is left for the normal read loop, so
        draining never blocks on the network and a lone ``pexec``
        behaves exactly like strict request/response.
        """
        batch: list[dict] = []
        while frame is not None and frame[0].get("type") == "pexec":
            batch.append(frame[0])
            frame = conn.frames.buffered() \
                if len(batch) < protocol.PIPELINE_BATCH_MAX else None
        return batch, frame

    def _dispatch(self, conn: _Connection, session: SqlSession,
                  session_id: int, header: dict, blobs) -> bool:
        """Answer one request frame (``pexec`` runs never get here);
        True means close the connection.  A request refused, timed out
        or failed arrives as the :class:`protocol.WireError` that
        becomes its one error frame."""
        kind = header.get("type")
        try:
            if kind == "ping":
                conn.send_frame({"type": "pong"})
            elif kind == "close":
                conn.send_frame({"type": "goodbye"})
                return True
            elif kind == "stats":
                conn.send_frame(self._stats_frame())
            elif kind in ("query", "pquery", "insert"):
                if kind == "insert":
                    reply, reply_blobs = self._run_insert(
                        conn, session, session_id, header, blobs)
                else:
                    reply, reply_blobs = self._run_query(
                        conn, session, session_id, header,
                        partial=(kind == "pquery"))
                try:
                    conn.send_frame(reply, reply_blobs,
                                    self.config.max_frame)
                except protocol.FrameTooLargeError as exc:
                    # The query ran, but its reply cannot ship: the
                    # client would reject the oversized frame and kill
                    # the connection with no diagnosis.  Nothing has
                    # hit the wire yet, so answer with an error frame
                    # instead and keep the connection alive.
                    raise protocol.WireError(
                        protocol.RESULT_TOO_LARGE,
                        f"{exc}; narrow the select list or raise "
                        f"max_frame") from exc
            elif kind == "prepare":
                conn.send_frame(self._run_prepare(session, header))
            elif kind == "bquery":
                return self._run_bquery(conn, session, session_id,
                                        header)
            else:
                raise _bad_frame(f"unknown message type {kind!r}")
        except protocol.WireError as exc:
            conn.send_frame(_error_frame(exc))
        except _Answered:
            pass  # the watchdog answered it (the loop ends on a hang-up)
        return False

    # -- the query path -----------------------------------------------------

    def _resolve_timeout(self, requested) -> float | None:
        """Map a query frame's ``timeout`` value to a budget in seconds.

        Absent/``null`` means the server default — a client parameter
        that merely defaults to ``None`` must never disable the budget.
        The :data:`protocol.NO_TIMEOUT` sentinel disables it on
        purpose; a positive finite number is used as-is.  Anything
        else is a ``BAD_FRAME``.
        """
        if requested is None:
            return self.config.query_timeout
        if requested == protocol.NO_TIMEOUT:
            return None
        if isinstance(requested, bool) or \
                not isinstance(requested, (int, float)):
            raise _bad_frame(
                f"'timeout' must be a positive number or "
                f"{protocol.NO_TIMEOUT!r}, got {requested!r}")
        timeout = float(requested)
        if not math.isfinite(timeout) or timeout <= 0:
            raise _bad_frame(
                f"'timeout' must be positive and finite, got "
                f"{timeout!r}")
        return timeout

    def _statement_options(self, header: dict) -> tuple:
        """``(sql, cold, timeout)`` of a statement frame, the timeout
        validated as :meth:`_resolve_timeout` says."""
        return (_statement_text(header), bool(header.get("cold", True)),
                self._resolve_timeout(header.get("timeout")))

    def _admit_and_run(self, conn: _Connection, session_id: int,
                       timeout: float | None, job, replies: int = 1,
                       started: Callable[[], int] | None = None) -> tuple:
        """Admit one statement and run it on this, the connection's own
        thread — the shared body of every statement path.

        The statement takes a slot (else ``SERVER_BUSY``), then waits
        for a run permit until its deadline (else ``QUERY_TIMEOUT``).
        While it runs, the watchdog holds its deadline: past it, the
        client gets ``replies`` copies of the ``QUERY_TIMEOUT`` frame
        at once (see :meth:`_Connection.answer_now` for ``started``),
        and the statement's result is dropped when it ends.

        Returns ``(result, latency)``; a rejection, a timeout or a
        failure is raised as the :class:`protocol.WireError` that
        answers it (and is counted here), a statement the watchdog
        already answered as :class:`_Answered`.
        """
        if not self.admission.try_acquire():
            self.stats.record_busy()
            raise protocol.WireError(
                protocol.SERVER_BUSY,
                f"admission queue full "
                f"({self.admission.capacity} in flight); retry later")
        began = time.perf_counter()
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self.admission.acquire_permit(timeout):
            self.admission.release(permit=False)
            self.stats.record_timeout(session_id)
            raise _timeout_error(timeout)
        token = None
        if deadline is not None:
            def fire():  # on the watchdog thread
                self.stats.record_timeout(session_id)
                conn.answer_now(protocol.encode_frame(
                    _error_frame(_timeout_error(timeout))) * replies,
                    started)

            token = self._watchdog.arm(deadline, fire)
        try:
            try:
                result = job()
            finally:
                # The slot and the permit go back only now that the
                # statement has really ended.
                self.admission.release()
                answered = token is not None and \
                    self._watchdog.disarm(token)
        except Exception as exc:
            if answered:
                raise _Answered from None
            self.stats.record_failure(session_id)
            raise _wire_error(exc) from None
        if answered:
            raise _Answered
        return result, time.perf_counter() - began

    def _run_query(self, conn: _Connection, session: SqlSession,
                   session_id: int, header: dict, partial: bool = False
                   ) -> tuple[dict, list[bytes]]:
        sql, cold, timeout = self._statement_options(header)
        execute = self._execute_partial_sync if partial \
            else self._execute_sync
        result, latency = self._admit_and_run(
            conn, session_id, timeout,
            lambda: execute(session, sql, cold))
        self.stats.record_query(session_id, latency,
                                result.get("metrics"))
        if partial:
            return self._pack_presult(result, latency)
        return _result_frame(result, latency)

    @staticmethod
    def _pack_presult(result: dict, latency: float) -> tuple[dict, list]:
        """A ``presult`` frame: scalar states packed one by one, a
        grouped partial as one row set — key column, then per
        aggregate its counts and one flat values column."""
        states = result["states"]
        groups = result["groups"]
        columns = protocol.Columns.from_groups(()) if groups is None \
            else protocol.Columns.from_group_arrays(*groups.arrays())
        types, blobs = columns.encode()  # none for a scalar SELECT
        packed_states = None if states is None else [
            protocol.pack_partial(state, blobs) for state in states]
        reply = {"type": "presult", "rows": result["rows"],
                 "states": packed_states,
                 "groups": None if groups is None else types,
                 "rowcount": columns.rowcount,
                 "metrics": result["metrics"],
                 "elapsed_seconds": latency}
        return reply, blobs

    def _run_insert(self, conn: _Connection, session: SqlSession,
                    session_id: int, header: dict, blobs
                    ) -> tuple[dict, list[bytes]]:
        table_name = header.get("table")
        if not isinstance(table_name, str) or not table_name:
            raise _bad_frame("insert frame needs a 'table' name")
        rowcount = header.get("rowcount")
        if not isinstance(rowcount, int):
            raise _bad_frame("insert frame needs an integer 'rowcount'")
        try:
            rows = protocol.unpack_rows(header.get("rows"), blobs,
                                        rowcount)
        except protocol.ProtocolError as exc:
            raise _bad_frame(str(exc)) from exc
        inserted, latency = self._admit_and_run(
            conn, session_id, self._resolve_timeout(header.get("timeout")),
            lambda: self._execute_insert_sync(session, table_name,
                                              rows))
        self.stats.record_query(session_id, latency, None)
        return _result_frame({"kind": "ok", "rows": [],
                              "rowcount": inserted, "metrics": None},
                             latency)

    # -- prepared statements and pipelining ----------------------------------

    def _run_prepare(self, session: SqlSession, header: dict) -> dict:
        """The ``prepared`` reply to one ``prepare`` frame.

        Planning is pure catalog work (no latch, no IO), so it runs
        inline on the connection thread instead of burning an
        admission slot.
        """
        sql = _statement_text(header)
        try:
            kind, table = self._prepare_sync(session, sql)
        except Exception as exc:
            raise _wire_error(exc)
        self.stats.record_prepare()
        return {"type": "prepared", "sql": sql, "kind": kind,
                "table": table}

    def _prepare_sync(self, session: SqlSession,
                      sql: str) -> tuple[str, str]:
        """Plan (and cache) one SELECT; returns ``(kind, table)``."""
        plan = session.prepare(sql)
        return plan.kind, plan.table.name

    def _run_pexec_batch(self, conn: _Connection, session: SqlSession,
                         session_id: int, headers: list[dict]) -> None:
        """Answer one pipelined batch of ``pexec`` frames.

        The whole batch takes one admission slot and one run permit;
        statements run sequentially and every request gets exactly one
        reply, in request order.  A statement that fails answers with
        an error frame in its slot without aborting the rest; a
        batch-level failure (busy, timeout) answers every slot with a
        copy of the same error.
        """
        requests: list[dict | tuple] = []
        timeout = self.config.query_timeout
        timeout_set = False
        for header in headers:
            try:
                sql, cold, resolved = self._statement_options(header)
            except protocol.WireError as exc:
                requests.append(_error_frame(exc))
                continue
            if not timeout_set:
                # One admission slot means one wall-clock budget: the
                # first valid frame's timeout bounds the whole batch.
                timeout = resolved
                timeout_set = True
            requests.append((sql, cold))

        def job():
            replies = []
            for request in requests:
                if isinstance(request, dict):  # pre-validated error
                    replies.append((request, None))
                    continue
                started = time.perf_counter()
                try:
                    result = self._execute_sync(session, *request)
                except Exception as exc:
                    replies.append((_error_frame(_wire_error(exc)),
                                    None))
                    continue
                replies.append((result,
                                time.perf_counter() - started))
            return replies

        try:
            replies, _batch_latency = self._admit_and_run(
                conn, session_id, timeout, job, replies=len(headers))
        except protocol.WireError as exc:
            # Busy/timeout hit the batch as a whole — but the client
            # pipelined N requests and will read N replies.
            conn.send(protocol.encode_frame(_error_frame(exc))
                      * len(headers))
            return
        except _Answered:
            return
        self.stats.record_pipeline(len(headers))
        # All N replies go out as one write — the reply-side half of
        # pipelining.  Per-frame writes would put a syscall back on
        # every statement and eat the batching win.
        buffer = bytearray()
        for reply, latency in replies:
            if latency is None:  # a per-statement error placeholder
                self.stats.record_failure(session_id)
                buffer += protocol.encode_frame(reply)
                continue
            self.stats.record_query(session_id, latency,
                                    reply["metrics"])
            encoded = protocol.encode_frame(
                *_result_frame(reply, latency))
            if len(encoded) > self.config.max_frame:
                encoded = protocol.encode_frame(_error_frame(
                    protocol.WireError(
                        protocol.RESULT_TOO_LARGE,
                        f"result frame of {len(encoded)} bytes exceeds "
                        f"max_frame {self.config.max_frame}; narrow "
                        f"the select list or raise max_frame")))
            buffer += encoded
        conn.send(buffer)

    # -- streamed partial-blob reads -----------------------------------------

    def _run_bquery(self, conn: _Connection, session: SqlSession,
                    session_id: int, header: dict) -> bool:
        """Answer one ``bquery``: resolve the blob cell and read the
        requested slice inside the statement's read view, then stream
        it as bounded ``bchunk`` frames once the statement has ended.
        Returns the dispatch loop's ``done`` flag (the base server
        never closes the connection here)."""
        sql, cold, timeout = self._statement_options(header)
        offset, length, window = _resolve_blob_range(header)
        chunk_bytes = self._resolve_chunk_bytes(header.get("chunk_bytes"))
        result, latency = self._admit_and_run(
            conn, session_id, timeout,
            lambda: self._execute_bquery_sync(
                session, sql, cold, offset, length, window))
        self.stats.record_query(session_id, latency, result["metrics"])
        payload = result["payload"]
        chunks = [payload[i:i + chunk_bytes]
                  for i in range(0, len(payload), chunk_bytes)] or [b""]
        self.stats.record_bquery(len(chunks), len(payload))
        for seq, chunk in enumerate(chunks):
            eof = seq == len(chunks) - 1
            frame = {"type": "bchunk", "seq": seq, "eof": eof,
                     "blob_len": result["blob_len"],
                     "offset": result["offset"],
                     "length": len(payload),
                     "metrics": result["metrics"] if eof else None,
                     "elapsed_seconds": latency if eof else None}
            conn.send_frame(frame, [chunk], self.config.max_frame)
        return False

    def _resolve_chunk_bytes(self, requested) -> int:
        """Map a ``bquery`` frame's ``chunk_bytes`` to a payload size
        per chunk: the protocol default, clamped so a chunk frame
        always fits well inside ``max_frame``."""
        cap = max(1, min(protocol.DEFAULT_CHUNK_BYTES,
                         self.config.max_frame - 1024))
        if requested is None:
            return cap
        if isinstance(requested, bool) or \
                not isinstance(requested, int) or requested < 1:
            raise _bad_frame(
                f"'chunk_bytes' must be a positive integer, "
                f"got {requested!r}")
        return min(requested, cap)

    def _execute_bquery_sync(self, session: SqlSession, sql: str,
                             cold: bool, offset: int, length: int | None,
                             window: tuple | None) -> dict:
        """Statement body of the ``bquery`` path.

        The statement runs like any SELECT, planned through the
        session's plan cache, but the finalize hook resolves the
        single blob cell to a *stream* and reads only the requested
        byte range (or re-encodes the requested array window), never
        the whole blob.  A seek hands the hook the cell's handle inside
        its read view (:attr:`SelectPlan.late`), so the pages the
        slice touches are read on the statement's pinned snapshot and
        charged to its metrics; the wrapper trips are added here.
        """
        opened = []  # the stream over a handle, if the cell is one

        def finalize(result):
            values, metrics = result
            if isinstance(values, list):
                raise protocol.WireError(
                    protocol.SQL_ERROR,
                    "a bquery statement cannot use GROUP BY")
            cells = tuple(values)
            if len(cells) != 1:
                raise protocol.WireError(
                    protocol.SQL_ERROR,
                    f"a bquery statement must select exactly one "
                    f"aggregate, got {len(cells)}")
            cell = cells[0]
            if isinstance(cell, MaxBlobHandle):
                stream = cell.open_stream(self.db.pool)
                opened.append(stream)
            elif isinstance(cell, (bytes, bytearray, memoryview)):
                stream = BytesBlobStream(bytes(cell))
            else:
                raise protocol.WireError(
                    protocol.SQL_ERROR,
                    f"a bquery statement must produce a blob cell, "
                    f"got {type(cell).__name__}")
            blob_len = stream.length()
            try:
                if window is not None:
                    payload = read_window_blob(stream, window[0],
                                               window[1])
                    served_offset = 0
                else:
                    end = blob_len if length is None else \
                        offset + length
                    if offset > blob_len or end > blob_len:
                        raise protocol.WireError(
                            protocol.BAD_FRAME,
                            f"byte range [{offset}, {end}) beyond "
                            f"blob of {blob_len} bytes")
                    payload = stream.read_at(offset, end - offset)
                    served_offset = offset
            except (BoundsError, ShapeError, HeaderError,
                    ValueError) as exc:
                raise protocol.WireError(protocol.BAD_FRAME,
                                         str(exc)) from exc
            return {"payload": payload, "blob_len": blob_len,
                    "offset": served_offset, "metrics": metrics}

        result = session.query(sql, cold=cold, finalize=finalize)
        metrics = result["metrics"]
        metrics.stream_calls += sum(s.stream_calls for s in opened)
        result["metrics"] = metrics.to_dict()
        return result

    def _execute_sync(self, session: SqlSession, sql: str,
                      cold: bool) -> dict:
        """Statement body: execute and normalize the result."""
        result = session.execute(sql, cold=cold,
                                 finalize=self._materialize_result)
        if isinstance(result, Table):
            return {"kind": "ok", "rows": [],
                    "rowcount": 0, "metrics": None,
                    "detail": f"table {result.name} created"}
        if isinstance(result, int):
            return {"kind": "ok", "rows": [], "rowcount": result,
                    "metrics": None}
        rows, metrics = result
        return {"kind": "rows", "rows": rows, "rowcount": len(rows),
                "metrics": metrics.to_dict()}

    def _execute_partial_sync(self, session: SqlSession, sql: str,
                              cold: bool) -> dict:
        """Statement body of the ``pquery`` path: run the SELECT
        with its aggregates' mergeable partial states left unreduced
        (the shard half of distributed aggregation)."""
        payload = session.query_partial(
            sql, cold=cold, finalize=self._materialize_partials)
        return {"kind": "partial", "rows": payload["rows"],
                "states": payload["states"],
                "groups": payload["groups"],
                "metrics": payload["metrics"].to_dict()}

    def _materialize_partials(self, payload: dict) -> dict:
        """``query_partial`` finalize hook: resolve blob handles inside
        MIN/MAX value-list partials before the statement ends (same
        reasoning as :meth:`_materialize_result`)."""
        def read(handle):
            return handle.read_all(self.db.pool)

        def fix(partial):
            if isinstance(partial, list):
                return [read(cell) if isinstance(cell, MaxBlobHandle)
                        else cell for cell in partial]
            return partial

        if payload["states"] is not None:
            payload["states"] = [fix(s) for s in payload["states"]]
        if payload["groups"] is not None:
            payload["groups"].replace_values(MaxBlobHandle, read)
        return payload

    def _execute_insert_sync(self, session: SqlSession,
                             table_name: str, rows) -> int:
        """Statement body of the binary bulk-load path: append the
        batch through the session's one insert path, exactly like a
        SQL INSERT minus the parse."""
        return session.insert_rows(session._resolve_table(table_name),
                                   rows)

    def _materialize_result(self, result):
        """SELECT finalize hook: normalize to a row list and resolve
        blob handles to bytes.

        Runs as :meth:`SqlSession.query`'s hook on purpose — a
        :class:`MaxBlobHandle` cell (a seek hands one through, see
        :attr:`SelectPlan.late`) points at blob pages of the
        statement's pinned snapshot, and is only ever dereferenced
        while that pin is held.  Out-of-page handles cannot cross the
        wire anyway, so ship the bytes (read whole, charged to the
        statement).
        """
        values, metrics = result
        rows = values if isinstance(values, list) else [tuple(values)]
        rows = [tuple(cell.read_all(self.db.pool)
                      if isinstance(cell, MaxBlobHandle) else cell
                      for cell in row)
                for row in rows]
        return rows, metrics

    # -- stats ----------------------------------------------------------------

    def _stats_frame(self) -> dict:
        pool = self.db.pool.snapshot_counters()
        return {
            "type": "stats",
            "server": self.config.name,
            "admission": self.admission.snapshot(),
            "pool_counters": {
                "logical_reads": pool.logical_reads,
                "physical_reads": pool.physical_reads,
                "sequential_reads": pool.sequential_reads,
                "random_reads": pool.random_reads,
            },
            **self.stats.snapshot(),
        }


def _result_frame(result: dict, latency: float) -> tuple[dict, list]:
    """The ``result`` frame of an executed statement: its rows — the
    ``rows`` list, or the finished ``columns`` a coordinator's merge
    left in their place — as a type string in the header and column
    buffers in the tail."""
    types, buffers = protocol.pack_rows(
        result["columns"] if "columns" in result else result["rows"])
    return {"type": "result", "kind": result["kind"], "rows": types,
            "rowcount": result["rowcount"],
            "metrics": result["metrics"],
            "elapsed_seconds": latency}, buffers


def _timeout_error(timeout: float) -> protocol.WireError:
    return protocol.WireError(
        protocol.QUERY_TIMEOUT, f"query exceeded its {timeout:g} s budget")


def _error_frame(exc: protocol.WireError) -> dict:
    frame = {"type": "error", "code": exc.code, "message": exc.message}
    if exc.detail is not None:
        frame["detail"] = exc.detail
    return frame


def _shut_down(sock: socket.socket) -> None:
    """``shutdown(SHUT_RDWR)``: the peer reads EOF, and a thread blocked
    in ``accept``/``recv`` on the socket wakes (on Linux ``close()``
    alone leaves it blocked)."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already shut down, or closed by its own thread


def _bad_frame(message: str) -> protocol.WireError:
    return protocol.WireError(protocol.BAD_FRAME, message)


def _wire_error(exc: BaseException) -> protocol.WireError:
    """What a statement raised, as the typed error that answers it."""
    if isinstance(exc, protocol.WireError):
        # A typed failure from behind the server (the shard
        # coordinator's SHARD_UNAVAILABLE, a shard's own error passing
        # through): keep its code on the wire.
        return exc
    if isinstance(exc, (SqlSyntaxError, SchemaError, DuplicateKeyError)):
        # The statement's own fault — its text, a cell that does not
        # fit its column, a key already there: the user's to fix.
        return protocol.WireError(protocol.SQL_ERROR, str(exc))
    # An engine bug, surfaced to the one client that hit it.
    return protocol.WireError(protocol.INTERNAL,
                              f"{type(exc).__name__}: {exc}")


def _statement_text(header: dict) -> str:
    """A statement frame's ``sql``, or the ``SQL_ERROR`` for its
    absence."""
    sql = header.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise protocol.WireError(
            protocol.SQL_ERROR,
            f"{header.get('type')} frame needs a non-empty 'sql'")
    return sql


def _resolve_blob_range(header: dict
                        ) -> tuple[int, int | None, tuple | None]:
    """Validate a ``bquery`` frame's slice keys.

    Returns ``(offset, length, window)`` — byte mode leaves ``window``
    None; window mode returns ``(offset_tuple, size_tuple)`` in
    ``window`` with the byte keys forced to their defaults.  A
    malformed or mixed request is a ``BAD_FRAME``.
    """
    offset = header.get("offset", 0)
    length = header.get("length")
    window = header.get("window")
    if isinstance(offset, bool) or not isinstance(offset, int) or \
            offset < 0:
        raise _bad_frame(
            f"'offset' must be a non-negative integer, got {offset!r}")
    if length is not None and (
            isinstance(length, bool) or not isinstance(length, int)
            or length < 0):
        raise _bad_frame(
            f"'length' must be a non-negative integer or null, "
            f"got {length!r}")
    if window is None:
        return offset, length, None
    if offset or length is not None:
        raise _bad_frame(
            "a bquery is either a byte range or a window, not both")
    if not isinstance(window, dict) or \
            set(window) != {"offset", "size"}:
        raise _bad_frame(
            "'window' must be an object with 'offset' and 'size' "
            "lists")
    win_offset = window["offset"]
    win_size = window["size"]
    for name, values in (("offset", win_offset), ("size", win_size)):
        if not isinstance(values, list) or not values or not all(
                isinstance(v, int) and not isinstance(v, bool)
                for v in values):
            raise _bad_frame(
                f"window '{name}' must be a non-empty list of "
                f"integers, got {values!r}")
    if len(win_offset) != len(win_size):
        raise _bad_frame(
            f"window offset/size rank mismatch: {len(win_offset)} vs "
            f"{len(win_size)}")
    return 0, None, (tuple(win_offset), tuple(win_size))


class ServerThread:
    """An :class:`ArrayServer` with a start/stop handle.

    The embedding pattern used by the tests, the throughput benchmark
    and ``repro client --serve-rows``: start, read :attr:`port`,
    connect ordinary blocking clients, stop.  Also usable as a context
    manager.  The server's own listener and connection threads do the
    serving; :meth:`stop` (and leaving the ``with`` block) re-raises
    whatever the listener died of, if it crashed after start-up.
    """

    def __init__(self, db: Database | None = None,
                 config: ServerConfig | None = None,
                 session_setup=None,
                 server: ArrayServer | None = None):
        if server is None:
            if db is None:
                raise ValueError(
                    "ServerThread needs a db or a prebuilt server")
            server = ArrayServer(db, config, session_setup)
        self.server = server
        self.port: int | None = None

    def start(self) -> "ServerThread":
        self.server.start()
        self.port = self.server.port
        return self

    def stop(self) -> None:
        self.server.stop()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
