"""The array-database server: asyncio TCP front, threaded query pool.

One process holds one shared :class:`~repro.engine.executor.Database`.
Each TCP connection gets its own
:class:`~repro.engine.sqlfront.SqlSession` (per-session UDF registry,
like a SQL Server SPID); statements execute on a bounded thread pool
behind the admission controller, under the database's per-table
latches (:mod:`repro.engine.latches`), so concurrent scans share and a
writer excludes only readers of *its own* table — writers on one table
overlap scans of another, like the paper's host.  SELECTs pin a
copy-on-write page-version snapshot and scan it latch-free, so readers
and a writer of the *same* table overlap too.

The connection protocol is strict request/response for every frame type
except ``pexec``: the handler reads one frame, answers it, and only
then reads the next.  ``pexec`` frames may be *pipelined* — a client
sends N of them back-to-back, the handler drains the contiguous run
already sitting in the stream buffer into one batch (one admission
slot, one worker-pool hop, statements sequential) and answers with N
result frames in request order.  ``bquery`` replies are a *stream* of
bounded ``bchunk`` frames: the blob slice is resolved and read under
the table latch, then shipped chunk by chunk, so a corner of a huge
blob never trips the frame-size limit.  A query that outlives its
timeout gets an immediate ``QUERY_TIMEOUT`` error; the worker thread
finishes in the background and its admission slot is returned only
when it actually ends, so timeouts cannot be used to stampede past the
concurrency bound.

Embedders (tests, benchmarks, the CLI client's self-serve mode) can use
:class:`ServerThread` to run a server on a background event loop::

    with ServerThread(db) as handle:
        client = ArrayClient("127.0.0.1", handle.port)
        ...
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from ..core.errors import BoundsError, ShapeError
from ..core.header import HeaderError
from ..core.partial import BytesBlobStream, read_window_blob
from ..engine.executor import Database
from ..engine.sqlfront import SqlSession, SqlSyntaxError, _statement_kind
from ..engine.table import MaxBlobHandle, Table
from . import protocol
from .admission import AdmissionController
from .stats import ServerStats

__all__ = ["ServerConfig", "ArrayServer", "ServerThread"]

#: Most ``pexec`` frames drained into one pipelined batch — bounds how
#: long a batch can hold its single admission slot.
PIPELINE_BATCH_MAX = 32


@dataclass
class ServerConfig:
    """Deployment knobs for one server process.

    Attributes:
        host / port: Listen address (port 0 picks a free port; the
            bound port is on :attr:`ArrayServer.port` after start).
        max_workers: Queries executing concurrently (thread pool size).
        queue_limit: Admitted queries allowed to wait for a worker;
            beyond ``max_workers + queue_limit`` clients get
            ``SERVER_BUSY``.
        query_timeout: Default per-query wall-clock budget in seconds,
            applied whenever a query frame omits ``timeout`` (or sends
            ``null``).  A frame may override it with its own positive
            budget or disable it with the ``"none"`` sentinel;
            ``None`` here means no default budget.
        max_frame: Largest accepted/emitted frame in bytes.
        name: Server name reported in the hello frame.
        engine_workers: Default process count for queries served by the
            ``parallel`` engine (a query frame's ``workers`` overrides
            it); ``None`` means the executor's own default.  Distinct
            from ``max_workers``, which sizes the *thread* pool that
            admits queries.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_workers: int = 4
    queue_limit: int = 8
    query_timeout: float | None = 30.0
    max_frame: int = protocol.MAX_FRAME_BYTES
    name: str = "repro-array-server"
    engine_workers: int | None = None


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
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers,
            thread_name_prefix="repro-query")
        self._server: asyncio.AbstractServer | None = None
        self._next_session_id = 0
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and start accepting connections (returns immediately)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting, drop live connections, shut the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        self._executor.shutdown(wait=False, cancel_futures=True)

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._next_session_id += 1
        session_id = self._next_session_id
        self._writers.add(writer)
        session = SqlSession(self.db)
        if self.session_setup is not None:
            self.session_setup(session)
        self.stats.session_opened(session_id)
        try:
            await protocol.write_frame(writer, {
                "type": "hello", "server": self.config.name,
                "protocol": protocol.PROTOCOL_VERSION,
                "session_id": session_id})
            while True:
                try:
                    frame = await protocol.read_frame(
                        reader, self.config.max_frame)
                except protocol.ProtocolError as exc:
                    # One best-effort diagnostic, then hang up: framing
                    # is broken, so the stream cannot be resynced.
                    try:
                        await protocol.write_frame(writer, _error(
                            protocol.BAD_FRAME, str(exc)))
                    except (ConnectionError, RuntimeError):
                        pass
                    break
                if frame is None:
                    break
                header, blobs = frame
                if header.get("type") == "pexec":
                    try:
                        batch, carry = await self._drain_pexec(reader)
                    except protocol.ProtocolError as exc:
                        try:
                            await protocol.write_frame(writer, _error(
                                protocol.BAD_FRAME, str(exc)))
                        except (ConnectionError, RuntimeError):
                            pass
                        break
                    await self._run_pexec_batch(
                        writer, session, session_id, [header] + batch)
                    if carry is None:
                        continue
                    header, blobs = carry
                done = await self._dispatch(writer, session, session_id,
                                            header, blobs)
                if done:
                    break
        except ConnectionError:
            pass  # client went away mid-write; nothing to answer
        # CancelledError propagates: suppressing it would break task
        # cancellation during event-loop shutdown (cleanup still runs).
        finally:
            self.stats.session_closed(session_id)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _drain_pexec(self, reader: asyncio.StreamReader
                           ) -> tuple[list[dict], tuple | None]:
        """Collect the contiguous run of pipelined ``pexec`` frames the
        client already has in flight.

        Only frames *fully buffered* in the stream reader are taken —
        the length prefix of the next frame is peeked and an incomplete
        frame is left for the normal read loop, so draining never
        blocks on the network and a lone ``pexec`` behaves exactly like
        strict request/response.  Returns ``(headers, carry)`` where
        ``carry`` is a buffered non-``pexec`` frame that must be
        dispatched after the batch is answered (or None).
        """
        batch: list[dict] = []
        carry = None
        while len(batch) + 1 < PIPELINE_BATCH_MAX:
            buffered = getattr(reader, "_buffer", None)
            if buffered is None or len(buffered) < 4:
                break
            (total,) = protocol._U32.unpack(bytes(buffered[:4]))
            if len(buffered) - 4 < total:
                break
            frame = await protocol.read_frame(reader,
                                              self.config.max_frame)
            if frame is None:
                break
            if frame[0].get("type") != "pexec":
                carry = frame
                break
            batch.append(frame[0])
        return batch, carry

    async def _dispatch(self, writer, session: SqlSession,
                        session_id: int, header: dict, blobs) -> bool:
        """Answer one request frame; True means close the connection."""
        kind = header.get("type")
        if kind == "ping":
            await protocol.write_frame(writer, {"type": "pong"})
            return False
        if kind == "close":
            await protocol.write_frame(writer, {"type": "goodbye"})
            return True
        if kind == "stats":
            await protocol.write_frame(writer, self._stats_frame())
            return False
        if kind in ("query", "pquery", "insert"):
            if kind == "insert":
                reply, reply_blobs = await self._run_insert(
                    session, session_id, header, blobs)
            else:
                reply, reply_blobs = await self._run_query(
                    session, session_id, header,
                    partial=(kind == "pquery"))
            try:
                await protocol.write_frame(writer, reply, reply_blobs,
                                           self.config.max_frame)
            except protocol.FrameTooLargeError as exc:
                # The query ran, but its reply cannot ship: the client
                # would reject the oversized frame and kill the
                # connection with no diagnosis.  Nothing has hit the
                # wire yet, so answer with an error frame instead and
                # keep the connection alive.
                await protocol.write_frame(writer, _error(
                    protocol.RESULT_TOO_LARGE,
                    f"{exc}; narrow the select list or raise "
                    f"max_frame"))
            return False
        if kind == "prepare":
            await self._run_prepare(writer, session, header)
            return False
        if kind == "pexec":
            # The connection loop batches contiguous pexec runs before
            # dispatching; one arriving here (e.g. as a carried frame)
            # is simply a batch of one.
            await self._run_pexec_batch(writer, session, session_id,
                                        [header])
            return False
        if kind == "bquery":
            return await self._run_bquery(writer, session, session_id,
                                          header)
        await protocol.write_frame(writer, _error(
            protocol.BAD_FRAME, f"unknown message type {kind!r}"))
        return False

    # -- the query path -----------------------------------------------------

    def _resolve_timeout(self, requested) -> float | None:
        """Map a query frame's ``timeout`` value to a budget in seconds.

        Absent/``null`` means the server default — a client parameter
        that merely defaults to ``None`` must never disable the budget.
        The :data:`protocol.NO_TIMEOUT` sentinel disables it on
        purpose; a positive finite number is used as-is.  Anything
        else raises ``ValueError`` (answered as ``BAD_FRAME``).
        """
        if requested is None:
            return self.config.query_timeout
        if requested == protocol.NO_TIMEOUT:
            return None
        if isinstance(requested, bool) or \
                not isinstance(requested, (int, float)):
            raise ValueError(
                f"'timeout' must be a positive number or "
                f"{protocol.NO_TIMEOUT!r}, got {requested!r}")
        timeout = float(requested)
        if not math.isfinite(timeout) or timeout <= 0:
            raise ValueError(
                f"'timeout' must be positive and finite, got "
                f"{timeout!r}")
        return timeout

    @staticmethod
    def _resolve_engine(requested) -> str | None:
        """Map a query frame's ``engine`` value to an executor engine.

        Absent/``null`` means the executor's default (the vector
        path); ``"row"`` / ``"vector"`` / ``"parallel"`` select a path
        explicitly.  Anything else raises ``ValueError`` (answered as
        ``BAD_FRAME``).
        """
        if requested is None:
            return None
        if requested not in ("row", "vector", "parallel"):
            raise ValueError(
                f"'engine' must be 'row', 'vector' or 'parallel', "
                f"got {requested!r}")
        return requested

    def _resolve_workers(self, requested) -> int | None:
        """Map a query frame's ``workers`` value to a process count.

        Absent/``null`` means the server's configured default
        (``engine_workers``, itself defaulting to the executor's
        choice).  Only meaningful with ``engine="parallel"``; the
        serial engines ignore it.
        """
        if requested is None:
            return self.config.engine_workers
        if isinstance(requested, bool) or not isinstance(requested, int):
            raise ValueError(
                f"'workers' must be a positive integer, "
                f"got {requested!r}")
        if requested < 1:
            raise ValueError(
                f"'workers' must be at least 1, got {requested!r}")
        return requested

    async def _admit_and_run(self, session_id: int,
                             timeout: float | None, job):
        """Admit one statement and run it on the worker pool — the
        shared body of the ``query``, ``pquery`` and ``insert`` paths.

        Returns ``((result, latency), None)`` on success or
        ``(None, error_header)`` for rejection, timeout or failure.
        """
        if not self.admission.try_acquire():
            self.stats.record_busy()
            return None, _error(
                protocol.SERVER_BUSY,
                f"admission queue full "
                f"({self.admission.capacity} in flight); retry later")

        loop = asyncio.get_running_loop()
        future = self._executor.submit(job)
        # The slot is held until the worker truly finishes — releasing
        # on timeout would let abandoned queries pile up unbounded.
        future.add_done_callback(lambda _f: self.admission.release())
        wrapped = asyncio.wrap_future(future, loop=loop)
        started = loop.time()
        try:
            result = await asyncio.wait_for(asyncio.shield(wrapped),
                                            timeout)
        except asyncio.TimeoutError:
            future.cancel()  # frees it if it was still queued
            # The abandoned future's eventual result/exception is
            # nobody's business now; consume it silently.
            wrapped.add_done_callback(
                lambda f: f.cancelled() or f.exception())
            self.stats.record_timeout(session_id)
            return None, _error(
                protocol.QUERY_TIMEOUT,
                f"query exceeded its {timeout:g} s budget")
        except SqlSyntaxError as exc:
            self.stats.record_failure(session_id)
            return None, _error(protocol.SQL_ERROR, str(exc))
        except protocol.WireError as exc:
            # A typed failure from behind the server (the shard
            # coordinator's SHARD_UNAVAILABLE, a shard's own error
            # passing through): keep its code on the wire.
            self.stats.record_failure(session_id)
            return None, _error(exc.code, exc.message, exc.detail)
        except CancelledError:
            self.stats.record_failure(session_id)
            return None, _error(protocol.INTERNAL, "query cancelled")
        except Exception as exc:  # engine bug surfaced to one client
            self.stats.record_failure(session_id)
            return None, _error(protocol.INTERNAL,
                                f"{type(exc).__name__}: {exc}")
        return (result, loop.time() - started), None

    async def _run_query(self, session: SqlSession, session_id: int,
                         header: dict, partial: bool = False
                         ) -> tuple[dict, list[bytes]]:
        sql = header.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            return _error(protocol.SQL_ERROR,
                          "query frame needs a non-empty 'sql'"), []
        cold = bool(header.get("cold", True))
        try:
            timeout = self._resolve_timeout(header.get("timeout"))
            engine = self._resolve_engine(header.get("engine"))
            workers = self._resolve_workers(header.get("workers"))
        except ValueError as exc:
            return _error(protocol.BAD_FRAME, str(exc)), []

        if partial:
            job = lambda: self._execute_partial_sync(  # noqa: E731
                session, sql, cold, engine, workers)
        else:
            job = lambda: self._execute_sync(  # noqa: E731
                session, sql, cold, engine, workers)
        outcome, error = await self._admit_and_run(session_id, timeout,
                                                   job)
        if error is not None:
            return error, []
        result, latency = outcome
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

    async def _run_insert(self, session: SqlSession, session_id: int,
                          header: dict, blobs) -> tuple[dict, list[bytes]]:
        table_name = header.get("table")
        if not isinstance(table_name, str) or not table_name:
            return _error(protocol.BAD_FRAME,
                          "insert frame needs a 'table' name"), []
        rowcount = header.get("rowcount")
        if not isinstance(rowcount, int):
            return _error(protocol.BAD_FRAME,
                          "insert frame needs an integer 'rowcount'"), []
        try:
            rows = protocol.unpack_rows(header.get("rows"), blobs,
                                        rowcount)
            timeout = self._resolve_timeout(header.get("timeout"))
        except (protocol.ProtocolError, ValueError) as exc:
            return _error(protocol.BAD_FRAME, str(exc)), []
        outcome, error = await self._admit_and_run(
            session_id, timeout,
            lambda: self._execute_insert_sync(session, table_name,
                                              rows))
        if error is not None:
            return error, []
        inserted, latency = outcome
        self.stats.record_query(session_id, latency, None)
        return _result_frame({"kind": "ok", "rows": [],
                              "rowcount": inserted, "metrics": None},
                             latency)

    # -- prepared statements and pipelining ----------------------------------

    async def _run_prepare(self, writer, session: SqlSession,
                           header: dict) -> None:
        """Answer one ``prepare`` frame with a ``prepared`` reply.

        Planning is pure catalog work (no latch, no IO), so it runs
        inline on the event loop instead of burning an admission slot.
        """
        sql = header.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            await protocol.write_frame(writer, _error(
                protocol.SQL_ERROR,
                "prepare frame needs a non-empty 'sql'"))
            return
        try:
            kind, table = self._prepare_sync(session, sql)
        except SqlSyntaxError as exc:
            await protocol.write_frame(writer, _error(
                protocol.SQL_ERROR, str(exc)))
            return
        except protocol.WireError as exc:
            await protocol.write_frame(writer, _error(exc.code,
                                                      exc.message,
                                                      exc.detail))
            return
        except Exception as exc:
            await protocol.write_frame(writer, _error(
                protocol.INTERNAL, f"{type(exc).__name__}: {exc}"))
            return
        self.stats.record_prepare()
        await protocol.write_frame(writer, {
            "type": "prepared", "sql": sql, "kind": kind,
            "table": table})

    def _prepare_sync(self, session: SqlSession,
                      sql: str) -> tuple[str, str]:
        """Plan (and cache) one SELECT; returns ``(kind, table)``."""
        plan = session.prepare(sql)
        return plan.kind, plan.table.name

    async def _run_pexec_batch(self, writer, session: SqlSession,
                               session_id: int,
                               headers: list[dict]) -> None:
        """Answer one pipelined batch of ``pexec`` frames.

        The whole batch takes one admission slot and one worker-pool
        hop; statements run sequentially on the worker thread and every
        request gets exactly one reply, in request order.  A statement
        that fails answers with an error frame in its slot without
        aborting the rest; a batch-level failure (busy, timeout)
        answers every slot with a copy of the same error.
        """
        requests: list[dict | tuple] = []
        timeout = self.config.query_timeout
        timeout_set = False
        for header in headers:
            sql = header.get("sql")
            if not isinstance(sql, str) or not sql.strip():
                requests.append(_error(
                    protocol.SQL_ERROR,
                    "pexec frame needs a non-empty 'sql'"))
                continue
            try:
                resolved = self._resolve_timeout(header.get("timeout"))
                engine = self._resolve_engine(header.get("engine"))
                workers = self._resolve_workers(header.get("workers"))
            except ValueError as exc:
                requests.append(_error(protocol.BAD_FRAME, str(exc)))
                continue
            if not timeout_set:
                # One admission slot means one wall-clock budget: the
                # first valid frame's timeout bounds the whole batch.
                timeout = resolved
                timeout_set = True
            requests.append((sql, bool(header.get("cold", True)),
                             engine, workers))

        def job():
            replies = []
            for request in requests:
                if isinstance(request, dict):  # pre-validated error
                    replies.append((request, None))
                    continue
                sql, cold, engine, workers = request
                started = time.perf_counter()
                try:
                    result = self._execute_prepared_sync(
                        session, sql, cold, engine, workers)
                except SqlSyntaxError as exc:
                    replies.append((_error(protocol.SQL_ERROR,
                                           str(exc)), None))
                    continue
                except protocol.WireError as exc:
                    replies.append((_error(exc.code, exc.message,
                                           exc.detail),
                                    None))
                    continue
                except Exception as exc:
                    replies.append((_error(
                        protocol.INTERNAL,
                        f"{type(exc).__name__}: {exc}"), None))
                    continue
                replies.append((result,
                                time.perf_counter() - started))
            return replies

        outcome, error = await self._admit_and_run(session_id, timeout,
                                                   job)
        if error is not None:
            # Busy/timeout hit the batch as a whole — but the client
            # pipelined N requests and will read N replies.
            for _ in headers:
                await protocol.write_frame(writer, error)
            return
        replies, _batch_latency = outcome
        self.stats.record_pipeline(len(headers))
        # All N replies go out as one buffered write + drain — the
        # reply-side half of pipelining.  Per-frame drains would put a
        # syscall back on every statement and eat the batching win.
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
                encoded = protocol.encode_frame(_error(
                    protocol.RESULT_TOO_LARGE,
                    f"result frame of {len(encoded)} bytes exceeds "
                    f"max_frame {self.config.max_frame}; narrow the "
                    f"select list or raise max_frame"))
            buffer += encoded
        writer.write(bytes(buffer))
        await writer.drain()

    def _execute_prepared_sync(self, session: SqlSession, sql: str,
                               cold: bool, engine: str | None = None,
                               workers: int | None = None) -> dict:
        """Worker-thread body of the ``pexec`` path: a SELECT executes
        through the session's prepared-plan cache (parsed and planned
        once per statement text); anything else falls back to
        :meth:`_execute_sync`."""
        if _statement_kind(sql) == "SELECT":
            rows, metrics = session.query_prepared(
                sql, cold=cold, finalize=self._materialize_result,
                engine=engine, workers=workers)
            return {"kind": "rows", "rows": rows,
                    "rowcount": len(rows),
                    "metrics": metrics.to_dict()}
        return self._execute_sync(session, sql, cold, engine, workers)

    # -- streamed partial-blob reads -----------------------------------------

    async def _run_bquery(self, writer, session: SqlSession,
                          session_id: int, header: dict) -> bool:
        """Answer one ``bquery``: resolve the blob cell and read the
        requested slice under the table latch on a worker thread, then
        stream it as bounded ``bchunk`` frames once the latch is
        released.  Returns the dispatch loop's ``done`` flag (the base
        server never closes the connection here)."""
        sql = header.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            await protocol.write_frame(writer, _error(
                protocol.SQL_ERROR,
                "bquery frame needs a non-empty 'sql'"))
            return False
        cold = bool(header.get("cold", True))
        try:
            timeout = self._resolve_timeout(header.get("timeout"))
            engine = self._resolve_engine(header.get("engine"))
            workers = self._resolve_workers(header.get("workers"))
            offset, length, window = _resolve_blob_range(header)
            chunk_bytes = self._resolve_chunk_bytes(
                header.get("chunk_bytes"))
        except ValueError as exc:
            await protocol.write_frame(writer, _error(
                protocol.BAD_FRAME, str(exc)))
            return False
        outcome, error = await self._admit_and_run(
            session_id, timeout,
            lambda: self._execute_bquery_sync(
                session, sql, cold, engine, workers, offset, length,
                window))
        if error is not None:
            await protocol.write_frame(writer, error)
            return False
        result, latency = outcome
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
            await protocol.write_frame(writer, frame, [chunk],
                                       self.config.max_frame)
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
            raise ValueError(
                f"'chunk_bytes' must be a positive integer, "
                f"got {requested!r}")
        return min(requested, cap)

    def _execute_bquery_sync(self, session: SqlSession, sql: str,
                             cold: bool, engine: str | None,
                             workers: int | None, offset: int,
                             length: int | None,
                             window: tuple | None) -> dict:
        """Worker-thread body of the ``bquery`` path.

        The statement runs like any SELECT, but the finalize hook —
        executing while the table latch is still held, so a concurrent
        DELETE cannot free the blob pages mid-read — resolves the
        single blob cell to a *stream* and reads only the requested
        byte range (or re-encodes the requested array window), never
        the whole blob.
        """
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
                    "offset": served_offset,
                    "metrics": metrics.to_dict()}

        return session.query(sql, cold=cold, finalize=finalize,
                             engine=engine, workers=workers)

    def _execute_sync(self, session: SqlSession, sql: str,
                      cold: bool, engine: str | None = None,
                      workers: int | None = None) -> dict:
        """Worker-thread body: execute and normalize the result."""
        result = session.execute(sql, cold=cold,
                                 finalize=self._materialize_result,
                                 engine=engine, workers=workers)
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
                              cold: bool, engine: str | None = None,
                              workers: int | None = None) -> dict:
        """Worker-thread body of the ``pquery`` path: run the SELECT
        with its aggregates' mergeable partial states left unreduced
        (the shard half of distributed aggregation)."""
        payload = session.query_partial(
            sql, cold=cold, engine=engine, workers=workers,
            finalize=self._materialize_partials)
        return {"kind": "partial", "rows": payload["rows"],
                "states": payload["states"],
                "groups": payload["groups"],
                "metrics": payload["metrics"].to_dict()}

    def _materialize_partials(self, payload: dict) -> dict:
        """``query_partial`` finalize hook: resolve blob handles inside
        MIN/MAX value-list partials while the table latch is held (same
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
        """Worker-thread body of the binary bulk-load path: append the
        batch through the session's one insert path, exactly like a
        SQL INSERT minus the parse."""
        return session.insert_rows(session._resolve_table(table_name),
                                   rows)

    def _materialize_result(self, result):
        """SELECT finalize hook: normalize to a row list and resolve
        blob handles to bytes.

        Runs inside :meth:`SqlSession.query`'s read lock on purpose —
        a :class:`MaxBlobHandle` cell points at live blob pages, and
        reading them after the lock drops would race a concurrent
        DELETE/INSERT mutating or freeing those pages mid-read.
        Out-of-page handles cannot cross the wire anyway, so ship the
        bytes (charged to the shared pool).
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
        from ..engine import parallel
        pool = self.db.pool.snapshot_counters()
        return {
            "type": "stats",
            "server": self.config.name,
            "admission": self.admission.snapshot(),
            # Live processes across the parallel engine's worker
            # pools (0 until the first parallel query spawns one).
            "parallel_workers": parallel.active_workers(),
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


def _error(code: str, message: str, detail: object = None) -> dict:
    frame = {"type": "error", "code": code, "message": message}
    if detail is not None:
        frame["detail"] = detail
    return frame


def _resolve_blob_range(header: dict
                        ) -> tuple[int, int | None, tuple | None]:
    """Validate a ``bquery`` frame's slice keys.

    Returns ``(offset, length, window)`` — byte mode leaves ``window``
    None; window mode returns ``(offset_tuple, size_tuple)`` in
    ``window`` with the byte keys forced to their defaults.  Raises
    ``ValueError`` (answered as ``BAD_FRAME``) for malformed or mixed
    requests.
    """
    offset = header.get("offset", 0)
    length = header.get("length")
    window = header.get("window")
    if isinstance(offset, bool) or not isinstance(offset, int) or \
            offset < 0:
        raise ValueError(
            f"'offset' must be a non-negative integer, got {offset!r}")
    if length is not None and (
            isinstance(length, bool) or not isinstance(length, int)
            or length < 0):
        raise ValueError(
            f"'length' must be a non-negative integer or null, "
            f"got {length!r}")
    if window is None:
        return offset, length, None
    if offset or length is not None:
        raise ValueError(
            "a bquery is either a byte range or a window, not both")
    if not isinstance(window, dict) or \
            set(window) != {"offset", "size"}:
        raise ValueError(
            "'window' must be an object with 'offset' and 'size' "
            "lists")
    win_offset = window["offset"]
    win_size = window["size"]
    for name, values in (("offset", win_offset), ("size", win_size)):
        if not isinstance(values, list) or not values or not all(
                isinstance(v, int) and not isinstance(v, bool)
                for v in values):
            raise ValueError(
                f"window '{name}' must be a non-empty list of "
                f"integers, got {values!r}")
    if len(win_offset) != len(win_size):
        raise ValueError(
            f"window offset/size rank mismatch: {len(win_offset)} vs "
            f"{len(win_size)}")
    return 0, None, (tuple(win_offset), tuple(win_size))


class ServerThread:
    """Runs an :class:`ArrayServer` on a daemon thread's event loop.

    The embedding pattern used by the tests, the throughput benchmark
    and ``repro client --serve-rows``: start, read :attr:`port`,
    connect ordinary blocking clients, stop.  Also usable as a context
    manager.
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
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-server")

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        error = self._take_error()
        if error is not None:
            raise error
        if self.port is None:
            raise RuntimeError("server failed to start within 30 s")
        return self

    def stop(self) -> None:
        """Stop the server and join its thread.

        Re-raises any error the serving loop died with — including a
        crash *after* startup succeeded, which otherwise would vanish
        silently (the thread is a daemon; nothing else ever reads it).
        """
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already dead — the error surfaces below
        self._thread.join(timeout=30)
        error = self._take_error()
        if error is not None:
            raise error

    def _take_error(self) -> BaseException | None:
        """Consume the pending loop error, if any (raise-once)."""
        error, self._startup_error = self._startup_error, None
        return error

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:
            # Startup failures are re-raised from start(); a crash
            # after _ready.set() is held for stop()/__exit__ to
            # surface.
            self._startup_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self.port = self.server.port
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await self.server.stop()
