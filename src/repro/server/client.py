"""Client library for the array-database server.

Mirrors the paper's Section 5.2 .NET client surface: the application
talks SQL, gets back typed rows whose array cells are raw ``VARBINARY``
blobs, and converts those blobs to native arrays client-side (the
paper's ``SqlArray.ToArray()`` round trip is :meth:`query_array` here,
going through :class:`repro.core.SqlArray`).

One client, :class:`ArrayClient`: a blocking socket whose replies one
:class:`~repro.server.protocol.FrameBuffer` cuts.  A call whose IO breaks
off part-way (a timeout, a reset, a truncated frame) closes the client,
since the rest of that reply would otherwise answer the next statement.

Example::

    with ArrayClient("127.0.0.1", 7433) as client:
        result = client.query(
            "SELECT SUM(FloatArray.Item_1(v, 0)) FROM Tvector "
            "WITH (NOLOCK)")
        total = result.scalar()
        print(result.metrics["sim_exec_seconds"])
"""

from __future__ import annotations

import socket
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

from . import protocol
from .columnar import Buffer

if TYPE_CHECKING:
    import numpy as np

    from ..engine.metrics import QueryMetrics

__all__ = [
    "NO_TIMEOUT",
    "ServerError",
    "ServerBusyError",
    "QueryTimeoutError",
    "ResultTooLargeError",
    "ShardUnavailableError",
    "RetryPolicy",
    "QueryResult",
    "BlobSlice",
    "ArrayClient",
]

#: Pass as a query's ``timeout`` to explicitly disable the per-query
#: budget (``timeout=None`` means "use the server's default").
NO_TIMEOUT = protocol.NO_TIMEOUT


#: A received frame: its header and the ``memoryview`` blobs of its tail.
Frame = tuple[dict[str, Any], list[memoryview]]


def _query_header(sql: str, cold: bool, timeout: float | str | None
                  ) -> dict[str, object]:
    """Build a query frame header.

    ``timeout=None`` (the parameter default) omits the key so the
    server applies its configured default; a number or
    :data:`NO_TIMEOUT` is sent through for the server to validate.
    """
    header: dict[str, object] = {"type": "query", "sql": sql,
                                 "cold": cold}
    if timeout is not None:
        header["timeout"] = timeout
    return header


class ServerError(Exception):
    """An error frame from the server (or a broken conversation).

    ``detail`` mirrors the frame's optional ``detail`` key — structured
    context such as a shard coordinator's partial-progress report for
    a cross-shard write that died halfway (``partial_rowcount``,
    ``applied_shards``, ``failed_shards``); ``None`` when the frame
    carried none.
    """

    def __init__(self, code: str, message: str,
                 detail: object = None) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.detail = detail


class ServerBusyError(ServerError):
    """Admission control rejected the query; back off and retry."""


class QueryTimeoutError(ServerError):
    """The query outlived its per-query budget and was abandoned."""


class ResultTooLargeError(ServerError):
    """The query ran but its result frame would exceed the server's
    ``max_frame``; narrow the select list or raise the limit."""


class ShardUnavailableError(ServerError):
    """A shard coordinator needed a shard that is dead or stayed
    saturated through the coordinator's bounded retry.  The connection
    survives; retry once the shard recovers."""


_ERROR_TYPES = {
    protocol.SERVER_BUSY: ServerBusyError,
    protocol.QUERY_TIMEOUT: QueryTimeoutError,
    protocol.RESULT_TOO_LARGE: ResultTooLargeError,
    protocol.SHARD_UNAVAILABLE: ShardUnavailableError,
}


@dataclass(frozen=True)
class RetryPolicy:
    """Opt-in bounded exponential backoff for ``SERVER_BUSY``.

    Off by default everywhere: a client constructed without a policy
    raises :class:`ServerBusyError` on the first rejection, exactly as
    before.  With a policy, a busy reply is retried up to
    ``max_retries`` more times, sleeping ``backoff_base * 2**attempt``
    seconds (capped at ``backoff_cap``) before each retry.

    Only ``SERVER_BUSY`` is ever retried: it is the one reply that
    guarantees the statement did *not* run.  A ``QUERY_TIMEOUT`` means
    the query consumed its whole server-side budget — retrying would
    double the damage — and the other codes are not transient.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_cap: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        return min(self.backoff_cap, self.backoff_base * (2 ** attempt))


def _check_hello(frame: Frame) -> dict[str, Any]:
    """:func:`protocol.check_hello` as the client's error type."""
    try:
        return protocol.check_hello(frame)
    except protocol.ProtocolError as exc:
        raise ServerError(protocol.INTERNAL, str(exc)) from exc


def _raise_for_error(header: dict[str, Any]) -> None:
    if header.get("type") == "error":
        code = header.get("code", protocol.INTERNAL)
        exc_type = _ERROR_TYPES.get(code, ServerError)
        raise exc_type(code, header.get("message", ""),
                       header.get("detail"))


class QueryResult:
    """One statement's outcome.

    Attributes:
        kind: ``"rows"`` for SELECT, ``"ok"`` for DDL/DML.
        columns: The result set as it crossed the wire — typed column
            arrays (:class:`~repro.server.columnar.Columns`); None
            when the result was built from a row list.
        rows: Result rows as a list of tuples of Python scalars (blob
            cells are ``bytes``), materialised from ``columns`` on
            first access.
        rowcount: Rows returned, or rows affected for DDL/DML.
        metrics: The server's :meth:`QueryMetrics.to_dict` payload
            (None for DDL/DML).
        elapsed_seconds: Server-side wall latency of the call.
    """

    def __init__(self, kind: str, rows: list[Any] | None = None,
                 rowcount: int = 0, metrics: dict[str, Any] | None = None,
                 elapsed_seconds: float = 0.0,
                 columns: protocol.Columns | None = None) -> None:
        self.kind = kind
        self.columns = columns
        self._rows = None if columns is not None else rows or []
        self.rowcount = rowcount
        self.metrics = metrics
        self.elapsed_seconds = elapsed_seconds

    @property
    def rows(self) -> list[Any]:
        if self._rows is None:
            self._rows = self.columns.rows() \
                if self.columns is not None else []
        return self._rows

    def __repr__(self) -> str:
        return (f"QueryResult(kind={self.kind!r}, "
                f"rowcount={self.rowcount}, "
                f"elapsed_seconds={self.elapsed_seconds!r})")

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError(
                f"result is not scalar ({self.rowcount} rows)")
        return self.rows[0][0]

    def metrics_obj(self) -> QueryMetrics:
        """The metrics as a :class:`~repro.engine.QueryMetrics`."""
        from ..engine.metrics import QueryMetrics

        if self.metrics is None:
            raise ValueError("statement carried no metrics")
        return QueryMetrics.from_dict(self.metrics)


@dataclass(frozen=True)
class BlobSlice:
    """One ``bquery``'s worth of partial-blob bytes.

    Attributes:
        data: The slice payload (byte mode: the raw bytes; window
            mode: a standalone array blob for ``SqlArray.from_blob``).
        blob_len: Length of the *whole* stored blob — the bytes that
            did NOT have to cross the wire are ``blob_len -
            len(data)``.
        offset: Byte offset the slice was served from (0 in window
            mode).
        chunks: ``bchunk`` frames the stream took.
        wire_bytes: Payload bytes received (== ``len(data)``; kept
            separate so callers can assert on wire traffic directly).
        metrics: Cold-run metrics from the final chunk.
        elapsed_seconds: Server-side latency of the statement.
    """

    data: bytes
    blob_len: int
    offset: int
    chunks: int
    wire_bytes: int
    metrics: dict[str, Any] | None
    elapsed_seconds: float


def _parse_result(header: dict[str, Any],
                  blobs: list[memoryview]) -> QueryResult:
    _raise_for_error(header)
    if header.get("type") != "result":
        raise ServerError(protocol.INTERNAL,
                          f"expected a result frame, got "
                          f"{header.get('type')!r}")
    kind = header.get("kind", "rows")
    rowcount = header.get("rowcount", 0)
    # An "ok" frame's rowcount is rows *affected*; it carries no
    # columns.
    columns = protocol.Columns.decode(
        header.get("rows", ""), blobs, rowcount) if kind == "rows" \
        else None
    return QueryResult(
        kind=kind, columns=columns, rowcount=rowcount,
        metrics=header.get("metrics"),
        elapsed_seconds=header.get("elapsed_seconds", 0.0))


def _windows(frames: list[bytes]) -> Iterator[list[bytes]]:
    """Group encoded ``pexec`` frames into windows of one server batch:
    at most ``PIPELINE_BATCH_MAX`` frames and ``PIPELINE_WINDOW_BYTES``
    (unless one frame alone is larger)."""
    window: list[bytes] = []
    size = 0
    for frame in frames:
        if window and (len(window) == protocol.PIPELINE_BATCH_MAX or
                       size + len(frame) > protocol.PIPELINE_WINDOW_BYTES):
            yield window
            window, size = [], 0
        window.append(frame)
        size += len(frame)
    if window:
        yield window


class ArrayClient:
    """Blocking client; connects (and reads the hello) on construction.

    All IO goes through ``self._sock.recv`` and ``self._sock.sendall``,
    looked up per call, so a wrapper swapped in sees every byte.

    Args:
        host / port: Server address.
        timeout: Socket timeout for connect and replies (seconds).
        max_frame: Largest accepted reply frame.
        retry: Optional :class:`RetryPolicy` enabling bounded backoff
            on ``SERVER_BUSY`` (default None: fail fast, as before).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7433,
                 timeout: float | None = 60.0,
                 max_frame: int = protocol.MAX_FRAME_BYTES,
                 retry: RetryPolicy | None = None) -> None:
        self._retry = retry
        self._sock = socket.create_connection((host, port),
                                              timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        #: Cuts the replies; None once the client is closed.
        self._frames: protocol.FrameBuffer | None = \
            protocol.FrameBuffer(max_frame)
        try:
            hello = _check_hello(self._recv())
        except BaseException:
            self._sock.close()
            raise
        self.server_name = hello.get("server", "")
        self.session_id = hello.get("session_id")

    # -- plumbing -----------------------------------------------------------

    def _abandon(self) -> None:
        """Close the socket and drop the buffer: the stream is unframed."""
        self._frames = None
        self._sock.close()

    def _open_frames(self) -> protocol.FrameBuffer:
        if self._frames is None:
            raise ServerError(
                protocol.INTERNAL, "an earlier call broke off, so the "
                "client closed the connection")
        return self._frames

    def _send(self, header: dict[str, object],
              blobs: Sequence[Buffer] = ()) -> None:
        """Ship one request frame; a send that fails part-way closes
        the client."""
        self._open_frames()
        try:
            protocol.write_frame_sock(self._sock, header, blobs)
        except OSError:
            self._abandon()
            raise

    def _recv(self) -> Frame:
        """The next reply frame.  A read that breaks off leaves the rest
        of its reply on the wire, so any failure here closes the client."""
        frames = self._open_frames()
        try:
            frame = frames.read(self._sock.recv)
            if frame is None:
                raise ServerError(protocol.INTERNAL,
                                  "server closed the connection")
        except BaseException:
            self._abandon()
            raise
        return frame

    def _request_raw(self, header: dict[str, object],
                     blobs: Sequence[Buffer] = ()) -> Frame:
        self._send(header, blobs)
        return self._recv()

    def _expect(self, header: dict[str, object],
                reply_type: str) -> dict[str, Any]:
        """The reply header to ``header``, which must be ``reply_type``."""
        reply, _ = self._request_raw(header)
        _raise_for_error(reply)
        if reply.get("type") != reply_type:
            raise ServerError(protocol.INTERNAL,
                              f"expected {reply_type}, got {reply!r}")
        return reply

    # -- public API ----------------------------------------------------------

    def query(self, sql: str, cold: bool = True,
              timeout: float | str | None = None) -> QueryResult:
        """Execute one statement; raises :class:`ServerBusyError`,
        :class:`QueryTimeoutError` or :class:`ServerError`.

        ``timeout=None`` uses the server's default budget; pass a
        positive number to override it or :data:`NO_TIMEOUT` to
        disable it for this query.

        With a :class:`RetryPolicy`, ``SERVER_BUSY`` rejections are
        retried with bounded exponential backoff; every other error
        (including ``QUERY_TIMEOUT``) raises immediately.
        """
        attempt = 0
        request = _query_header(sql, cold, timeout)
        while True:
            try:
                header, blobs = self._request_raw(request)
                return _parse_result(header, blobs)
            except ServerBusyError:
                if self._retry is None or \
                        attempt >= self._retry.max_retries:
                    raise
                time.sleep(self._retry.delay(attempt))
                attempt += 1

    execute = query

    def prepare(self, sql: str) -> dict[str, Any]:
        """Parse and plan a SELECT server-side (cached by statement
        text); returns the ``prepared`` reply's ``{"kind", "table"}``.
        Optional — :meth:`query_pipeline` auto-prepares on first use —
        but preparing up front moves the parse cost out of the first
        pipelined batch."""
        header = self._expect({"type": "prepare", "sql": sql}, "prepared")
        return {"kind": header.get("kind"),
                "table": header.get("table")}

    def query_pipeline(self, statements: Iterable[str], cold: bool = True,
                       timeout: float | str | None = None,
                       return_exceptions: bool = False) -> list[Any]:
        """Execute many statements pipelined: each window of ``pexec``
        frames (one server batch) is sent before its replies are read,
        so a round trip is paid per window, not per statement, and
        neither side blocks writing to a peer blocked writing.

        Replies come back in statement order.  A failed statement's
        slot holds its :class:`ServerError`; with the default
        ``return_exceptions=False`` the first error is raised *after*
        all replies are drained (the connection stays usable either
        way).
        """
        frames = [protocol.encode_frame(dict(
            _query_header(sql, cold, timeout),
            type="pexec")) for sql in statements]
        results: list[Any] = []
        first_error: ServerError | None = None
        for window in _windows(frames):
            self._open_frames()
            try:
                self._sock.sendall(b"".join(window))
            except OSError:
                self._abandon()
                raise
            for _ in window:
                header, blobs = self._recv()
                try:
                    results.append(_parse_result(header, blobs))
                except ServerError as exc:
                    results.append(exc)
                    if first_error is None:
                        first_error = exc
        if first_error is not None and not return_exceptions:
            raise first_error
        return results

    def query_blob(self, sql: str, offset: int = 0,
                   length: int | None = None, cold: bool = True,
                   timeout: float | str | None = None,
                   chunk_bytes: int | None = None) -> BlobSlice:
        """Read one byte range of a blob-valued scalar SELECT without
        shipping the rest of the blob.

        The server walks the blob B-tree's pointer chain to the pages
        the range covers and streams the slice back as bounded
        ``bchunk`` frames; :attr:`BlobSlice.wire_bytes` is exactly the
        slice, not the blob.  ``length=None`` reads to the end.
        """
        header: dict[str, object] = {"type": "bquery", "sql": sql,
                                     "cold": cold, "offset": int(offset)}
        if length is not None:
            header["length"] = int(length)
        if timeout is not None:
            header["timeout"] = timeout
        if chunk_bytes is not None:
            header["chunk_bytes"] = int(chunk_bytes)
        return self._read_bquery(header)

    def _read_bquery(self, header: dict[str, object]) -> BlobSlice:
        self._send(header)
        parts: list[Buffer] = []
        seq = 0
        while True:
            reply, blobs = self._recv()
            if seq == 0:
                _raise_for_error(reply)
            if reply.get("type") != "bchunk" or reply.get("seq") != seq:
                self._abandon()
                raise ServerError(
                    protocol.INTERNAL,
                    f"expected bchunk {seq}, got {reply!r}")
            parts.append(blobs[0] if blobs else b"")
            seq += 1
            if reply.get("eof"):
                data = b"".join(parts)
                return BlobSlice(
                    data=data,
                    blob_len=reply.get("blob_len", 0),
                    offset=reply.get("offset", 0),
                    chunks=seq,
                    wire_bytes=len(data),
                    metrics=reply.get("metrics"),
                    elapsed_seconds=reply.get("elapsed_seconds")
                    or 0.0)

    def query_array(self, sql: str, cold: bool = True,
                    timeout: float | str | None = None,
                    slice: tuple[Sequence[int], Sequence[int]] | None = None
                    ) -> np.ndarray:
        """Run a query whose scalar result is an array blob and decode
        it to a NumPy array (the paper's client-side ``ToArray()``).

        With ``slice=(offset, size)`` (one entry per dimension) only
        the requested window crosses the wire: the server reads the
        window's byte runs through the blob stream and re-encodes them
        as a standalone array blob — bit-identical to slicing the full
        array client-side.
        """
        from ..core import SqlArray

        if slice is not None:
            win_offset, win_size = slice
            header: dict[str, object] = {
                "type": "bquery", "sql": sql, "cold": cold,
                "window": {"offset": [int(o) for o in win_offset],
                           "size": [int(s) for s in win_size]}}
            if timeout is not None:
                header["timeout"] = timeout
            result = self._read_bquery(header)
            return SqlArray.from_blob(result.data).to_numpy()
        blob = self.query(sql, cold=cold, timeout=timeout).scalar()
        if not isinstance(blob, (bytes, bytearray)):
            raise ValueError(
                f"query returned {type(blob).__name__}, not a blob")
        return SqlArray.from_blob(blob).to_numpy()

    def stats(self) -> dict[str, Any]:
        """The server's stats snapshot (admission, latency, IO)."""
        return self._expect({"type": "stats"}, "stats")

    def ping(self) -> None:
        self._expect({"type": "ping"}, "pong")

    def close(self) -> None:
        """Say goodbye (best effort) and drop the socket; silent on a
        client already closed."""
        frames, self._frames = self._frames, None
        try:
            if frames is not None:
                protocol.write_frame_sock(self._sock, {"type": "close"})
                frames.read(self._sock.recv)
        except (OSError, protocol.ProtocolError):
            pass
        finally:
            self._sock.close()

    def __enter__(self) -> "ArrayClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
