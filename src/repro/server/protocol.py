"""The wire protocol: length-prefixed frames of JSON plus raw buffers.

The paper's clients talk to SQL Server over TDS; this reproduction's
serving layer speaks a much smaller protocol with the same split
personality — a structured header for query text and metrics, and a
*binary tail* for everything that is data: result rows, insert
batches and grouped partial states travel as typed column buffers,
array blobs as the bytes they are, so neither a gigabyte ``VARBINARY``
nor a million-row result ever round-trips through JSON.

Frame layout (all integers big-endian)::

    +-------------+--------------+---------------+-----------------+
    | total: u32  | hdr_len: u32 | header (JSON) | blob bytes ...  |
    +-------------+--------------+---------------+-----------------+

``total`` counts everything after itself.  The header is a UTF-8 JSON
object with at least a ``"type"`` key; if it carries buffers it lists
their lengths under ``"blobs"`` and the binary tail is their
concatenation in order.  :func:`decode_frame` hands the buffers out as
``memoryview`` slices of the received payload, never copies.

Row sets
--------

Rows cross the wire in **one** encoding, whoever sends them — the
``rows`` of a ``result``, the ``rows`` of an ``insert``, the ``groups``
of a ``presult``.  The header carries a short *type string*, one code
per column, and ``rowcount``; the tail carries the columns' buffers in
column order (:mod:`repro.server.columnar` is the codec and documents
it in full):

======  =========================  ====================================
code    column                     buffers, in order
======  =========================  ====================================
``q``   int64                      ``rowcount`` little-endian int64
``d``   float64                    ``rowcount`` little-endian doubles
``b``   variable-length bytes      int64 cell lengths; the cells' bytes
``*x``  a list of ``x`` per row    int64 list lengths; column ``x``
                                   over all items (``sum(lengths)``
                                   rows)
``j``   anything else, as JSON     the cells as one JSON list; ``jN``
                                   adds ``N`` blobs that
                                   ``{"$blob": i}`` markers in it cite
``?x``  ``x`` with NULLs           a bitmap (bit ``i % 8`` of byte
                                   ``i // 8`` set = row ``i`` NULL),
                                   then ``x``; a NULL row's value is
                                   a placeholder
======  =========================  ====================================

``"q?db"`` is three columns in five buffers.  The buffer count follows
from the type string and each buffer's length from ``rowcount`` or the
lengths before it; ``*`` nests at most four deep.  A frame that breaks
any of that is answered ``BAD_FRAME``.  ``j`` is the per-cell fallback for bools, strings,
ints beyond int64 and mixed columns — the only place a cell is still
its own JSON value.

Message types
-------------

Client to server:

``query``   ``{"type": "query", "sql": str, "cold": bool,
"timeout": float | "none"}``

A query's ``timeout`` key is optional: absent or ``null`` means "use
the server's configured default"; a positive finite number is the
budget in seconds; the string sentinel :data:`NO_TIMEOUT` (``"none"``)
explicitly disables the budget.  Anything else is rejected with a
``BAD_FRAME`` error reply (the connection survives).  Header keys a
frame type does not define are ignored.
``stats``   ``{"type": "stats"}``
``ping``    ``{"type": "ping"}``
``close``   ``{"type": "close"}``
``pquery``  ``{"type": "pquery", "sql": str, "cold": bool,
"timeout": float | "none"}``

A partial-state query: same key semantics and validation as ``query``,
but the statement must be an aggregate SELECT and the reply is a
``presult`` frame carrying the aggregates' *unreduced* partial
states instead of finished values.  This is the shard half of
distributed aggregation — a coordinator scatters one ``pquery`` per
shard, merges the partial states in shard order, and finishes the
aggregates itself (see ``docs/SHARDING.md``).  A shard coordinator
itself refuses ``pquery`` with ``BAD_FRAME``.

``insert``  ``{"type": "insert", "table": str, "rows": str,
"rowcount": int, "timeout": float | "none"}``

A binary bulk load: ``rows`` is the type string of a row set of
``rowcount`` rows (see *Row sets*; ``rowcount`` is required) whose
column buffers are the frame tail; the batch is appended to the named table in one
:meth:`Table.insert_many` batch under its exclusive latch.  Answered
with an ok ``result`` frame whose ``rowcount`` is the number of rows
inserted.  A coordinator partitions the batch by primary key and
forwards one ``insert`` frame per owning shard.

``prepare`` ``{"type": "prepare", "sql": str}``

Parse and plan an aggregate SELECT server-side, caching the plan in
the connection's session keyed by exact SQL text.  Answered with a
``prepared`` frame (or an ``error`` with ``SQL_ERROR``).  Preparing is
idempotent and optional — a ``pexec`` for unprepared text auto-prepares
on first execution.

``pexec``   ``{"type": "pexec", "sql": str, "cold": bool,
"timeout": float | "none"}``

Execute a statement through the session's prepared-plan cache: same
key semantics, validation and reply (``result``/``error``) as
``query``, but a SELECT skips per-request parsing and planning.
``pexec`` is the one request type that may be **pipelined**: a client
may send N ``pexec`` frames back-to-back before reading the N replies.
Replies always come back in request order, one per request; a failed
statement answers with an ``error`` frame in its slot without aborting
the later pipelined statements.  The server drains contiguous buffered
``pexec`` frames into one admission slot and one run permit (the
batch shares the first frame's timeout budget; on timeout every
statement in the batch answers ``QUERY_TIMEOUT``).  A client keeps at
most one batch in flight, so a long pipeline cannot stall both ways.

``bquery``  ``{"type": "bquery", "sql": str, "cold": bool,
"timeout": float | "none",
"offset": int, "length": int | null,
"window": {"offset": [int, ...], "size": [int, ...]} | null,
"chunk_bytes": int | null}``

A streamed *partial-blob* read: the statement must produce a single
blob-valued cell (``SELECT MAX(m) FROM t WHERE id = k``, say).  The
server resolves the cell to a blob *handle* under the table latch and
reads only the requested bytes — a byte range (``offset``/``length``;
``length`` null means "to the end") or a ``window`` (a
``Subarray``-shaped slice of a stored array, served by walking the
blob B-tree's pointer chain and re-encoded as a standalone array
blob).  The reply is a sequence of ``bchunk`` frames, each carrying at
most ``chunk_bytes`` of payload (server-clamped), so a corner of a
huge blob never trips ``RESULT_TOO_LARGE``.  Total payload on the
wire is the slice's bytes, not the blob's.

Server to client:

``hello``   ``{"type": "hello", "server": str, "protocol": 3}``

``protocol`` is :data:`PROTOCOL_VERSION`.  Clients (and a
coordinator's shard links) compare it with their own and refuse a
peer that speaks another revision, naming both, instead of failing
later inside a decode.

``result``  ``{"type": "result", "kind": "rows" | "ok",
"rows": str, "rowcount": int, "metrics": dict | None}``

``kind`` ``"rows"`` answers a SELECT: ``rows`` is the type string of
the result set, ``rowcount`` its length, the column buffers are the
tail.  ``kind`` ``"ok"`` answers DDL/DML: ``rows`` is ``""`` and
``rowcount`` the rows affected.
``error``   ``{"type": "error", "code": str, "message": str,
"detail": object | null}``

The optional ``detail`` key carries structured, machine-readable
context for the failure; absent and ``null`` mean "no detail".  A
shard coordinator uses it to report **partial progress** of a
cross-shard write that died halfway: a ``SHARD_UNAVAILABLE`` reply to
a broadcast DELETE or a bulk insert carries
``{"partial_rowcount": int, "applied_shards": [int, ...],
"failed_shards": [int, ...]}`` (and per-shard rowcounts under
``"applied"``), so the caller knows exactly which shards committed
before the failure instead of learning nothing.
``stats``   ``{"type": "stats", ...snapshot...}``
``pong``    ``{"type": "pong"}``
``goodbye`` ``{"type": "goodbye"}``
``prepared`` ``{"type": "prepared", "sql": str, "kind": str,
"table": str}``

The reply to a ``prepare``: echoes the statement text and reports the
cached plan's access-path ``kind`` (``"scan"``, ``"point"``,
``"index"`` or ``"grouped"``) and target ``table``.

``bchunk`` ``{"type": "bchunk", "seq": int, "eof": bool,
"blob_len": int, "offset": int, "length": int,
"metrics": dict | null, "elapsed_seconds": float | null}``

One chunk of a ``bquery`` reply, carrying exactly one tail blob (the
chunk's payload — possibly empty on the final frame of an empty
slice).  ``seq`` counts from 0; ``blob_len`` is the *whole* stored
blob's length; ``offset``/``length`` describe the byte range actually
served (window mode reports the re-encoded window blob:
``offset`` 0 and ``length`` equal to its size).  Frames arrive in
``seq`` order and the stream ends with the single frame whose ``eof``
is true, which also carries the cold-run ``metrics`` and
``elapsed_seconds`` (earlier frames ship ``null`` for both).  Errors
are only ever sent *instead of* the first chunk — once chunk 0 is on
the wire the stream always runs to ``eof``.
``presult`` ``{"type": "presult", "rows": int, "groups": str,
"rowcount": int, "metrics": dict, "elapsed_seconds": float}``

The reply to a ``pquery``: ``rows`` is the number of rows the shard
scanned, and ``groups`` the type string of a row set of ``rowcount``
groups in group order: the key column, then per aggregate ``q`` for a
count or ``*x`` for a value list — a *counts* buffer (non-NULL values
per group) and one flat *values* column, every group's values back to
back in scan order.  ``SELECT id, SUM(v1), AVG(v2) ... GROUP BY id`` is
``"q*d*d"``, five buffers however many groups; a scalar SELECT is one
group under the key ``0``.  The coordinator absorbs the shards'
arrays, in shard order, as a grouped scan absorbs a batch (see
``docs/SHARDING.md``).

Error codes are the :data:`SERVER_BUSY`, :data:`QUERY_TIMEOUT`,
:data:`SQL_ERROR`, :data:`BAD_FRAME`, :data:`RESULT_TOO_LARGE`,
:data:`SHARD_UNAVAILABLE` and :data:`INTERNAL` constants.
``SHARD_UNAVAILABLE`` is raised only by a shard coordinator: a
statement needed a shard that is dead or stayed saturated through the
coordinator's bounded retry.  The client connection survives, and the
statement can be retried once the shard recovers.

The frame-size limit is enforced on *both* sides of the wire:
:class:`FrameBuffer` rejects an oversized length prefix before reading
the body, and :func:`write_frame_sock` refuses to emit a frame larger
than ``max_frame`` (:class:`FrameTooLargeError`).  A server whose query result would
exceed the limit answers with a ``RESULT_TOO_LARGE`` error frame
instead — the statement ran, but its reply cannot ship; the connection
survives and the client can narrow the select list or raise the limit.
"""

from __future__ import annotations

import json
import numbers
import socket
import struct
from typing import Callable, Sequence

from .columnar import (
    Buffer,
    Columns,
    ProtocolError,
    _pack_value,
    _unpack_value,
    pack_cell,
    pack_rows,
    unpack_cell,
    unpack_rows,
)

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "DEFAULT_CHUNK_BYTES",
    "PIPELINE_BATCH_MAX",
    "NO_TIMEOUT",
    "SERVER_BUSY",
    "QUERY_TIMEOUT",
    "SQL_ERROR",
    "BAD_FRAME",
    "RESULT_TOO_LARGE",
    "SHARD_UNAVAILABLE",
    "INTERNAL",
    "ProtocolError",
    "FrameTooLargeError",
    "WireError",
    "Columns",
    "check_hello",
    "encode_frame",
    "decode_frame",
    "pack_rows",
    "unpack_rows",
    "pack_cell",
    "unpack_cell",
    "pack_partial",
    "unpack_partial",
    "FrameBuffer",
    "write_frame_sock",
]

#: Protocol revision carried in the server's hello frame.
PROTOCOL_VERSION = 4

#: Default per-frame ceiling (64 MiB) — a malformed or hostile length
#: prefix is rejected before any allocation happens.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default (and also maximum-honoured) payload bytes per ``bchunk``
#: frame.  A client may ask for less via the ``chunk_bytes`` request
#: key; asking for more is clamped, so a stream's frames always fit
#: well under ``MAX_FRAME_BYTES``.
DEFAULT_CHUNK_BYTES = 256 * 1024

#: Most ``pexec`` frames in one pipelined batch (server side: one
#: admission slot) and most frames or request bytes a client sends
#: before reading their replies.
PIPELINE_BATCH_MAX = 32
PIPELINE_WINDOW_BYTES = 64 * 1024

#: Wire sentinel for a query frame's ``timeout`` key that *explicitly*
#: disables the per-query budget.  A ``null`` (or absent) timeout means
#: "use the server default" instead — so a client whose parameter
#: simply defaults to ``None`` can never switch budgets off by
#: accident.
NO_TIMEOUT = "none"

# Error codes.
SERVER_BUSY = "SERVER_BUSY"
QUERY_TIMEOUT = "QUERY_TIMEOUT"
SQL_ERROR = "SQL_ERROR"
BAD_FRAME = "BAD_FRAME"
RESULT_TOO_LARGE = "RESULT_TOO_LARGE"
SHARD_UNAVAILABLE = "SHARD_UNAVAILABLE"
INTERNAL = "INTERNAL"

_U32 = struct.Struct("!I")


class FrameTooLargeError(ProtocolError):
    """Raised by :func:`write_frame_sock` for an outgoing frame over the
    ``max_frame`` limit — caught *before* any bytes hit the wire, so
    the stream stays framed and the connection survives."""


class WireError(Exception):
    """A typed failure to be answered as an ``error`` frame.

    Raised by layers that execute *behind* a server — the shard
    coordinator, mainly — to surface a specific error code
    (:data:`SHARD_UNAVAILABLE`, a shard's own ``SQL_ERROR``, ...) to
    the client instead of the generic :data:`INTERNAL` mapping for
    unexpected exceptions.
    """

    def __init__(self, code: str, message: str,
                 detail: object = None) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        #: Optional JSON-serializable context shipped in the error
        #: frame's ``detail`` key (partial-progress reports, mainly).
        self.detail = detail


# -- standalone partial codec (the benchmark's traced probes) ---------------

def pack_partial(partial: object, blobs: list[bytes]) -> object:
    """Encode one aggregate partial as standalone JSON plus blobs.

    No frame carries these (a ``presult`` ships columns); the codec
    stays for the benchmark's traced probes.  A count stays inline; a
    value list becomes a blob when homogeneous — ``{"$pf8": i}``
    little-endian float64, ``{"$pi8": i}`` int64, bit patterns intact
    — and ``{"$pvals": [...]}`` with per-value packing otherwise.
    """
    if isinstance(partial, bool):
        raise ProtocolError("a bool is not a partial aggregate state")
    if isinstance(partial, numbers.Integral):
        return int(partial)
    if not isinstance(partial, (list, tuple)):
        raise ProtocolError(
            f"cannot encode partial state of type "
            f"{type(partial).__name__}")
    values = list(partial)
    if values:
        if all(isinstance(v, float) and not isinstance(v, bool)
               for v in values):
            blobs.append(struct.pack(f"<{len(values)}d", *values))
            return {"$pf8": len(blobs) - 1}
        if all(isinstance(v, numbers.Integral)
               and not isinstance(v, bool) for v in values):
            try:
                blobs.append(
                    struct.pack(f"<{len(values)}q",
                                *(int(v) for v in values)))
                return {"$pi8": len(blobs) - 1}
            except struct.error:
                pass  # out of int64 range: fall back to JSON ints
    return {"$pvals": [_pack_value(v, blobs) for v in values]}


def _partial_blob(marker: object, blobs: Sequence[Buffer]) -> Buffer:
    if not isinstance(marker, int) or isinstance(marker, bool) or \
            not 0 <= marker < len(blobs):
        raise ProtocolError(
            f"partial blob reference {marker!r} out of range")
    data = blobs[marker]
    if len(data) % 8:
        raise ProtocolError(
            f"partial blob of {len(data)} bytes is not a multiple of 8")
    return data


def unpack_partial(value: object, blobs: Sequence[Buffer]) -> object:
    """Invert :func:`pack_partial` (kept, like it, for the benchmark's
    traced probes)."""
    if isinstance(value, bool):
        raise ProtocolError("a bool is not a partial aggregate state")
    if isinstance(value, int):
        return value
    if isinstance(value, dict):
        if set(value) == {"$pf8"}:
            data = _partial_blob(value["$pf8"], blobs)
            return list(struct.unpack(f"<{len(data) // 8}d", data))
        if set(value) == {"$pi8"}:
            data = _partial_blob(value["$pi8"], blobs)
            return list(struct.unpack(f"<{len(data) // 8}q", data))
        if set(value) == {"$pvals"}:
            items = value["$pvals"]
            if not isinstance(items, list):
                raise ProtocolError(
                    f"bad generic partial payload {items!r}")
            return [_unpack_value(v, blobs) for v in items]
    raise ProtocolError(f"bad partial state {value!r}")


# -- framing -----------------------------------------------------------------

def encode_frame(header: dict[str, object],
                 blobs: Sequence[Buffer] = ()) -> bytes:
    """Serialize one frame (header JSON + binary tail)."""
    if "type" not in header:
        raise ProtocolError("frame header needs a 'type' key")
    if blobs:
        header = dict(header, blobs=[len(b) for b in blobs])
    body = json.dumps(header, separators=(",", ":")).encode()
    tail = b"".join(blobs)
    total = 4 + len(body) + len(tail)
    return _U32.pack(total) + _U32.pack(len(body)) + body + tail


def decode_frame(payload: Buffer
                 ) -> tuple[dict[str, object], list[memoryview]]:
    """Parse one frame payload (everything after the ``total`` prefix)
    into ``(header, blobs)``.  The blobs are ``memoryview`` slices of
    the payload — no copy, so ``np.frombuffer`` over a column buffer
    reads the bytes the socket delivered."""
    view = memoryview(payload)
    if len(view) < 4:
        raise ProtocolError("frame shorter than its header-length field")
    (hdr_len,) = _U32.unpack_from(view)
    if 4 + hdr_len > len(view):
        raise ProtocolError(
            f"header length {hdr_len} exceeds frame of {len(view)} "
            "bytes")
    try:
        header = json.loads(str(view[4:4 + hdr_len], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON header: {exc}") from exc
    if not isinstance(header, dict) or "type" not in header:
        raise ProtocolError("header is not an object with a 'type' key")
    tail = view[4 + hdr_len:]
    lengths = header.get("blobs", [])
    if not isinstance(lengths, list) or \
            not all(isinstance(n, int) and n >= 0 for n in lengths):
        raise ProtocolError(f"bad blob length list {lengths!r}")
    if sum(lengths) != len(tail):
        raise ProtocolError(
            f"blob lengths {lengths} do not cover a {len(tail)}-byte "
            "tail")
    blobs: list[memoryview] = []
    pos = 0
    for n in lengths:
        blobs.append(tail[pos:pos + n])
        pos += n
    return header, blobs


def check_hello(frame: tuple[dict[str, object], object] | None
                ) -> dict[str, object]:
    """The header of a peer's greeting, or :class:`ProtocolError` if
    it did not greet or speaks another revision of this protocol —
    refused here, naming both versions, rather than failing later
    inside a decode."""
    if frame is None or frame[0].get("type") != "hello":
        raise ProtocolError(f"expected a hello frame, got {frame!r}")
    theirs = frame[0].get("protocol")
    if theirs != PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer speaks wire protocol {theirs!r}, this side speaks "
            f"{PROTOCOL_VERSION}")
    return frame[0]


def _check_total(total: int, max_frame: int) -> None:
    if total < 4:
        raise ProtocolError(f"frame of {total} bytes is too short")
    if total > max_frame:
        raise ProtocolError(
            f"frame of {total} bytes exceeds the {max_frame}-byte limit")


# -- receiving -----------------------------------------------------------------

#: Bytes asked of the peer per ``recv`` while a frame's prefix is
#: unknown — a pipelined run of small frames arrives in one call.
_RECV_BYTES = 64 * 1024


class FrameBuffer:
    """Cuts frames out of the bytes received from one peer (sans-IO):
    it holds what arrived past the last frame cut and never touches a
    socket.  A frame that arrived inside one ``recv`` is decoded in
    place, its blobs ``memoryview`` slices of the received bytes.  After
    a :class:`ProtocolError` the stream is unframed: drop the buffer
    with its connection."""

    def __init__(self, max_frame: int = MAX_FRAME_BYTES) -> None:
        self.max_frame = max_frame
        self._data = b""   # received bytes; the uncut ones start at _pos
        self._pos = 0
        self._missing = 4  # bytes the next frame (or prefix) still lacks

    def buffered(self) -> tuple[dict[str, object], list[memoryview]] | None:
        """The next frame if every byte of it has been received, else
        None — never reads."""
        data, pos = self._data, self._pos
        held = len(data) - pos
        if held < 4:
            self._missing = 4 - held
            return None
        (total,) = _U32.unpack_from(data, pos)
        _check_total(total, self.max_frame)
        end = pos + 4 + total
        if end > len(data):
            self._missing = end - len(data)
            return None
        if end == len(data):
            self._data, self._pos = b"", 0
        else:
            self._pos = end
        return decode_frame(memoryview(data)[pos + 4:end])

    def read(self, recv: Callable[[int], bytes]
             ) -> tuple[dict[str, object], list[memoryview]] | None:
        """The next frame, calling ``recv(n)`` until every byte of it
        has arrived; None on a clean EOF (between frames)."""
        while (frame := self.buffered()) is None:
            held = len(self._data) - self._pos
            parts: list[Buffer] = \
                [memoryview(self._data)[self._pos:]] if held else []
            got = 0
            while got < self._missing:
                chunk = recv(max(self._missing - got, _RECV_BYTES))
                if not chunk:
                    if held + got == 0:
                        return None
                    raise ProtocolError(
                        "connection closed mid-prefix" if held + got < 4
                        else "connection closed mid-frame")
                parts.append(chunk)
                got += len(chunk)
            self._data = chunk if len(parts) == 1 else b"".join(parts)
            self._pos = 0
        return frame


# -- blocking socket IO --------------------------------------------------------

def write_frame_sock(sock: socket.socket, header: dict[str, object],
                     blobs: Sequence[Buffer] = (),
                     max_frame: int = MAX_FRAME_BYTES) -> None:
    """Write one frame to a blocking socket.

    Raises :class:`FrameTooLargeError` — before writing anything — if
    the encoded frame exceeds ``max_frame``: the peer's reader would
    refuse it and kill the connection with no diagnosis, while failing
    here keeps the stream framed, so the sender can answer with a
    proper error frame instead.
    """
    frame = encode_frame(header, blobs)
    total = len(frame) - _U32.size
    if total > max_frame:
        raise FrameTooLargeError(
            f"outgoing frame of {total} bytes exceeds the "
            f"{max_frame}-byte limit")
    sock.sendall(frame)
