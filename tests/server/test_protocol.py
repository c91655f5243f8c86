"""Wire-protocol tests: round-trips for every message type, value
packing, and malformed-frame rejection."""

import asyncio
import socket
import struct
import threading

import pytest

from repro.server import ArrayClient, AsyncArrayClient, ServerError, protocol
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_frame,
    encode_frame,
    pack_rows,
    read_frame,
    read_frame_sock,
    unpack_rows,
    write_frame_sock,
)

# Every message type both sides of the conversation use.
MESSAGES = [
    {"type": "query", "sql": "SELECT COUNT(*) FROM T", "cold": True,
     "timeout": None},
    {"type": "query", "sql": "SELECT 1", "cold": False, "timeout": 2.5},
    {"type": "stats"},
    {"type": "ping"},
    {"type": "close"},
    {"type": "hello", "server": "repro-array-server",
     "protocol": protocol.PROTOCOL_VERSION, "session_id": 7},
    {"type": "result", "kind": "rows", "rows": "qdj",
     "rowcount": 1, "metrics": {"rows": 10, "udf_calls": 0}},
    {"type": "result", "kind": "ok", "rows": "", "rowcount": 3,
     "metrics": None},
    {"type": "error", "code": protocol.SERVER_BUSY,
     "message": "queue full"},
    {"type": "error", "code": protocol.QUERY_TIMEOUT, "message": "slow"},
    {"type": "pong"},
    {"type": "goodbye"},
    {"type": "stats", "queries_ok": 5, "latency_p95": 0.25,
     "io_totals": {"io_bytes": 8192}},
]


class TestFrameRoundTrip:
    @pytest.mark.parametrize("header", MESSAGES,
                             ids=lambda h: h["type"])
    def test_every_message_type(self, header):
        payload = encode_frame(header)
        total = struct.unpack("!I", payload[:4])[0]
        assert total == len(payload) - 4
        decoded, blobs = decode_frame(payload[4:])
        assert decoded == header
        assert blobs == []

    def test_frame_with_blobs(self):
        blobs_in = [b"\x00" * 100, b"hello", b""]
        payload = encode_frame({"type": "result", "rows": []}, blobs_in)
        header, blobs = decode_frame(payload[4:])
        assert blobs == blobs_in
        assert header["blobs"] == [100, 5, 0]

    def test_round_trip_through_socketpair(self):
        a, b = socket.socketpair()
        try:
            write_frame_sock(a, {"type": "ping"})
            write_frame_sock(a, {"type": "result", "rows": []},
                             [b"abc"])
            assert read_frame_sock(b) == ({"type": "ping"}, [])
            header, blobs = read_frame_sock(b)
            assert header["type"] == "result"
            assert blobs == [b"abc"]
            a.close()
            assert read_frame_sock(b) is None  # clean EOF
        finally:
            b.close()


class TestValuePacking:
    def test_mixed_row(self):
        rows = [(1, 2.5, None, True, "txt", b"\x01\x02"),
                (2, -1.0, b"zz", False, "s", b"")]
        types, buffers = pack_rows(rows)
        # int64, float64, nullable bytes, two JSON-fallback columns
        # (bools, strings), bytes: one code per column.
        assert types == "qd?bjjb"
        assert [bytes(b) for b in buffers] == [
            struct.pack("<2q", 1, 2), struct.pack("<2d", 2.5, -1.0),
            b"\x01", struct.pack("<2q", 0, 2), b"zz",
            b"[true,false]", b'["txt","s"]',
            struct.pack("<2q", 2, 0), b"\x01\x02"]
        assert unpack_rows(types, buffers) == rows
        assert unpack_rows(types, buffers, 2) == rows

    def test_numpy_scalars_coerced(self):
        np = pytest.importorskip("numpy")
        types, buffers = pack_rows([(np.int64(3), np.float64(1.5))])
        assert types == "qd"
        ((count, value),) = unpack_rows(types, buffers)
        assert (count, value) == (3, 1.5)
        assert type(count) is int
        assert type(value) is float

    def test_nested_lists(self):
        rows = [([1, 2, [3, b"x"]],)]
        types, buffers = pack_rows(rows)
        # A list column whose items are mixed: the items fall back to
        # JSON, the inner blob rides as that column's one side buffer.
        assert types == "*j1"
        assert unpack_rows(types, buffers) == [(([1, 2, [3, b"x"]]),)]

    def test_unencodable_value_rejected(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            pack_rows([(object(),)])

    def test_bad_blob_reference(self):
        with pytest.raises(ProtocolError, match="out of range"):
            unpack_rows("j1", [b'[{"$blob": 5}]', b"only-one"], 1)

    def test_unexpected_object_cell(self):
        with pytest.raises(ProtocolError, match="unexpected object"):
            unpack_rows("j", [b'[{"x": 1}]'], 1)

    def test_decoded_columns_are_views_of_the_frame(self):
        np = pytest.importorskip("numpy")
        types, buffers = pack_rows([(i, i * 0.5) for i in range(100)])
        payload = encode_frame({"type": "result", "rows": types,
                                "rowcount": 100}, buffers)[4:]
        header, blobs = decode_frame(payload)
        assert all(isinstance(b, memoryview) for b in blobs)
        columns = protocol.Columns.decode(header["rows"], blobs,
                                          header["rowcount"])
        ints = columns.columns[0].values
        assert ints.dtype == np.dtype("<i8") and not ints.flags.owndata
        assert np.shares_memory(ints, np.frombuffer(payload, np.uint8))
        assert columns.rows()[99] == (99, 49.5) and columns.rowcount == 100

    def test_grouped_partial_layout(self):
        groups = [(7, [[1.5, -2.0], 2, [b"a", b"bc"]]),
                  (9, [[], 0, []]),
                  (11, [[0.25], 1, [b""]])]
        columns = protocol.Columns.from_groups(groups)
        types, buffers = columns.encode()
        # key; counts + flat float values; counts; counts + lengths +
        # bytes — seven buffers however many groups there are.
        assert types == "q*dq*b"
        assert [bytes(b) for b in buffers] == [
            struct.pack("<3q", 7, 9, 11),
            struct.pack("<3q", 2, 0, 1),
            struct.pack("<3d", 1.5, -2.0, 0.25),
            struct.pack("<3q", 2, 0, 1),
            struct.pack("<3q", 2, 0, 1),
            struct.pack("<3q", 1, 2, 0), b"abc"]
        assert unpack_rows(types, buffers, 3) == [
            (group, *parts) for group, parts in groups]


class TestMalformedFrames:
    def test_missing_type_key(self):
        with pytest.raises(ProtocolError, match="'type'"):
            encode_frame({"sql": "SELECT 1"})

    def test_short_payload(self):
        with pytest.raises(ProtocolError, match="shorter"):
            decode_frame(b"\x00\x01")

    def test_header_length_beyond_frame(self):
        payload = struct.pack("!I", 4096) + b"{}"
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_frame(payload)

    def test_bad_json(self):
        body = b"{not json!"
        with pytest.raises(ProtocolError, match="bad JSON"):
            decode_frame(struct.pack("!I", len(body)) + body)

    def test_header_not_object(self):
        body = b"[1,2,3]"
        with pytest.raises(ProtocolError, match="not an object"):
            decode_frame(struct.pack("!I", len(body)) + body)

    def test_blob_lengths_mismatch(self):
        body = b'{"type":"result","blobs":[10]}'
        payload = struct.pack("!I", len(body)) + body + b"abc"
        with pytest.raises(ProtocolError, match="do not cover"):
            decode_frame(payload)

    def test_negative_blob_length(self):
        body = b'{"type":"result","blobs":[-1]}'
        with pytest.raises(ProtocolError, match="bad blob length"):
            decode_frame(struct.pack("!I", len(body)) + body)

    def test_oversized_frame_rejected_before_read(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="limit"):
                read_frame_sock(b)
        finally:
            a.close()
            b.close()

    def test_undersized_total_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", 2) + b"xx")
            with pytest.raises(ProtocolError, match="too short"):
                read_frame_sock(b)
        finally:
            a.close()
            b.close()

    def test_truncated_frame_sock(self):
        a, b = socket.socketpair()
        try:
            payload = encode_frame({"type": "ping"})
            a.sendall(payload[:-2])
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                read_frame_sock(b)
        finally:
            b.close()


class TestWriteSideLimit:
    """Regression: the frame-size limit used to be read-side only — a
    writer could emit a frame its peer was bound to refuse, killing the
    connection with an undiagnosable ProtocolError at the *receiver*."""

    def test_frame_too_large_is_a_protocol_error(self):
        assert issubclass(protocol.FrameTooLargeError, ProtocolError)

    def test_oversized_write_raises_before_sending(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(protocol.FrameTooLargeError,
                               match="exceeds"):
                write_frame_sock(a, {"type": "result", "rows": []},
                                 [b"x" * 2048], max_frame=1024)
            # Not a single byte hit the wire: the stream stays framed.
            b.setblocking(False)
            with pytest.raises(BlockingIOError):
                b.recv(1)
        finally:
            a.close()
            b.close()

    def test_frame_exactly_at_limit_is_sent(self):
        header = {"type": "ping"}
        limit = len(encode_frame(header)) - 4   # total excludes prefix
        a, b = socket.socketpair()
        try:
            write_frame_sock(a, header, max_frame=limit)
            assert read_frame_sock(b) == (header, [])
            with pytest.raises(protocol.FrameTooLargeError):
                write_frame_sock(a, header, max_frame=limit - 1)
        finally:
            a.close()
            b.close()

    def test_async_write_frame_enforces_limit(self):
        class _Writer:
            def __init__(self):
                self.chunks = []

            def write(self, data):
                self.chunks.append(data)

            async def drain(self):
                pass

        writer = _Writer()

        async def run():
            await protocol.write_frame(
                writer, {"type": "result", "rows": []},
                [b"x" * 2048], max_frame=1024)

        with pytest.raises(protocol.FrameTooLargeError):
            asyncio.run(run())
        assert writer.chunks == []


class TestAsyncFrameIO:
    def _reader_with(self, data: bytes) -> asyncio.StreamReader:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return reader

    def test_clean_eof_returns_none(self):
        async def run():
            return await read_frame(self._reader_with(b""))
        assert asyncio.run(run()) is None

    def test_round_trip(self):
        payload = encode_frame({"type": "ping"})

        async def run():
            return await read_frame(self._reader_with(payload))
        assert asyncio.run(run()) == ({"type": "ping"}, [])

    def test_truncated_prefix(self):
        async def run():
            return await read_frame(self._reader_with(b"\x00\x00"))
        with pytest.raises(ProtocolError, match="mid-prefix"):
            asyncio.run(run())

    def test_truncated_body(self):
        payload = encode_frame({"type": "ping"})[:-3]

        async def run():
            return await read_frame(self._reader_with(payload))
        with pytest.raises(ProtocolError, match="mid-frame"):
            asyncio.run(run())

    def test_oversized_rejected(self):
        data = struct.pack("!I", MAX_FRAME_BYTES + 1) + b"x" * 16

        async def run():
            return await read_frame(self._reader_with(data))
        with pytest.raises(ProtocolError, match="limit"):
            asyncio.run(run())


class TestVersionHandshake:
    """A peer speaking another protocol revision is refused at hello,
    naming both versions — not later, inside a decode."""

    @pytest.fixture
    def old_server(self):
        """Accepts connections and greets each as protocol 1."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        listener.settimeout(0.05)
        stop = threading.Event()

        def greet():
            while not stop.is_set():
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                with conn:
                    write_frame_sock(conn, {
                        "type": "hello", "server": "old",
                        "protocol": protocol.PROTOCOL_VERSION - 1,
                        "session_id": 1})

        thread = threading.Thread(target=greet, daemon=True)
        thread.start()
        yield listener.getsockname()[1]
        stop.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        listener.close()

    def expected(self):
        return (f"peer speaks wire protocol "
                f"{protocol.PROTOCOL_VERSION - 1}, this side speaks "
                f"{protocol.PROTOCOL_VERSION}")

    def test_sync_client(self, old_server):
        with pytest.raises(ServerError) as caught:
            ArrayClient("127.0.0.1", old_server, timeout=5.0)
        assert self.expected() in str(caught.value)

    def test_async_client(self, old_server):
        async def run():
            await AsyncArrayClient.connect("127.0.0.1", old_server)

        with pytest.raises(ServerError) as caught:
            asyncio.run(run())
        assert self.expected() in str(caught.value)

    def test_shard_link(self, old_server):
        from repro.shard.client import ShardLink

        link = ShardLink(0, "127.0.0.1", old_server,
                         request_timeout=5.0)
        with pytest.raises(ProtocolError) as caught:
            link.send({"type": "ping"})
        assert self.expected() in str(caught.value)
        assert link._sock is None

    def test_missing_version_is_a_mismatch(self):
        with pytest.raises(ProtocolError, match="None"):
            protocol.check_hello(({"type": "hello"}, []))
        with pytest.raises(ProtocolError, match="expected a hello"):
            protocol.check_hello(({"type": "pong"}, []))
        with pytest.raises(ProtocolError, match="expected a hello"):
            protocol.check_hello(None)
