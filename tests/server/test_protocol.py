"""Wire-protocol tests: round-trips for every message type, value
packing, malformed-frame rejection, and the one frame reader
(:class:`FrameBuffer`) with every caller that reads through it."""

import random
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.server import ArrayClient, ServerError, protocol
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    FrameBuffer,
    ProtocolError,
    decode_frame,
    encode_frame,
    pack_rows,
    unpack_rows,
    write_frame_sock,
)
from repro.shard.client import ShardLink

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
        frames = FrameBuffer()
        try:
            write_frame_sock(a, {"type": "ping"})
            write_frame_sock(a, {"type": "result", "rows": []},
                             [b"abc"])
            assert frames.read(b.recv) == ({"type": "ping"}, [])
            header, blobs = frames.read(b.recv)
            assert header["type"] == "result"
            assert blobs == [b"abc"]
            a.close()
            assert frames.read(b.recv) is None  # clean EOF
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
                FrameBuffer().read(b.recv)
        finally:
            a.close()
            b.close()

    def test_undersized_total_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!I", 2) + b"xx")
            with pytest.raises(ProtocolError, match="too short"):
                FrameBuffer().read(b.recv)
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
                FrameBuffer().read(b.recv)
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
            assert FrameBuffer().read(b.recv) == (header, [])
            with pytest.raises(protocol.FrameTooLargeError):
                write_frame_sock(a, header, max_frame=limit - 1)
        finally:
            a.close()
            b.close()


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

    def test_shard_link(self, old_server):
        link = ShardLink(0, "127.0.0.1", old_server,
                         request_timeout=5.0)
        with pytest.raises(ProtocolError) as caught:
            link.send({"type": "ping"})
        assert self.expected() in str(caught.value)
        assert link._sock is None

    def test_a_protocol_3_peer_is_refused(self):
        """Protocol 4 ships a scalar ``presult`` as one group, with no
        ``states`` key: a peer from before it is refused at hello."""
        assert protocol.PROTOCOL_VERSION == 4
        with pytest.raises(ProtocolError, match="peer speaks wire "
                           "protocol 3, this side speaks 4"):
            protocol.check_hello(({"type": "hello", "server": "old",
                                   "protocol": 3, "session_id": 1}, []))

    def test_missing_version_is_a_mismatch(self):
        with pytest.raises(ProtocolError, match="None"):
            protocol.check_hello(({"type": "hello"}, []))
        with pytest.raises(ProtocolError, match="expected a hello"):
            protocol.check_hello(({"type": "pong"}, []))
        with pytest.raises(ProtocolError, match="expected a hello"):
            protocol.check_hello(None)


# -- the one frame reader ------------------------------------------------------

class ChunkedPeer:
    """A fake ``recv``: hands out ``data`` in chunks no longer than
    asked, and as short as ``rng`` likes, then EOF; counts its calls."""

    def __init__(self, data: bytes, rng: random.Random | None = None,
                 chunk: int | None = None):
        self.data = data
        self.pos = 0
        self.calls = 0
        self.rng = rng
        self.chunk = chunk

    def recv(self, n: int) -> bytes:
        assert n > 0
        self.calls += 1
        if self.rng is not None:
            n = self.rng.randint(1, n)
        if self.chunk is not None:
            n = min(n, self.chunk)
        out = self.data[self.pos:self.pos + n]
        self.pos += len(out)
        return out


def read_all(frames: FrameBuffer, recv) -> list:
    """Every frame up to a clean EOF, blobs as bytes."""
    out = []
    while (frame := frames.read(recv)) is not None:
        header, blobs = frame
        out.append((header, [bytes(b) for b in blobs]))
    return out


def decoded(header: dict, blobs) -> tuple:
    """What a reader must hand back for ``encode_frame(header, blobs)``."""
    got, views = decode_frame(encode_frame(header, blobs)[4:])
    return got, [bytes(v) for v in views]


BLOB = st.one_of(st.just(b""), st.binary(max_size=40),
                 st.integers(64 * 1024 + 1, 80 * 1024).map(
                     lambda n: bytes(range(256)) * (n // 256)))
FRAME_LISTS = st.lists(
    st.tuples(st.sampled_from(["ping", "result", "bchunk"]),
              st.lists(BLOB, max_size=3)),
    max_size=6)


class TestFrameBuffer:
    @settings(max_examples=60, deadline=None)
    @given(FRAME_LISTS, st.integers(0, 2 ** 32))
    def test_random_chunking_returns_every_frame_in_order(
            self, frame_list, seed):
        stream = b"".join(encode_frame({"type": kind}, blobs)
                          for kind, blobs in frame_list)
        peer = ChunkedPeer(stream, random.Random(seed))
        assert read_all(FrameBuffer(), peer.recv) == [
            decoded({"type": kind}, blobs) for kind, blobs in frame_list]
        assert peer.pos == len(stream)

    def test_eof_is_clean_only_at_a_frame_boundary(self):
        encoded = [encode_frame({"type": "ping"}),
                   encode_frame({"type": "result"}, [b"abc", b""]),
                   encode_frame({"type": "pong"})]
        stream = b"".join(encoded)
        boundaries = [0]
        for frame in encoded:
            boundaries.append(boundaries[-1] + len(frame))
        for cut in range(len(stream) + 1):
            for chunk in (1, 3, None):
                frames = FrameBuffer()
                peer = ChunkedPeer(stream[:cut], chunk=chunk)
                whole = max(i for i, b in enumerate(boundaries) if b <= cut)
                for _ in range(whole):
                    assert frames.read(peer.recv) is not None
                if cut in boundaries:
                    assert frames.read(peer.recv) is None, cut
                    continue
                where = "mid-prefix" if cut - boundaries[whole] < 4 \
                    else "mid-frame"
                with pytest.raises(ProtocolError, match=where):
                    frames.read(peer.recv)

    @pytest.mark.parametrize("total, match", [(1025, "limit"),
                                              (3, "too short")])
    @pytest.mark.parametrize("chunk", [1, None])
    def test_bad_total_refused_before_a_body_byte_is_asked_for(
            self, total, match, chunk):
        peer = ChunkedPeer(struct.pack("!I", total) + b"x" * 2048,
                           chunk=chunk or 4)
        with pytest.raises(ProtocolError, match=match):
            FrameBuffer(max_frame=1024).read(peer.recv)
        assert peer.pos == 4
        assert peer.calls == (4 if chunk == 1 else 1)

    def test_buffered_hands_out_received_frames_without_reading(self):
        stream = b"".join(encode_frame({"type": "result", "n": i},
                                       [bytes([i]) * 10])
                          for i in range(3)) + encode_frame(
                              {"type": "ping"})[:5]
        peer = ChunkedPeer(stream)
        frames = FrameBuffer()
        assert frames.buffered() is None
        header, blobs = frames.read(peer.recv)
        assert peer.calls == 1 and header["n"] == 0
        assert [frames.buffered()[0]["n"] for _ in range(2)] == [1, 2]
        assert frames.buffered() is None   # only part of the ping
        assert peer.calls == 1

    def test_a_frame_inside_one_recv_is_decoded_in_place(self):
        chunk = encode_frame({"type": "result"}, [b"abc", b"defg"]) + \
            encode_frame({"type": "pong"})
        frames = FrameBuffer()
        _header, blobs = frames.read(lambda n: chunk)
        assert all(blob.obj is chunk for blob in blobs)
        assert [bytes(b) for b in blobs] == [b"abc", b"defg"]
        assert frames.buffered() == ({"type": "pong"}, [])


# -- a read that breaks off closes the client ----------------------------------

HELLO = {"type": "hello", "server": "stub",
         "protocol": protocol.PROTOCOL_VERSION, "session_id": 1}


class StubPeer:
    """Greets each connection it accepts (in order), reads one request,
    answers it with the next raw ``replies`` entry, then hangs up — or,
    for a ``stall`` entry, stays silent until the client hangs up."""

    def __init__(self, *replies: tuple[bytes, bool]):
        self.replies = list(replies)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10.0)
        self.port = self.listener.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        for reply, stall in self.replies:
            conn, _ = self.listener.accept()
            with conn:
                write_frame_sock(conn, HELLO)
                if FrameBuffer().read(conn.recv) is None:
                    continue
                conn.sendall(reply)
                if stall:
                    conn.settimeout(10.0)
                    conn.recv(1)

    def close(self):
        self.thread.join(timeout=10.0)
        self.listener.close()


def _result_frame(value: int) -> bytes:
    types, buffers = pack_rows([(value,)])
    return encode_frame({"type": "result", "kind": "rows", "rows": types,
                         "rowcount": 1, "metrics": None}, buffers)


def _bchunk_frame(seq: int, eof: bool) -> bytes:
    return encode_frame({"type": "bchunk", "seq": seq, "eof": eof,
                         "blob_len": 8, "offset": 0, "length": 4},
                        [b"abcd"])


BROKEN_REPLIES = {
    "query": (lambda c: c.query("SELECT 1"),
              _result_frame(41)[:-3]),
    "query_blob": (lambda c: c.query_blob("SELECT MAX(v) FROM t"),
                   _bchunk_frame(0, False) + _bchunk_frame(1, True)[:9]),
    "query_array_slice": (
        lambda c: c.query_array("SELECT MAX(v) FROM t",
                                slice=((0,), (1,))),
        _bchunk_frame(0, False)[:2]),
    "query_pipeline": (lambda c: c.query_pipeline(["SELECT 1"] * 3),
                       _result_frame(41) + _result_frame(42)[:20]),
}


@pytest.mark.parametrize("name", sorted(BROKEN_REPLIES))
def test_a_reply_cut_short_closes_the_client(name):
    """Whatever part of a reply is still in flight after a read broke
    off must never answer a later call: the client closes, and says so
    on every call after, and close() stays silent."""
    call, reply = BROKEN_REPLIES[name]
    peer = StubPeer((reply, False))
    try:
        client = ArrayClient("127.0.0.1", peer.port, timeout=5.0)
        with pytest.raises((OSError, ProtocolError)):
            call(client)
        for later in (lambda: client.query("SELECT 1"), client.ping,
                      lambda: client.query_pipeline(["SELECT 1"]),
                      lambda: client.query_blob("SELECT MAX(v) FROM t")):
            with pytest.raises(ServerError,
                               match="closed the connection") as caught:
                later()
            assert caught.value.code == protocol.INTERNAL
        client.close()
        client.close()
    finally:
        peer.close()


def test_shard_link_times_out_on_half_a_frame_then_reconnects_clean():
    """A shard that stalls half-way through a reply times the link out;
    after close() the half frame is gone with the old connection, and
    the next request gets its own reply."""
    peer = StubPeer((_result_frame(41)[:7], True),
                    (_result_frame(42), False))
    link = ShardLink(0, "127.0.0.1", peer.port, request_timeout=0.3)
    try:
        link.send({"type": "query", "sql": "SELECT 1"})
        with pytest.raises(OSError):
            link.recv()
        link.close()
        link.send({"type": "query", "sql": "SELECT 1"})
        header, blobs = link.recv()
        assert protocol.Columns.decode(header["rows"], blobs,
                                       header["rowcount"]).rows() == [(42,)]
    finally:
        link.close()
        peer.close()
