"""Zero-copy data-plane tests: streamed partial-blob reads (bquery),
prepared statements, and pipelined execution.

The parity contract under test: every byte served by a ``bquery``
stream is bit-identical to reading the whole blob and slicing
client-side — across random offsets, zero-length blobs, zero-length
slices, chunk-boundary-straddling slices, windowed array reads, and
slices raced against concurrent DELETEs.
"""

import struct
import threading
import time

import numpy as np
import pytest

from repro.core import SqlArray
from repro.engine import Column, Database
from repro.server import (
    ArrayClient,
    ServerError,
    ServerThread,
    protocol,
)
from repro.server.protocol import decode_frame, encode_frame

#: id -> blob payload size for the Tblob parity table.
BLOB_SIZES = {0: 0, 1: 1, 2: 100, 3: 4096, 4: 65536, 5: 300_000}

ARR_SHAPE = (24, 24, 24)

NUM_ROWS = 16


def make_blob(blob_id: int) -> bytes:
    rng = np.random.default_rng(1000 + blob_id)
    return rng.integers(0, 256, BLOB_SIZES[blob_id],
                        dtype=np.uint8).tobytes()


def make_array() -> np.ndarray:
    rng = np.random.default_rng(42)
    return rng.standard_normal(ARR_SHAPE)


def make_del_payload(row_id: int) -> bytes:
    rng = np.random.default_rng(5000 + row_id)
    return rng.integers(0, 256, 20_000, dtype=np.uint8).tobytes()


def make_db() -> Database:
    db = Database()
    tblob = db.create_table(
        "Tblob", [Column("id", "bigint"),
                  Column("v", "varbinary_max")])
    for blob_id in BLOB_SIZES:
        tblob.insert((blob_id, make_blob(blob_id)))
    tarr = db.create_table(
        "Tarr", [Column("id", "bigint"),
                 Column("v", "varbinary_max")])
    tarr.insert((1, SqlArray.from_numpy(make_array()).to_blob()))
    tnum = db.create_table(
        "Tnum", [Column("id", "bigint"), Column("x", "float"),
                 Column("g", "int")])
    for i in range(NUM_ROWS):
        tnum.insert((i, float(i) * 0.5, i % 4))
    tdel = db.create_table(
        "Tdel", [Column("id", "bigint"),
                 Column("v", "varbinary_max")])
    for i in range(12):
        tdel.insert((i, make_del_payload(i)))
    return db


@pytest.fixture(scope="module")
def server():
    with ServerThread(make_db()) as handle:
        yield handle


@pytest.fixture
def client(server):
    with ArrayClient("127.0.0.1", server.port) as c:
        yield c


def blob_sql(blob_id: int, table: str = "Tblob") -> str:
    return f"SELECT MAX(v) FROM {table} WHERE id = {blob_id}"


# -- bquery: byte-range parity ----------------------------------------------

class TestBqueryParity:
    @pytest.mark.parametrize("blob_id", sorted(BLOB_SIZES))
    def test_full_read_matches_scalar(self, client, blob_id):
        full = client.query(blob_sql(blob_id)).scalar()
        result = client.query_blob(blob_sql(blob_id))
        assert bytes(result.data) == bytes(full)
        assert result.blob_len == BLOB_SIZES[blob_id]
        assert result.offset == 0
        assert result.wire_bytes == len(result.data)

    def test_randomized_slices_bit_identical(self, client):
        full = make_blob(5)
        rng = np.random.default_rng(7)
        for _ in range(25):
            offset = int(rng.integers(0, len(full)))
            length = int(rng.integers(0, len(full) - offset + 1))
            result = client.query_blob(blob_sql(5), offset=offset,
                                       length=length)
            assert result.data == full[offset:offset + length]
            assert result.blob_len == len(full)
            assert result.offset == offset

    def test_open_ended_slice_reads_to_eof(self, client):
        full = make_blob(4)
        result = client.query_blob(blob_sql(4), offset=1234)
        assert result.data == full[1234:]

    def test_zero_length_blob(self, client):
        result = client.query_blob(blob_sql(0))
        assert result.data == b""
        assert result.blob_len == 0
        assert result.chunks == 1

    def test_zero_length_slice(self, client):
        result = client.query_blob(blob_sql(5), offset=77, length=0)
        assert result.data == b""
        assert result.blob_len == BLOB_SIZES[5]
        assert result.chunks == 1

    def test_chunk_boundary_straddling_slices(self, client):
        """Small prime chunk size so nearly every slice straddles a
        chunk boundary; reassembly must still be bit-identical."""
        full = make_blob(5)
        rng = np.random.default_rng(11)
        for _ in range(10):
            offset = int(rng.integers(0, len(full) - 1))
            length = int(rng.integers(1, len(full) - offset + 1))
            result = client.query_blob(blob_sql(5), offset=offset,
                                       length=length, chunk_bytes=997)
            assert result.data == full[offset:offset + length]
            assert result.chunks == max(1, -(-length // 997))

    def test_wire_bytes_bounded_by_slice(self, client):
        """The acceptance bound: a partial read moves at most
        slice_bytes + one chunk of payload, never the whole blob."""
        chunk = 8192
        length = 50_000
        result = client.query_blob(blob_sql(5), offset=100_000,
                                   length=length, chunk_bytes=chunk)
        assert result.wire_bytes <= length + chunk
        assert result.wire_bytes < BLOB_SIZES[5]

    def test_out_of_range_slice_is_bad_frame(self, client):
        with pytest.raises(ServerError) as err:
            client.query_blob(blob_sql(5), offset=BLOB_SIZES[5] + 1)
        assert err.value.code == protocol.BAD_FRAME
        # Connection stays usable: errors are sent instead of chunk 0.
        assert client.query_blob(blob_sql(2)).data == make_blob(2)

    def test_overlong_slice_is_bad_frame(self, client):
        with pytest.raises(ServerError) as err:
            client.query_blob(blob_sql(3), offset=4000, length=4096)
        assert err.value.code == protocol.BAD_FRAME

    def test_grouped_select_rejected(self, client):
        with pytest.raises(ServerError) as err:
            client.query_blob(
                "SELECT g, COUNT(*) FROM Tnum GROUP BY g")
        assert err.value.code == protocol.SQL_ERROR

    def test_bad_chunk_bytes_rejected(self, client):
        with pytest.raises(ServerError) as err:
            client.query_blob(blob_sql(2), chunk_bytes=0)
        assert err.value.code == protocol.BAD_FRAME

    def test_eof_frame_carries_metrics(self, client):
        result = client.query_blob(blob_sql(4), offset=5, length=100)
        assert result.metrics["stream_calls"] >= 0
        assert result.elapsed_seconds is not None


# -- bquery: windowed array reads -------------------------------------------

class TestBqueryWindow:
    def test_window_matches_numpy_slice(self, client):
        arr = make_array()
        got = client.query_array(blob_sql(1, "Tarr"),
                                 slice=((5, 3, 2), (8, 8, 8)))
        np.testing.assert_array_equal(got, arr[5:13, 3:11, 2:10])

    def test_randomized_windows(self, client):
        arr = make_array()
        rng = np.random.default_rng(3)
        for _ in range(10):
            offset = [int(rng.integers(0, d)) for d in ARR_SHAPE]
            size = [int(rng.integers(1, d - o + 1))
                    for d, o in zip(ARR_SHAPE, offset)]
            got = client.query_array(blob_sql(1, "Tarr"),
                                     slice=(offset, size))
            want = arr[tuple(slice(o, o + s)
                             for o, s in zip(offset, size))]
            np.testing.assert_array_equal(got, want)

    def test_window_is_standalone_blob(self, client):
        """Window mode re-encodes the slice as a complete array blob,
        bit-identical to slicing the decoded array and re-encoding."""
        arr = make_array()
        header = {"type": "bquery", "sql": blob_sql(1, "Tarr"),
                  "cold": True,
                  "window": {"offset": [0, 0, 0], "size": [4, 4, 4]}}
        got = client._read_bquery(header)
        decoded = SqlArray.from_blob(got.data).to_numpy()
        np.testing.assert_array_equal(decoded, arr[:4, :4, :4])

    def test_window_out_of_bounds_is_bad_frame(self, client):
        with pytest.raises(ServerError) as err:
            client.query_array(blob_sql(1, "Tarr"),
                               slice=((0, 0, 20), (4, 4, 8)))
        assert err.value.code == protocol.BAD_FRAME

    def test_window_on_raw_bytes_is_bad_frame(self, client):
        """A window read of a non-array blob fails header validation
        cleanly (BAD_FRAME), not with a stream teardown."""
        with pytest.raises(ServerError) as err:
            client.query_array(blob_sql(5), slice=((0,), (4,)))
        assert err.value.code == protocol.BAD_FRAME


# -- bquery under concurrent DELETE -----------------------------------------

class TestBqueryUnderDelete:
    def test_slices_stay_bit_identical_under_delete(self, server):
        """Readers slice one blob while a writer deletes its
        neighbours: freed pages must never bleed into a served slice
        (the finalize-under-latch guarantee)."""
        expected = make_del_payload(0)
        stop = threading.Event()
        errors: list = []

        def reader():
            with ArrayClient("127.0.0.1", server.port) as c:
                r = np.random.default_rng(23)
                while not stop.is_set():
                    offset = int(r.integers(0, 19_000))
                    length = int(r.integers(1, 20_000 - offset + 1))
                    try:
                        result = c.query_blob(blob_sql(0, "Tdel"),
                                              offset=offset,
                                              length=length,
                                              chunk_bytes=3001)
                    except ServerError as exc:
                        errors.append(exc)
                        return
                    if result.data != \
                            expected[offset:offset + length]:
                        errors.append(AssertionError(
                            f"slice mismatch at {offset}+{length}"))
                        return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            with ArrayClient("127.0.0.1", server.port) as writer:
                for i in range(1, 12):
                    writer.query(f"DELETE FROM Tdel WHERE id = {i}")
        finally:
            stop.set()
            thread.join()
        assert errors == []
        with ArrayClient("127.0.0.1", server.port) as c:
            result = c.query_blob(blob_sql(0, "Tdel"))
            assert result.data == expected


# -- prepared statements and pipelining -------------------------------------

class TestPrepare:
    def test_prepare_returns_plan_shape(self, client):
        info = client.prepare("SELECT COUNT(*) FROM Tnum "
                              "WITH (NOLOCK)")
        assert info["table"] == "Tnum"
        assert info["kind"] in ("scan", "point", "index", "grouped")

    def test_prepare_bad_sql_is_sql_error(self, client):
        with pytest.raises(ServerError) as err:
            client.prepare("SELECT FROM nowhere")
        assert err.value.code == protocol.SQL_ERROR

    def test_prepare_counts_in_stats(self, client):
        before = client.stats()["prepares"]
        client.prepare("SELECT SUM(x) FROM Tnum WITH (NOLOCK)")
        assert client.stats()["prepares"] == before + 1


class TestPipeline:
    def test_replies_in_statement_order(self, client):
        statements = [f"SELECT SUM(x) FROM Tnum WHERE id = {i}"
                      for i in range(NUM_ROWS)]
        results = client.query_pipeline(statements)
        for i, result in enumerate(results):
            assert result.scalar() == pytest.approx(i * 0.5)

    def test_batch_recorded_in_stats(self, client):
        before = client.stats()["pipeline"]
        client.query_pipeline(
            ["SELECT COUNT(*) FROM Tnum WITH (NOLOCK)"] * 5)
        after = client.stats()["pipeline"]
        assert after["statements"] >= before["statements"] + 5
        assert after["batches"] > before["batches"]
        assert after["depth_max"] >= 2

    def test_error_slot_preserves_order(self, client):
        results = client.query_pipeline(
            ["SELECT COUNT(*) FROM Tnum WITH (NOLOCK)",
             "SELECT FROM nowhere",
             "SELECT COUNT(*) FROM Tnum WITH (NOLOCK)"],
            return_exceptions=True)
        assert results[0].scalar() == NUM_ROWS
        assert isinstance(results[1], ServerError)
        assert results[1].code == protocol.SQL_ERROR
        assert results[2].scalar() == NUM_ROWS
        # Connection survives the failed slot.
        assert client.query("SELECT COUNT(*) FROM Tnum "
                            "WITH (NOLOCK)").scalar() == NUM_ROWS

    def test_first_error_raised_after_drain(self, client):
        with pytest.raises(ServerError) as err:
            client.query_pipeline(["SELECT FROM nowhere",
                                   "SELECT COUNT(*) FROM Tnum "
                                   "WITH (NOLOCK)"])
        assert err.value.code == protocol.SQL_ERROR
        assert client.query("SELECT COUNT(*) FROM Tnum "
                            "WITH (NOLOCK)").scalar() == NUM_ROWS

    def test_write_statements_pipeline(self, client):
        results = client.query_pipeline(
            ["CREATE TABLE Tpipe (id BIGINT PRIMARY KEY, x FLOAT)",
             "INSERT INTO Tpipe VALUES (1, 2.0), (2, 3.0)",
             "SELECT SUM(x) FROM Tpipe WITH (NOLOCK)"])
        assert results[0].kind == "ok"
        assert results[1].rowcount == 2
        assert results[2].scalar() == pytest.approx(5.0)

    def test_empty_pipeline(self, client):
        assert client.query_pipeline([]) == []

    def test_big_frames_both_ways_never_stall_the_pipeline(self, server):
        """300 statements padded to 16 KiB, each answered with a 64 KiB
        blob.  Sent all at once they outgrow both directions' socket
        buffers and each side blocks writing to the other; one server
        batch in flight at a time keeps the pipeline moving."""
        sql = blob_sql(4) + " " * (16 * 1024)
        with ArrayClient("127.0.0.1", server.port, timeout=5.0) as c:
            started = time.perf_counter()
            results = c.query_pipeline([sql] * 300)
            elapsed = time.perf_counter() - started
        want = make_blob(4)
        assert all(result.scalar() == want for result in results)
        assert len(results) == 300, elapsed


# -- every byte goes through the client's socket ----------------------------

class WireProxy:
    """Stands in for a client's socket with nothing but ``recv``,
    ``sendall`` and ``close``, keeping every byte that crossed — any
    other IO path (``recv_into``, ``makefile``) fails on the spot."""

    def __init__(self, sock):
        self.sock = sock
        self.sent = bytearray()
        self.received = bytearray()
        self.sends = 0

    def sendall(self, data):
        self.sends += 1
        self.sent += data
        self.sock.sendall(data)

    def recv(self, n):
        data = self.sock.recv(n)
        self.received += data
        return data

    def close(self):
        self.sock.close()


def cut_frames(data) -> list:
    """The frames a byte string holds; it must end on a boundary."""
    frames, pos = [], 0
    while pos < len(data):
        (total,) = struct.unpack_from("!I", data, pos)
        assert pos + 4 + total <= len(data), "a frame cut short"
        header, blobs = decode_frame(bytes(data[pos + 4:pos + 4 + total]))
        frames.append((header, [bytes(b) for b in blobs]))
        pos += 4 + total
    return frames


def test_the_socket_sees_exactly_the_frames_of_each_call(server):
    client = ArrayClient("127.0.0.1", server.port)
    proxy = WireProxy(client._sock)
    client._sock = proxy

    def exchange(call):
        proxy.sent.clear()
        proxy.received.clear()
        proxy.sends = 0
        answer = call()
        sent, received = cut_frames(proxy.sent), cut_frames(proxy.received)
        assert bytes(proxy.sent) == b"".join(
            encode_frame(h, b) for h, b in sent)
        return answer, sent, received

    with client:
        sql = "SELECT SUM(x) FROM Tnum WHERE id = 3"
        answer, sent, received = exchange(lambda: client.query(sql))
        assert [h for h, _ in sent] == [
            {"type": "query", "sql": sql, "cold": True}]
        assert [h["type"] for h, _ in received] == ["result"]
        assert answer.scalar() == pytest.approx(1.5)

        window = ((1, 2, 3), (4, 4, 4))
        answer, sent, received = exchange(lambda: client.query_array(
            blob_sql(1, "Tarr"), slice=window))
        assert sent[0][0]["window"] == {"offset": [1, 2, 3],
                                        "size": [4, 4, 4]}
        assert [h["type"] for h, _ in received] == ["bchunk"]
        assert received[-1][0]["eof"]
        np.testing.assert_array_equal(answer, make_array()[1:5, 2:6, 3:7])

        answer, sent, received = exchange(lambda: client.query_blob(
            blob_sql(5), offset=1000, length=5000, chunk_bytes=1024))
        assert [h["type"] for h, _ in sent] == ["bquery"]
        assert [h["seq"] for h, _ in received] == list(range(5))
        assert b"".join(b[0] for _, b in received) == answer.data
        assert answer.data == make_blob(5)[1000:6000]

        statements = [f"SELECT SUM(x) FROM Tnum WHERE id = {i % NUM_ROWS}"
                      for i in range(40)]
        answer, sent, received = exchange(
            lambda: client.query_pipeline(statements))
        assert [h["sql"] for h, _ in sent] == statements
        assert {h["type"] for h, _ in sent} == {"pexec"}
        assert proxy.sends == 2   # one window of 32 frames, then 8
        assert len(received) == 40
        assert [r.scalar() for r in answer] == [
            pytest.approx((i % NUM_ROWS) * 0.5) for i in range(40)]


# -- one statement, two frame types -----------------------------------------

WIRE_CORPUS = [
    "SELECT COUNT(*), SUM(x) FROM Tnum WITH (NOLOCK)",          # scan
    "SELECT g, COUNT(*), SUM(x) FROM Tnum GROUP BY g",          # grouped
    "SELECT SUM(x) FROM Tnum WHERE id = 3",                     # point
    "SELECT COUNT(*) FROM Tnum WHERE g = 2",                    # index
    "SELECT MAX(v) FROM Tblob WHERE id = 3",                    # blob cell
    "SELECT FROM nowhere",                                      # fails
    "CREATE TABLE Tw (id BIGINT PRIMARY KEY, x FLOAT)",
    "INSERT INTO Tw VALUES (1, 2.0), (2, 3.0), (3, 5.0)",
    "DELETE FROM Tw WHERE id = 2",
    "SELECT SUM(x), COUNT(*) FROM Tw",
]


def _wire_outcome(result):
    if isinstance(result, ServerError):
        return ("error", result.code)
    return (result.kind, result.rows, result.rowcount,
            sorted(result.metrics) if result.metrics else None)


def _run_corpus(port, wire):
    with ArrayClient("127.0.0.1", port) as c:
        outcomes = []
        for sql in WIRE_CORPUS:
            try:
                result = c.query(sql) if wire == "query" \
                    else c.query_pipeline([sql])[0]
            except ServerError as exc:
                result = exc
            outcomes.append(_wire_outcome(result))
        alive = c.query("SELECT COUNT(*) FROM Tnum").scalar()
    return outcomes, alive


def test_query_and_pexec_frames_answer_alike():
    """Every statement shape gives the same rows, rowcount, metrics
    keys and error code whether it travels as a ``query`` frame or as
    a ``pexec`` frame, and the connection survives the failing one."""
    answers = {}
    for wire in ("query", "pexec"):
        db = make_db()
        db.tables["Tnum"].create_index("g")
        with ServerThread(db) as handle:
            answers[wire], alive = _run_corpus(handle.port, wire)
        assert alive == NUM_ROWS
    assert answers["query"] == answers["pexec"]
    kinds = [outcome[0] for outcome in answers["query"]]
    assert kinds == ["rows"] * 5 + ["error"] + ["ok"] * 3 + ["rows"]
    assert answers["query"][5] == ("error", protocol.SQL_ERROR)
    assert answers["query"][4][1] == [(make_blob(3),)]
    assert answers["query"][8][2] == 1          # one row deleted
    assert answers["query"][9][1] == [(7.0, 2)]
