"""The columnar row-set codec: round trips and hostile input.

A row set must come back *fingerprint-identical* — floats by bit
pattern, ints as ints, bools as bools, ``bytes`` as ``bytes`` — and a
malformed one must be a ``ProtocolError`` (``BAD_FRAME`` on the wire,
with the session surviving): never an ``IndexError``, a hang or a
silently short result.
"""

import numbers
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database
from repro.server import ServerThread, protocol
from repro.server.client import _parse_result
from repro.server.columnar import Columns
from repro.server.protocol import (
    ProtocolError,
    decode_frame,
    encode_frame,
    pack_rows,
    unpack_rows,
    write_frame_sock,
)
from tests.conftest import read_frame


def fingerprint(rows):
    """Rows as a value in which floats compare by bit pattern and a
    numpy scalar equals the Python scalar it must decode to."""
    def cell(value):
        if isinstance(value, (bool, str)) or value is None:
            return (type(value).__name__, value)
        if isinstance(value, numbers.Integral):
            return ("int", int(value))
        if isinstance(value, numbers.Real):
            return ("f8", struct.pack("<d", value))
        if isinstance(value, (bytes, bytearray, memoryview)):
            return ("bytes", bytes(value))
        return ("list", [cell(item) for item in value])
    return [tuple(cell(value) for value in row) for row in rows]


# -- strategies --------------------------------------------------------------

INT64 = st.integers(-2 ** 63, 2 ** 63 - 1) | st.sampled_from(
    [-2 ** 63, 2 ** 63 - 1, 0])
#: Every bit pattern, NaN payloads and -0.0 included.
FLOAT_BITS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
JSON_SCALARS = (st.booleans() | st.text(max_size=5)
                | st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 100])
                | st.floats(allow_nan=False) | st.integers(-5, 5))
NESTED = st.recursive(
    JSON_SCALARS | st.binary(max_size=3) | st.none(),
    lambda inner: st.lists(inner, max_size=3), max_leaves=6)

#: One strategy per kind of column the codec types differently.
COLUMN_KINDS = {
    "int64": INT64,
    "numpy int64": INT64.map(np.int64),
    "float64": FLOAT_BITS | st.sampled_from([0.0, -0.0, float("inf")]),
    "numpy float64": FLOAT_BITS.map(np.float64),
    "bytes": st.binary(max_size=12) | st.just(b""),
    "float lists": st.lists(FLOAT_BITS, max_size=4),
    "int lists": st.lists(INT64, max_size=4),
    "bool": st.booleans(),
    "one past int64": st.sampled_from([2 ** 63, -2 ** 63 - 1, 7]),
    "mixed": NESTED,
}


@st.composite
def row_sets(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_KINDS)),
                          min_size=1, max_size=5))
    nullable = [draw(st.booleans()) for _ in kinds]
    count = draw(st.integers(0, 9))
    return [tuple(draw(st.none() | COLUMN_KINDS[kind]) if null
                  else draw(COLUMN_KINDS[kind])
                  for kind, null in zip(kinds, nullable))
            for _ in range(count)]


class TestRoundTrip:
    @settings(max_examples=400, deadline=None)
    @given(row_sets())
    def test_unpack_of_pack_is_fingerprint_identical(self, rows):
        assert fingerprint(unpack_rows(*pack_rows(rows))) == \
            fingerprint(rows)

    @settings(max_examples=100, deadline=None)
    @given(row_sets())
    def test_through_a_frame(self, rows):
        types, buffers = pack_rows(rows)
        payload = encode_frame({"type": "result", "kind": "rows",
                                "rows": types, "rowcount": len(rows)},
                               buffers)[4:]
        result = _parse_result(*decode_frame(payload))
        assert fingerprint(result.rows) == fingerprint(rows)
        assert result.rows is result.rows    # materialised once
        assert result.rowcount == len(rows)

    def test_zero_rows_have_zero_columns(self):
        assert pack_rows([]) == ("", [])
        assert unpack_rows("", []) == []
        assert unpack_rows("", [], 0) == []

    def test_one_column_of_every_code(self):
        rows = [(1, 1.5, b"x", [1.0], True, None),
                (None, None, None, None, None, None),
                (2 ** 63 - 1, -0.0, b"", [], "s", None)]
        types, _buffers = pack_rows(rows)
        assert types == "?q?d?b?*djj"
        assert fingerprint(unpack_rows(*pack_rows(rows))) == \
            fingerprint(rows)

    def test_lists_nest_as_columns_to_a_bound_then_as_json(self):
        deep = 1.5
        for _ in range(7):
            deep = [deep, deep]
        rows = [([[1.0], [2.0, 3.0]], deep), ([[]], [])]
        types, _buffers = pack_rows(rows)
        assert types == "**d****j"
        assert fingerprint(unpack_rows(*pack_rows(rows))) == \
            fingerprint(rows)

    @pytest.mark.parametrize("rows", [
        [(1, 2), (3,)], [(1,), (2, 3)], [(), ()], [(1,), ()],
    ], ids=["short", "long", "no cells", "lost its cell"])
    def test_ragged_rows_are_refused(self, rows):
        with pytest.raises(ProtocolError, match="same, non-zero"):
            pack_rows(rows)

    def test_a_reply_costs_little_more_than_its_json(self):
        """One row, one column: a type string, one length and 8 bytes
        where ``"rows":[[v]]`` used to be."""
        header = {"type": "result", "kind": "rows", "rowcount": 1}
        for value in (20_000, -1234.5678901234567):
            old = len(encode_frame(dict(header, rows=[[value]])))
            types, buffers = pack_rows([(value,)])
            new = len(encode_frame(dict(header, rows=types), buffers))
            assert new - old <= 16


# -- hostile input -----------------------------------------------------------

Q = struct.Struct("<q").pack


def q(*values):
    return b"".join(Q(v) for v in values)


#: (what is wrong, type string, buffers, rowcount)
MALFORMED = [
    ("unknown type code", "x", [q(1)], 1),
    ("unknown code after a good one", "qz", [q(1), q(1)], 1),
    ("null wrapper around nothing", "?", [b"\x00"], 1),
    ("list of nothing", "*", [q(0)], 1),
    ("fewer buffers than the type string", "qd", [q(1)], 1),
    ("more buffers than the type string", "q", [q(1), q(1)], 1),
    ("buffers but no columns", "", [q(1)], 0),
    ("rows but no columns", "", [], 3),
    ("buffer not a multiple of 8", "q", [b"\x00" * 7], 1),
    ("buffer shorter than rowcount", "d", [q(1, 2)], 3),
    ("buffer longer than rowcount", "q", [q(1, 2, 3)], 2),
    ("lengths over-run the data", "b", [q(2, 5), b"abc"], 2),
    ("lengths under-run the data", "b", [q(1, 1), b"abc"], 2),
    ("negative length", "b", [q(-1, 4), b"abc"], 2),
    ("lengths whose sum wraps", "b",
     [q(2 ** 62, 2 ** 62, 2 ** 62, 2 ** 62 + 3), b"abc"], 4),
    ("bitmap too short", "?q", [b"\x00", q(*range(9))], 9),
    ("bitmap too long", "?q", [b"\x00\x00", q(1)], 1),
    ("counts over-run the values", "*d", [q(2, 2), q(1, 2, 3)], 2),
    ("counts under-run the values", "*q", [q(1, 0), q(1, 2)], 2),
    ("negative count", "*q", [q(-1, 2), q(1)], 2),
    ("lists nested past the stack", "*" * 2000 + "q", [b""] * 2001, 0),
    ("lists nested one level too deep", "*****q", [b""] * 6, 0),
    ("JSON column that is not JSON", "j", [b"[1,"], 1),
    ("JSON column that is not a list", "j", [b'{"a":1}'], 1),
    ("JSON column of the wrong length", "j", [b"[1,2,3]"], 2),
    ("blob marker out of range", "j1", [b'[{"$blob":1}]', b"x"], 1),
    ("side blobs announced but absent", "j2", [b"[1]", b"x"], 1),
    ("absurd side-blob count", "j99999999999999999999", [b"[1]"], 1),
    ("side-blob count int() refuses", "j" + "9" * 5000, [b"[1]"], 1),
    ("rowcount is negative", "q", [b""], -1),
    ("rowcount is a bool", "q", [q(1)], True),
    ("rowcount is a string", "q", [q(1)], "1"),
    ("type string is a list", [[1]], [], 1),
    ("type string is null", None, [], 0),
]
IDS = [case[0] for case in MALFORMED]


class TestMalformedRowSets:
    @pytest.mark.parametrize("why,types,buffers,rowcount", MALFORMED,
                             ids=IDS)
    def test_decode_raises_protocol_error(self, why, types, buffers,
                                          rowcount):
        with pytest.raises(ProtocolError):
            Columns.decode(types, buffers, rowcount)
        with pytest.raises(ProtocolError):
            Columns.decode(types, [memoryview(b) for b in buffers],
                           rowcount)

    @pytest.mark.parametrize("why,types,buffers,rowcount", MALFORMED,
                             ids=IDS)
    def test_client_refuses_the_reply(self, why, types, buffers,
                                      rowcount):
        header = {"type": "result", "kind": "rows", "rows": types,
                  "rowcount": rowcount, "metrics": None}
        with pytest.raises(ProtocolError):
            _parse_result(header, buffers).rows

    def test_inferred_rowcount_still_checks_every_column(self):
        with pytest.raises(ProtocolError, match="needs 16 bytes"):
            unpack_rows("qd", [q(1, 2), q(1)])
        with pytest.raises(ProtocolError, match="first column or buffer"):
            unpack_rows("?q", [b"\x00"])
        with pytest.raises(ProtocolError, match="first column or buffer"):
            unpack_rows("?", [b"\x00", q(1)])


@pytest.fixture(scope="module")
def server():
    db = Database()
    db.create_table("t", [Column("id", "bigint"), Column("x", "float"),
                          Column("v", "varbinary", cap=100)])
    with ServerThread(db) as handle:
        yield handle


@pytest.fixture
def sock(server):
    conn = socket.create_connection(("127.0.0.1", server.port))
    conn.settimeout(10.0)
    try:
        hello, _ = read_frame(conn)
        assert hello["protocol"] == protocol.PROTOCOL_VERSION
        yield conn
    finally:
        conn.close()


def exchange(sock, header, buffers=()):
    write_frame_sock(sock, header, buffers)
    return read_frame(sock)


def count_rows(sock):
    header, buffers = exchange(sock, {
        "type": "query", "sql": "SELECT COUNT(*) FROM t", "cold": False})
    return _parse_result(header, buffers).scalar()


class TestInsertFrames:
    def test_binary_insert_round_trip(self, sock):
        rows = [(10, 1.5, b"ab"), (11, None, None), (12, -0.0, b"")]
        types, buffers = pack_rows(rows)
        assert types == "q?d?b"
        before = count_rows(sock)
        header, _ = exchange(sock, {"type": "insert", "table": "t",
                                    "rows": types, "rowcount": 3},
                             buffers)
        assert (header["type"], header["kind"], header["rows"],
                header["rowcount"]) == ("result", "ok", "", 3)
        assert count_rows(sock) == before + 3
        header, buffers = exchange(sock, {
            "type": "query", "cold": False,
            "sql": "SELECT id, MAX(x), MAX(v) FROM t WHERE id >= 10 "
                   "GROUP BY id"})
        assert header["rows"] == "q?d?b"
        assert fingerprint(_parse_result(header, buffers).rows) == \
            fingerprint(rows)

    @pytest.mark.parametrize("why,types,buffers,rowcount", MALFORMED,
                             ids=IDS)
    def test_malformed_insert_is_a_bad_frame_and_the_session_lives(
            self, sock, why, types, buffers, rowcount):
        before = count_rows(sock)
        header, _ = exchange(sock, {"type": "insert", "table": "t",
                                    "rows": types,
                                    "rowcount": rowcount}, buffers)
        assert header["type"] == "error", why
        assert header["code"] == protocol.BAD_FRAME, why
        # Same connection, next request: answered, and nothing of the
        # refused batch was applied.
        assert exchange(sock, {"type": "ping"})[0] == {"type": "pong"}
        assert count_rows(sock) == before

    @pytest.mark.parametrize("types,buffers", [
        ("q", [q(1)]), ("?", [b"\x00", q(1)]), ("", [])])
    def test_insert_without_a_rowcount_is_a_bad_frame(self, sock, types,
                                                      buffers):
        header, _ = exchange(sock, {"type": "insert", "table": "t",
                                    "rows": types}, buffers)
        assert (header["type"], header["code"]) == \
            ("error", protocol.BAD_FRAME)
        assert "rowcount" in header["message"]
        assert exchange(sock, {"type": "ping"})[0] == {"type": "pong"}

    def test_well_formed_rows_of_the_wrong_shape_are_a_typed_error(
            self, sock):
        types, buffers = pack_rows([(1, 2.5)])    # table has 3 columns
        header, _ = exchange(sock, {"type": "insert", "table": "t",
                                    "rows": types, "rowcount": 1},
                             buffers)
        assert header["type"] == "error"
        assert exchange(sock, {"type": "ping"})[0] == {"type": "pong"}
