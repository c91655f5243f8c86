"""The word compare behind uniform binary columns is exact.

A record-matrix batch reads an in-row binary column in place only when
every row's size prefix — and, for the array kernels, every blob's
array header — equals row 0's (``vectorized.same_rows``: strided 8-byte
words, then a byte tail).  Here exactly one row differs from row 0,
at exactly one byte of the size prefix or of the array header, at
every position, the tail bytes after the last full word included; the
engine and the row oracle must still agree, on values and on errors.
"""

import pytest

from repro.engine import Column, Database, vectorized
from repro.engine.sqlfront import SqlSession
from repro.tsql import FloatArray, FloatArrayMax, mathfuncs
from tests.engine import row_oracle
from tests.engine.test_parity import _bits
from tests.mutation import mutated

ROWS = 40
ODD = 17  # the one row that differs from row 0
W_LEN = 300

#: column -> (schema, header bytes); ``v`` holds short arrays (a
#: 24-byte header: three words), ``mv`` in-row max arrays (a 20-byte
#: header: two words and a 4-byte tail).
COLUMNS = {"v": ("FloatArray", 24), "mv": ("FloatArrayMax", 20)}
#: Size prefix bytes: ``varbinary`` a 2-byte size, ``varbinary(max)``
#: an in-row flag, then a 2-byte size — all of it tail.
PREFIX = {"v": 2, "mv": 3}

QUERIES = (
    "SELECT SUM({ns}.Item_1({c}, 0)) FROM t",
    "SELECT SUM({ns}.Item_1({c}, 4)) FROM t",
    "SELECT MAX({ns}.Subarray({c}, IntArray.Vector_1(1), "
    "IntArray.Vector_1(3))) FROM t",
    "SELECT SUM(dbo.EmptyFunction({c}, 0)) FROM t",
    "SELECT MAX({c}) FROM t",
    "SELECT id, MAX({c}) FROM t GROUP BY id",
)


def base_row(i):
    values = [0.25 * i + j for j in range(5)]
    return [i, FloatArray.Vector_5(*values),
            FloatArrayMax.Vector_5(*values), bytes([i % 251]) * W_LEN]


def odd_row(column, part, position, flip):
    """Row ``ODD`` with one byte of ``column`` changed: a header byte
    XORed with ``flip``, or a size prefix byte moved by one, the
    payload growing by what ``w`` gives up so that every record keeps
    one length."""
    row = base_row(ODD)
    c = 1 if column == "v" else 2
    if part == "header":
        blob = bytearray(row[c])
        blob[position] ^= flip
        row[c] = bytes(blob)
        return row
    if column == "mv" and position == 0:
        # The in-row flag: an out-of-page blob's 15-byte pointer where
        # the in-row cell took 3 + 60 bytes (the size bytes change too).
        row[2] = FloatArrayMax.Vector([0.5] * 1000)
        row[3] += bytes(3 + len(base_row(0)[2]) - 15)
        return row
    grow = 1 << 8 * (position - PREFIX[column] + 2)  # low or high byte
    row[c] += bytes(grow)
    row[3] = row[3][:W_LEN - grow]
    return row


def make_session(column, part, position, flip):
    db = Database(buffer_pages=256)
    table = db.create_table(
        "t", [Column("id", "bigint"), Column("v", "varbinary", cap=400),
              Column("mv", "varbinary_max"),
              Column("w", "varbinary", cap=400)])
    rows = [base_row(i) for i in range(ROWS)]
    rows[ODD] = odd_row(column, part, position, flip)
    table.insert_many([tuple(r) for r in rows])
    # One record length: the batch reaches the word compare.
    assert len({len(payload) for _key, payload in table._tree.scan()}) \
        == 1
    return SqlSession(db)


def cases(tail_only=False):
    out = []
    for column, (_ns, header) in COLUMNS.items():
        for position in range(PREFIX[column]):
            out.append((column, "prefix", position, 0))
        words = header - header % 8
        for position in range(words if tail_only else 0, header):
            for flip in (0x01, 0x80):
                out.append((column, "header", position, flip))
    return out


def case_id(case):
    column, part, position, flip = case
    return f"{column}-{part}{position}" + (f"^{flip:#x}" if flip else "")


def answer(session, sql, query=SqlSession.query):
    """The statement's value, bit for bit, or the error it raised."""
    try:
        return _bits(query(session, sql)[0])
    except Exception as exc:
        return type(exc), str(exc)


def failing_queries(session, column):
    """The queries whose engine answer is not the row oracle's."""
    schema = COLUMNS[column][0]
    queries = [sql.format(ns=schema, c=column) for sql in QUERIES]
    return [sql for sql in queries if answer(session, sql)
            != answer(session, sql, row_oracle.query)]


@pytest.mark.parametrize("case", cases(), ids=case_id)
def test_one_byte_off_row_zero_is_seen(case):
    session = make_session(*case)
    assert failing_queries(session, case[0]) == []


def test_the_uniform_batch_is_the_one_read_in_place():
    """Without the odd row every column is one ``V{size}`` view of the
    record matrix (so the cases above do reach the word compare)."""
    session = make_session("v", "header", 0, 0)  # XOR 0: no change
    table = session.db.tables["t"]
    batch = next(iter(table.scan_batches()))
    for name, size in (("v", 64), ("mv", 60), ("w", W_LEN)):
        values, mask = batch.column(name)
        assert mask is None and values.dtype == f"V{size}"


def test_a_compare_that_skips_the_byte_tail_fails(monkeypatch):
    """The same cases against a ``same_rows`` that compares whole words
    only: every difference in a tail byte goes unseen and some query
    answers differently from the row oracle."""
    skipping = mutated(
        vectorized,
        "    lanes += [matrix[:, i] for i in range(words, width)]\n",
        "").same_rows
    monkeypatch.setattr(vectorized, "same_rows", skipping)
    monkeypatch.setattr(mathfuncs, "same_rows", skipping)
    missed = [case_id(case) for case in cases(tail_only=True)
              if not failing_queries(make_session(*case), case[0])]
    assert missed == []
