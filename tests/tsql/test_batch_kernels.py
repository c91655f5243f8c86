"""The ``Item_N`` / ``Subarray`` batch kernels over binary columns.

A fixed-length in-row ``varbinary`` column reaches a kernel as one
``V{size}`` array (its byte matrix, a cell a row); a batch that went
down the per-record path hands over an object array of ``bytes``.
Either way the kernel's answer is the per-row function's, bit for bit,
or it declines and the per-row function runs.
"""

import struct

import numpy as np
import pytest

from repro.engine import Column, Database
from repro.engine.executor import Col, Const, ScalarUdf
from repro.engine.sqlfront import SqlSession
from repro.engine.vectorized import BatchContext, RowBatch
from repro.tsql import BigIntArray, FloatArray, IntArray

ROWS = 300
OFFSET = IntArray.Vector_1(1)
SIZE = IntArray.Vector_1(3)


def blob(i: int) -> bytes:
    return FloatArray.Vector_5(*[i * 0.25 + j - 2.0 for j in range(5)])


def as_matrix_column(blobs: list[bytes]) -> np.ndarray:
    return np.frombuffer(b"".join(blobs), dtype=f"V{len(blobs[0])}")


def as_object_column(blobs: list[bytes]) -> np.ndarray:
    out = np.empty(len(blobs), dtype=object)
    out[:] = blobs
    return out


def bits(values) -> list:
    return [struct.pack("<d", v) if isinstance(v, float) else v
            for v in values]


COLUMNS = pytest.mark.parametrize(
    "make", [as_matrix_column, as_object_column], ids=["V", "object"])


class TestKernelsDirectly:
    @COLUMNS
    def test_item_at_a_constant_and_a_per_lane_index(self, make):
        blobs = [blob(i) for i in range(40)]
        kernel = FloatArray.Item_1.vectorized
        for index in (np.full(40, 3, np.int64), np.arange(40) % 5):
            got = kernel([make(blobs), index])
            want = [FloatArray.Item_1(b, i)
                    for b, i in zip(blobs, index.tolist())]
            assert bits(got.tolist()) == bits(want)

    @COLUMNS
    def test_subarray(self, make):
        blobs = [blob(i) for i in range(40)]
        got = FloatArray.Subarray.vectorized([
            make(blobs), as_object_column([OFFSET] * 40),
            as_object_column([SIZE] * 40)])
        assert got.tolist() == [FloatArray.Subarray(b, OFFSET, SIZE)
                                for b in blobs]

    @COLUMNS
    def test_a_mismatched_header_declines(self, make):
        blobs = [blob(i) for i in range(40)]
        # The same length, another element type in the header.
        blobs[17] = BigIntArray.Vector_5(1, 2, 3, 4, 5)
        assert len(blobs[17]) == len(blobs[0])
        column = make(blobs)
        assert FloatArray.Item_1.vectorized(
            [column, np.zeros(40, np.int64)]) is None
        assert FloatArray.Subarray.vectorized([
            column, as_object_column([OFFSET] * 40),
            as_object_column([SIZE] * 40)]) is None

    def test_a_constant_index_reads_a_column_of_the_matrix(self):
        column = as_matrix_column([blob(i) for i in range(40)])
        got = FloatArray.Item_1.vectorized(
            [column, np.full(40, 2, np.int64)])
        # A strided view, not a gather: it shares the column's bytes.
        assert np.shares_memory(got, column)
        assert got.tolist() == [i * 0.25 for i in range(40)]


def spied_udf(sql_func):
    """``sql_func`` as a ``ScalarUdf`` over ``b``, index 1, whose
    kernel calls and per-row calls are counted (a NULL cell in, NULL
    out, so a fallback over NULL lanes can finish)."""
    calls = {"kernel": 0, "row": 0}

    def func(cell, index):
        calls["row"] += 1
        return None if cell is None else sql_func(cell, index)

    def kernel(args):
        calls["kernel"] += 1
        return sql_func.vectorized(args)

    return ScalarUdf(func, Col("b"), Const(1), vectorized=kernel), calls


class TestThroughABatch:
    @pytest.fixture
    def batch(self):
        db = Database()
        table = db.create_table(
            "t", [Column("id", "bigint"), Column("b", "varbinary", cap=80)])
        table.insert_many([(i, blob(i)) for i in range(ROWS)])
        (batch,) = table.scan_batches()
        assert batch.column("b")[0].dtype == np.dtype(f"V{len(blob(0))}")
        return table, batch

    def test_the_kernel_takes_the_matrix_column(self, batch):
        table, batch = batch
        udf, calls = spied_udf(FloatArray.Item_1)
        ctx = BatchContext(table, None)
        ctx.batch = batch
        values, mask = udf.eval_batch(ctx)
        assert calls == {"kernel": 1, "row": 0} and mask is None
        assert bits(values.tolist()) == bits(
            [FloatArray.Item_1(blob(i), 1) for i in range(ROWS)])

    def test_null_lanes_decline_to_the_per_row_function(self, batch):
        table, batch = batch
        values, _mask = batch.column("b")
        nulls = np.arange(ROWS) % 7 == 3
        batch._columns["b"] = (values, nulls)  # flagged by the mask only
        udf, calls = spied_udf(FloatArray.Item_1)
        ctx = BatchContext(table, None)
        ctx.batch = batch
        got, mask = udf.eval_batch(ctx)
        assert calls == {"kernel": 0, "row": ROWS}
        assert (mask == nulls).all()
        assert bits(got.tolist()) == bits(
            [None if null else FloatArray.Item_1(blob(i), 1)
             for i, null in enumerate(nulls.tolist())])


def assert_row_equals_vector(session, sql):
    try:
        want = session.query(sql, engine="row")
    except Exception as exc:
        with pytest.raises(type(exc)) as caught:
            session.query(sql, engine="vector")
        assert str(caught.value) == str(exc), sql
        return
    got = session.query(sql, engine="vector")
    assert bits(got[0]) == bits(want[0]), sql
    assert got[1].udf_calls == want[1].udf_calls, sql


@pytest.fixture(scope="module")
def session():
    """``b`` holds same-header arrays; ``m`` one with a mismatched
    header (row 123); ``nb`` NULLs in a tail that sends its batch down
    the per-record path.  Records are padded so the table spans three
    batches."""
    db = Database()
    table = db.create_table(
        "t", [Column("id", "bigint"), Column("x", "float"),
              Column("k", "int"), Column("b", "varbinary", cap=80),
              Column("m", "varbinary", cap=80),
              Column("nb", "varbinary", cap=80),
              Column("pad", "varbinary", cap=400)])
    rows = 2400
    table.insert_many([
        (i, i % 11 - 5.0, i % 5, blob(i),
         BigIntArray.Vector_5(1, 2, 3, 4, 5) if i == 123 else blob(i),
         None if i >= rows - 40 and i % 3 == 0 else blob(i),
         bytes(400))
        for i in range(rows)])
    shapes = [batch.column("nb")[0].dtype.kind
              for batch in table.scan_batches()]
    assert len(shapes) >= 3 and shapes[0] == "V" and shapes[-1] == "O"
    return SqlSession(db)


@pytest.mark.parametrize("expr", [
    "FloatArray.Item_1({c}, 2)",
    "FloatArray.Item_1({c}, k)",
    "FloatArray.Item_1(FloatArray.Subarray({c}, IntArray.Vector_1(1), "
    "IntArray.Vector_1(3)), 2)",
])
@pytest.mark.parametrize("column", ["b", "m", "nb"])
@pytest.mark.parametrize("where", [
    "", " WHERE x > 0", " WHERE id <> 123", " WHERE nb IS NOT NULL"])
def test_row_and_vector_agree(session, expr, column, where):
    """Constant and per-lane index, a ``Subarray`` window; before and
    after a WHERE compacts the batch; over a mismatched header (the
    kernel declines: the per-row function raises, or runs once the
    row is filtered out) and over NULL cells in per-record batches."""
    sql = f"SELECT SUM({expr.format(c=column)}), COUNT(*) FROM t{where}"
    assert_row_equals_vector(session, sql)
