"""The ``Item_N`` / ``Subarray`` / ``Concat`` batch kernels.

A fixed-length in-row ``varbinary`` column reaches a kernel as one
``V{size}`` array (its byte matrix, a cell a row); a batch that went
down the per-record path hands over an object array of ``bytes``.
Either way the kernel's answer is the per-row function's, bit for bit,
or it declines and the per-row function runs.
"""

import random
import struct

import numpy as np
import pytest

from repro.core.errors import BoundsError
from repro.engine import Column, Database
from repro.engine.executor import Col, Const, ScalarUdf
from repro.engine.sqlfront import SqlSession
from repro.engine.vectorized import BatchContext, RowBatch
from repro.tsql import BigIntArray, FloatArray, IntArray
from tests.engine import row_oracle

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
        ctx = BatchContext(None)
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
        ctx = BatchContext(None)
        ctx.batch = batch
        got, mask = udf.eval_batch(ctx)
        assert calls == {"kernel": 0, "row": ROWS}
        assert (mask == nulls).all()
        assert bits(got.tolist()) == bits(
            [None if null else FloatArray.Item_1(blob(i), 1)
             for i, null in enumerate(nulls.tolist())])


def assert_row_equals_vector(session, sql):
    try:
        want = row_oracle.query(session, sql)
    except Exception as exc:
        with pytest.raises(type(exc)) as caught:
            session.query(sql)
        assert str(caught.value) == str(exc), sql
        return
    got = session.query(sql)
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


class TestSubarrayKernel:
    def test_batch_matches_per_row(self):
        rng = random.Random(3)
        blobs = [FloatArray.Vector_5(*[rng.uniform(-9, 9)
                                       for _ in range(5)])
                 for _ in range(50)]
        off, size = IntArray.Vector_1(2), IntArray.Vector_1(3)
        kernel = FloatArray.Subarray.vectorized
        out = kernel([as_object_column(blobs), as_object_column([off] * 50),
                      as_object_column([size] * 50)])
        assert out is not None
        for got, blob in zip(out, blobs):
            assert got == FloatArray.Subarray(blob, off, size)

    def test_batch_with_collapse(self):
        m = FloatArray.Matrix_2(1.0, 2.0, 3.0, 4.0)
        off, size = IntArray.Vector_2(0, 1), IntArray.Vector_2(2, 1)
        kernel = FloatArray.Subarray.vectorized
        out = kernel([as_object_column([m, m]),
                      as_object_column([off, off]),
                      as_object_column([size, size]),
                      as_object_column([1, 1])])
        assert out is not None
        assert out[0] == FloatArray.Subarray(m, off, size, 1)

    def test_irregular_batch_declines(self):
        v5 = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)
        v3 = FloatArray.Vector_3(1.0, 2.0, 3.0)
        off, size = IntArray.Vector_1(1), IntArray.Vector_1(2)
        kernel = FloatArray.Subarray.vectorized
        assert kernel([as_object_column([v5, v3]),
                       as_object_column([off, off]),
                       as_object_column([size, size])]) is None
        assert kernel([as_object_column([v5, v5]),
                       as_object_column([off, IntArray.Vector_1(2)]),
                       as_object_column([size, size])]) is None


class TestConcatKernel:
    @staticmethod
    def _rows(n, rng, dims=(60,)):
        cells = rng.sample(range(int(np.prod(dims))), n)
        rows = []
        for flat in cells:
            idx = np.unravel_index(flat, dims, order="F")
            rows.append((IntArray.Vector(list(int(i) for i in idx)),
                         rng.uniform(-5, 5)))
        return rows

    def test_fast_path_matches_reader(self):
        rng = random.Random(5)
        rows = self._rows(40, rng)
        dims = IntArray.Vector_1(60)
        fast = FloatArray._concat_vectorized(rows, [60])
        assert fast is not None
        # Force the per-row reader by mixing in a bytearray index blob
        # (same bytes, but the fast path only trusts exact bytes).
        irregular = [(bytearray(rows[0][0]), rows[0][1])] + rows[1:]
        assert FloatArray._concat_vectorized(irregular, [60]) is None
        slow = FloatArray.Concat(irregular, dims)
        assert fast == slow

    def test_duplicate_indices_fall_back_to_last_write_wins(self):
        idx = IntArray.Vector_1(4)
        rows = [(idx, 1.0), (idx, 2.0)]
        assert FloatArray._concat_vectorized(rows, [10]) is None
        out = FloatArray.Concat(rows, IntArray.Vector_1(10))
        assert FloatArray.Item_1(out, 4) == 2.0

    def test_out_of_bounds_raises_canonical_error(self):
        rows = [(IntArray.Vector_1(12), 1.0)]
        with pytest.raises(BoundsError):
            FloatArray.Concat(rows, IntArray.Vector_1(10))

    def test_matrix_concat_fortran_order(self):
        rng = random.Random(9)
        rows = self._rows(12, rng, dims=(4, 5))
        out = FloatArray.Concat(rows, IntArray.Vector_2(4, 5))
        for idx_blob, value in rows:
            i, j = IntArray.Item_1(idx_blob, 0), \
                IntArray.Item_1(idx_blob, 1)
            assert FloatArray.Item_2(out, int(i), int(j)) == \
                pytest.approx(value)
