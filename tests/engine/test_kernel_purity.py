"""Batch kernels leave their inputs alone.

A kernel receives the batch's cached column arrays: every expression of
the statement that names the column reads the same array.  So a kernel
builds its result in fresh arrays.  Each test hands one kernel its
inputs and checks them bit for bit afterwards.  The row/vector parity
suites catch a kernel that writes into a column when a later expression
reads it; these tests catch the write itself (``fold_segments_kernel``
is held to the same in ``test_grouped.py``).
"""

import operator

import numpy as np
import pytest

from repro.engine import vectorized
from repro.engine.sqlfront import _BinOp
from repro.tsql import FloatArray

N = 6
MASK = np.array([False, True, False, False, True, False])


def _operands(kind):
    if kind == "float64":
        return (np.array([1.5, -2.0, 3.25, 0.5, 7.0, -0.0]),
                np.array([0.5, 4.0, -1.0, 2.0, 1.0, 8.0]))
    if kind == "int64":
        return (np.array([3, -2, 7, 0, 9, 2**62], dtype=np.int64),
                np.array([1, 4, -1, 2, 1, 2**62], dtype=np.int64))
    left = np.empty(N, dtype=object)
    right = np.empty(N, dtype=object)
    # NULL cells only where MASK flags them, as the engine hands them on.
    left[:] = [1, None, 2.5, 4, None, 2**70]
    right[:] = [2, 3, 0.5, 1, None, 1]
    return left, right


def _snapshot(*arrays):
    return [(a.dtype, a.copy()) for a in arrays]


def _unchanged(before, *arrays):
    for (dtype, copy), array in zip(before, arrays):
        assert array.dtype == dtype
        if dtype == object:
            assert array.tolist() == copy.tolist()
        else:
            assert array.tobytes() == copy.tobytes()


@pytest.mark.parametrize("kind", ["float64", "int64", "object"])
@pytest.mark.parametrize("op", sorted(_BinOp._FUNCS))
def test_binop_batch(op, kind):
    lv, rv = _operands(kind)
    mask = MASK.copy()
    before = _snapshot(lv, rv, mask)
    vectorized.binop_batch(op, _BinOp._FUNCS[op], lv, mask, rv, None, N)
    _unchanged(before, lv, rv, mask)


@pytest.mark.parametrize("negate", [False, True])
def test_not_and_isnull_batch(negate):
    values, _ = _operands("float64")
    mask = MASK.copy()
    before = _snapshot(values, mask)
    vectorized.not_batch(values, mask, N)
    vectorized.isnull_batch(values, mask, N, negate)
    _unchanged(before, values, mask)


@pytest.mark.parametrize("op,kind", [(operator.add, "float64"),
                                     (min, "int64"), (max, "object")])
def test_fold_batch(op, kind):
    values, _ = _operands(kind)
    mask = MASK.copy()
    before = _snapshot(values, mask)
    vectorized.fold_batch(op, None, values, mask, N)
    _unchanged(before, values, mask)


def test_array_udf_kernel():
    blobs = np.empty(N, dtype=object)
    blobs[:] = [FloatArray.Vector_3(i, i + 0.5, -i) for i in range(N)]
    index = np.arange(N, dtype=np.float64) % 3
    before = _snapshot(blobs, index)
    FloatArray.Item_1.vectorized([blobs, index])
    _unchanged(before, blobs, index)
