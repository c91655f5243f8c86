"""Failure-injection tests: corrupted and adversarial blobs.

The header carries type and storage flags precisely so that bad input
is *detected*, not mis-read (paper Section 3.5).  These tests feed
mutated and random blobs into every entry point and require that the
library either works or raises its own error types — never crashes,
never returns silently-wrong garbage from a malformed header.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ArrayError, SqlArray, decode_header, ops
from repro.core.partial import BytesBlobStream, read_header
from repro.tsql import FloatArray, IntArray


def _valid_blob():
    return SqlArray.from_numpy(
        np.arange(12, dtype="f8").reshape(3, 4)).to_blob()


class TestBitFlips:
    @settings(max_examples=200, deadline=None)
    @given(position=st.integers(0, 23), bit=st.integers(0, 7))
    def test_header_bit_flips_never_crash(self, position, bit):
        blob = bytearray(_valid_blob())
        blob[position] ^= 1 << bit
        blob = bytes(blob)
        try:
            arr = SqlArray.from_blob(blob)
            # If the mutation survived validation the array must be
            # internally consistent.
            assert arr.count == int(np.prod(arr.shape))
            arr.to_numpy()
        except ArrayError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(cut=st.integers(0, 119))
    def test_truncations_never_crash(self, cut):
        blob = _valid_blob()[:119]
        try:
            decode_header(blob[:cut])
        except ArrayError:
            pass


class TestRandomBytes:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(min_size=0, max_size=200))
    def test_random_blobs_rejected_cleanly(self, data):
        try:
            arr = SqlArray.from_blob(data)
            arr.to_numpy()
        except ArrayError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(min_size=0, max_size=120))
    def test_namespace_functions_reject_cleanly(self, data):
        for func in (lambda b: FloatArray.Item_1(b, 0),
                     lambda b: FloatArray.Sum(b),
                     lambda b: FloatArray.Rank(b),
                     lambda b: IntArray.Dims(b)):
            try:
                func(data)
            except ArrayError:
                pass

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(min_size=4, max_size=200))
    @example(data=b"MA\x00\x00")  # a max header cut before its rank
    def test_stream_header_reads_reject_cleanly(self, data):
        try:
            read_header(BytesBlobStream(data))
        except ArrayError:
            pass


class TestAdversarialHeaders:
    def test_declared_size_beyond_blob(self):
        # A short header claiming 1000 elements over a tiny payload.
        from repro.core import FLOAT64, STORAGE_SHORT, encode_header
        head = encode_header(STORAGE_SHORT, FLOAT64, (10,))
        with pytest.raises(ArrayError):
            SqlArray.from_blob(head + bytes(8))  # 1 element, not 10

    def test_wrong_function_wrong_type(self):
        # The paper's motivating case: a blob passed to the wrong
        # schema's function.
        int_blob = IntArray.Vector_3(1, 2, 3)
        with pytest.raises(ArrayError):
            FloatArray.Mean(int_blob)

    def test_subarray_on_mutated_dims(self):
        blob = bytearray(_valid_blob())
        # Corrupt the first dimension size without fixing the count.
        blob[10] = 99
        with pytest.raises(ArrayError):
            ops.subarray(SqlArray.from_blob(bytes(blob)), (0, 0), (1, 1))

    def test_sqlite_udfs_convert_errors(self):
        import sqlite3

        from repro.sqlbind import connect
        conn = connect()
        for expr, params in [
                ("SELECT FloatArray_Sum(?)", (b"\x00" * 30,)),
                ("SELECT FloatArray_Item_1(?, 0)", (b"SA",)),
                ("SELECT FloatArray_Reshape(?, ?)",
                 (_valid_blob(), b"junk")),
        ]:
            with pytest.raises(sqlite3.OperationalError):
                conn.execute(expr, params).fetchone()
