"""Partial (byte-range) read tests: correctness and minimality."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    BoundsError,
    FLOAT64,
    HeaderError,
    SqlArray,
    ops,
)
from repro.core.partial import (
    BytesBlobStream,
    iter_byte_runs,
    read_header,
    read_item,
    read_subarray,
)
from tests.conftest import small_shapes, values_for


def _stream(values, dtype="float64"):
    return BytesBlobStream(
        SqlArray.from_numpy(np.asarray(values), dtype).to_blob())


class TestByteRuns:
    def test_full_array_is_one_run(self):
        a = SqlArray.from_numpy(np.zeros((4, 5, 6)))
        runs = list(iter_byte_runs(a.header, (0, 0, 0), (4, 5, 6)))
        assert runs == [(a.header.data_offset, 4 * 5 * 6 * 8)]

    def test_full_leading_dims_merge(self):
        a = SqlArray.from_numpy(np.zeros((4, 5, 6)))
        # Full first two dims, partial third: one run per selected slab?
        # No — the window is contiguous across the merged prefix, so
        # 3 slabs of the (4, 5) plane merge into a single run.
        runs = list(iter_byte_runs(a.header, (0, 0, 2), (4, 5, 3)))
        assert len(runs) == 1
        assert runs[0][1] == 4 * 5 * 3 * 8

    def test_partial_first_dim_gives_row_runs(self):
        a = SqlArray.from_numpy(np.zeros((10, 4)))
        runs = list(iter_byte_runs(a.header, (2, 1), (3, 2)))
        assert len(runs) == 2  # one per selected column
        assert all(length == 3 * 8 for _off, length in runs)

    def test_runs_ascend_and_do_not_overlap(self):
        a = SqlArray.from_numpy(np.zeros((7, 5, 3)))
        runs = list(iter_byte_runs(a.header, (1, 1, 0), (3, 3, 3)))
        ends = [off + ln for off, ln in runs]
        starts = [off for off, _ln in runs]
        assert all(s2 >= e1 for e1, s2 in zip(ends, starts[1:]))

    def test_total_bytes_equal_window_size(self):
        a = SqlArray.from_numpy(np.zeros((6, 6, 6)))
        runs = list(iter_byte_runs(a.header, (1, 2, 3), (4, 3, 2)))
        assert sum(ln for _off, ln in runs) == 4 * 3 * 2 * 8


class TestReadHeader:
    def test_short(self):
        s = _stream([1.0, 2.0, 3.0])
        h = read_header(s)
        assert h.shape == (3,)
        # One prefix read, sized for a max header of rank 3.
        assert (s.bytes_read, s.read_calls) == (28, 1)

    def test_max_high_rank_two_reads(self):
        a = SqlArray.from_numpy(np.zeros((2,) * 8))
        s = BytesBlobStream(a.to_blob())
        h = read_header(s)
        assert h.shape == (2,) * 8
        assert s.read_calls <= 2

    def test_truncated_stream_rejected(self):
        blob = SqlArray.from_numpy(np.zeros(10)).to_blob()
        with pytest.raises(HeaderError):
            read_header(BytesBlobStream(blob[:-4]))


class TestReadSubarray:
    @given(shape=small_shapes(3, 6), seed=st.integers(0, 500),
           data=st.data())
    def test_matches_in_memory_subarray(self, shape, seed, data):
        values = values_for(FLOAT64, shape, seed)
        offset, size = [], []
        for s in shape:
            o = data.draw(st.integers(0, s - 1))
            offset.append(o)
            size.append(data.draw(st.integers(1, s - o)))
        arr = SqlArray.from_numpy(values)
        stream = BytesBlobStream(arr.to_blob())
        got = read_subarray(stream, offset, size)
        expected = ops.subarray(arr, offset, size)
        np.testing.assert_array_equal(got.to_numpy(),
                                      expected.to_numpy())

    def test_reads_only_window_bytes(self):
        a = SqlArray.from_numpy(np.zeros((20, 20, 20)))
        s = BytesBlobStream(a.to_blob())
        read_subarray(s, (5, 5, 5), (8, 8, 8))
        window_bytes = 8 * 8 * 8 * 8
        header_bytes = 28
        assert s.bytes_read == window_bytes + header_bytes
        assert s.bytes_read < s.length() / 10

    def test_collapse(self):
        a = SqlArray.from_numpy(np.arange(12, dtype="f8").reshape(3, 4))
        col = read_subarray(BytesBlobStream(a.to_blob()), (0, 1), (3, 1),
                            collapse=True)
        assert col.shape == (3,)

    def test_out_of_range(self):
        s = _stream(np.zeros((4, 4)))
        with pytest.raises(BoundsError):
            read_subarray(s, (3, 0), (2, 2))


class TestReadItem:
    def test_single_element_read(self):
        values = np.arange(60, dtype="f8").reshape(3, 4, 5)
        a = SqlArray.from_numpy(values)
        s = BytesBlobStream(a.to_blob())
        assert read_item(s, 2, 1, 3) == values[2, 1, 3]
        # Header + one element.
        assert s.bytes_read <= 28 + 8

    def test_bounds(self):
        s = _stream([1.0, 2.0])
        with pytest.raises(BoundsError):
            read_item(s, 5)


class TestBytesBlobStream:
    def test_counters(self):
        s = BytesBlobStream(b"0123456789")
        assert s.read_at(2, 3) == b"234"
        assert (s.bytes_read, s.read_calls) == (3, 1)
        assert s.length() == 10

    def test_bounds(self):
        s = BytesBlobStream(b"0123")
        with pytest.raises(BoundsError):
            s.read_at(2, 5)
        with pytest.raises(BoundsError):
            s.read_at(-1, 1)
