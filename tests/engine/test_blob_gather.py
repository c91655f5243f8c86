"""The batched partial read: ``read_runs`` on all three blob streams.

``read_subarray`` hands a window's byte runs to the stream in one
call.  Whatever the stream, the window is bit-identical to
``ops.subarray`` and only the header and the window bytes are read;
the engine's tree stream also fetches every chunk page the runs touch
exactly once, after one walk of the pointer chain per call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BoundsError, SqlArray, ops
from repro.core.partial import (
    BytesBlobStream,
    iter_byte_runs,
    read_subarray,
)
from repro.engine import BlobStore, BufferPool, PageFile
from repro.engine.blob import _PTRS_PER_PAGE
from repro.engine.constants import BLOB_CHUNK_SIZE as CHUNK
from repro.sqlbind import connect
from tests.conftest import dtype_strategy, values_for

#: Bytes ``read_header`` asks for first (a max header of rank 3).
PREFIX = 28


def chunks_of(runs) -> set[int]:
    """Indices of the chunks the ``(offset, length)`` runs touch."""
    return {chunk for offset, length in runs if length
            for chunk in range(offset // CHUNK,
                               (offset + length - 1) // CHUNK + 1)}


def fetches_for(runs) -> int:
    """Pool fetches of one tree-stream call: the pointer pages up to
    the last chunk touched, and each chunk page touched once."""
    touched = chunks_of(runs)
    if not touched:
        return 0
    return max(touched) // _PTRS_PER_PAGE + 1 + len(touched)


@pytest.fixture(scope="module")
def sqlite():
    conn = connect()
    conn.execute("CREATE TABLE cubes (id INTEGER PRIMARY KEY, data BLOB)")
    yield conn
    conn.close()


@st.composite
def windows(draw):
    """``(dtype, shape, offset, size, collapse)``: rank 1-4, sides up
    to 40 (at most 64k elements, so a case stays in the millisecond
    range), a window that covers a whole axis half of the time — full
    leading axes are what merges runs."""
    shape = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4)
                 .filter(lambda s: int(np.prod(s)) <= 65536))
    offset, size = [], []
    for n in shape:
        if draw(st.booleans()):
            offset.append(0)
            size.append(n)
        else:
            offset.append(draw(st.integers(0, n - 1)))
            size.append(draw(st.integers(1, n - offset[-1])))
    return (draw(dtype_strategy()), tuple(shape), offset, size,
            draw(st.booleans()))


class TestReadSubarrayOnEveryStream:
    @settings(deadline=None, max_examples=120)
    @given(case=windows(), seed=st.integers(0, 500))
    def test_window_bytes_and_pages(self, sqlite, case, seed):
        dtype, shape, offset, size, collapse = case
        arr = SqlArray.from_numpy(values_for(dtype, shape, seed), dtype)
        blob = arr.to_blob()
        want = ops.subarray(arr, offset, size, collapse).to_blob()
        header_reads = [(0, min(PREFIX, len(blob)))]
        if arr.header.data_offset > PREFIX:  # a max array of rank 4
            header_reads.append((PREFIX,
                                 arr.header.data_offset - PREFIX))
        runs = list(iter_byte_runs(arr.header, offset, size))
        window_bytes = int(np.prod(size)) * dtype.itemsize
        assert sum(length for _off, length in runs) == window_bytes
        read = sum(n for _off, n in header_reads) + window_bytes

        memory = BytesBlobStream(blob)
        assert read_subarray(memory, offset, size,
                             collapse).to_blob() == want
        assert memory.bytes_read == read
        assert memory.read_calls == len(header_reads) + 1

        pagefile = PageFile()
        store = BlobStore(pagefile)
        pool = BufferPool(pagefile)
        tree = store.open(store.store(blob), pool)
        assert read_subarray(tree, offset, size,
                             collapse).to_blob() == want
        assert tree.bytes_read == read
        assert tree.stream_calls == len(header_reads) + 1
        assert pool.counters.logical_reads == fetches_for(runs) + sum(
            fetches_for([call]) for call in header_reads)

        sqlite.execute("INSERT OR REPLACE INTO cubes VALUES (1, ?)",
                       (blob,))
        with sqlite.open_array_blob("cubes", "data", 1) as handle:
            assert read_subarray(handle, offset, size,
                                 collapse).to_blob() == want
            assert handle.bytes_read == read
            assert handle.read_calls == len(header_reads) + 1


@pytest.fixture
def stored():
    """``store(data) -> (stream, pool)`` over a fresh page file."""
    def store(data: bytes):
        pagefile = PageFile()
        blobs = BlobStore(pagefile)
        pool = BufferPool(pagefile)
        return blobs.open(blobs.store(data), pool), pool
    return store


def patterned(size: int) -> bytes:
    return np.random.default_rng(size).bytes(size)


class TestTreeStreamGather:
    def test_runs_straddling_a_chunk_boundary(self, stored):
        data = patterned(3 * CHUNK)
        stream, pool = stored(data)
        offsets = [CHUNK - 5, 2 * CHUNK - 3]
        got = stream.read_runs(offsets, 10)
        assert got == b"".join(data[o:o + 10] for o in offsets)
        assert (stream.stream_calls, stream.bytes_read) == (1, 20)
        # Chunks 0-1 and 1-2: three pages, chunk 1 fetched once.
        assert pool.counters.logical_reads == 1 + 3

    def test_a_run_longer_than_a_chunk(self, stored):
        data = patterned(4 * CHUNK + 17)
        stream, pool = stored(data)
        assert stream.read_at(CHUNK - 1, 2 * CHUNK + 2) == \
            data[CHUNK - 1:3 * CHUNK + 1]
        assert pool.counters.logical_reads == 1 + 4

    def test_runs_in_the_last_short_chunk(self, stored):
        data = patterned(2 * CHUNK + 100)
        stream, pool = stored(data)
        offsets = [2 * CHUNK + 10, 2 * CHUNK + 60]
        assert stream.read_runs(offsets, 40) == \
            data[2 * CHUNK + 10:2 * CHUNK + 50] + data[2 * CHUNK + 60:]
        assert pool.counters.logical_reads == 1 + 1

    def test_a_zero_length_read_touches_nothing(self, stored):
        stream, pool = stored(patterned(CHUNK + 1))
        assert stream.read_at(100, 0) == b""
        assert stream.read_at(CHUNK + 1, 0) == b""
        assert (stream.stream_calls, stream.bytes_read) == (2, 0)
        assert pool.counters.logical_reads == 0

    def test_two_pointer_pages_read_at_both_ends(self, stored):
        data = patterned((_PTRS_PER_PAGE + 1) * CHUNK - 7)
        stream, pool = stored(data)
        assert stream.read_at(5, 10) == data[5:15]
        assert pool.counters.logical_reads == 1 + 1
        pool.reset_counters()
        assert stream.read_at(len(data) - 10, 10) == data[-10:]
        assert pool.counters.logical_reads == 2 + 1
        pool.reset_counters()
        # One walk of the chain serves both ends of one call.
        assert stream.read_runs([5, len(data) - 20], 10) == \
            data[5:15] + data[-20:-10]
        assert pool.counters.logical_reads == 2 + 2

    def test_read_all_fetches_each_page_once(self, stored):
        data = patterned(16 * CHUNK + 1000)  # 17 chunks
        stream, pool = stored(data)
        assert stream.read_at(0, len(data)) == data
        assert pool.counters.logical_reads == 1 + 17


class TestOutOfRangeRuns:
    """The errors are the ones ``read_at`` always raised, run or runs,
    and a refused read is not counted."""

    def streams(self, sqlite):
        data = bytes(100)
        pagefile = PageFile()
        store = BlobStore(pagefile)
        sqlite.execute("INSERT OR REPLACE INTO cubes VALUES (2, ?)",
                       (data,))
        return [
            (BytesBlobStream(data), BoundsError),
            (store.open(store.store(data), BufferPool(pagefile)),
             ValueError),
            (sqlite.open_array_blob("cubes", "data", 2), BoundsError),
        ]

    def test_every_stream_refuses_alike(self, sqlite):
        for stream, error in self.streams(sqlite):
            with pytest.raises(error, match=r"beyond blob of 100 bytes"):
                stream.read_at(95, 10)
            with pytest.raises(error):
                stream.read_at(-1, 2)
            with pytest.raises(error):
                stream.read_runs([10, 95], 10)
            with pytest.raises(error):
                stream.read_runs([-5, 10], 4)
            assert stream.bytes_read == 0
            assert stream.read_runs([], 10) == b""
            assert stream.read_runs([0, 90], 10) == bytes(20)
            assert stream.bytes_read == 20
