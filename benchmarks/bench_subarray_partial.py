"""Benchmark: partial subarray reads vs whole-blob materialization.

Section 3.3's benefit of the stream wrapper: "it supports reading only
parts of the binary data if the whole array is not required.  The
latter can significantly speed up certain array subsetting operations."

Sweeps the stored-array size for a fixed 8^3 window (the 8-point
interpolation neighbourhood of Section 2.1) and reports the byte and
page savings.
"""

import numpy as np
import pytest

from repro.core import SqlArray, ops
from repro.core.partial import iter_byte_runs, read_subarray
from repro.engine import BlobStore, BufferPool, PageFile
from repro.engine.blob import _PTRS_PER_PAGE
from repro.engine.constants import BLOB_CHUNK_SIZE


def _stored_cube(edge):
    pagefile = PageFile()
    store = BlobStore(pagefile)
    pool = BufferPool(pagefile)
    values = np.arange(edge ** 3, dtype="f8").reshape(edge, edge, edge)
    ref = store.store(SqlArray.from_numpy(values).to_blob())
    return store, pool, ref, values


def _partial(store, pool, ref):
    stream = store.open(ref, pool)
    return read_subarray(stream, (4, 4, 4), (8, 8, 8))


def _full(store, pool, ref):
    blob = store.read_all(ref, pool)
    return ops.subarray(SqlArray.from_blob(blob), (4, 4, 4), (8, 8, 8))


@pytest.mark.parametrize("edge", [16, 32, 64])
def test_partial_window_read(benchmark, edge):
    store, pool, ref, values = _stored_cube(edge)
    window = benchmark(_partial, store, pool, ref)
    np.testing.assert_array_equal(window.to_numpy(),
                                  values[4:12, 4:12, 4:12])


@pytest.mark.parametrize("edge", [16, 32, 64])
def test_full_blob_read(benchmark, edge):
    store, pool, ref, values = _stored_cube(edge)
    window = benchmark(_full, store, pool, ref)
    np.testing.assert_array_equal(window.to_numpy(),
                                  values[4:12, 4:12, 4:12])


def test_savings_grow_with_blob_size():
    """The crossover claim: the bigger the stored array, the bigger the
    partial-read win (whole-blob cost grows, window cost does not) —
    in bytes through the stream and in pages out of storage: the read
    fetches no more than the pointer pages it walks and the chunk
    pages its runs touch, for the header and for the window."""
    savings = []
    for edge in (16, 32, 64):
        store, pool, ref, values = _stored_cube(edge)
        stream = store.open(ref, pool)
        read_subarray(stream, (4, 4, 4), (8, 8, 8))
        savings.append(ref.length / stream.bytes_read)
        header = SqlArray.from_numpy(values).header
        allowed = 0
        for runs in ([(0, header.data_offset)],
                     iter_byte_runs(header, (4, 4, 4), (8, 8, 8))):
            touched = {chunk for offset, length in runs for chunk in
                       range(offset // BLOB_CHUNK_SIZE,
                             (offset + length - 1) // BLOB_CHUNK_SIZE + 1)}
            allowed += max(touched) // _PTRS_PER_PAGE + 1 + len(touched)
        assert pool.counters.logical_reads <= allowed
    assert savings[0] < savings[1] < savings[2]
    assert savings[2] > 50  # 64^3 blob vs 8^3 window


def test_page_touches_scale_with_window_not_blob():
    store, pool, ref, _values = _stored_cube(64)
    pool.reset_counters()
    stream = store.open(ref, pool)
    read_subarray(stream, (4, 4, 4), (8, 8, 8))
    partial_pages = pool.counters.logical_reads

    pool.clear()
    pool.reset_counters()
    store.read_all(ref, pool)
    full_pages = pool.counters.logical_reads
    assert partial_pages < full_pages / 3
