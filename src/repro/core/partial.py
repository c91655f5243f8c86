"""Partial (byte-range) subarray reads against streamed blobs.

Max arrays live out-of-page behind SQL Server's binary stream wrapper,
"which has one important benefit: it supports reading only parts of the
binary data if the whole array is not required.  The latter can
significantly speed up certain array subsetting operations."
(paper Section 3.3.)

This module turns a contiguous (hyper-rectangular) subarray request into
the minimal set of contiguous byte runs in the column-major payload and
reads only those runs through a :class:`BlobStream`.  The turbulence use
case (Section 2.1) is the motivating workload: an 8-point interpolation
needs an 8x8x8 neighbourhood, not the whole multi-megabyte cube.
"""

from __future__ import annotations

import struct
from typing import Iterator, Protocol, Sequence

import numpy as np

from .errors import BoundsError, ShapeError
from .header import (STORAGE_MAX, ArrayHeader, decode_header,
                     encode_header, max_header_size, peek_storage_class)
from .sqlarray import SqlArray, preferred_storage

__all__ = [
    "BlobStream",
    "BytesBlobStream",
    "iter_byte_runs",
    "read_header",
    "read_subarray",
    "read_window_blob",
    "read_item",
]


class BlobStream(Protocol):
    """Random-access read interface over a stored blob.

    Implementations exist over in-memory bytes (:class:`BytesBlobStream`),
    over the storage engine's out-of-page blob B-trees
    (:class:`repro.engine.blob.BlobTreeStream`), and over SQLite
    incremental blob handles (:mod:`repro.sqlbind.connection`).
    """

    def read_at(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes starting at ``offset`` (the one-run
        case of :meth:`read_runs`)."""
        ...

    def read_runs(self, offsets: Sequence[int], run_bytes: int) -> bytes:
        """Read the ``run_bytes`` bytes at each of ``offsets`` (ascending,
        non-overlapping) in one call; returns them joined."""
        ...

    def length(self) -> int:
        """Total blob length in bytes."""
        ...


class BytesBlobStream:
    """A :class:`BlobStream` over an in-memory byte string that counts
    how many bytes and how many read calls were issued."""

    def __init__(self, blob: bytes):
        self._blob = bytes(blob)
        self.bytes_read = 0
        self.read_calls = 0

    def read_at(self, offset: int, size: int) -> bytes:
        return self.read_runs((offset,), size)

    def read_runs(self, offsets: Sequence[int], run_bytes: int) -> bytes:
        blob = self._blob
        if len(offsets) and (
                offsets[0] < 0 or offsets[-1] + run_bytes > len(blob)):
            raise BoundsError(
                f"read [{offsets[0]}, {offsets[-1] + run_bytes}) beyond "
                f"blob of {len(blob)} bytes")
        self.bytes_read += len(offsets) * run_bytes
        self.read_calls += 1
        return b"".join([blob[o:o + run_bytes] for o in offsets])

    def length(self) -> int:
        return len(self._blob)


def _validate_window(shape: tuple[int, ...], offset: Sequence[int],
                     size: Sequence[int]) -> tuple[tuple[int, ...],
                                                   tuple[int, ...]]:
    offset = tuple(int(o) for o in offset)
    size = tuple(int(s) for s in size)
    if len(offset) != len(shape) or len(size) != len(shape):
        raise ShapeError(
            f"offset/size must each have {len(shape)} entries")
    for axis, (o, s, n) in enumerate(zip(offset, size, shape)):
        if s < 1:
            raise ShapeError(
                f"window size must be >= 1 on dimension {axis}, got {s}")
        if o < 0 or o + s > n:
            raise BoundsError(
                f"window [{o}, {o + s}) out of range [0, {n}) on "
                f"dimension {axis}")
    return offset, size


def _window_runs(header: ArrayHeader, offset: Sequence[int],
                 size: Sequence[int]) -> tuple[np.ndarray, int]:
    """The byte runs covering a window: their ascending start offsets
    (one int64 array) and their common length.

    Runs are maximal: adjacent window elements that are contiguous in
    the column-major payload are merged into a single run.  When the
    window spans whole leading dimensions the merge extends across
    those dimensions, so reading a full array is exactly one run.
    """
    shape = header.shape
    offset, size = _validate_window(shape, offset, size)
    itemsize = header.dtype.itemsize

    # Longest prefix of dimensions fully covered by the window: runs are
    # contiguous across all of them plus one partial dimension.
    merge = 0
    while (merge < len(shape) and offset[merge] == 0
           and size[merge] == shape[merge]):
        merge += 1
    if merge == len(shape):
        return (np.array([header.data_offset], dtype=np.int64),
                header.count * itemsize)

    # Byte stride of every dimension, and the window origin's offset.
    strides = []
    acc = itemsize
    for n in shape:
        strides.append(acc)
        acc *= n
    starts = np.array(
        [header.data_offset
         + sum(o * st for o, st in zip(offset, strides))], dtype=np.int64)
    # One run per index combination of the dimensions beyond the partial
    # one; a later dimension strides past everything before it, so the
    # offsets stay ascending.
    for axis in range(merge + 1, len(shape)):
        steps = np.arange(size[axis], dtype=np.int64) * strides[axis]
        starts = (steps[:, None] + starts).ravel()
    return starts, strides[merge] * size[merge]


def iter_byte_runs(header: ArrayHeader, offset: Sequence[int],
                   size: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Yield the ``(byte_offset, byte_length)`` runs covering a window,
    in ascending offset order (see :func:`_window_runs`)."""
    starts, run_bytes = _window_runs(header, offset, size)
    for start in starts.tolist():
        yield start, run_bytes


#: One read covers a short header and a max header of rank <= 3.
_HEADER_PREFIX = 28


def read_header(stream: BlobStream) -> ArrayHeader:
    """Decode the array header from a stream without reading the payload.

    One small read, and a second for the rest of the dimension list of
    a max array of rank > 3.  The payload length the header declares is
    validated against ``stream.length()``.
    """
    prefix = stream.read_at(0, min(_HEADER_PREFIX, stream.length()))
    if peek_storage_class(prefix) == STORAGE_MAX and len(prefix) >= 8:
        need = max_header_size(struct.unpack_from("<I", prefix, 4)[0])
        if need > len(prefix):
            prefix += stream.read_at(len(prefix), need - len(prefix))
    return decode_header(prefix, stream.length())


def read_subarray(stream: BlobStream, offset: Sequence[int],
                  size: Sequence[int], collapse: bool = False) -> SqlArray:
    """Read a contiguous window from a streamed array blob, touching only
    the byte ranges the window covers.

    Semantics match :func:`repro.core.ops.subarray`; the difference is
    purely in IO: only ``prod(size)`` elements plus the header travel
    through the stream, not the whole blob.
    """
    header = read_header(stream)
    size = tuple(int(s) for s in size)
    starts, run_bytes = _window_runs(header, offset, size)
    payload = stream.read_runs(starts.tolist(), run_bytes)
    # The runs, joined in offset order, are the window's column-major
    # payload as it stands; dropping unit dimensions does not move it.
    if collapse:
        size = tuple(s for s in size if s != 1) or (1,)
    storage = preferred_storage(header.dtype, size)
    head = encode_header(storage, header.dtype, size)
    return SqlArray(ArrayHeader(storage, header.dtype, size, len(head)),
                    head + payload)


def read_window_blob(stream: BlobStream, offset: Sequence[int],
                     size: Sequence[int],
                     collapse: bool = False) -> bytes:
    """Read a window from a streamed array blob and re-encode it as a
    standalone array blob.

    This is the server side of a windowed ``bquery``: only the bytes
    the window covers travel through ``stream``, and the result is a
    self-describing blob the client can hand straight to
    :meth:`SqlArray.from_blob` — bit-identical to materializing the
    whole blob and running :func:`repro.core.ops.subarray` on it.
    """
    return read_subarray(stream, offset, size, collapse=collapse) \
        .to_blob()


def read_item(stream: BlobStream, *indices: int):
    """Read a single element through the stream (one header read plus one
    element-sized payload read)."""
    from .ops import linear_offset

    header = read_header(stream)
    off = linear_offset(header.shape, [int(i) for i in indices])
    start = header.data_offset + off * header.dtype.itemsize
    payload = stream.read_at(start, header.dtype.itemsize)
    return np.frombuffer(payload, dtype=header.dtype.numpy_dtype)[0].item()
