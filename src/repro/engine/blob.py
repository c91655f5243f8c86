"""Out-of-page blob storage and the binary stream wrapper.

SQL Server stores ``VARBINARY(MAX)`` values larger than a page
out-of-page "as B-trees", and user code reaches them through a binary
stream wrapper.  The paper attributes the slowness of max arrays to
exactly two things (Section 3.3): "(a) traversing B-trees is more
expensive than simply addressing on-page data, and (b) out-of-page data
has to go through the ... binary stream wrapper" — while crediting the
wrapper with the ability to read blobs *partially*.

This module reproduces that structure: a blob is split into page-sized
chunks hanging off a chain of pointer pages, and
:class:`BlobTreeStream` exposes the :class:`~repro.core.partial.BlobStream`
interface over it.  Every traversal page touch is counted through the
buffer pool and every ``read_at`` call is counted as a stream-wrapper
invocation, so the cost model can charge both effects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .bufferpool import BufferPool
from .constants import BLOB_CHUNK_SIZE, PAGE_BLOB
from .page import PageFile

__all__ = ["BlobRef", "BlobStore", "BlobTreeStream"]

_PTR_STRUCT = struct.Struct("<i")
#: Chunk page ids stored per pointer page (one packed record).
_PTRS_PER_PAGE = 1800


@dataclass(frozen=True)
class BlobRef:
    """Pointer left in a data row for an out-of-page blob.

    Attributes:
        first_pointer_page: Page id of the first pointer page.
        length: Blob length in bytes.
    """

    first_pointer_page: int
    length: int


class BlobStore:
    """Allocates and reads out-of-page blobs in a page file."""

    def __init__(self, pagefile: PageFile, tag: str = "blobs"):
        self._pagefile = pagefile
        self._tag = tag

    def store(self, blob: bytes) -> BlobRef:
        """Write a blob out-of-page; returns the row pointer.

        The blob is cut into :data:`~repro.engine.constants.BLOB_CHUNK_SIZE`
        chunks, one chunk per blob page; chunk page ids are recorded in a
        chain of pointer pages.
        """
        blob = bytes(blob)
        chunk_ids = []
        for start in range(0, len(blob), BLOB_CHUNK_SIZE):
            page = self._pagefile.allocate(PAGE_BLOB, level=0,
                                           tag=self._tag)
            page.add_record(blob[start:start + BLOB_CHUNK_SIZE])
            chunk_ids.append(page.page_id)
        if not chunk_ids:
            # Zero-length blob: a single empty chunk keeps reads simple.
            page = self._pagefile.allocate(PAGE_BLOB, level=0,
                                           tag=self._tag)
            page.add_record(b"")
            chunk_ids.append(page.page_id)

        first_ptr = -1
        prev = None
        for start in range(0, len(chunk_ids), _PTRS_PER_PAGE):
            ptr_page = self._pagefile.allocate(PAGE_BLOB, level=1,
                                               tag=self._tag)
            ids = chunk_ids[start:start + _PTRS_PER_PAGE]
            ptr_page.add_record(struct.pack(f"<{len(ids)}i", *ids))
            if prev is None:
                first_ptr = ptr_page.page_id
            else:
                prev.next_page = ptr_page.page_id
            prev = ptr_page
        return BlobRef(first_pointer_page=first_ptr, length=len(blob))

    @property
    def tag(self) -> str:
        """The allocation tag of every blob page of the store."""
        return self._tag

    def page_ids(self, ref: BlobRef) -> list[int]:
        """Every page of a stored blob: each pointer page, then the
        chunk pages it lists (read from the page file, uncharged)."""
        ids = []
        ptr_id = ref.first_pointer_page
        while ptr_id >= 0:
            ptr_page = self._pagefile.get(ptr_id)
            record = ptr_page.get_record(0)
            ids.append(ptr_id)
            ids.extend(struct.unpack(f"<{len(record) // 4}i", record))
            ptr_id = ptr_page.next_page
        return ids

    def open(self, ref: BlobRef, pool: BufferPool) -> "BlobTreeStream":
        """Open a stream over a stored blob; reads are charged to
        ``pool``."""
        return BlobTreeStream(self._pagefile, ref, pool)

    def read_all(self, ref: BlobRef, pool: BufferPool) -> bytes:
        """Materialize the whole blob (what a full-array operation
        does)."""
        stream = self.open(ref, pool)
        return stream.read_at(0, ref.length)


class BlobTreeStream:
    """Random-access stream over an out-of-page blob.

    Implements the :class:`repro.core.partial.BlobStream` protocol, so
    :func:`repro.core.partial.read_subarray` can subset stored max arrays
    without materializing them.

    Attributes:
        stream_calls: ``read_at`` invocations (each models one trip
            through the .NET binary stream wrapper).
        bytes_read: Payload bytes returned.
    """

    def __init__(self, pagefile: PageFile, ref: BlobRef, pool: BufferPool):
        self._pagefile = pagefile
        self._ref = ref
        self._pool = pool
        self.stream_calls = 0
        self.bytes_read = 0

    def length(self) -> int:
        return self._ref.length

    def _read_chunks(self, chunks: list[int]) -> list[bytes]:
        """Contents of the chunks of ascending indices ``chunks``, each
        chunk page fetched once.

        The pointer chain is walked once, as far as the last chunk asked
        for; every pointer page visited is a (counted) page fetch — the
        B-tree traversal cost of out-of-page access.
        """
        page_ids = []
        ptr_page, ptr_index = None, -1
        for chunk in chunks:
            while ptr_index < chunk // _PTRS_PER_PAGE:
                ptr_page = self._pool.fetch(
                    self._ref.first_pointer_page if ptr_page is None
                    else ptr_page.next_page)
                record = ptr_page.get_record(0)
                ptr_index += 1
            page_ids.append(_PTR_STRUCT.unpack_from(
                record, 4 * (chunk % _PTRS_PER_PAGE))[0])
        return [page.get_record(0)
                for page in self._pool.fetch_many(page_ids)]

    def read_at(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset``, touching only the chunk
        pages the range covers."""
        return self.read_runs((offset,), size)

    def read_runs(self, offsets, run_bytes: int) -> bytes:
        """Read ``run_bytes`` bytes at each of the ascending
        ``offsets`` and return them joined: one trip through the
        wrapper, one fetch of every chunk page the runs touch."""
        if len(offsets) and (offsets[0] < 0 or offsets[-1] + run_bytes
                             > self._ref.length):
            raise ValueError(
                f"read [{offsets[0]}, {offsets[-1] + run_bytes}) beyond "
                f"blob of {self._ref.length} bytes")
        self.stream_calls += 1
        self.bytes_read += len(offsets) * run_bytes
        if not run_bytes:
            return b""
        size = BLOB_CHUNK_SIZE
        chunks: list[int] = []  # the chunks touched: ascending, distinct
        listed = -1
        for offset in offsets:
            last = (offset + run_bytes - 1) // size
            if last > listed:  # most runs end in a chunk already listed
                chunks.extend(range(max(offset // size, listed + 1),
                                    last + 1))
                listed = last
        # Laid end to end the touched chunks hold every run in one
        # piece: a run that leaves a chunk enters the next one, which
        # is touched too, and only the blob's last chunk is short.
        data = b"".join(self._read_chunks(chunks))
        skipped = {chunk: (chunk - at) * size   # bytes not in ``data``
                   for at, chunk in enumerate(chunks)}
        starts = [offset - skipped[offset // size] for offset in offsets]
        return b"".join([data[start:start + run_bytes]
                         for start in starts])
