"""Binary header codec for array blobs.

The paper (Section 3.5) stores arrays "as plain binary blobs decorated
with a very simple header": flags identifying the storage class and the
element type (so type mismatches are caught at runtime), the rank, the
total element count, and the dimension sizes.  Short arrays carry a fixed
24-byte header with up to six int16 dimensions; max arrays carry a
variable-length header with any number of int32 dimensions.  Element data
follows the header consecutively in column-major order.

On-disk layout (all little-endian):

Short header — exactly :data:`SHORT_HEADER_SIZE` (24) bytes::

    offset  size  field
    0       2     magic b"SA"
    2       1     flags  (STORAGE_SHORT)
    3       1     element type code (repro.core.dtypes)
    4       2     uint16 rank (1..6)
    6       4     uint32 total element count
    10      12    six int16 dimension sizes (unused slots zero)
    22      2     padding (zero)

Max header — ``16 + 4 * rank`` bytes::

    offset  size     field
    0       2        magic b"MA"
    2       1        flags  (STORAGE_MAX)
    3       1        element type code
    4       4        uint32 rank (>= 1)
    8       8        uint64 total element count
    16      4*rank   int32 dimension sizes
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .dtypes import ArrayDType, dtype_by_code
from .errors import (
    HeaderError,
    ShapeError,
    ShortArrayLimitError,
    StorageClassError,
)

__all__ = [
    "STORAGE_SHORT",
    "STORAGE_MAX",
    "SHORT_HEADER_SIZE",
    "MAX_HEADER_BASE_SIZE",
    "SHORT_MAX_RANK",
    "SHORT_MAX_DIM",
    "SHORT_MAX_BLOB_BYTES",
    "ArrayHeader",
    "max_header_size",
    "encode_header",
    "decode_header",
    "peek_storage_class",
]

#: Storage-class flag values (stored in the flags byte).
STORAGE_SHORT = 0x01
STORAGE_MAX = 0x02

_SHORT_MAGIC = b"SA"
_MAX_MAGIC = b"MA"

SHORT_HEADER_SIZE = 24
MAX_HEADER_BASE_SIZE = 16

#: Short arrays have "the limit of only six indices and indices are
#: Int16" (paper Section 3.3).
SHORT_MAX_RANK = 6
SHORT_MAX_DIM = 2 ** 15 - 1

#: Total blob size limit for the short storage class.  Short arrays are
#: stored in ``VARBINARY(8000)`` columns so that they stay on the 8 kB
#: data pages of the server.
SHORT_MAX_BLOB_BYTES = 8000

_SHORT_STRUCT = struct.Struct("<2sBBHI6hxx")
_MAX_STRUCT = struct.Struct("<2sBBIQ")


@dataclass(frozen=True)
class ArrayHeader:
    """Decoded array header.

    Attributes:
        storage: :data:`STORAGE_SHORT` or :data:`STORAGE_MAX`.
        dtype: The element type.
        shape: Dimension sizes, length >= 1.
        data_offset: Byte offset of the first element in the blob.
    """

    storage: int
    dtype: ArrayDType
    shape: tuple[int, ...]
    data_offset: int

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def count(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    @property
    def data_size(self) -> int:
        """Size in bytes of the element payload."""
        return self.count * self.dtype.itemsize

    @property
    def blob_size(self) -> int:
        """Total size in bytes of a well-formed blob with this header."""
        return self.data_offset + self.data_size

    @property
    def is_short(self) -> bool:
        return self.storage == STORAGE_SHORT


def _validate_shape(shape: tuple[int, ...]) -> None:
    if len(shape) < 1:
        raise ShapeError("arrays must have at least one dimension")
    for s in shape:
        if not isinstance(s, int) or isinstance(s, bool):
            raise ShapeError(f"dimension sizes must be integers, got {s!r}")
        if s < 0:
            raise ShapeError(f"dimension sizes must be non-negative, got {s}")


def max_header_size(rank: int) -> int:
    """Header size in bytes for a max array of the given rank."""
    return MAX_HEADER_BASE_SIZE + 4 * rank


def check_short_limits(dtype: ArrayDType, shape: tuple[int, ...]) -> None:
    """Raise :class:`ShortArrayLimitError` if the array cannot be short.

    Enforces the paper's short-array constraints: rank <= 6, int16
    dimension sizes, and a total blob size that fits ``VARBINARY(8000)``.
    """
    if len(shape) > SHORT_MAX_RANK:
        raise ShortArrayLimitError(
            f"short arrays support at most {SHORT_MAX_RANK} dimensions, "
            f"got {len(shape)}")
    for s in shape:
        if s > SHORT_MAX_DIM:
            raise ShortArrayLimitError(
                f"short array dimension size {s} exceeds Int16 range")
    count = 1
    for s in shape:
        count *= s
    blob = SHORT_HEADER_SIZE + count * dtype.itemsize
    if blob > SHORT_MAX_BLOB_BYTES:
        raise ShortArrayLimitError(
            f"short array blob would be {blob} bytes; the on-page limit "
            f"is {SHORT_MAX_BLOB_BYTES}")


def encode_header(storage: int, dtype: ArrayDType,
                  shape: tuple[int, ...]) -> bytes:
    """Encode a header for an array of the given storage class and shape.

    Raises:
        StorageClassError: for an unknown storage class.
        ShapeError: for an invalid shape.
        ShortArrayLimitError: if ``storage`` is short but the array
            exceeds the short-array limits.
    """
    shape = tuple(int(s) for s in shape)
    _validate_shape(shape)
    count = 1
    for s in shape:
        count *= s
    if storage == STORAGE_SHORT:
        check_short_limits(dtype, shape)
        dims = list(shape) + [0] * (SHORT_MAX_RANK - len(shape))
        return _SHORT_STRUCT.pack(
            _SHORT_MAGIC, STORAGE_SHORT, dtype.code, len(shape), count, *dims)
    if storage == STORAGE_MAX:
        if count > 2 ** 63:
            raise ShapeError(f"element count {count} exceeds uint64 range")
        for s in shape:
            if s > 2 ** 31 - 1:
                raise ShapeError(
                    f"max array dimension size {s} exceeds Int32 range")
        head = _MAX_STRUCT.pack(
            _MAX_MAGIC, STORAGE_MAX, dtype.code, len(shape), count)
        dims = struct.pack(f"<{len(shape)}i", *shape)
        return head + dims
    raise StorageClassError(f"unknown storage class {storage!r}")


def peek_storage_class(blob: bytes) -> int:
    """Return the storage class of a blob without fully decoding it."""
    if len(blob) < 4:
        raise HeaderError(f"blob of {len(blob)} bytes is too small to be "
                          "an array")
    magic = bytes(blob[:2])
    if magic == _SHORT_MAGIC:
        return STORAGE_SHORT
    if magic == _MAX_MAGIC:
        return STORAGE_MAX
    raise HeaderError(f"bad array magic {magic!r}")


def decode_header(blob, size: int | None = None) -> ArrayHeader:
    """Decode and validate the header at the start of ``blob``.

    ``blob`` may be ``bytes``, ``bytearray`` or ``memoryview``.  Only the
    header region is inspected, but the declared payload size is checked
    against ``size`` — ``len(blob)``, or the length of the stream that
    ``blob`` is only the head of — so truncated blobs are rejected.

    Raises:
        HeaderError: for malformed, truncated, or inconsistent headers.
    """
    if size is None:
        size = len(blob)
    storage = peek_storage_class(blob)
    if storage == STORAGE_SHORT:
        if len(blob) < SHORT_HEADER_SIZE:
            raise HeaderError("truncated short array header")
        (_magic, flags, code, rank, count, *dims) = _SHORT_STRUCT.unpack(
            bytes(blob[:SHORT_HEADER_SIZE]))
        if flags != STORAGE_SHORT:
            raise HeaderError(f"short magic with flags 0x{flags:02x}")
        if not 1 <= rank <= SHORT_MAX_RANK:
            raise HeaderError(f"short array rank {rank} out of range")
        shape = tuple(dims[:rank])
        if any(s < 0 for s in shape):
            raise HeaderError(f"negative dimension in {shape}")
        if any(d != 0 for d in dims[rank:]):
            raise HeaderError("nonzero padding in unused dimension slots")
        data_offset = SHORT_HEADER_SIZE
    else:
        if len(blob) < MAX_HEADER_BASE_SIZE:
            raise HeaderError("truncated max array header")
        (_magic, flags, code, rank, count) = _MAX_STRUCT.unpack(
            bytes(blob[:MAX_HEADER_BASE_SIZE]))
        if flags != STORAGE_MAX:
            raise HeaderError(f"max magic with flags 0x{flags:02x}")
        if rank < 1:
            raise HeaderError(f"max array rank {rank} out of range")
        data_offset = max_header_size(rank)
        if len(blob) < data_offset:
            raise HeaderError("truncated max array dimension list")
        shape = struct.unpack(
            f"<{rank}i", bytes(blob[MAX_HEADER_BASE_SIZE:data_offset]))
        if any(s < 0 for s in shape):
            raise HeaderError(f"negative dimension in {shape}")

    dtype = dtype_by_code(code)
    expected = 1
    for s in shape:
        expected *= s
    if count != expected:
        raise HeaderError(
            f"element count {count} does not match shape {shape} "
            f"(product {expected})")
    if size < data_offset + count * dtype.itemsize:
        raise HeaderError(
            f"blob of {size} bytes is shorter than the "
            f"{data_offset + count * dtype.itemsize} bytes its header "
            "declares")
    return ArrayHeader(storage=storage, dtype=dtype, shape=shape,
                       data_offset=data_offset)
