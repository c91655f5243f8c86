"""The T-SQL-style function surface.

The paper organizes its functions "under separate schemas by underlying
data-type and storage class ... Functions acting on short (on-page)
arrays of type INT are under the schema ``IntArray``, the ones acting on
max arrays (out-of-page) are under ``IntArrayMax``" (Section 5.1), and —
because SQL Server UDFs cannot take a variable number of parameters —
many functions "have numbered versions (denoted with an underscore and a
number) accepting a certain number of parameters".

This module generates those schemas.  Each schema is an
:class:`ArrayNamespace` whose methods take and return binary blobs
(``bytes``) and plain scalars, exactly like the ``VARBINARY`` values the
T-SQL functions exchange::

    from repro.tsql import FloatArray, IntArray

    a = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0)
    FloatArray.Item_1(a, 3)                     # -> 4.0
    m = FloatArray.Matrix_2(0.1, 0.2, 0.3, 0.4)
    FloatArray.Item_2(m, 1, 0)                  # -> 0.2 (column major)
    b = FloatArray.Subarray(a, IntArray.Vector_1(1),
                            IntArray.Vector_1(3), 0)

One namespace pair (short + max) exists per element type, produced from
the dtype registry — the Python equivalent of the paper's per-type
C++/CLI template instantiation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..core import aggregates as _agg
from ..core import ops as _ops
from ..core.dtypes import ALL_DTYPES, INT32, ArrayDType
from ..core.errors import ShapeError
from ..core.header import STORAGE_MAX, STORAGE_SHORT, encode_header
from ..core.sqlarray import SqlArray

__all__ = ["ArrayNamespace", "NAMESPACES", "namespace_for", "FromString"]

#: Highest N for which Vector_N / Item_N / UpdateItem_N ... variants are
#: generated.  The paper generates fixed numbered variants because T-SQL
#: lacks varargs; six matches the short-array index limit.
MAX_VECTOR_N = 10
MAX_MATRIX_N = 4
MAX_INDEX_N = 6


def _as_int_vector(blob: bytes, what: str) -> list[int]:
    """Decode an integer vector argument (the paper passes offsets and
    sizes as ``IntArray`` vectors)."""
    arr = SqlArray.from_blob(blob)
    if arr.rank != 1 or not arr.dtype.is_integer:
        raise ShapeError(f"{what} must be a one-dimensional integer array")
    return [int(v) for v in arr.to_numpy()]


class ArrayNamespace:
    """One T-SQL schema: all array functions for one element type and
    one storage class.

    Instances are available as module attributes of :mod:`repro.tsql`
    (``FloatArray``, ``FloatArrayMax``, ``IntArray``, ...) and in the
    :data:`NAMESPACES` registry.
    """

    def __init__(self, dtype: ArrayDType, storage: int):
        self.dtype = dtype
        self.storage = storage
        suffix = "" if storage == STORAGE_SHORT else "Max"
        self.name = dtype.schema_name + suffix
        #: Vector headers by element count, for the numbered variants'
        #: lengths only (a bounded set).
        self._vector_headers: dict[int, bytes] = {}

    def __repr__(self) -> str:
        return f"<schema {self.name}>"

    # -- internal helpers -------------------------------------------------

    def _wrap(self, blob: bytes) -> SqlArray:
        """Decode a blob and enforce this schema's type and storage class
        (the runtime mismatch checks of paper Section 3.5)."""
        arr = SqlArray.from_blob(blob)
        arr.require_dtype(self.dtype)
        arr.require_storage(self.storage)
        return arr

    def _out(self, arr: SqlArray) -> bytes:
        """Serialize a result in this schema's type and storage class."""
        if arr.dtype.code != self.dtype.code:
            arr = _ops.convert(arr, self.dtype)
        if arr.storage != self.storage:
            arr = (_ops.to_short(arr) if self.storage == STORAGE_SHORT
                   else _ops.to_max(arr))
        return arr.to_blob()

    def _scalar(self, value):
        """Coerce a scalar argument to this schema's element kind."""
        if self.dtype.is_complex:
            return complex(value)
        if self.dtype.is_integer:
            return int(value)
        return float(value)

    # -- construction ------------------------------------------------------

    def Vector(self, values) -> bytes:
        """Create a vector from any sequence of scalars (varargs-free
        convenience the T-SQL side lacks).

        The blob is put together here — a header for the element count
        plus the packed elements — and equals
        ``SqlArray.from_values(values, dtype, storage).to_blob()`` bit
        for bit, with the same errors in the same order: this is the
        constructor a multi-row ``INSERT`` calls once per row."""
        data = np.array([self._scalar(v) for v in values],
                        dtype=self.dtype.numpy_dtype)
        n = len(data)
        header = self._vector_headers.get(n)
        if header is None:
            # Validates the shape (short-array limits included).
            header = encode_header(self.storage, self.dtype, (n,))
            if n <= MAX_VECTOR_N:
                self._vector_headers[n] = header
        return header + data.tobytes()

    def Matrix(self, values, rows: int, cols: int) -> bytes:
        """Create a ``rows x cols`` matrix from scalars listed in
        column-major order."""
        arr = np.array([self._scalar(v) for v in values],
                       dtype=self.dtype.numpy_dtype)
        if arr.size != rows * cols:
            raise ShapeError(
                f"{arr.size} elements cannot fill a {rows}x{cols} matrix")
        return self._out(SqlArray.from_numpy(
            arr.reshape((rows, cols), order="F"), self.dtype, self.storage))

    def Zeros(self, *dims: int) -> bytes:
        """Create a zero-filled array of the given dimension sizes."""
        return self._out(SqlArray.zeros(
            [int(d) for d in dims], self.dtype, self.storage))

    def Fill(self, value, *dims: int) -> bytes:
        """Create an array of the given dimension sizes filled with
        ``value``."""
        return self._out(SqlArray.filled(
            [int(d) for d in dims], self._scalar(value), self.dtype,
            self.storage))

    # -- shape introspection ------------------------------------------------

    def Rank(self, blob: bytes) -> int:
        """Number of dimensions."""
        return self._wrap(blob).rank

    def Count(self, blob: bytes) -> int:
        """Total number of elements."""
        return self._wrap(blob).count

    def DimSize(self, blob: bytes, axis: int) -> int:
        """Size of one dimension."""
        arr = self._wrap(blob)
        axis = int(axis)
        if not 0 <= axis < arr.rank:
            from ..core.errors import BoundsError
            raise BoundsError(f"axis {axis} out of range for rank {arr.rank}")
        return arr.shape[axis]

    def Dims(self, blob: bytes) -> bytes:
        """Dimension sizes as an ``IntArray`` vector (the "simple T-SQL
        interface to access the dimensions/sizes" requirement)."""
        arr = self._wrap(blob)
        return SqlArray.from_values(arr.shape, INT32,
                                    STORAGE_SHORT).to_blob()

    # -- element and window access -------------------------------------------

    def Item(self, blob: bytes, indices: bytes):
        """Read one element addressed by an ``IntArray`` index vector
        (the any-rank variant of ``Item_k``)."""
        arr = self._wrap(blob)
        return _ops.item(arr, *_as_int_vector(indices, "index"))

    def UpdateItem(self, blob: bytes, indices: bytes, value) -> bytes:
        """Replace one element addressed by an index vector."""
        arr = self._wrap(blob)
        return self._out(_ops.update_item(
            arr, _as_int_vector(indices, "index"), self._scalar(value)))

    def Subarray(self, blob: bytes, offset: bytes, size: bytes,
                 collapse: int = 0) -> bytes:
        """Extract a contiguous window; ``offset`` and ``size`` are
        ``IntArray`` vectors and ``collapse`` drops length-1 dimensions
        when nonzero (paper Section 5.1)."""
        arr = self._wrap(blob)
        return self._out(_ops.subarray(
            arr, _as_int_vector(offset, "offset"),
            _as_int_vector(size, "size"), bool(collapse)))

    def Reshape(self, blob: bytes, dims: bytes) -> bytes:
        """Recast dimensions without changing the element count or
        order."""
        arr = self._wrap(blob)
        return self._out(_ops.reshape(arr, _as_int_vector(dims, "dims")))

    # -- raw binary and string conversion -------------------------------------

    def Raw(self, blob: bytes) -> bytes:
        """Strip the header; return bare column-major elements."""
        return _ops.raw(self._wrap(blob))

    def Cast(self, raw: bytes, dims: bytes) -> bytes:
        """Prefix raw consecutive numbers with a header so they can be
        treated as an array of this schema's type."""
        shape = _as_int_vector(dims, "dims")
        return self._out(_ops.cast_raw(raw, self.dtype, shape, self.storage))

    def ToString(self, blob: bytes) -> str:
        """Render as an array literal string."""
        return _ops.to_string(self._wrap(blob))

    def ToShort(self, blob: bytes) -> bytes:
        """Convert to the short (on-page) storage class."""
        arr = SqlArray.from_blob(blob)
        arr.require_dtype(self.dtype)
        return _ops.to_short(arr).to_blob()

    def ToMax(self, blob: bytes) -> bytes:
        """Convert to the max (out-of-page) storage class."""
        arr = SqlArray.from_blob(blob)
        arr.require_dtype(self.dtype)
        return _ops.to_max(arr).to_blob()

    def ConvertTo(self, blob: bytes, type_name: str) -> bytes:
        """Convert the element type (e.g. ``'float32'``, ``'bigint'``),
        keeping this storage class."""
        arr = self._wrap(blob)
        out = _ops.convert(arr, type_name)
        if self.storage == STORAGE_SHORT:
            out = _ops.to_short(out)
        else:
            out = _ops.to_max(out)
        return out.to_blob()

    # -- table conversion -------------------------------------------------------

    def ToTable(self, blob: bytes) -> Iterator[tuple]:
        """Yield ``(i0, ..., value)`` rows — the table-valued function."""
        return _ops.to_table(self._wrap(blob))

    def Concat(self, rows, dims: bytes) -> bytes:
        """Assemble an array from ``(index_vector_blob, value)`` rows —
        the reader-based table-to-array conversion the paper recommends
        over the UDA (Section 4.2).

        Regular inputs (every index blob the same shape/type, in-range
        indices, no duplicates) are assembled with one bulk decode and
        a single scatter; anything irregular falls back to the per-row
        reader and its exact error semantics.
        """
        shape = _as_int_vector(dims, "dims")
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        fast = self._concat_vectorized(rows, shape)
        if fast is not None:
            return fast

        def decoded():
            for index_blob, value in rows:
                yield _as_int_vector(index_blob, "row index"), value

        return self._out(_agg.concat_reader(decoded(), shape, self.dtype))

    def _concat_vectorized(self, rows, shape) -> bytes | None:
        """Bulk Concat over a regular row set; None declines to the
        per-row reader."""
        from ..core.header import decode_header

        if not rows or not shape:
            return None
        first = rows[0]
        if not (isinstance(first, (tuple, list)) and len(first) == 2):
            return None
        first_idx = first[0]
        if type(first_idx) is not bytes:
            return None
        try:
            header = decode_header(first_idx)
        except Exception:
            return None
        if (header.rank != 1 or not header.dtype.is_integer
                or tuple(header.shape) != (len(shape),)):
            return None
        idt = np.dtype(header.dtype.numpy_dtype).newbyteorder("<")
        length = len(first_idx)
        prefix = first_idx[:header.data_offset]
        if length - header.data_offset != len(shape) * idt.itemsize:
            return None
        blobs = []
        values = []
        for row in rows:
            if not (isinstance(row, (tuple, list)) and len(row) == 2):
                return None
            index_blob, value = row
            if (type(index_blob) is not bytes
                    or len(index_blob) != length
                    or index_blob[:header.data_offset] != prefix):
                return None
            blobs.append(index_blob)
            values.append(value)
        raw = np.frombuffer(b"".join(blobs), dtype=np.uint8)
        idx = raw.reshape(len(blobs), length)[:, header.data_offset:] \
            .view(idt).astype(np.int64)
        dims_arr = np.array(shape, dtype=np.int64)
        if ((idx < 0) | (idx >= dims_arr)).any():
            return None  # the reader raises the canonical BoundsError
        flat = np.ravel_multi_index(tuple(idx.T), tuple(shape),
                                    order="F")
        if len(np.unique(flat)) != len(flat):
            # Duplicate cells: sequential accumulation is last-write-
            # wins, which a single scatter does not guarantee.
            return None
        try:
            vals = np.asarray(values).astype(self.dtype.numpy_dtype,
                                             casting="unsafe")
        except Exception:
            return None
        total = int(np.prod(dims_arr))
        cells = np.zeros(total, dtype=self.dtype.numpy_dtype)
        cells[flat] = vals
        return self._out(SqlArray.from_numpy(
            cells.reshape(tuple(shape), order="F"), self.dtype))

    # -- aggregates and arithmetic ------------------------------------------------

    def Sum(self, blob: bytes):
        """Sum of all elements."""
        return _ops.aggregate_all(self._wrap(blob), "sum")

    def Mean(self, blob: bytes):
        """Mean of all elements."""
        return _ops.aggregate_all(self._wrap(blob), "mean")

    def Min(self, blob: bytes):
        """Minimum element."""
        return _ops.aggregate_all(self._wrap(blob), "min")

    def Max(self, blob: bytes):
        """Maximum element."""
        return _ops.aggregate_all(self._wrap(blob), "max")

    def Std(self, blob: bytes):
        """Population standard deviation of all elements."""
        return _ops.aggregate_all(self._wrap(blob), "std")

    def SumAxis(self, blob: bytes, axis: int) -> bytes:
        """Sum over one dimension (Section 2.2's "summation over certain
        axes")."""
        return self._out(_ops.aggregate_axis(self._wrap(blob), "sum",
                                             int(axis)))

    def MeanAxis(self, blob: bytes, axis: int) -> bytes:
        """Mean over one dimension."""
        return self._out(_ops.aggregate_axis(self._wrap(blob), "mean",
                                             int(axis)))

    def Add(self, a: bytes, b: bytes) -> bytes:
        """Element-wise sum of two same-shape arrays."""
        return self._out(_ops.add(self._wrap(a), self._wrap(b)))

    def Subtract(self, a: bytes, b: bytes) -> bytes:
        """Element-wise difference."""
        return self._out(_ops.subtract(self._wrap(a), self._wrap(b)))

    def Multiply(self, a: bytes, b: bytes) -> bytes:
        """Element-wise product."""
        return self._out(_ops.multiply(self._wrap(a), self._wrap(b)))

    def Divide(self, a: bytes, b: bytes) -> bytes:
        """Element-wise division."""
        return self._out(_ops.divide(self._wrap(a), self._wrap(b)))

    def Scale(self, blob: bytes, factor) -> bytes:
        """Multiply every element by a scalar."""
        return self._out(_ops.scale(self._wrap(blob), self._scalar(factor)))

    def Dot(self, a: bytes, b: bytes):
        """Dot product of two vectors."""
        return _ops.dot(self._wrap(a), self._wrap(b))


def _attach_numbered_variants(ns: ArrayNamespace) -> None:
    """Generate the ``_N`` function variants the paper describes.

    ``Vector_N`` takes N scalars; ``Matrix_N`` takes N*N scalars for an
    N-by-N matrix ("the Matrix_2 function creates a 2-by-2 matrix from
    the listed four elements"); ``Item_N`` / ``UpdateItem_N`` take N
    separate index arguments; ``Zeros_N`` / ``Fill_N`` take N dimension
    sizes.
    """

    def make_vector(n):
        def vector(*values):
            if len(values) != n:
                raise ShapeError(f"Vector_{n} takes exactly {n} values, "
                                 f"got {len(values)}")
            return ns.Vector(values)
        vector.__name__ = f"Vector_{n}"
        vector.__doc__ = f"Create a {n}-element vector from {n} scalars."
        return vector

    def make_matrix(n):
        def matrix(*values):
            if len(values) != n * n:
                raise ShapeError(f"Matrix_{n} takes exactly {n * n} "
                                 f"values, got {len(values)}")
            return ns.Matrix(values, n, n)
        matrix.__name__ = f"Matrix_{n}"
        matrix.__doc__ = (f"Create a {n}-by-{n} matrix from {n * n} "
                          "scalars in column-major order.")
        return matrix

    def make_item(n):
        def item(blob, *indices):
            if len(indices) != n:
                raise ShapeError(f"Item_{n} takes exactly {n} indices, "
                                 f"got {len(indices)}")
            return _ops.item(ns._wrap(blob), *[int(i) for i in indices])
        item.__name__ = f"Item_{n}"
        item.__doc__ = f"Read one element of a {n}-dimensional array."
        return item

    def make_update(n):
        def update_item(blob, *args):
            if len(args) != n + 1:
                raise ShapeError(f"UpdateItem_{n} takes {n} indices and a "
                                 f"value, got {len(args)} arguments")
            *indices, value = args
            return ns._out(_ops.update_item(
                ns._wrap(blob), [int(i) for i in indices],
                ns._scalar(value)))
        update_item.__name__ = f"UpdateItem_{n}"
        update_item.__doc__ = (f"Replace one element of a {n}-dimensional "
                               "array; returns the new blob.")
        return update_item

    def make_zeros(n):
        def zeros(*dims):
            if len(dims) != n:
                raise ShapeError(f"Zeros_{n} takes exactly {n} dimension "
                                 f"sizes, got {len(dims)}")
            return ns.Zeros(*dims)
        zeros.__name__ = f"Zeros_{n}"
        zeros.__doc__ = f"Create a zero-filled {n}-dimensional array."
        return zeros

    def make_fill(n):
        def fill(value, *dims):
            if len(dims) != n:
                raise ShapeError(f"Fill_{n} takes a value and {n} "
                                 f"dimension sizes, got {len(dims)} sizes")
            return ns.Fill(value, *dims)
        fill.__name__ = f"Fill_{n}"
        fill.__doc__ = (f"Create a {n}-dimensional array filled with a "
                        "constant.")
        return fill

    def attach(fn):
        setattr(ns, fn.__name__, fn)

    for n in range(1, MAX_VECTOR_N + 1):
        attach(make_vector(n))
    for n in range(1, MAX_MATRIX_N + 1):
        attach(make_matrix(n))
    for n in range(1, MAX_INDEX_N + 1):
        attach(make_item(n))
        attach(make_update(n))
        attach(make_zeros(n))
        attach(make_fill(n))


def _build_namespaces() -> dict[str, ArrayNamespace]:
    spaces = {}
    for dtype in ALL_DTYPES:
        for storage in (STORAGE_SHORT, STORAGE_MAX):
            ns = ArrayNamespace(dtype, storage)
            _attach_numbered_variants(ns)
            spaces[ns.name] = ns
    return spaces


#: Registry of every generated schema, keyed by schema name
#: (``"FloatArray"``, ``"FloatArrayMax"``, ``"IntArray"``, ...).
NAMESPACES = _build_namespaces()


def namespace_for(dtype: ArrayDType | str, storage: int) -> ArrayNamespace:
    """Look up the schema for an element type and storage class."""
    from ..core.dtypes import dtype_by_name
    adt = dtype_by_name(dtype) if isinstance(dtype, str) else dtype
    suffix = "" if storage == STORAGE_SHORT else "Max"
    return NAMESPACES[adt.schema_name + suffix]


def FromString(text: str) -> bytes:
    """Parse an array literal (the element type is in the literal, so
    this lives outside the per-type schemas)."""
    return _ops.from_string(text).to_blob()
