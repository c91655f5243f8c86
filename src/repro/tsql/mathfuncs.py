"""Math-library UDFs on the T-SQL schemas (paper Section 5.3).

The paper exposes LAPACK and FFTW directly from T-SQL::

    DECLARE @ft VARBINARY(MAX)
    SET @ft = FloatArrayMax.FFTForward(@a)

This module attaches those functions to every floating/complex schema:

=================  =====================================================
Function           Meaning
=================  =====================================================
``FFTForward``     N-D forward DFT; returns a complex array blob
``FFTInverse``     Inverse DFT (complex input)
``PowerSpectrum``  ``|FFT|^2`` as a real array
``SvdValues``      Singular values of a matrix (``*gesvd``, values only)
``SvdU/SvdVT``     The U / V^T factors of the thin SVD
``Lstsq``          Least squares solve ``A x ~ b``
``MaskedLstsq``    Least squares over unmasked rows only
``Nnls``           Non-negative least squares (Lawson-Hanson)
``MatMul``         Matrix / matrix-vector product
``Transpose``      Matrix transpose
=================  =====================================================

Results follow the invoking schema's storage class; complex results go
to the matching complex schema's blob format (``FFTForward`` on
``FloatArray`` returns a ``ComplexArray`` blob, exactly as the native
library would hand back a complex buffer).

Integer schemas do not receive these functions — the paper's math layer
is floating-point only.
"""

from __future__ import annotations

import numpy as np

from ..core import ops as _ops
from ..core.header import STORAGE_SHORT, decode_header, encode_header
from ..core.sqlarray import SqlArray
from ..engine.vectorized import same_rows
from ..mathlib import fftw as _fftw
from ..mathlib import lapack as _lapack
from ..mathlib.nnls import nnls_arrays as _nnls_arrays
from .namespaces import (
    MAX_INDEX_N,
    MAX_VECTOR_N,
    NAMESPACES,
    ArrayNamespace,
    _as_int_vector,
)

__all__ = ["attach_math_functions", "attach_vector_kernels",
           "MATH_EXPORTS"]

#: Math functions exported to SQL, with their argument counts.
MATH_EXPORTS = {
    "FFTForward": 1,
    "FFTInverse": 1,
    "PowerSpectrum": 1,
    "SvdValues": 1,
    "SvdU": 1,
    "SvdVT": 1,
    "Lstsq": 2,
    "MaskedLstsq": 3,
    "Nnls": 2,
    "NnlsResidual": 2,
    "MatMul": 2,
    "Transpose": 1,
}


def _attach(ns: ArrayNamespace) -> None:
    """Generate the math methods for one schema."""

    def out_same(arr: SqlArray) -> bytes:
        return ns._out(arr)

    def out_typed(arr: SqlArray) -> bytes:
        """Serialize keeping the result's own element type but this
        schema's storage class (complex results from real schemas)."""
        if arr.storage != ns.storage:
            arr = (_ops.to_short(arr) if ns.storage == STORAGE_SHORT
                   else _ops.to_max(arr))
        return arr.to_blob()

    def FFTForward(blob: bytes) -> bytes:
        """Forward DFT of the array; returns a complex array blob."""
        return out_typed(_fftw.fft_forward(ns._wrap(blob)))

    def FFTInverse(blob: bytes) -> bytes:
        """Inverse DFT (this schema must be complex)."""
        return out_typed(_fftw.fft_inverse(ns._wrap(blob)))

    def PowerSpectrum(blob: bytes) -> bytes:
        """``|FFT|^2`` as a float64 array blob."""
        return out_typed(_fftw.power_spectrum(ns._wrap(blob)))

    def SvdValues(blob: bytes) -> bytes:
        """Singular values of a matrix, descending (``*gesvd``)."""
        return out_typed(_lapack.svd_values(ns._wrap(blob)))

    def SvdU(blob: bytes) -> bytes:
        """U factor of the thin SVD."""
        u, _s, _vt = _lapack.gesvd(ns._wrap(blob))
        return out_typed(u)

    def SvdVT(blob: bytes) -> bytes:
        """V^T factor of the thin SVD."""
        _u, _s, vt = _lapack.gesvd(ns._wrap(blob))
        return out_typed(vt)

    def Lstsq(a: bytes, b: bytes) -> bytes:
        """Least squares solution of ``A x ~ b``."""
        return out_typed(_lapack.solve_lstsq(ns._wrap(a), ns._wrap(b)))

    def MaskedLstsq(a: bytes, b: bytes, mask: bytes) -> bytes:
        """Least squares restricted to rows with nonzero mask."""
        return out_typed(_lapack.masked_lstsq(
            ns._wrap(a), ns._wrap(b), SqlArray.from_blob(mask)))

    def Nnls(a: bytes, b: bytes) -> bytes:
        """Non-negative least squares solution vector."""
        x, _rnorm = _nnls_arrays(ns._wrap(a), ns._wrap(b))
        return out_typed(x)

    def NnlsResidual(a: bytes, b: bytes) -> float:
        """Residual 2-norm of the NNLS solution."""
        _x, rnorm = _nnls_arrays(ns._wrap(a), ns._wrap(b))
        return rnorm

    def MatMul(a: bytes, b: bytes) -> bytes:
        """Matrix (or matrix-vector) product."""
        return out_typed(_lapack.matmul(ns._wrap(a), ns._wrap(b)))

    def Transpose(blob: bytes) -> bytes:
        """Matrix transpose."""
        return out_same(_lapack.transpose(ns._wrap(blob)))

    local = locals()
    for name in MATH_EXPORTS:
        setattr(ns, name, local[name])


def _first_blob(blobs) -> bytes | None:
    """A blob column's first cell as ``bytes`` — a ``V{size}`` column's
    is the first row of its matrix — or ``None`` if it holds none."""
    if not len(blobs):
        return None
    first = blobs[0]
    if blobs.dtype.kind == "V":
        return first.tobytes()
    return first if type(first) is bytes else None


def _same_header_matrix(blobs, data_offset: int) -> np.ndarray | None:
    """The blobs of a batch as one ``(n, length)`` ``uint8`` matrix,
    or ``None`` unless every cell is ``bytes`` of the first one's
    length sharing its first ``data_offset`` (header) bytes.

    A ``V{size}`` column (what the batch decoder makes of a fixed-size
    blob column) is that matrix already — read in place, strided as
    the column is — with its headers compared word by word
    (:func:`~repro.engine.vectorized.same_rows`); an object column's
    cells are checked one by one and joined.
    """
    if blobs.dtype.kind == "V":
        matrix = blobs[:, None].view(np.uint8)
        return matrix if same_rows(matrix[:, :data_offset]) else None
    first = blobs[0]
    length = len(first)
    prefix = first[:data_offset]
    for b in blobs:
        if (type(b) is not bytes or len(b) != length
                or b[:data_offset] != prefix):
            return None
    return np.frombuffer(b"".join(blobs), dtype=np.uint8).reshape(
        len(blobs), length)


def _item_kernel(ns: ArrayNamespace, n_idx: int):
    """Batch kernel for ``Item_N``: one strided gather over a run of
    same-shape blobs instead of one header decode + frombuffer per row.

    Follows the :class:`~repro.engine.executor.ScalarUdf` kernel
    contract — it receives equal-length argument arrays with no NULL
    lanes and returns a length-n value array, or ``None`` to decline
    the batch (mixed shapes, type mismatches, out-of-bounds indices),
    in which case the executor falls back to the per-row function and
    its exact error semantics.
    """
    dt = np.dtype(ns.dtype.numpy_dtype).newbyteorder("<")

    def kernel(args):
        blobs, *index_args = args
        first = _first_blob(blobs)
        if first is None:
            return None
        try:
            header = decode_header(first)
        except Exception:
            return None
        if (header.dtype.code != ns.dtype.code
                or header.storage != ns.storage
                or header.rank != n_idx):
            return None
        if (len(first) - header.data_offset) % dt.itemsize:
            return None
        matrix = _same_header_matrix(blobs, header.data_offset)
        if matrix is None:
            return None
        n = len(blobs)
        flat = np.zeros(n, dtype=np.int64)
        stride = 1
        for a, dim in zip(index_args, header.shape):
            if a.dtype == object:
                try:
                    a = np.array([int(v) for v in a.tolist()],
                                 dtype=np.int64)
                except (TypeError, ValueError, OverflowError):
                    return None
            elif a.dtype.kind == "f":
                if not np.isfinite(a).all():
                    return None
                a = np.trunc(a).astype(np.int64)
            elif a.dtype.kind in "iu":
                a = a.astype(np.int64)
            else:
                return None
            if ((a < 0) | (a >= dim)).any():
                return None  # the per-row path raises BoundsError
            flat += a * stride
            stride *= dim
        elems = matrix[:, header.data_offset:].view(dt)
        if (flat == flat[0]).all():  # one item of every array: a column
            return elems[:, flat[0]]
        return elems[np.arange(n), flat]

    return kernel


def _vector_kernel(ns: ArrayNamespace, n_values: int):
    """Batch kernel for ``Vector_N``: encode the shared header once and
    pack all n blobs from one ``(n, N)`` element matrix."""
    dt = np.dtype(ns.dtype.numpy_dtype).newbyteorder("<")

    def kernel(args):
        n = len(args[0])
        cols = []
        try:
            for a in args:
                if ns.dtype.is_integer:
                    # Per-element int() keeps the row path's truncation
                    # and out-of-range OverflowError semantics.
                    a = np.array([int(v) for v in a.tolist()], dtype=dt)
                elif a.dtype.kind in "OV":  # objects, or ``bytes`` cells
                    cast = complex if ns.dtype.is_complex else float
                    a = np.array([cast(v) for v in a.tolist()], dtype=dt)
                else:
                    # Via float64, as float(v) rounds: int64 -> float32
                    # in one step can land on the other neighbour.
                    if a.dtype.kind in "biu":
                        a = a.astype(np.float64)
                    a = a.astype(dt)
                cols.append(a)
        except Exception:
            return None
        head = encode_header(ns.storage, ns.dtype, (n_values,))
        data = np.ascontiguousarray(np.stack(cols, axis=1)).tobytes()
        step = n_values * dt.itemsize
        out = np.empty(n, dtype=object)
        for i in range(n):
            out[i] = head + data[i * step:(i + 1) * step]
        return out

    return kernel


def _subarray_kernel(ns: ArrayNamespace):
    """Batch kernel for ``Subarray``: when a run of rows shares one
    array shape and one (offset, size, collapse) window — the common
    "slice the same band out of every spectrum" query — decode the
    window's flat element positions once and gather them from all rows
    with a single fancy index, instead of decode + slice + re-encode
    per row.

    The per-row function is still run once, on the first row, and its
    output is compared byte-for-byte against the gathered result; any
    disagreement (or any irregularity in the batch: mixed shapes,
    differing windows, non-blob cells) declines the batch and the
    executor falls back to the exact per-row path.
    """
    dt = np.dtype(ns.dtype.numpy_dtype).newbyteorder("<")

    def uniform_blob(col):
        """The single bytes value a column holds, or None if mixed."""
        if col.dtype != object or not len(col):
            return None
        value = col[0]
        if type(value) is not bytes:
            return None
        for item in col:
            if item != value:
                return None
        return value

    def kernel(args):
        if len(args) not in (3, 4):
            return None
        blobs = args[0]
        first = _first_blob(blobs)
        if first is None:
            return None
        try:
            header = decode_header(first)
        except Exception:
            return None
        if (header.dtype.code != ns.dtype.code
                or header.storage != ns.storage):
            return None
        if (len(first) - header.data_offset) % dt.itemsize:
            return None
        matrix = _same_header_matrix(blobs, header.data_offset)
        if matrix is None:
            return None
        off_blob = uniform_blob(args[1])
        size_blob = uniform_blob(args[2])
        if off_blob is None or size_blob is None:
            return None
        collapse = 0
        if len(args) == 4:
            flags = args[3].tolist()
            if any(f != flags[0] for f in flags[1:]):
                return None
            try:
                collapse = int(flags[0])
            except (TypeError, ValueError):
                return None
        try:
            reference = ArrayNamespace.Subarray(
                ns, first, off_blob, size_blob, collapse)
            offsets = _as_int_vector(off_blob, "offset")
            sizes = _as_int_vector(size_blob, "size")
        except Exception:
            return None  # per-row path raises the canonical error
        if len(offsets) != len(header.shape) or \
                len(sizes) != len(offsets):
            return None
        count = 1
        for dim in header.shape:
            count *= dim
        grid = np.arange(count, dtype=np.int64).reshape(
            header.shape, order="F")
        try:
            window = grid[tuple(slice(o, o + s)
                                for o, s in zip(offsets, sizes))]
        except Exception:
            return None
        flat = window.reshape(-1, order="F")
        n = len(blobs)
        elems = matrix[:, header.data_offset:].view(dt)
        gathered = np.ascontiguousarray(elems[:, flat])
        step = flat.size * dt.itemsize
        out_header = reference[:len(reference) - step]
        data = gathered.tobytes()
        if out_header + data[:step] != reference:
            return None  # layout surprise: trust the per-row path
        out = np.empty(n, dtype=object)
        out[0] = reference
        for i in range(1, n):
            out[i] = out_header + data[i * step:(i + 1) * step]
        return out

    return kernel


def _instance_subarray(ns: ArrayNamespace):
    """A per-instance ``Subarray`` wrapper that can carry a batch
    kernel (bound methods reject attribute assignment)."""

    def Subarray(blob, offset, size, collapse=0):
        return ArrayNamespace.Subarray(ns, blob, offset, size, collapse)

    Subarray.__name__ = "Subarray"
    Subarray.__doc__ = ArrayNamespace.Subarray.__doc__
    Subarray.vectorized = _subarray_kernel(ns)
    return Subarray


def attach_vector_kernels() -> list[str]:
    """Attach batch kernels to every schema's ``Item_N``/``Vector_N``
    and ``Subarray``.

    :class:`~repro.engine.executor.ScalarUdf` discovers the kernels via
    the callables' ``vectorized`` attribute, so SQL queries using these
    functions run columnar under the vector engine.  Returns the schema
    names touched.  Idempotent.
    """
    attached = []
    for ns in NAMESPACES.values():
        for n in range(1, MAX_INDEX_N + 1):
            getattr(ns, f"Item_{n}").vectorized = _item_kernel(ns, n)
        for n in range(1, MAX_VECTOR_N + 1):
            getattr(ns, f"Vector_{n}").vectorized = _vector_kernel(ns, n)
        ns.Subarray = _instance_subarray(ns)
        attached.append(ns.name)
    return attached


def attach_math_functions() -> list[str]:
    """Attach the math UDFs to every floating and complex schema.

    Returns the schema names that received them.  Idempotent.
    """
    attached = []
    for ns in NAMESPACES.values():
        if ns.dtype.is_integer:
            continue
        _attach(ns)
        attached.append(ns.name)
    return attached


# The schemas ship with the math layer attached, like the paper's
# library deploys its LAPACK/FFTW wrappers with the array assembly.
attach_math_functions()
attach_vector_kernels()
