"""Array-aware SQLite connections.

:func:`connect` opens a SQLite database with every array UDF registered
and returns an :class:`ArrayConnection`, a thin ``sqlite3.Connection``
wrapper adding the client-side conveniences the paper's .NET interface
provides (Section 5.2): store/load helpers between numpy arrays and
array blobs, a ``to_table`` helper standing in for the table-valued
functions, and incremental (partial) blob reads against stored max
arrays via SQLite's blob handles — the stream-wrapper path.
"""

from __future__ import annotations

import sqlite3
from typing import Iterator

import numpy as np

from ..core.dtypes import ArrayDType
from ..core.errors import BoundsError
from ..core.ops import to_table
from ..core.sqlarray import SqlArray
from .registry import register_all

__all__ = ["connect", "ArrayConnection", "SqliteBlobStream"]


class SqliteBlobStream:
    """:class:`repro.core.partial.BlobStream` over a SQLite blob handle.

    Opened with :meth:`ArrayConnection.open_array_blob`; lets
    :func:`repro.core.partial.read_subarray` subset an array stored in a
    SQLite row without pulling the whole value — SQLite's incremental
    blob IO playing the role of SQL Server's stream wrapper.
    """

    def __init__(self, handle):
        self._handle = handle
        self._length = len(handle)
        self.bytes_read = 0
        self.read_calls = 0

    def read_at(self, offset: int, size: int) -> bytes:
        return self.read_runs((offset,), size)

    def read_runs(self, offsets, run_bytes: int) -> bytes:
        if len(offsets) and (offsets[0] < 0 or offsets[-1] + run_bytes
                             > self._length):
            raise BoundsError(
                f"read [{offsets[0]}, {offsets[-1] + run_bytes}) beyond "
                f"blob of {self._length} bytes")
        self.bytes_read += len(offsets) * run_bytes
        self.read_calls += 1
        parts = []
        for offset in offsets:
            self._handle.seek(offset)
            parts.append(self._handle.read(run_bytes))
        return b"".join(parts)

    def length(self) -> int:
        return self._length

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "SqliteBlobStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ArrayConnection:
    """A ``sqlite3.Connection`` with array helpers.

    All unknown attributes delegate to the underlying connection, so it
    can be used anywhere a plain connection works.
    """

    def __init__(self, conn: sqlite3.Connection):
        self.raw = conn
        self.registered_functions = register_all(conn)

    def __getattr__(self, name):
        return getattr(self.raw, name)

    def __enter__(self) -> "ArrayConnection":
        self.raw.__enter__()
        return self

    def __exit__(self, *exc):
        return self.raw.__exit__(*exc)

    # -- client-side conversions (paper Section 5.2) -------------------------

    def store_array(self, values, dtype: ArrayDType | str | None = None
                    ) -> bytes:
        """Convert a numpy array (or nested sequence) to a blob ready to
        bind as a SQL parameter."""
        return SqlArray.from_numpy(np.asarray(values), dtype).to_blob()

    def load_array(self, blob: bytes) -> np.ndarray:
        """Convert a fetched blob back to a numpy array (column-major),
        like the paper's ``dr.SqlFloatArray(dr.GetSqlBinary(1))``."""
        return SqlArray.from_blob(blob).to_numpy()

    def to_table(self, blob: bytes) -> Iterator[tuple]:
        """Yield ``(i0, ..., value)`` rows from an array blob — the
        table-valued ``ToTable`` function (SQLite's Python API has no
        TVFs, so this runs client side)."""
        return to_table(SqlArray.from_blob(blob))

    def open_array_blob(self, table: str, column: str, rowid: int,
                        readonly: bool = True) -> SqliteBlobStream:
        """Open an incremental stream over an array stored in a row.

        Combine with :func:`repro.core.partial.read_subarray` to subset
        stored arrays without materializing them::

            with conn.open_array_blob("cubes", "data", 42) as stream:
                window = read_subarray(stream, (0, 0, 0), (8, 8, 8))
        """
        handle = self.raw.blobopen(table, column, rowid,
                                   readonly=readonly)
        return SqliteBlobStream(handle)


def connect(database: str = ":memory:", **kwargs) -> ArrayConnection:
    """Open a SQLite database with the full array library registered.

    Accepts the same arguments as :func:`sqlite3.connect`.
    """
    conn = sqlite3.connect(database, **kwargs)
    return ArrayConnection(conn)
