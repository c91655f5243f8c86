"""Nonclustered secondary indexes.

A secondary index is a second B+tree mapping a column's values to the
primary keys of the rows holding them, enabling index seeks and range
scans on non-key columns ("efficient search in these multi-dimensional
datasets is also an important objective", paper Section 1).

Design notes:

* Index keys must be totally ordered 64-bit integers (the B-tree's key
  type).  Integer columns map directly; ``float``/``real`` columns use
  the standard order-preserving IEEE-754 bit transform
  (:func:`float_to_ordered_int`), so range scans over floats work.
* Duplicate column values are handled with *posting lists*: the index
  payload for one value is a ``BigIntArray`` vector of the primary keys
  holding that value — arrays inside the index, the library eating its
  own dog food.
* Indexes are maintained by the owning table on insert/delete/update,
  keyed by the value as stored (a ``real`` is rounded to float32), and
  versioned with it; NULL values are not indexed (SQL semantics:
  ``col = NULL`` never matches).
"""

from __future__ import annotations

import math
import struct
from typing import Iterator

import numpy as np

from ..core.sqlarray import SqlArray
from .btree import BTree
from .bufferpool import BufferPool
from .constants import PAGE_INDEX
from .page import PageFile

__all__ = ["float_to_ordered_int", "ordered_int_to_float",
           "IndexReader", "SecondaryIndex"]

_INDEXABLE_TYPES = {"bigint", "int", "smallint", "tinyint", "float",
                    "real"}


def float_to_ordered_int(value: float) -> int:
    """Map a float64 to an int64 preserving numeric order.

    Positive floats sort like their bit patterns; negatives sort
    reversed — flipping all bits of negatives and the sign bit of
    positives gives a total order matching ``<`` on the floats
    (NaNs excluded).  ``-0.0`` and ``0.0`` compare equal, so they
    share one key (adding ``0.0`` turns ``-0.0`` into ``0.0``).
    """
    mask = (1 << 64) - 1
    (bits,) = struct.unpack("<Q", struct.pack("<d", float(value) + 0.0))
    if bits >> 63:
        bits = ~bits & mask      # negative: flip all (reverses order)
    else:
        bits |= 1 << 63          # positive: set the sign bit
    return bits - (1 << 63)      # shift into signed int64 range


def ordered_int_to_float(key: int) -> float:
    """Inverse of :func:`float_to_ordered_int`."""
    mask = (1 << 64) - 1
    bits = (key + (1 << 63)) & mask
    if bits >> 63:
        bits ^= 1 << 63          # was positive: clear the sign bit
    else:
        bits = ~bits & mask      # was negative: flip back
    (value,) = struct.unpack("<d", struct.pack("<Q", bits))
    return value


class IndexReader:
    """Seeks and ranges over one version of an index's tree (live, or a
    snapshot's :class:`~repro.engine.btree.BTreeReader`), comparing a
    constant as a scan does: an integer column matches no fraction and
    rounds range bounds up."""

    def __init__(self, tree, is_float: bool):
        self._tree = tree
        self._is_float = is_float

    def _key(self, value) -> int:
        """The key of a stored (non-NULL) value."""
        if self._is_float:
            return float_to_ordered_int(value)
        return int(value)

    def _bound(self, value):
        """A range bound as a key: an integer column's rounded up, and
        an infinite one left for the tree to compare as it is."""
        if self._is_float:
            return float_to_ordered_int(value)
        if isinstance(value, int) or not math.isfinite(value):
            return value
        return math.ceil(value)

    def seek(self, value, pool: BufferPool | None = None) -> list[int]:
        """Primary keys of rows where the column equals ``value``."""
        if value is None or (not self._is_float and value % 1):
            return []
        posting = self._tree.search(self._key(value), pool)
        if posting is None:
            return []
        return [int(pk) for pk in SqlArray.from_blob(posting).to_numpy()]

    def range(self, lo=None, hi=None, pool: BufferPool | None = None
              ) -> Iterator[int]:
        """Primary keys of rows with ``lo <= column < hi`` (either
        bound may be ``None``), in column-value order."""
        start = None if lo is None else self._bound(lo)
        stop = None if hi is None else self._bound(hi)
        for _key, posting in self._tree.scan(pool, start=start,
                                             stop=stop):
            for pk in SqlArray.from_blob(posting).to_numpy():
                yield int(pk)


class SecondaryIndex(IndexReader):
    """One nonclustered index over a table column.

    Create through :meth:`repro.engine.table.Table.create_index`, which
    also backfills existing rows and hooks maintenance into the write
    path, in the write scope and the published version of its rows.
    """

    def __init__(self, table, column_name: str, pagefile: PageFile):
        column = table.columns[table.column_index(column_name)]
        if column.type not in _INDEXABLE_TYPES:
            from .table import SchemaError
            raise SchemaError(
                f"cannot index column {column_name!r} of type "
                f"{column.type!r}")
        super().__init__(BTree(pagefile, PAGE_INDEX,
                               tag=f"{table.name}.ix_{column_name}"),
                         column.type in ("float", "real"))
        self.table = table
        self.column_name = column_name
        self._entries = 0

    @property
    def entry_count(self) -> int:
        """Indexed (non-NULL) row entries."""
        return self._entries

    @property
    def distinct_keys(self) -> int:
        return self._tree.count

    # -- maintenance (called by the table, with values as stored) ------------

    def add(self, value, pk: int) -> None:
        """Index one row's value."""
        if value is None:
            return
        key = self._key(value)
        existing = self._tree.search(key)
        if existing is None:
            posting = SqlArray.from_values([pk], "int64")
            self._tree.insert(key, posting.to_blob())
        else:
            pks = SqlArray.from_blob(existing).to_numpy()
            updated = np.append(pks, np.int64(pk))
            self._tree.update(
                key, SqlArray.from_numpy(updated, "int64").to_blob())
        self._entries += 1

    def remove(self, value, pk: int) -> None:
        """Remove one row's entry."""
        if value is None:
            return
        key = self._key(value)
        existing = self._tree.search(key)
        if existing is None:
            return
        pks = SqlArray.from_blob(existing).to_numpy()
        keep = pks[pks != pk]
        if len(keep) == len(pks):
            return
        self._entries -= 1
        if len(keep) == 0:
            self._tree.delete(key)
        else:
            self._tree.update(
                key, SqlArray.from_numpy(keep, "int64").to_blob())
