"""Batch execution: columnar row batches and batch kernels.

Every statement runs here.  A clustered scan is chopped into
:class:`RowBatch` chunks of whole leaf pages, and a seek's records form
one batch; fixed-width columns are decoded with NumPy strided views
over the concatenated records, and expressions/aggregates advance a
whole batch per dispatch.

The reference for what a statement answers is a row-at-a-time
interpreter kept with the tests (``tests/engine/row_oracle.py``): one
decoded tuple at a time through the same expression tree, the
semantics the paper's per-row UDF calls have.  Parity with it is a hard
contract, enforced by the parity suites:

* **Results are bit-identical.**  Aggregates accumulate left-to-right
  (no pairwise summation: a float64 sum is a sequential
  ``np.add.accumulate``, anything else a fold over Python scalars),
  integer arithmetic uses Python objects (no int64 overflow), ``real``
  columns are widened to float64 before arithmetic exactly like
  ``struct.unpack`` widens them, and division by zero raises like
  Python does.
* **IO accounting is identical.**  Batches charge the buffer pool the
  same page touches in the same order as a row scan
  (``scan_leaf_batches`` charging each leaf run in one call:
  :meth:`BufferPool.fetch_pages` on the MVCC read path,
  :meth:`BufferPool.fetch_many` on the live tree).
* **NULL handling is identical.**  Values travel as ``(values, mask)``
  pairs — ``mask`` is ``None`` (no NULLs) or a boolean array with
  ``True`` marking NULL lanes; a plain Python scalar in ``values``
  broadcasts, with ``None`` meaning NULL in every lane.
"""

from __future__ import annotations

import operator
import struct
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import chain

import numpy as np

from .blob import BlobRef
from .btree import _KEY_STRUCT
from .bufferpool import BufferPool
from .table import MaxBlobHandle, Table, _layout, _TableLayout

__all__ = [
    "DEFAULT_BATCH_PAGES",
    "RowBatch",
    "same_rows",
    "BatchContext",
    "binop_batch",
    "not_batch",
    "isnull_batch",
    "truthy",
    "null_lanes",
    "to_pylist",
    "as_full_array",
    "nonnull_values",
    "fold",
    "fold_batch",
    "fold_segments_kernel",
    "CountColumn",
    "FoldColumn",
    "ValuesColumn",
    "GroupArrays",
    "scan_aggregate",
    "scan_grouped",
]

#: Leaf pages decoded per batch (~0.5 MB of records); large enough to
#: amortize NumPy dispatch, small enough to keep working sets cache
#: resident.
DEFAULT_BATCH_PAGES = 64

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


def _object_column(cells: list) -> np.ndarray:
    out = np.empty(len(cells), dtype=object)
    out[:] = cells
    return out


def _row_bytes(matrix: np.ndarray) -> list:
    """Each row of a C-contiguous ``(n, size)`` ``uint8`` matrix,
    ``size > 0``, as one ``bytes`` (one pass in C: an unstructured void
    item converts to ``bytes``)."""
    return matrix.view(f"V{matrix.shape[1]}").ravel().tolist()


def same_rows(matrix: np.ndarray) -> bool:
    """Whether every row of an ``(n, w)`` ``uint8`` matrix, ``n > 0``
    — strided rows, as a band of a record matrix is — equals row 0.
    Each full 8-byte word is compared down the rows as one strided
    ``<u8`` lane, then each byte of the tail as a ``uint8`` lane:
    ``w // 8 + w % 8`` compares of ``n`` lanes, no ``(n, w)``
    temporary."""
    width = matrix.shape[1]
    words = width - width % 8
    lanes = [matrix[:, i:i + 8].view("<u8")[:, 0]
             for i in range(0, words, 8)]
    lanes += [matrix[:, i] for i in range(words, width)]
    return not any((lane != lane[0]).any() for lane in lanes)


class RowBatch:
    """A run of clustered-index rows decoded column-at-a-time.

    A batch comes in one of two shapes.  When every leaf record of the
    run has the same length it holds them as one ``(n, L)`` ``uint8``
    *record matrix* (key bytes first, then the payload) and every
    column is a strided slice of it; otherwise it holds the per-row
    payload ``bytes`` and decodes through whole-row tuples.  A
    *counted* batch (:meth:`counted`) holds neither: only ``n`` and
    ``payload_bytes``, for a statement that reads no column.

    Attributes:
        table: The owning table.
        keys: Primary keys as an int64 array.
        n: Number of rows in the batch.
        payload_bytes: The rows' payload bytes (keys not counted).
    """

    __slots__ = ("table", "keys", "n", "payload_bytes", "_records",
                 "_payloads", "_columns", "_tuples")

    def __init__(self, table: "Table", keys=None,
                 payloads: list[bytes] | None = None, *,
                 records: np.ndarray | None = None):
        self.table = table
        self._records = records
        self._payloads = payloads
        if records is not None:
            self.n = len(records)
            self.keys = self._field(0, np.dtype("<i8"))
            self.payload_bytes = self.n * (records.shape[1]
                                           - _KEY_STRUCT.size)
        else:
            self.n = len(payloads)
            self.keys = np.asarray(keys, dtype=np.int64)
            self.payload_bytes = sum(map(len, payloads))
        self._columns: dict[str, tuple] = {}
        self._tuples: list[tuple] | None = None

    @classmethod
    def counted(cls, table: "Table", pages) -> "RowBatch":
        """A run of leaf pages as a row count and payload bytes only,
        from each page's slot count and record bytes: what a statement
        that reads no column (``COUNT(*)`` without ``WHERE``) needs of
        a batch.  No page body is joined and no column can be read."""
        batch = cls(table, (), [])
        batch.n = sum(page.slot_count for page in pages)
        batch.payload_bytes = sum(page.record_bytes for page in pages) \
            - batch.n * _KEY_STRUCT.size
        return batch

    @classmethod
    def from_pages(cls, table: "Table", pages) -> "RowBatch":
        """Decode a run of leaf pages — the one page→batch routine
        behind every scan entry point.

        Each non-empty page contributes its :meth:`Page.record_block`
        (a dense page its body, a holed one its gathered matrix); the
        blocks are joined once into a buffer the batch owns, so no view
        of a page body outlives this call (a view would pin the page's
        ``bytearray`` against the next insert).  A page whose records
        differ in length — or from the other pages' — sends the whole
        run down the per-record path.
        """
        blocks = []
        length = 0
        for page in pages:
            if not page.slot_count:
                continue
            block = page.record_block()
            if block is None or (blocks and block[0] != length):
                break
            length = block[0]
            blocks.append(block[1])
        else:
            if blocks:
                return cls(table, records=np.frombuffer(
                    bytearray().join(blocks), dtype=np.uint8,
                ).reshape(-1, length))
        keys: list[int] = []
        payloads: list[bytes] = []
        for page in pages:
            for record in page.records():
                keys.append(_KEY_STRUCT.unpack_from(record)[0])
                payloads.append(record[_KEY_STRUCT.size:])
        return cls(table, keys, payloads)

    @property
    def payloads(self) -> list[bytes]:
        """The raw leaf payloads, one ``bytes`` per row (materialized
        on first use for a record-matrix batch)."""
        if self._payloads is None:
            self._payloads = _row_bytes(np.ascontiguousarray(
                self._records[:, _KEY_STRUCT.size:]))
        return self._payloads

    # -- decoding ----------------------------------------------------------

    def _field(self, offset: int, dt: np.dtype) -> np.ndarray:
        """Strided view of the field at one byte offset of every
        record."""
        records = self._records
        if not self.n:  # an empty buffer admits no offset
            return np.empty(0, dtype=dt)
        return np.ndarray((self.n,), dtype=dt, buffer=records,
                          offset=offset, strides=(records.shape[1],))

    def _null_mask(self, col_slot: int) -> np.ndarray:
        bits = self._field(_layout(self.table).bitmap_offset
                           + (col_slot >> 3), np.dtype(np.uint8))
        return ((bits >> (col_slot & 7)) & 1).astype(bool)

    def column(self, name: str) -> tuple:
        """Decode one column as ``(values, mask)``.

        Fixed-width columns come back as numeric arrays (zeros in NULL
        lanes, flagged by the mask), and so does a record-matrix batch's
        in-row binary column whose cells share one size > 0: one
        ``V{size}`` array, a strided view of the column's bytes in the
        record matrix.  Other variable columns are object arrays of
        ``bytes`` / :class:`MaxBlobHandle` / ``None``.
        """
        got = self._columns.get(name)
        if got is not None:
            return got
        table = self.table
        idx = table.column_index(name)
        if idx == 0:
            out = (self.keys, None)
        elif self._records is not None:
            spec = _layout(table).fixed.get(name)
            if spec is not None:
                offset, slot, dt = spec
                mask = self._null_mask(slot)
                out = (self._field(offset, dt).copy(),
                       mask if mask.any() else None)
            else:
                self._decode_var_columns()
                return self._columns[name]
        else:
            out = self._column_from_tuples(name, idx)
        self._columns[name] = out
        return out

    def _decode_var_columns(self) -> None:
        """Decode *all* var columns at once (they are stored
        sequentially, so decoding one means walking the ones before it
        anyway)."""
        layout = _layout(self.table)
        masks = {name: self._null_mask(slot)
                 for name, slot, _typ in layout.var}
        outs = self._var_columns_uniform(layout, masks)
        if outs is None:
            outs = self._var_columns_per_row(layout, masks)
        for name, values in outs.items():
            mask = masks[name]
            self._columns[name] = (values, mask if mask.any() else None)

    def _var_columns_uniform(self, layout: _TableLayout, masks: dict
                             ) -> dict | None:
        """All rows share one shape: every size field and
        ``varbinary(max)`` flag equals row 0's, so each value sits at
        the same offset in every record and a column is one strided
        view of the record matrix.  Returns ``None`` as soon as a row
        disagrees."""
        records = self._records
        store = self.table._blob_store
        pos = layout.var_offset
        outs = {}
        for name, _slot, typ in layout.var:
            head = 2 if typ == "varbinary" else 3
            if not same_rows(records[:, pos:pos + head]):
                return None
            prefix = records[0, pos:pos + head]
            if typ == "varbinary_max" and prefix[0]:
                ptrs = self._field(pos + 3, np.dtype("<i4")).tolist()
                sizes = self._field(pos + 7, np.dtype("<i8")).tolist()
                outs[name] = _object_column(
                    [MaxBlobHandle(store, BlobRef(ptr, size))
                     for ptr, size in zip(ptrs, sizes)])
                pos += 15
                continue
            pos += head
            size = int(prefix[-2]) | int(prefix[-1]) << 8
            if size:
                outs[name] = self._field(pos, np.dtype(f"V{size}"))
            else:  # no void dtype is 0 bytes wide
                cells = np.full(self.n, b"", dtype=object)
                cells[masks[name]] = None
                outs[name] = cells
            pos += size
        return outs

    def _var_columns_per_row(self, layout: _TableLayout, masks: dict
                             ) -> dict:
        """The general walk: one pass over each row's variable
        section."""
        records = self._records
        length = records.shape[1]
        buf = records.tobytes()
        n = self.n
        unpack_h = struct.Struct("<H").unpack_from
        unpack_b = struct.Struct("<B").unpack_from
        unpack_ptr = struct.Struct("<Hiq").unpack_from
        store = self.table._blob_store
        outs = {name: np.empty(n, dtype=object)
                for name, _slot, _typ in layout.var}
        for r in range(n):
            pos = r * length + layout.var_offset
            for name, _slot, typ in layout.var:
                is_null = masks[name][r]
                if typ == "varbinary":
                    (size,) = unpack_h(buf, pos)
                    pos += 2
                    value = None if is_null else buf[pos:pos + size]
                    pos += size
                else:
                    (flag,) = unpack_b(buf, pos)
                    pos += 1
                    if flag == 0:
                        (size,) = unpack_h(buf, pos)
                        pos += 2
                        value = None if is_null else buf[pos:pos + size]
                        pos += size
                    else:
                        (_zero, ptr, size) = unpack_ptr(buf, pos)
                        pos += 14
                        value = MaxBlobHandle(store, BlobRef(ptr, size))
                outs[name][r] = value
        return outs

    def _column_from_tuples(self, name: str, idx: int) -> tuple:
        """Non-uniform batch (or a seek's records): decode whole rows
        once, then slice.  A one-lane column is its one value as a
        broadcast scalar (``None``: NULL) — what a point seek reads."""
        vals = [row[idx] for row in self.rows()]
        if self.n == 1:
            return vals[0], None
        mask = np.array([v is None for v in vals]) if None in vals \
            else None
        spec = _layout(self.table).fixed.get(name)
        if spec is None:
            return _object_column(vals), mask
        if mask is not None:
            vals = [0 if v is None else v for v in vals]
        return np.array(vals, dtype=spec[2]), mask

    def rows(self) -> list[tuple]:
        """Materialize the batch as decoded row tuples (how a batch of
        records of differing lengths decodes its columns)."""
        if self._tuples is None:
            decode = self.table.decode
            self._tuples = [decode(k, p) for k, p in
                            zip(self.keys.tolist(), self.payloads)]
        return self._tuples

    def compact(self, keep: np.ndarray) -> "RowBatch":
        """A new batch holding only lanes where ``keep`` is True.
        Already-decoded columns are filtered, not re-decoded."""
        idx = np.flatnonzero(keep)
        picks = idx.tolist()
        if self._records is not None:
            out = RowBatch(self.table, records=self._records[idx])
        else:
            out = RowBatch(self.table, self.keys[idx],
                           [self._payloads[i] for i in picks])
        for name, (values, mask) in self._columns.items():
            if isinstance(values, np.ndarray):
                values = values[idx]
            if isinstance(mask, np.ndarray):
                mask = mask[idx]
                if not mask.any():
                    mask = None
            out._columns[name] = (values, mask)
        if self._tuples is not None:
            out._tuples = [self._tuples[i] for i in picks]
        return out


class BatchContext:
    """Evaluation context of one statement: :attr:`batch` is the
    current :class:`RowBatch` an expression's ``eval_batch`` reads, and
    the statement's UDF and stream calls are counted here, which is
    what its metrics charge.
    """

    __slots__ = ("pool", "udf_calls", "stream_calls", "stream_bytes",
                 "extra_cpu", "batch")

    def __init__(self, pool: "BufferPool | None"):
        self.pool = pool
        self.udf_calls = 0
        self.stream_calls = 0
        self.stream_bytes = 0
        self.extra_cpu = 0.0
        self.batch: RowBatch | None = None


# -- (values, mask) helpers --------------------------------------------------


def mask_from_object(values: np.ndarray) -> np.ndarray | None:
    """Which cells of an object array are ``None`` (``None`` itself
    when none is, which one pass over the cells' types settles)."""
    if type(None) not in set(map(type, values.tolist())):
        return None
    return np.fromiter((v is None for v in values), dtype=bool,
                       count=len(values))


def null_lanes(values, mask, n: int) -> np.ndarray:
    """Boolean array marking NULL lanes."""
    if not isinstance(values, np.ndarray):
        return np.full(n, values is None)
    if mask is None:
        return np.zeros(n, dtype=bool)
    return mask


def combine_masks(n: int, *pairs) -> np.ndarray | None:
    """NULL union of several ``(values, mask)`` operands (the row
    engine's collapsed three-valued logic: any NULL in, NULL out)."""
    mask = None
    for values, m in pairs:
        if not isinstance(values, np.ndarray) and values is None:
            return np.ones(n, dtype=bool)
        if m is not None:
            mask = m.copy() if mask is None else mask
            if mask is not m:
                mask |= m
    return mask


def truthy(values, n: int) -> np.ndarray:
    """Per-lane ``bool(value)`` (NULL lanes come out False: a WHERE
    keeps no NULL row)."""
    if not isinstance(values, np.ndarray):
        return np.full(n, bool(values))
    if values.dtype == np.bool_:
        return values
    if values.dtype.kind in "fiu":
        return values != 0
    if values.dtype.kind == "V":  # non-empty ``bytes``, zeros or not
        return np.ones(n, dtype=bool)
    return np.fromiter((bool(v) for v in values), dtype=bool, count=n)


def to_pylist(values, mask, n: int) -> list:
    """Per-lane Python scalars, ``None`` in NULL lanes — the values the
    row-at-a-time semantics produce."""
    if not isinstance(values, np.ndarray):
        return [values] * n
    vals = values.tolist()
    if mask is not None:
        for i in np.flatnonzero(mask).tolist():
            vals[i] = None
    return vals


def as_full_array(values, n: int) -> np.ndarray:
    """Broadcast a scalar operand to a length-``n`` array (kernels
    always see arrays)."""
    if isinstance(values, np.ndarray):
        return values
    if isinstance(values, bool):
        return np.full(n, values)
    if isinstance(values, float):
        return np.full(n, values, dtype=np.float64)
    if isinstance(values, int) and _INT64_MIN <= values <= _INT64_MAX:
        return np.full(n, values, dtype=np.int64)
    out = np.empty(n, dtype=object)
    out.fill(values)
    return out


def nonnull_values(values, mask, n: int) -> list:
    """Non-NULL lane values in lane order, as Python scalars."""
    if not isinstance(values, np.ndarray):
        if values is None:
            return []
        return [values] * n
    if mask is None:
        vals = values.tolist()
    else:
        vals = values[~mask].tolist()
    if values.dtype == object:
        vals = [v for v in vals if v is not None]
    return vals


def fold(op, state, vals: Sequence):
    """Strict left fold: one-value-at-a-time accumulation (no pairwise
    summation, same float rounding, same NaN propagation through
    min/max)."""
    if state is not None:
        return reduce(op, vals, state)
    return reduce(op, vals) if vals else None


# -- batch operators ---------------------------------------------------------


_ARITH_OPS = {"+", "-", "*", "/"}

_NP_ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
}

_NP_CMP = {
    "=": operator.eq,
    "==": operator.eq,
    "<>": operator.ne,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _is_float_operand(v) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype.kind == "f"
    return isinstance(v, float)


def _is_int64_operand(v) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype.kind in "iu"
    return (isinstance(v, int) and not isinstance(v, bool)
            and _INT64_MIN <= v <= _INT64_MAX)


def _widen(v):
    if isinstance(v, np.ndarray) and v.dtype != np.float64:
        return v.astype(np.float64)
    return v


def binop_batch(op: str, func, lv, lm, rv, rm, n: int) -> tuple:
    """Vectorized binary operator with row-at-a-time semantics.

    ``func`` is the Python implementation of ``op``; it is the
    authority on semantics and runs the scalar-scalar case and the
    object fallback path, so lanes compute with the Python operators
    wherever NumPy's would diverge (integer overflow, mixed int/float
    comparison rounding).
    """
    if not isinstance(lv, np.ndarray) and not isinstance(rv, np.ndarray):
        if lv is None or rv is None:
            return None, None
        return func(lv, rv), None
    mask = combine_masks(n, (lv, lm), (rv, rm))
    if op in ("AND", "OR"):
        a = truthy(lv, n)
        b = truthy(rv, n)
        return ((a & b) if op == "AND" else (a | b)), mask
    arith = op in _ARITH_OPS
    if _is_float_operand(lv) and _is_float_operand(rv):
        # Pure float64 lane math is bit-identical to Python floats.
        # ``real`` operands are widened first, as struct.unpack widens
        # one value (NumPy would otherwise round a float constant to
        # float32 to compare it).
        lv, rv = _widen(lv), _widen(rv)
        if arith:
            if op == "/":
                _check_zero_divisor(rv, mask)
            with np.errstate(all="ignore"):
                values = _NP_ARITH[op](lv, rv)
            return values, mask
        return _NP_CMP[op](lv, rv), mask
    if not arith and _is_int64_operand(lv) and _is_int64_operand(rv):
        # Integer comparisons never round; arithmetic could overflow
        # int64 and falls through to exact Python objects below.
        return _NP_CMP[op](lv, rv), mask
    la = to_pylist(lv, lm, n)
    ra = to_pylist(rv, rm, n)
    out = np.empty(n, dtype=object)
    lanes = range(n) if mask is None else np.flatnonzero(~mask).tolist()
    for i in lanes:
        out[i] = func(la[i], ra[i])
    return out, mask


def _check_zero_divisor(rv, mask) -> None:
    """Raise exactly as Python float division would — NumPy would emit
    inf and a warning instead.  Only non-NULL lanes count: nothing
    divides when either side is NULL."""
    if isinstance(rv, np.ndarray):
        valid = rv if mask is None else rv[~mask]
        if valid.size and np.any(valid == 0):
            raise ZeroDivisionError("float division by zero")
    elif rv == 0:
        raise ZeroDivisionError("float division by zero")


def not_batch(values, mask, n: int) -> tuple:
    """Batch NOT: truthiness flip, NULL in → NULL out."""
    if not isinstance(values, np.ndarray) and values is None:
        return None, None
    return ~truthy(values, n), mask


def isnull_batch(values, mask, n: int, negate: bool = False) -> tuple:
    """Batch IS [NOT] NULL — never NULL itself."""
    lanes = null_lanes(values, mask, n)
    return (~lanes if negate else lanes), None


# -- drivers -----------------------------------------------------------------


class _Partition:
    """One batch's lanes sorted by group key.

    ``order`` is the lane permutation — ``None`` when the lanes already
    stand in group order, which a clustered ``GROUP BY pk`` always
    does — and ``starts`` / ``sizes`` delimit each group's *segment* in
    it.  The sort is stable, so a segment lists its lanes in row order
    (folding it left to right is the row-at-a-time accumulation order)
    and its first lane is the group's first row: ``keys`` holds that
    row's key, so of ``0.0`` and ``-0.0`` the one seen first is
    reported.  NULL lanes form one last segment (``null``) that has no
    entry in ``keys``.

    :meth:`GroupArrays.absorb` adds where the batch meets the scan's
    running state.  ``appends``: every key lies beyond the running
    keys, so what the batch builds is the state's next chunk — its
    layout is the batch's own ``groups`` segments and nothing is
    seeded.  Otherwise the layout is the merged one: ``groups`` groups,
    the running state's entry ``i`` moves to ``old_at[i]`` and segment
    ``s`` belongs to group ``slots[s]``.
    """

    __slots__ = ("order", "starts", "sizes", "keys", "null",
                 "appends", "groups", "old_at", "slots")


def _ascends(values: np.ndarray) -> bool:
    return bool((values[1:] >= values[:-1]).all())


def _partition(values, mask, n: int) -> _Partition | None:
    """Partition a batch's group column, or ``None`` when array
    machinery cannot do so without changing semantics: object dtype
    (unhashable / mixed values) and float NaN keys, where a dict's
    per-object behaviour (every NaN its own group) is reproduced by the
    per-lane walk instead."""
    if not isinstance(values, np.ndarray):
        if values is None:
            values, mask = np.zeros(n, np.int64), np.ones(n, np.bool_)
        else:
            values = as_full_array(values, n)
    if values.dtype.kind not in "biuf" or (
            values.dtype.kind == "f" and bool(np.isnan(values).any())):
        return None
    part = _Partition()
    part.null = mask is not None and bool(mask.any())
    part.order = None
    if part.null:
        part.order = np.flatnonzero(~mask)
        values = values[part.order]
    if not _ascends(values):
        ranks = np.argsort(values, kind="stable")
        values = values[ranks]
        part.order = ranks if part.order is None else part.order[ranks]
    new = np.ones(len(values), np.bool_)
    new[1:] = values[1:] != values[:-1]
    part.starts = np.flatnonzero(new)
    # Fancy indexing copies: a batch's ``keys`` are a strided view of
    # its record matrix, and keys outlive the batch in the scan state.
    part.keys = values[part.starts]
    if part.null:
        part.order = np.concatenate((part.order, np.flatnonzero(mask)))
        part.starts = np.append(part.starts, len(values))
    part.sizes = np.diff(part.starts, append=n)
    return part


def _apply_where(where, ctx: BatchContext) -> RowBatch | None:
    """Filter the context's batch through a predicate; returns the
    (possibly compacted) batch, or None when nothing survives."""
    batch = ctx.batch
    wv, wm = where.eval_batch(ctx)
    keep = truthy(wv, batch.n) & ~null_lanes(wv, wm, batch.n)
    if keep.all():
        return batch
    batch = batch.compact(keep)
    ctx.batch = batch
    return batch if batch.n else None


def _inputs(aggregates: Sequence, ctx: BatchContext) -> list:
    """Each aggregate's ``(values, mask)`` over the context's batch
    (``COUNT(*)`` reads no column: ``(None, None)``)."""
    return [(None, None) if agg.expr is None else agg.expr.eval_batch(ctx)
            for agg in aggregates]


def scan_aggregate(batches: Iterable[RowBatch], aggregates: Sequence,
                   where, ctx: BatchContext):
    """The ``SELECT aggs FROM table [WHERE ...]`` body: every batch of
    a source — a scan's leaf runs, a seek's one batch — folded into
    the aggregates' states.

    Returns ``(states, rows, payload_bytes)`` with ``rows`` counting
    every row read (pre-WHERE).
    """
    states = [agg.start() for agg in aggregates]
    rows = 0
    payload_bytes = 0
    for batch in batches:
        rows += batch.n
        payload_bytes += batch.payload_bytes
        ctx.batch = batch
        if where is not None and _apply_where(where, ctx) is None:
            continue
        n = ctx.batch.n
        for i, agg in enumerate(aggregates):
            values, mask = (None, None) if agg.expr is None \
                else agg.expr.eval_batch(ctx)
            states[i] = agg.step_batch(states[i], values, mask, n)
    return states, rows, payload_bytes


# -- grouped scans: partition once, fold segments ----------------------------


def fold_batch(op, state, values, mask, n: int) -> tuple:
    """``(state advanced over a batch's non-NULL lane values, how many
    there were)``.  Float lanes (``real`` widened first) added onto a
    float-or-absent state are one sequential array accumulate seeded
    with the state — ``np.add.accumulate`` is a strict left fold
    (``np.sum`` is pairwise and rounds differently), and overflow to
    ``inf`` and ``inf - inf`` are results, as they are for Python's
    ``+``, not warnings.  Everything else — ``min``/``max``, which
    return an operand, and ints, which must stay Python ints — is the
    one-value-at-a-time fold."""
    if (op is operator.add and isinstance(values, np.ndarray)
            and values.dtype.kind == "f"
            and (state is None or isinstance(state, float))):
        vals = values if mask is None else values[~mask]
        if not len(vals):
            return state, 0
        vals = vals.astype(np.float64, copy=False)
        if state is not None:
            vals = np.concatenate(([state], vals))
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.add.accumulate(vals)[-1]
        return float(total), len(vals) - (state is not None)
    vals = nonnull_values(values, mask, n)
    return fold(op, state, vals), len(vals)


def fold_segments_kernel(op, values: np.ndarray, counts: np.ndarray,
                         seeds: np.ndarray, seeded: np.ndarray
                         ) -> np.ndarray:
    """``seeds`` advanced over consecutive segments of ``values``.

    Segment ``s`` is the next ``counts[s]`` entries of ``values``; its
    result is ``op`` folded left to right over ``seeds[s]`` (where
    ``seeded[s]``) and those entries — bit for bit what
    ``functools.reduce(op, ...)`` returns.  An empty segment keeps its
    seed.

    A segment of one unseeded value passes it through untouched
    (``-0.0`` stays ``-0.0``), all such segments in one array
    assignment: that is every segment of a ``GROUP BY pk``.  Any other
    segment goes through ``op`` itself, a value at a time —
    ``min(0.0, -0.0)`` keeps its first operand and ``np.minimum`` does
    not promise to, Python ints do not wrap, float addition is the
    interpreter's own — so an aggregate's semantics exist once.
    """
    starts = np.cumsum(counts) - counts
    out = seeds.copy()
    lone = (counts == 1) & ~seeded
    out[lone] = values[starts[lone]]
    busy = np.flatnonzero((counts > 0) & ~lone)
    if len(busy):
        flat = values.tolist()
        for s, lo, k, seed in zip(
                busy.tolist(), starts[busy].tolist(),
                counts[busy].tolist(),
                to_pylist(seeds[busy], ~seeded[busy], len(busy))):
            out[s] = fold(op, seed, flat[lo:lo + k])
    return out


def _segment_values(part: _Partition, values, mask, n: int) -> tuple:
    """One aggregate's inputs laid out by segment: ``(values,
    counts)`` with the non-NULL values in group-then-row order and how
    many each segment holds.  The values come back float64 (``real``
    widened, as ``struct.unpack`` widens one value) or as
    objects, so ints are Python ints."""
    if not isinstance(values, np.ndarray):
        if values is None:
            return (np.empty(0, object),
                    np.zeros(len(part.sizes), np.int64))
        values = as_full_array(values, n)
    if values.dtype == object:  # None cells count as NULL, flagged or not
        unset = mask_from_object(values)
        if unset is not None:
            mask = unset if mask is None else mask | unset
    if part.order is not None:
        values = values[part.order]
        mask = None if mask is None else mask[part.order]
    counts = part.sizes
    if mask is not None and mask.any():
        counts = np.add.reduceat(~mask, part.starts, dtype=np.int64)
        values = values[~mask]
    if values.dtype.kind == "f":
        return values.astype(np.float64, copy=False), counts
    return values.astype(object, copy=False), counts


class _Chunks:
    """A state array that grows with the scan.  A batch that *appends*
    (:class:`_Partition`) — every batch of a clustered ``GROUP BY pk``
    — leaves what it built as one more chunk, and the chunks become
    one array the first time the state is read: such a scan costs
    O(rows), not a re-layout of every group per batch.  A kept chunk
    is never written again."""

    __slots__ = ("parts", "dtype")

    def __init__(self, dtype):
        self.parts: list = []
        self.dtype = dtype

    def array(self) -> np.ndarray:
        parts = self.parts
        if len(parts) != 1:
            if not parts:
                parts = [np.empty(0, self.dtype)]
            elif any(part.dtype == object for part in parts):
                # Floats until a batch delivered something else.
                parts = [part.astype(object, copy=False) for part in parts]
            self.parts = parts = [np.concatenate(parts)]
        return parts[0]

    def spread(self, part: _Partition, dtype=None) -> np.ndarray:
        """A fresh array in the batch's layout: the running state moved
        to its merged places, or — the batch appends — nothing.  Groups
        new to the scan hold a placeholder (their count is 0)."""
        state = (np.empty(0, dtype or self.dtype) if part.appends
                 else self.array())
        out = np.full(part.groups, None if state.dtype == object else 0,
                      state.dtype)
        out[part.old_at] = state
        return out

    def keep(self, part: _Partition, array: np.ndarray) -> None:
        if part.appends:
            self.parts.append(array)
        else:
            self.parts = [array]


class CountColumn:
    """``COUNT(*)`` per group (captured or not: the partial state of a
    count is the count).  The base of the value columns: ``counts``
    per group, ``values`` where there are any, and a finished column
    that is its scalar ``states`` unless a subclass folds further."""

    values = None

    def __init__(self):
        self._counts = _Chunks(np.int64)

    @property
    def counts(self) -> np.ndarray:
        return self._counts.array()

    def absorb(self, part: _Partition, values, mask, n: int) -> None:
        counts = self._counts.spread(part)
        counts[part.slots] += part.sizes
        self._counts.keep(part, counts)

    def settle(self, keys: np.ndarray, null: bool) -> None:
        """Called with the scan's final keys before the column is
        read; a column that advanced with every batch has nothing
        left to do."""

    def load(self, partials: list) -> None:
        self._counts.parts = [np.array(partials, np.int64)]

    def states(self) -> list:
        return self.counts.tolist()

    def finish(self, agg, rows: int) -> list:
        return self.states()


class _ValueColumn(CountColumn):
    """What the two columns over an aggregate's input values share:
    ``values`` — float64 while every batch delivered floats, objects
    otherwise — and per group ``counts`` of the non-NULL values seen."""

    def __init__(self):
        super().__init__()
        self._values = _Chunks(np.float64)

    @property
    def values(self) -> np.ndarray:
        return self._values.array()

    def replace(self, kind: type, fn) -> bool:
        """Replace every value of type ``kind`` by ``fn(value)``; a
        column that holds none is left alone."""
        values = self.values
        if values.dtype != object \
                or kind not in set(map(type, values.tolist())):
            return False
        self._values.parts = [_object_column(
            [fn(v) if isinstance(v, kind) else v
             for v in values.tolist()])]
        return True


class FoldColumn(_ValueColumn):
    """``SUM`` / ``AVG`` / ``MIN`` / ``MAX`` per group: the value
    folded so far (a placeholder while the group's count is 0).
    ``counted`` says the aggregate's scalar state is ``(value,
    count)`` — ``AVG`` — rather than the bare value."""

    def __init__(self, op, counted: bool = False):
        super().__init__()
        self.op = op
        self.counted = counted

    def absorb(self, part: _Partition, values, mask, n: int) -> None:
        values, counts = _segment_values(part, values, mask, n)
        folded = self._values.spread(part, values.dtype)
        if folded.dtype != values.dtype:
            folded, values = folded.astype(object), values.astype(object)
        total = self._counts.spread(part)
        slots = part.slots
        folded[slots] = fold_segments_kernel(
            self.op, values, counts, folded[slots], total[slots] > 0)
        total[slots] += counts
        self._values.keep(part, folded)
        self._counts.keep(part, total)

    def states(self) -> list:
        values = to_pylist(self.values, self.counts == 0,
                           len(self.counts))
        if self.counted:
            return list(zip(values, self.counts.tolist()))
        return values

    def finish(self, agg, rows: int) -> list:
        if self.values.dtype == object:
            return [agg.finish(state, rows) for state in self.states()]
        return to_pylist(agg.finish_floats(self.values, self.counts),
                         self.counts == 0, len(self.counts))


class ValuesColumn(_ValueColumn):
    """A *captured* ``SUM`` / ``AVG`` / ``MIN`` / ``MAX`` per group:
    every non-NULL value, unfolded, in group-then-row order — the flat
    values column and the counts a ``presult`` frame ships.

    Capturing folds nothing, so a batch is only kept: its values as a
    chunk and, as a *run*, the keys of its segments.  :meth:`settle`
    places the runs among the scan's final keys and, where several
    batches met a group, brings its values together with one stable
    sort — O(values) for the scan, however the keys arrive."""

    def __init__(self):
        super().__init__()
        self._runs: list = []  # a (keys, null) per kept chunk

    def absorb(self, part: _Partition, values, mask, n: int) -> None:
        values, counts = _segment_values(part, values, mask, n)
        self._runs.append((part.keys, part.null))
        self._counts.parts.append(counts)
        # Own the values: a view would pin the batch.
        self._values.parts.append(np.array(values))

    def settle(self, keys: np.ndarray, null: bool) -> None:
        runs = self._runs
        if not runs or (len(runs) == 1 and runs[0][0] is keys):
            return  # nothing kept, or one run that is the state
        places = [np.searchsorted(keys, run) for run, _null in runs]
        slots = np.concatenate([
            np.append(place, len(keys)) if run_null else place
            for place, (_run, run_null) in zip(places, runs)])
        owner = np.repeat(slots, self._counts.array())
        values = self._values.array()
        if not _ascends(owner):  # a group met again: in batch order
            values = values[np.argsort(owner, kind="stable")]
        self._runs = [(keys, null)]
        self._counts.parts = [np.bincount(owner, minlength=len(keys) + null)]
        self._values.parts = [values]

    def load(self, partials: list) -> None:
        self._counts.parts = [np.fromiter(map(len, partials), np.int64,
                                          len(partials))]
        self._values.parts = [
            _object_column(list(chain.from_iterable(partials)))]

    def states(self) -> list:
        flat = self.values.tolist()
        ends = np.cumsum(self.counts).tolist()
        return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


class GroupArrays(Sequence):
    """The running state of a grouped scan, held as arrays: the
    distinct non-NULL keys ascending (each the first seen of its
    group), a NULL group last when ``null``, and one state column per
    aggregate (:class:`CountColumn`, :class:`FoldColumn`,
    :class:`ValuesColumn`) in that group order.  Memory is O(groups)
    — O(values) under capture — never O(rows).

    Over captured aggregates this *is* the grouped partial a shard
    answers: :meth:`arrays` are the columns a ``presult`` frame
    carries, and as a sequence it reads as ``(key, [state, ...])``
    pairs with the aggregates' scalar states, materialised on demand —
    the shape of the dict a lane-by-lane scan keeps.
    """

    def __init__(self, columns: list):
        self._keys = _Chunks(np.int64)
        self._top = None  # the largest running key
        self.null = False
        self.columns = columns
        self._pairs: list | None = None

    @classmethod
    def from_rows(cls, aggregates: Sequence, rows: list) -> "GroupArrays":
        """The grouped partial the per-lane walk (or the tests' row
        oracle) finished as sorted ``(key, partial, ...)``
        rows of captured ``aggregates`` (NULL group last), loaded into
        arrays: a grouped partial is one type whoever scanned."""
        self = cls([agg.group_column() for agg in aggregates])
        keys = [row[0] for row in rows]
        self.null = bool(keys) and keys[-1] is None
        self._keys.parts = [_object_column(keys[:len(keys) - self.null])]
        for i, column in enumerate(self.columns, 1):
            column.load([row[i] for row in rows])
        return self

    @property
    def group_keys(self) -> np.ndarray:
        return self._keys.array()

    def absorb(self, part: _Partition, evaluated: list, n: int) -> None:
        """Fold one partitioned batch into the state.  A batch whose
        keys all lie beyond the running keys appends.  Any other is
        merged: one ``searchsorted`` places its keys among the running
        keys, every column moves to the merged layout and advances
        over the batch's segments with its old entries as seeds."""
        keys = part.keys
        part.appends = not self.null and (
            self._top is None or not len(keys) or keys[0] > self._top)
        if part.appends:
            size = len(keys)
            part.old_at = np.empty(0, np.intp)
            part.slots = slice(None)
        else:
            running = self._keys.array()
            old = len(running)
            pos = np.searchsorted(running, keys)
            fresh = np.ones(len(pos), np.bool_)
            inside = pos < old
            fresh[inside] = running[pos[inside]] != keys[inside]
            # A batch group lands after the running keys below it and
            # the new keys before it; a running group moves up by the
            # new keys inserted at or before it.
            slots = pos + np.cumsum(fresh) - fresh
            old_at = np.arange(old) + np.searchsorted(
                pos[fresh], np.arange(old), side="right")
            size = old + int(fresh.sum())
            merged = np.empty(size, running.dtype if old else keys.dtype)
            merged[old_at] = running
            merged[slots[fresh]] = keys[fresh]
            keys = merged
            # The NULL group stays last, behind any key that joined.
            part.old_at = np.append(old_at, size) if self.null else old_at
            part.slots = np.append(slots, size) if part.null else slots
        self._keys.keep(part, keys)
        if len(keys):
            self._top = keys[-1]
        self.null = self.null or part.null
        self._pairs = None
        part.groups = size + self.null
        for column, (values, mask) in zip(self.columns, evaluated):
            column.absorb(part, values, mask, n)

    def _key_list(self) -> list:
        return self.group_keys.tolist() + [None] * self.null

    def _settled(self) -> list:
        """The columns, ready to be read."""
        keys = self.group_keys
        for column in self.columns:
            column.settle(keys, self.null)
        return self.columns

    def rows(self, aggregates: Sequence, rows: int) -> list[tuple]:
        """The finished ``(group, agg...)`` result rows, NULL group
        last, built column by column."""
        return list(zip(self._key_list(), *[
            column.finish(agg, rows)
            for column, agg in zip(self._settled(), aggregates)]))

    def arrays(self) -> tuple:
        """``(keys, null, [(counts, values), ...])``: the distinct
        non-NULL keys, whether a NULL group follows them, and per
        aggregate its per-group counts and — ``None`` for a count —
        the groups' values end to end.  Under capture these are the
        columns of a ``presult`` frame."""
        return self.group_keys, self.null, [
            (column.counts, column.values) for column in self._settled()]

    def replace_values(self, kind: type, fn) -> None:
        """Replace every captured value of type ``kind`` by
        ``fn(value)``; a column that holds none is left alone."""
        for column in self._settled():
            if column.values is not None and column.replace(kind, fn):
                self._pairs = None

    def __len__(self) -> int:
        return len(self.group_keys) + self.null

    def __getitem__(self, index):
        if self._pairs is None:
            states = [column.states() for column in self._settled()]
            self._pairs = [(key, [column[g] for column in states])
                           for g, key in enumerate(self._key_list())]
        return self._pairs[index]


def scan_grouped(batches: Iterable[RowBatch], group_expr,
                 aggregates: Sequence, where, ctx: BatchContext):
    """The hash-aggregation body over a source's batches.

    Expressions are evaluated batch-at-a-time.  Each batch is
    partitioned once (:func:`_partition`: one stable sort of the lanes
    by key) and every aggregate advances over all the resulting
    segments in one call — the state is a :class:`GroupArrays`.
    Within a group the accumulation order is still row order, so float
    rounding is that of a row-at-a-time fold.

    The first batch whose keys do not partition (object dtype, NaN)
    turns the state into a dict of per-group states and the scan goes on
    with the per-lane ``step`` walk.  Returns ``(groups, rows,
    payload_bytes)`` with ``groups`` the :class:`GroupArrays` or that
    dict.
    """
    arrays = GroupArrays([agg.group_column() for agg in aggregates])
    groups: dict = {}
    rows = 0
    payload_bytes = 0
    for batch in batches:
        rows += batch.n
        payload_bytes += batch.payload_bytes
        ctx.batch = batch
        if where is not None:
            batch = _apply_where(where, ctx)
            if batch is None:
                continue
        n = batch.n
        gv, gm = group_expr.eval_batch(ctx)
        evaluated = _inputs(aggregates, ctx)
        if arrays is not None:
            part = _partition(gv, gm, n)
            if part is not None:
                arrays.absorb(part, evaluated, n)
                continue
            groups, arrays = dict(arrays), None
        gvals = to_pylist(gv, gm, n)
        cols = [to_pylist(*pair, n) for pair in evaluated]
        for lane in range(n):
            states = groups.get(gvals[lane])
            if states is None:
                states = groups[gvals[lane]] = [
                    agg.start() for agg in aggregates]
            for i, agg in enumerate(aggregates):
                states[i] = agg.step(states[i], cols[i][lane])
    return (groups if arrays is None else arrays), rows, payload_bytes
