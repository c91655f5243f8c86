"""Vectorized batch execution: columnar row batches and batch kernels.

The row engine in :mod:`repro.engine.executor` decodes one tuple at a
time and walks a Python ``Expression`` tree per row — faithful to the
per-call UDF overhead the paper measures, but far from "as fast as the
hardware allows".  This module is the batch path: a clustered scan is
chopped into :class:`RowBatch` chunks of whole leaf pages, fixed-width
columns are decoded with NumPy strided views over the concatenated
records, and expressions/aggregates advance a whole batch per dispatch.

Parity with the row engine is a hard contract, enforced by the parity
test suite:

* **Results are bit-identical.**  Aggregates accumulate left-to-right
  over Python scalars (no pairwise summation), integer arithmetic uses
  Python objects (no int64 overflow), ``real`` columns are widened to
  float64 before arithmetic exactly like ``struct.unpack`` widens them,
  and division by zero raises like Python does.
* **IO accounting is identical.**  Batches charge the buffer pool the
  same page touches in the same order as a row scan
  (:meth:`BTree.scan_leaf_batches` + :meth:`BufferPool.fetch_many`).
* **NULL handling is identical.**  Values travel as ``(values, mask)``
  pairs — ``mask`` is ``None`` (no NULLs) or a boolean array with
  ``True`` marking NULL lanes; a plain Python scalar in ``values``
  broadcasts, with ``None`` meaning NULL in every lane.

Expressions that do not implement ``eval_batch`` (user-supplied duck
typed predicates, opaque UDFs without a vectorized kernel) silently
fall back to the row path on materialized tuples, so anything that runs
on the row engine runs on the vector engine.
"""

from __future__ import annotations

import operator
import struct
from functools import reduce
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .blob import BlobRef
from .constants import ROW_OVERHEAD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (table -> us)
    from .bufferpool import BufferPool
    from .table import Table

__all__ = [
    "DEFAULT_BATCH_PAGES",
    "RowBatch",
    "BatchContext",
    "eval_node",
    "binop_batch",
    "not_batch",
    "isnull_batch",
    "truthy",
    "null_lanes",
    "to_pylist",
    "as_full_array",
    "nonnull_values",
    "fold",
    "partition_lanes",
    "scan_aggregate",
    "scan_grouped",
]

#: Leaf pages decoded per batch (~0.5 MB of records); large enough to
#: amortize NumPy dispatch, small enough to keep working sets cache
#: resident.
DEFAULT_BATCH_PAGES = 64

_KEY_STRUCT = struct.Struct("<q")

_NP_DTYPES = {
    "bigint": np.dtype("<i8"),
    "int": np.dtype("<i4"),
    "smallint": np.dtype("<i2"),
    "tinyint": np.dtype("<i1"),
    "float": np.dtype("<f8"),
    "real": np.dtype("<f4"),
}

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1


class _TableLayout:
    """Byte offsets of a table's columns inside a leaf record (the
    8 key bytes, then the payload).

    Only meaningful when every record in a batch has the same length
    (no NULL-shortened variable sections), which is when the record
    matrix applies.
    """

    __slots__ = ("bitmap_offset", "fixed", "var", "var_offset")

    def __init__(self, table: "Table"):
        self.bitmap_offset = _KEY_STRUCT.size + ROW_OVERHEAD
        pos = self.bitmap_offset + table._bitmap_bytes
        self.fixed: dict[str, tuple[int, int, np.dtype]] = {}
        self.var: list[tuple[str, int, str]] = []
        for i, col in enumerate(table._nonkey):
            dt = _NP_DTYPES.get(col.type)
            if dt is not None:
                self.fixed[col.name] = (pos, i, dt)
                pos += dt.itemsize
            else:
                self.var.append((col.name, i, col.type))
        self.var_offset = pos


def _layout(table: "Table") -> _TableLayout:
    layout = getattr(table, "_vec_layout", None)
    if layout is None:
        layout = _TableLayout(table)
        table._vec_layout = layout
    return layout


class _BlobColumn(np.ndarray):
    """An object array of equal-length ``bytes`` cells that also
    carries them as one ``(n, size)`` ``uint8`` ``matrix``, so a batch
    kernel can validate and gather from all blobs without touching the
    per-row objects.  Slices and copies come back with ``matrix`` unset
    (the class default) — lanes and rows could no longer be assumed to
    line up."""

    matrix: np.ndarray | None = None


def _object_column(cells: list) -> np.ndarray:
    out = np.empty(len(cells), dtype=object)
    out[:] = cells
    return out


def _row_bytes(matrix: np.ndarray) -> np.ndarray:
    """Each row of a C-contiguous ``(n, size)`` ``uint8`` matrix as one
    ``bytes`` cell of an object array (one pass in C: an unstructured
    void item converts to ``bytes``)."""
    n, size = matrix.shape
    if size == 0:
        out = np.empty(n, dtype=object)
        out.fill(b"")
        return out
    return matrix.view(f"V{size}").ravel().astype(object)


class RowBatch:
    """A run of clustered-index rows decoded column-at-a-time.

    A batch comes in one of two shapes.  When every leaf record of the
    run has the same length it holds them as one ``(n, L)`` ``uint8``
    *record matrix* (key bytes first, then the payload) and every
    column is a strided slice of it; otherwise it holds the per-row
    payload ``bytes`` and decodes through whole-row tuples.

    Attributes:
        table: The owning table.
        keys: Primary keys as an int64 array.
        n: Number of rows in the batch.
    """

    __slots__ = ("table", "keys", "n", "_records", "_payloads",
                 "_columns", "_tuples")

    def __init__(self, table: "Table", keys=None,
                 payloads: list[bytes] | None = None, *,
                 records: np.ndarray | None = None):
        self.table = table
        self._records = records
        self._payloads = payloads
        if records is not None:
            self.n = len(records)
            self.keys = self._field(0, _NP_DTYPES["bigint"])
        else:
            self.n = len(payloads)
            self.keys = np.asarray(keys, dtype=np.int64)
        self._columns: dict[str, tuple] = {}
        self._tuples: list[tuple] | None = None

    @classmethod
    def from_pages(cls, table: "Table", pages) -> "RowBatch":
        """Decode a run of leaf pages — the one page→batch routine
        behind every scan entry point.

        Each page contributes its :meth:`Page.record_matrix`; the
        matrices are concatenated once, so the batch owns a single copy
        of its bytes and no view of a page body outlives this call
        (a view would pin the page's ``bytearray`` against the next
        insert).  A page whose records differ in length — or from the
        other pages' — sends the whole run down the per-record path.
        """
        matrices = []
        for page in pages:
            if not page.slot_count:
                continue
            matrix = page.record_matrix()
            if matrix is None or (
                    matrices
                    and matrix.shape[1] != matrices[0].shape[1]):
                break
            matrices.append(matrix)
        else:
            if matrices:
                return cls(table, records=np.concatenate(matrices))
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
                self._records[:, _KEY_STRUCT.size:])).tolist()
        return self._payloads

    @property
    def payload_bytes(self) -> int:
        if self._records is not None:
            return self.n * (self._records.shape[1] - _KEY_STRUCT.size)
        return sum(len(p) for p in self._payloads)

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
        lanes, flagged by the mask); variable columns as object arrays
        of ``bytes`` / :class:`MaxBlobHandle` / ``None``.
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
        the same offset in every record and a column is one matrix
        slice.  Returns ``None`` as soon as a row disagrees."""
        from .table import MaxBlobHandle

        records = self._records
        store = self.table._blob_store
        pos = layout.var_offset
        outs = {}
        for name, _slot, typ in layout.var:
            head = 2 if typ == "varbinary" else 3
            prefix = records[0, pos:pos + head]
            if (records[:, pos:pos + head] != prefix).any():
                return None
            if typ == "varbinary_max" and prefix[0]:
                ptrs = self._field(pos + 3, _NP_DTYPES["int"]).tolist()
                sizes = self._field(pos + 7, _NP_DTYPES["bigint"]).tolist()
                outs[name] = _object_column(
                    [MaxBlobHandle(store, BlobRef(ptr, size))
                     for ptr, size in zip(ptrs, sizes)])
                pos += 15
                continue
            pos += head
            size = int(prefix[-2]) | int(prefix[-1]) << 8
            matrix = np.ascontiguousarray(records[:, pos:pos + size])
            cells = _row_bytes(matrix)
            cells[masks[name]] = None
            if size:
                cells = cells.view(_BlobColumn)
                cells.matrix = matrix
            outs[name] = cells
            pos += size
        return outs

    def _var_columns_per_row(self, layout: _TableLayout, masks: dict
                             ) -> dict:
        """The general walk: one pass over each row's variable
        section."""
        from .table import MaxBlobHandle

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
        """Non-uniform batch: decode whole rows once, then slice."""
        rows = self.rows()
        col = self.table.columns[idx]
        vals = [row[idx] for row in rows]
        mask = np.fromiter((v is None for v in vals), dtype=bool,
                           count=self.n)
        has_null = bool(mask.any())
        dt = _NP_DTYPES.get(col.type)
        if dt is not None:
            if has_null:
                values = np.array([0 if v is None else v for v in vals],
                                  dtype=dt)
            else:
                values = np.array(vals, dtype=dt)
        else:
            values = _object_column(vals)
        return values, (mask if has_null else None)

    def rows(self) -> list[tuple]:
        """Materialize the batch as decoded row tuples (the fallback
        representation for non-vectorizable expressions)."""
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
                matrix = getattr(values, "matrix", None)
                values = values[idx]
                if matrix is not None:
                    values.matrix = matrix[idx]
            if isinstance(mask, np.ndarray):
                mask = mask[idx]
                if not mask.any():
                    mask = None
            out._columns[name] = (values, mask)
        if self._tuples is not None:
            out._tuples = [self._tuples[i] for i in picks]
        return out


class BatchContext:
    """Evaluation context for one vectorized query.

    Duck-types :class:`~repro.engine.executor._RowContext` (same
    ``table``/``row``/``pool`` and counter attributes) so per-row
    fallback evaluation reuses row-path ``eval`` unchanged, while
    :attr:`batch` carries the current :class:`RowBatch` for vectorized
    nodes.
    """

    __slots__ = ("table", "row", "pool", "udf_calls", "stream_calls",
                 "stream_bytes", "extra_cpu", "batch")

    def __init__(self, table: "Table", pool: "BufferPool"):
        self.table = table
        self.pool = pool
        self.row: tuple = ()
        self.udf_calls = 0
        self.stream_calls = 0
        self.stream_bytes = 0
        self.extra_cpu = 0.0
        self.batch: RowBatch | None = None


# -- (values, mask) helpers --------------------------------------------------


def eval_node(expr, ctx: BatchContext) -> tuple:
    """Evaluate an expression over the current batch.

    Uses the node's ``eval_batch`` when present, else loops the row
    path over materialized tuples — so duck-typed expressions that only
    implement ``eval(ctx)`` keep working on the vector engine.
    """
    fn = getattr(expr, "eval_batch", None)
    if fn is not None:
        return fn(ctx)
    batch = ctx.batch
    out = np.empty(batch.n, dtype=object)
    prev = ctx.row
    try:
        for i, row in enumerate(batch.rows()):
            ctx.row = row
            out[i] = expr.eval(ctx)
    finally:
        ctx.row = prev
    return out, mask_from_object(out)


def mask_from_object(values: np.ndarray) -> np.ndarray | None:
    mask = np.fromiter((v is None for v in values), dtype=bool,
                       count=len(values))
    return mask if mask.any() else None


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
    """Per-lane ``bool(value)`` (NULL lanes come out False, which is
    how the row engine's WHERE treats None)."""
    if not isinstance(values, np.ndarray):
        return np.full(n, bool(values))
    if values.dtype == np.bool_:
        return values
    if values.dtype.kind in "fiu":
        return values != 0
    return np.fromiter((bool(v) for v in values), dtype=bool, count=n)


def to_pylist(values, mask, n: int) -> list:
    """Per-lane Python scalars, ``None`` in NULL lanes — the values the
    row engine would have produced."""
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


def fold(op, state, vals: Iterable):
    """Strict left fold matching the row engine's one-value-at-a-time
    accumulation (no pairwise summation, same float rounding, same
    NaN propagation through min/max)."""
    it = iter(vals)
    if state is None:
        try:
            state = next(it)
        except StopIteration:
            return None
    return reduce(op, it, state)


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
    """Vectorized binary operator with row-engine parity.

    ``func`` is the row engine's Python implementation of ``op``; it is
    the authority on semantics and runs the scalar-scalar case and the
    object fallback path, so both engines compute with the same Python
    operators wherever NumPy's would diverge (integer overflow, mixed
    int/float comparison rounding).
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
        # them for the row engine.
        if arith:
            if op == "/":
                _check_zero_divisor(rv, mask)
            with np.errstate(all="ignore"):
                values = _NP_ARITH[op](_widen(lv), _widen(rv))
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
    """Raise exactly as Python float division would on the row path —
    NumPy would emit inf and a warning instead.  Only non-NULL lanes
    count: the row engine never divides when either side is NULL."""
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


def partition_lanes(values, mask, n: int):
    """Partition a batch's group column into ``(key, lanes)`` pairs.

    ``lanes`` are ascending lane indices, so folding each group's
    values in partition order reproduces the row engine's per-group
    accumulation order exactly.  NULL lanes form a final ``None``
    group.  Returns ``None`` when the column cannot be partitioned
    with array machinery without changing semantics — object dtype
    (unhashable / mixed values) or float NaN keys, where the row
    engine's per-object dict behaviour (every NaN its own group) must
    be reproduced by the per-lane walk instead.
    """
    if not isinstance(values, np.ndarray):
        if values is None:
            return [(None, list(range(n)))]
        if isinstance(values, float) and values != values:
            return None
        return [(values, list(range(n)))]
    if values.dtype == object:
        return None
    if values.dtype.kind == "f" and bool(np.isnan(values).any()):
        return None
    out = []
    if mask is not None and mask.any():
        valid_idx = np.flatnonzero(~mask)
        null_lanes_ = np.flatnonzero(mask).tolist()
        vv = values[valid_idx]
    else:
        valid_idx = None
        null_lanes_ = None
        vv = values
    if vv.size:
        uniq, inv = np.unique(vv, return_inverse=True)
        # Stable argsort keeps each group's lanes in row order.
        order = np.argsort(inv, kind="stable")
        sorted_lanes = (order if valid_idx is None
                        else valid_idx[order]).tolist()
        counts = np.bincount(inv, minlength=len(uniq)).tolist()
        start = 0
        for key, count in zip(uniq.tolist(), counts):
            out.append((key, sorted_lanes[start:start + count]))
            start += count
    if null_lanes_:
        out.append((None, null_lanes_))
    return out


def _step_batch_fallback(agg, state, ctx: BatchContext):
    """Per-row stepping for aggregates without a batch form."""
    prev = ctx.row
    try:
        for row in ctx.batch.rows():
            ctx.row = row
            state = agg.step(state, ctx)
    finally:
        ctx.row = prev
    return state


def _apply_where(where, ctx: BatchContext) -> RowBatch | None:
    """Filter the context's batch through a predicate; returns the
    (possibly compacted) batch, or None when nothing survives."""
    batch = ctx.batch
    wv, wm = eval_node(where, ctx)
    keep = truthy(wv, batch.n) & ~null_lanes(wv, wm, batch.n)
    if keep.all():
        return batch
    batch = batch.compact(keep)
    ctx.batch = batch
    return batch if batch.n else None


def scan_aggregate(table: "Table", pool: "BufferPool",
                   aggregates: Sequence, where, ctx: BatchContext,
                   batch_pages: int = DEFAULT_BATCH_PAGES):
    """Vectorized ``SELECT aggs FROM table [WHERE ...]`` scan body.

    Returns ``(states, rows, payload_bytes)`` with ``rows`` counting
    every scanned row (pre-WHERE), exactly like the row engine.
    """
    states = [agg.start() for agg in aggregates]
    steps = [getattr(agg, "step_batch", None) for agg in aggregates]
    rows = 0
    payload_bytes = 0
    for batch in table.scan_batches(pool, batch_pages=batch_pages):
        rows += batch.n
        payload_bytes += batch.payload_bytes
        ctx.batch = batch
        if where is not None and _apply_where(where, ctx) is None:
            continue
        for i, agg in enumerate(aggregates):
            step = steps[i]
            states[i] = (step(states[i], ctx) if step is not None
                         else _step_batch_fallback(agg, states[i], ctx))
    return states, rows, payload_bytes


def scan_grouped(table: "Table", pool: "BufferPool", group_expr,
                 aggregates: Sequence, where, ctx: BatchContext,
                 batch_pages: int = DEFAULT_BATCH_PAGES):
    """Vectorized hash-aggregation scan body.

    Expressions are evaluated batch-at-a-time; the group column is
    partitioned with :func:`partition_lanes` (np.unique + stable
    argsort) and each group advances over its lane values in one
    ``step_values`` call — the accumulation order within a group is
    still row order, so float rounding matches the row engine.
    Batches whose group keys cannot be partitioned faithfully (object
    dtype, NaN) fall back to the per-lane ``step_value`` walk, and
    aggregates without either hook fall back to per-row stepping.
    Returns ``(groups, rows, payload_bytes)``.
    """
    partitionable = all(
        getattr(agg, "step_values", None) is not None
        for agg in aggregates)
    per_lane_ok = all(
        getattr(agg, "step_value", None) is not None
        for agg in aggregates)
    vectorizable = partitionable or per_lane_ok
    groups: dict = {}
    rows = 0
    payload_bytes = 0
    for batch in table.scan_batches(pool, batch_pages=batch_pages):
        rows += batch.n
        payload_bytes += batch.payload_bytes
        ctx.batch = batch
        if where is not None:
            batch = _apply_where(where, ctx)
            if batch is None:
                continue
        if vectorizable:
            n = batch.n
            gv, gm = eval_node(group_expr, ctx)
            parts = partition_lanes(gv, gm, n) if partitionable else None
            cols = [
                (to_pylist(*eval_node(agg.expr, ctx), n)
                 if agg.expr is not None else None)
                for agg in aggregates]
            if parts is not None:
                for group, lanes in parts:
                    states = groups.get(group)
                    if states is None:
                        states = [agg.start() for agg in aggregates]
                        groups[group] = states
                    for i, agg in enumerate(aggregates):
                        col = cols[i]
                        states[i] = agg.step_values(
                            states[i],
                            [col[lane] for lane in lanes]
                            if col is not None
                            else [None] * len(lanes))
                continue
            if not per_lane_ok:
                # step_values-only aggregates on an unpartitionable
                # batch: step per row like the non-vectorizable path.
                prev = ctx.row
                try:
                    for row in batch.rows():
                        ctx.row = row
                        group = group_expr.eval(ctx)
                        states = groups.get(group)
                        if states is None:
                            states = [agg.start() for agg in aggregates]
                            groups[group] = states
                        for i, agg in enumerate(aggregates):
                            states[i] = agg.step(states[i], ctx)
                finally:
                    ctx.row = prev
                continue
            gvals = to_pylist(gv, gm, n)
            for lane in range(n):
                group = gvals[lane]
                states = groups.get(group)
                if states is None:
                    states = [agg.start() for agg in aggregates]
                    groups[group] = states
                for i, agg in enumerate(aggregates):
                    col = cols[i]
                    states[i] = agg.step_value(
                        states[i], col[lane] if col is not None else None)
        else:
            prev = ctx.row
            try:
                for row in batch.rows():
                    ctx.row = row
                    group = group_expr.eval(ctx)
                    states = groups.get(group)
                    if states is None:
                        states = [agg.start() for agg in aggregates]
                        groups[group] = states
                    for i, agg in enumerate(aggregates):
                        states[i] = agg.step(states[i], ctx)
            finally:
                ctx.row = prev
    return groups, rows, payload_bytes
