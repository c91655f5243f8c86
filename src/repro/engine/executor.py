"""Query executor: clustered scans with aggregates and scalar UDFs.

This is the slice of a SQL executor the paper's evaluation exercises:
``SELECT <aggregate>(<expression>) FROM <table>`` over a clustered index
scan, where the expression may call a scalar UDF — the shape of all five
Table 1 queries.  Real work happens (the UDFs genuinely run and results
are exact); simulated time is charged through the
:class:`~repro.engine.costmodel.CostModel`, producing the execution
time / CPU % / IO MB/s triple per query.

Example::

    db = Database()
    t = db.create_table("Tscalar", [Column("id", "bigint"),
                                    Column("v1", "float")])
    ...
    ex = Executor(db)
    (count,), metrics = ex.run(t, [Count()], label="Query 1")
    (total,), metrics = ex.run(t, [Sum(Col("v1"))], label="Query 3")
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import struct
import tempfile
import time
import zlib
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from . import lockcheck, vectorized
from .blob import BlobStore
from .bufferpool import BufferPool
from .costmodel import PAPER_HARDWARE, CostModel
from .latches import LatchManager
from .metrics import QueryMetrics
from .page import PageFile
from .table import Column, MaxBlobHandle, Table

__all__ = [
    "CorruptSnapshotError",
    "Database",
    "Executor",
    "Expression",
    "Col",
    "Const",
    "ScalarUdf",
    "ReadBlob",
    "Aggregate",
    "Count",
    "Sum",
    "Avg",
    "Min",
    "Max",
]


#: First bytes of a snapshot written by :meth:`Database.save` (a file
#: without them predates the checksum and is read as a bare pickle).
_SNAPSHOT_MAGIC = b"REPRO-DB"
#: What follows the pickle: its byte length, its CRC-32, an end mark.
_TRAILER = struct.Struct("<QI8s")
_TRAILER_MARK = b"REPROEND"


class CorruptSnapshotError(Exception):
    """A snapshot file fails its checksum (torn or altered by the
    medium), or is no snapshot at all."""


class _ChecksumWriter:
    """A binary file that checksums and counts what is written to it."""

    def __init__(self, f):
        self._f = f
        self.crc = 0
        self.size = 0

    def write(self, data) -> int:
        self.crc = zlib.crc32(data, self.crc)
        self.size += len(data)
        return self._f.write(data)


class Database:
    """A page file, blob store, buffer pool and table catalog.

    One database may be shared by many sessions (the
    :mod:`repro.server` connection threads multiplex per-connection
    :class:`~repro.engine.sqlfront.SqlSession` objects over a single
    instance).  :attr:`latches` is the statement-granularity latch
    hierarchy those sessions take — a shared catalog latch plus one
    write latch per table, so writers of different tables overlap,
    while every reader pins a copy-on-write snapshot and reads it
    latch-free (see :mod:`repro.engine.latches` and
    ``docs/LOCKING.md``).
    :meth:`create_table` itself guards the catalog dict so two
    concurrent CREATEs cannot race.

    Args:
        buffer_pages: Buffer pool capacity (``None`` = unbounded).
    """

    def __init__(self, buffer_pages: int | None = None):
        self.pagefile = PageFile()
        self.blob_store = BlobStore(self.pagefile)
        self.pool = BufferPool(self.pagefile, buffer_pages)
        self.tables: dict[str, Table] = {}
        self.latches = LatchManager()
        self._catalog_lock = lockcheck.tracked_lock("mutex:Database")

    def __getstate__(self):
        state = self.__dict__.copy()
        # Latches are process-local.
        state["latches"] = None
        state["_catalog_lock"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.latches = LatchManager()
        self._catalog_lock = lockcheck.tracked_lock("mutex:Database")
        for table in self.tables.values():
            table._pool_ref = self.pool
            # No pin survives a save: every page a publish orphaned is
            # free now.
            table._retire(self.pool)

    def save(self, path: str) -> None:
        """Snapshot the whole database (pages, blobs, catalog) to a
        file.  The snapshot is a pickle of this object minus its
        process-local state (locks; the buffer pool travels cold),
        between a magic header and a trailer holding the pickle's
        length and CRC-32 (``docs/FORMAT.md``, "Snapshot files").

        The write is atomic: the snapshot goes to a temporary file in the
        target's directory, is flushed and fsynced, and only then
        replaces ``path`` — a crash mid-write leaves the previous
        snapshot, never a torn one — and the directory is fsynced so
        the rename itself survives a crash."""
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=".save-", dir=directory)
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(_SNAPSHOT_MAGIC)
                body = _ChecksumWriter(f)
                pickle.dump(self, body, protocol=pickle.HIGHEST_PROTOCOL)
                f.write(_TRAILER.pack(body.size, body.crc, _TRAILER_MARK))
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @classmethod
    def open(cls, path: str) -> "Database":
        """Re-open a database snapshot written by :meth:`save`; a file
        written before snapshots carried a checksum opens as the bare
        pickle it is.

        Raises:
            CorruptSnapshotError: the file fails its checksum — it is
                never unpickled — or does not unpickle.
        """
        with open(path, "rb") as f:
            if f.read(len(_SNAPSHOT_MAGIC)) == _SNAPSHOT_MAGIC:
                _verify_snapshot(f, path)
                f.seek(len(_SNAPSHOT_MAGIC))
            else:
                f.seek(0)
            try:
                db = pickle.load(f)
            except (pickle.UnpicklingError, EOFError) as exc:
                raise CorruptSnapshotError(
                    f"{path} does not unpickle: {exc}") from exc
        if not isinstance(db, Database):
            raise TypeError(f"{path} is not a Database snapshot")
        return db

    def create_table(self, name: str, columns: Sequence[Column]) -> Table:
        """Create and register a clustered table."""
        with self._catalog_lock:
            if name in self.tables:
                raise ValueError(f"table {name!r} already exists")
            table = Table(name, columns, self.pagefile, self.blob_store)
            table._pool_ref = self.pool
            self.tables[name] = table
            return table

    def drop_table(self, name: str) -> None:
        """Unregister a table (the DROP TABLE primitive).

        Removes the catalog entry (case-insensitive, like SQL name
        resolution) and its latch, and retires the table's pages
        (:meth:`Table.drop`): they are freed once the last pin on the
        table is released — at once under SQL, whose callers hold the
        exclusive catalog latch (:meth:`LatchManager.ddl_latch`), so no
        statement can be scanning the table when it vanishes.
        """
        with self._catalog_lock:
            for key in self.tables:
                if key.lower() == name.lower():
                    table = self.tables.pop(key)
                    break
            else:
                raise ValueError(f"no such table {name!r}")
        self.latches.forget(name)
        table.drop(self.pool)

    def report(self) -> str:
        """Human-readable catalog report: per-table rows, pages, sizes
        and fill factors, plus file and buffer-pool totals."""
        lines = [f"{'table':<20} {'rows':>10} {'pages':>8} "
                 f"{'MB':>8} {'fill':>6} {'height':>7}  indexes"]
        for name in sorted(self.tables):
            s = self.tables[name].page_fill_stats()
            lines.append(
                f"{name:<20} {s['rows']:>10} {s['leaf_pages']:>8} "
                f"{s['data_bytes'] / 1e6:>8.2f} {s['avg_fill']:>6.0%} "
                f"{s['height']:>7}  {', '.join(s['indexes']) or '-'}")
        lines.append(
            f"file: {self.pagefile.allocated_page_count} pages used / "
            f"{self.pagefile.page_count} reserved "
            f"({self.pagefile.total_bytes / 1e6:.2f} MB); "
            f"buffer pool: {self.pool.cached_pages} cached pages")
        return "\n".join(lines)


def _verify_snapshot(f, path: str) -> None:
    """Check the trailer and checksum of the snapshot open in ``f``
    (positioned after its magic header)."""
    body_start = f.tell()
    size = f.seek(0, os.SEEK_END) - body_start - _TRAILER.size
    if size < 0:
        raise CorruptSnapshotError(f"{path} is cut short: no trailer")
    f.seek(body_start + size)
    length, crc, mark = _TRAILER.unpack(f.read(_TRAILER.size))
    if mark != _TRAILER_MARK or length != size:
        raise CorruptSnapshotError(
            f"{path} is torn: its trailer does not close {size} bytes")
    f.seek(body_start)
    actual = 0
    left = size
    while left:
        chunk = f.read(min(left, 1 << 20))
        if not chunk:
            raise CorruptSnapshotError(f"{path} shrank while read")
        actual = zlib.crc32(chunk, actual)
        left -= len(chunk)
    if actual != crc:
        raise CorruptSnapshotError(f"{path} fails its checksum")


class Expression:
    """Base class for scalar expressions, evaluated a batch at a time:
    :meth:`eval_batch` returns the ``(values, mask)`` lanes of the
    context's batch (see :mod:`repro.engine.vectorized`)."""

    def columns(self) -> set[str]:
        """Names of table columns this expression reads."""
        return set()

    def static_cpu_cost(self, table: Table, model: CostModel) -> float:
        """Per-row CPU cost that does not depend on the row's values."""
        return 0.0

    def eval_batch(self, ctx: "vectorized.BatchContext"):
        raise NotImplementedError


class Col(Expression):
    """Reference to a table column by name."""

    def __init__(self, name: str):
        self.name = name

    def columns(self) -> set[str]:
        return {self.name}

    def static_cpu_cost(self, table: Table, model: CostModel) -> float:
        col = table.columns[table.column_index(self.name)]
        if col.type in ("varbinary", "varbinary_max"):
            return model.cpu_decode_varbinary
        return model.cpu_decode_fixed

    def eval_batch(self, ctx: "vectorized.BatchContext"):
        return ctx.batch.column(self.name)


class Const(Expression):
    """A literal value."""

    def __init__(self, value):
        self.value = value

    def eval_batch(self, ctx: "vectorized.BatchContext"):
        # Scalars broadcast; a None scalar means NULL in every lane.
        return self.value, None


class ReadBlob(Expression):
    """Materialize a ``varbinary_max`` column value.

    In-row values pass through unchanged; out-of-page values are read in
    full through the blob stream wrapper, charging the stream-call and
    per-byte costs plus the (random) page reads the chunks require.
    """

    def __init__(self, inner: Expression):
        self.inner = inner

    def columns(self) -> set[str]:
        return self.inner.columns()

    def static_cpu_cost(self, table: Table, model: CostModel) -> float:
        return self.inner.static_cpu_cost(table, model)

    def eval_batch(self, ctx: "vectorized.BatchContext"):
        values, mask = self.inner.eval_batch(ctx)
        n = ctx.batch.n
        if isinstance(values, np.ndarray):
            if values.dtype != object or not any(
                    isinstance(v, MaxBlobHandle) for v in values):
                return values, mask
            # Copy before materializing: the original array may be the
            # batch's cached column, which must keep its handles.
            out = values.copy()
        else:
            if not isinstance(values, MaxBlobHandle):
                return values, mask
            out = np.empty(n, dtype=object)
            out.fill(values)
        for i in range(n):
            value = out[i]
            if isinstance(value, MaxBlobHandle):
                stream = value.open_stream(ctx.pool)
                out[i] = stream.read_at(0, value.length)
                ctx.stream_calls += stream.stream_calls
                ctx.stream_bytes += stream.bytes_read
        return out, mask


class ScalarUdf(Expression):
    """A scalar user-defined function call.

    Every call is charged the flat CLR invocation cost plus a managed
    body cost: pass ``body_cost="item"`` for an array-item extraction
    body, ``body_cost="empty"`` for an empty function (the paper's
    ``dbo.EmptyFunction``), or a float for a custom cost in seconds.

    Args:
        func: The Python callable that does the real work.
        args: Argument expressions.
        body_cost: See above.
        name: Label used in messages.
        vectorized: Optional batch kernel: ``kernel(args)`` receives a
            list of length-n NumPy arrays (one per argument, scalars
            broadcast) and returns a length-n array of results — or
            ``None`` to decline the batch, in which case the engine
            falls back to calling ``func`` once per row.  Kernels only
            see batches with no NULL argument lanes.  When omitted, a
            ``vectorized`` attribute on ``func`` itself is picked up,
            which is how the ``repro.tsql`` numbered variants publish
            their kernels.  Simulated cost is charged identically
            either way (one UDF call per row).
    """

    _BODY_KEYS = ("item", "empty")

    def __init__(self, func: Callable, *args: Expression,
                 body_cost="item", name: str | None = None,
                 vectorized: Callable | None = None):
        self.func = func
        self.args = args
        self.body_cost = body_cost
        self.name = name or getattr(func, "__name__", "udf")
        self.vectorized = (vectorized if vectorized is not None
                           else getattr(func, "vectorized", None))

    def columns(self) -> set[str]:
        out: set[str] = set()
        for a in self.args:
            out |= a.columns()
        return out

    def _body_seconds(self, model: CostModel) -> float:
        if self.body_cost == "item":
            return model.cpu_udf_body_item
        if self.body_cost == "empty":
            return model.cpu_udf_body_empty
        return float(self.body_cost)

    def static_cpu_cost(self, table: Table, model: CostModel) -> float:
        cost = model.cpu_udf_call + self._body_seconds(model)
        for a in self.args:
            cost += a.static_cpu_cost(table, model)
        return cost

    def eval_batch(self, ctx: "vectorized.BatchContext"):
        n = ctx.batch.n
        args = [a.eval_batch(ctx) for a in self.args]
        # One call per row is charged whether or not a batch kernel
        # ends up doing the work.
        ctx.udf_calls += n
        kernel = self.vectorized
        if kernel is not None and n:
            no_nulls = not any(
                vectorized.null_lanes(v, m, n).any() for v, m in args)
            if no_nulls:
                out = kernel([vectorized.as_full_array(v, n)
                              for v, _m in args])
                if out is not None:
                    return out, None
        lists = [vectorized.to_pylist(v, m, n) for v, m in args]
        func = self.func
        out = np.empty(n, dtype=object)
        for i in range(n):
            out[i] = func(*[col[i] for col in lists])
        return out, vectorized.mask_from_object(out)


class Aggregate:
    """Base class for aggregate functions.

    Every aggregate implements one protocol, the paper's UDA contract
    (``init / accumulate / merge / terminate``, §4.2) with the
    accumulate step in the three shapes a statement feeds it:

    * :meth:`start` — a fresh state;
    * :meth:`step` — the state advanced over one value of :attr:`expr`
      (``None`` for NULL; ``COUNT(*)`` has no expression and is handed
      ``None``), which a grouped scan's per-lane walk uses for keys
      that do not partition (objects);
    * :meth:`step_batch` — the state advanced over a batch's
      ``(values, mask)`` lanes of :attr:`expr` (see
      :mod:`repro.engine.vectorized`);
    * :meth:`group_column` — the array column that holds the state of
      every group of a vectorized grouped scan and advances a batch's
      segments at a time (``docs/EXECUTOR.md``, "Grouped scans");
    * :meth:`finish` — the final value.

    :meth:`step_cost` prices one step in the cost model and
    :meth:`finish_floats` is :meth:`finish` over float64 per-group
    states at once.  The contract's *merge* is no method: a shard runs
    :func:`PartialCapture` aggregates, whose partial is the inputs
    unfolded, and the coordinator accumulates those in shard order
    (:meth:`~repro.engine.vectorized.GroupArrays.absorb_partial`).
    """

    expr: Expression | None = None

    def step_cost(self, model: CostModel) -> float:
        raise NotImplementedError

    def start(self):
        raise NotImplementedError

    def step(self, state, value):
        raise NotImplementedError

    def step_batch(self, state, values, mask, n: int):
        raise NotImplementedError

    def group_column(self):
        raise NotImplementedError

    def finish(self, state, rows: int):
        return state

    def finish_floats(self, values: np.ndarray, counts: np.ndarray
                      ) -> np.ndarray:
        """:meth:`finish` over float64 per-group states at once:
        ``values`` the folded values, ``counts`` how many inputs went
        into each (an entry whose count is 0 is the caller's to null
        out)."""
        return values


class Count(Aggregate):
    """``COUNT(*)``.  A count is its own partial state."""

    expr = None

    def step_cost(self, model: CostModel) -> float:
        return model.cpu_count_step

    def start(self):
        return 0

    def step(self, state, value):
        return state + 1

    def step_batch(self, state, values, mask, n):
        return state + n

    def group_column(self):
        return vectorized.CountColumn()


class _Fold(Aggregate):
    """An aggregate that folds its non-NULL inputs, left to right,
    through one binary operator :attr:`op` — every form below (value,
    batch, group segments) applies that one operator, so a
    subclass states its semantics once.  The state is the value folded
    so far, ``None`` before the first."""

    op: Callable

    def __init__(self, expr: Expression):
        self.expr = expr

    def step_cost(self, model: CostModel) -> float:
        return model.cpu_sum_step

    def start(self):
        return None

    def step(self, state, value):
        if value is None:
            return state
        return value if state is None else self.op(state, value)

    def step_batch(self, state, values, mask, n):
        return vectorized.fold_batch(self.op, state, values, mask, n)[0]

    def group_column(self):
        return vectorized.FoldColumn(self.op)


def _canonical_nan(total):
    """Which NaN operand a float add keeps — sign and payload — varies
    with how the C compiler ordered the operands (the interpreter's
    inlined add, ``float_add`` and NumPy's loops are three
    compilations), so a NaN *total* is reported as the one canonical
    ``nan`` on every engine.  MIN/MAX return an operand and keep it."""
    return math.nan if total != total else total


class Sum(_Fold):
    """``SUM(expr)`` (SQL semantics: NULL inputs are skipped)."""

    op = operator.add

    def finish(self, state, rows):
        return _canonical_nan(state)

    def finish_floats(self, values, counts):
        return np.where(values != values, np.nan, values)


class Avg(Sum):
    """``AVG(expr)``: the state is ``(total, count)``."""

    def step_cost(self, model: CostModel) -> float:
        return model.cpu_sum_step + model.cpu_count_step

    def start(self):
        return (None, 0)

    def step(self, state, value):
        if value is None:
            return state
        total, n = state
        return super().step(total, value), n + 1

    def step_batch(self, state, values, mask, n):
        total, count = state
        total, added = vectorized.fold_batch(self.op, total, values,
                                             mask, n)
        return total, count + added

    def group_column(self):
        return vectorized.FoldColumn(self.op, counted=True)

    def finish(self, state, rows):
        total, n = state
        return None if n == 0 else _canonical_nan(total / n)

    def finish_floats(self, values, counts):
        with np.errstate(invalid="ignore"):  # a signalling NaN
            return super().finish_floats(
                values / np.maximum(counts, 1), counts)


class Min(_Fold):
    """``MIN(expr)``."""

    op = min


class Max(_Fold):
    """``MAX(expr)``."""

    op = max


class _Inputs(Aggregate):
    """The partial state of a fold: its non-NULL inputs in scan order,
    unfolded.  Float addition is not associative, and Python's min/max
    keep the *first* operand of an incomparable (NaN) pair, so only the
    coordinator replaying the whole left fold over the shards' lists,
    in shard order, is bit-identical to one node (see
    ``docs/SHARDING.md``).  Priced as the fold it stands for."""

    def __init__(self, fold: _Fold):
        self.expr = fold.expr
        self.step_cost = fold.step_cost

    def start(self):
        return []

    def step(self, state, value):
        if value is not None:
            state.append(value)
        return state

    def step_batch(self, state, values, mask, n):
        state.extend(vectorized.nonnull_values(values, mask, n))
        return state

    def group_column(self):
        return vectorized.ValuesColumn()


def PartialCapture(agg: Aggregate) -> Aggregate:
    """The aggregate whose finished value is ``agg``'s unreduced
    partial state: a count, or the non-NULL inputs in scan order.
    Running a plan with every aggregate captured is the shard side of
    distributed aggregation; a vectorized grouped scan keeps the
    captures' columns, the arrays a ``presult`` frame ships."""
    return agg if isinstance(agg, Count) else _Inputs(agg)


class Executor:
    """Runs aggregate scans against one database under a cost model.

    Per-query IO metrics are deltas of the *calling thread's* buffer
    pool counters (:meth:`BufferPool.snapshot_thread_counters`), so
    they stay exact when several queries run concurrently on the
    server's connection threads — concurrent scans never inflate each
    other's counts.  A ``cold=True`` query reads through a private
    cold view of the pool (forced misses for the calling thread only),
    so it neither evicts nor re-charges its neighbours.
    """

    def __init__(self, db: Database, model: CostModel = PAPER_HARDWARE):
        self.db = db
        self.model = model

    @contextmanager
    def _read_view(self, table: Table, cold: bool):
        """Statement-scoped read view over one table.

        The statement reads a pinned frozen snapshot of the table —
        rows and secondary indexes as one version published them — and
        a ``cold`` statement gets a *private* cold view of the buffer
        pool instead of clearing it for everybody — so per-query IO
        counters are independent under concurrency and a cold scan does
        not make its neighbours re-fetch and eat the charge.
        """
        pool = self.db.pool
        snap = table.pin_snapshot()
        try:
            if cold:
                pool.begin_cold_view()
            try:
                yield snap
            finally:
                if cold:
                    pool.end_cold_view()
        finally:
            snap.unpin(pool)

    def _metrics(self, label: str, rows: int, io, cpu: float,
                 wall: float, counts) -> QueryMetrics:
        """The one :class:`QueryMetrics` builder.  ``counts`` carries
        the statement's ``stream_calls``/``udf_calls`` (its
        :class:`~repro.engine.vectorized.BatchContext`)."""
        model = self.model
        io_seq, io_random = model.io_seconds_split(io)
        io_seconds = io_seq + io_random
        return QueryMetrics(
            label=label, rows=rows, io_bytes=io.physical_bytes,
            physical_reads=io.physical_reads,
            sequential_reads=io.sequential_reads,
            random_reads=io.random_reads,
            stream_calls=counts.stream_calls, udf_calls=counts.udf_calls,
            sim_io_seconds=io_seconds,
            sim_io_seq_seconds=io_seq,
            sim_io_random_seconds=io_random,
            sim_cpu_core_seconds=cpu,
            sim_exec_seconds=model.exec_seconds(io_seconds, cpu),
            cores=model.cores, wall_seconds=wall)

    def _scan_costs(self, table: Table, aggregates, where,
                    group_expr) -> tuple[float, float]:
        """Per-row static CPU of a scan plan, ``(decode, step)``: the
        referenced-column decodes (UDF calls inside expressions are
        static cost too, one call per row) and the aggregate steps,
        plus a hash probe per row when grouping.  Data-dependent costs
        (blob streaming) are charged via the evaluation context."""
        model = self.model
        exprs = [] if group_expr is None else [group_expr]
        exprs += [a.expr for a in aggregates if a.expr is not None]
        if where is not None:
            exprs.append(where)
        decode_cost = 0.0
        for expr in exprs:
            decode_cost += expr.static_cpu_cost(table, model)
        step_cost = sum(a.step_cost(model) for a in aggregates)
        if group_expr is not None:
            step_cost += model.cpu_count_step
        return decode_cost, step_cost

    def _scan_cpu(self, rows: int, payload_bytes: int,
                  costs: tuple[float, float], counts) -> float:
        """Simulated CPU core-seconds of a scan."""
        model = self.model
        decode_cost, step_cost = costs
        return (rows * (model.cpu_row_base + decode_cost + step_cost)
                + payload_bytes * model.cpu_per_record_byte
                + counts.stream_calls * model.cpu_stream_call
                + counts.stream_bytes * model.cpu_stream_byte
                + counts.extra_cpu)

    def _seek_cpu(self, table: Table, aggregates, rows: int, io,
                  ctx: "vectorized.BatchContext") -> float:
        """Simulated CPU core-seconds of a seek plan."""
        model = self.model
        decode_cost = sum(
            a.expr.static_cpu_cost(table, model) for a in aggregates
            if a.expr is not None)
        return (rows * (model.cpu_row_base + decode_cost
                        + sum(a.step_cost(model) for a in aggregates))
                # Binary searches down the tree: ~one row-base of work
                # per level touched.
                + io.logical_reads * model.cpu_row_base
                + ctx.stream_calls * model.cpu_stream_call
                + ctx.stream_bytes * model.cpu_stream_byte)

    @staticmethod
    def _finish(aggregates, states, groups, rows: int, partial: bool):
        """Final values: the aggregate tuple, or one ``(group, agg...)``
        row per group in group order — except that a ``partial``
        statement hands the ``GroupArrays`` a scan built on as they
        are."""
        if groups is None:
            return tuple(a.finish(s, rows)
                         for a, s in zip(aggregates, states))
        if partial and isinstance(groups, vectorized.GroupArrays):
            return groups
        return groups.rows(aggregates, rows)

    def run(self, table: Table, aggregates: Sequence[Aggregate],
            where: Expression | None = None, cold: bool = True,
            label: str = "") -> tuple[tuple, QueryMetrics]:
        """Execute ``SELECT aggs FROM table [WHERE where]``.

        Args:
            table: Table to scan (clustered index scan, key order).
            aggregates: Aggregate list; their final values are returned
                in order.
            where: Optional predicate expression (rows where it
                evaluates falsy are skipped after being scanned).
            cold: Read through a cold buffer pool, like the paper's runs.
            label: Name recorded in the metrics.

        Returns:
            ``(values, metrics)``.
        """
        return self.run_serial(table, aggregates, where, None, cold, label)

    def run_grouped(self, table: Table, group_expr: "Expression",
                    aggregates: Sequence[Aggregate],
                    where: "Expression | None" = None, cold: bool = True,
                    label: str = "") -> tuple[list[tuple], QueryMetrics]:
        """Execute ``SELECT group, aggs FROM table GROUP BY group``.

        One hash-aggregation pass over the clustered scan; rows are
        returned sorted by group key.  This is the paper's
        composite-spectra query shape ("group spectra by certain
        parameters ... with a simple SQL query", Section 2.2).

        Returns:
            ``(rows, metrics)`` where each row is
            ``(group_value, agg1, agg2, ...)``.
        """
        return self.run_serial(table, aggregates, where, group_expr,
                               cold, label)

    def run_serial(self, table: Table, aggregates, where=None,
                   group_expr=None, cold: bool = True, label: str = ""):
        """Scan (grouped when ``group_expr`` is given); a session calls
        this under its statement latch guard."""
        return self._execute(table, aggregates, cold, label, where,
                             group_expr)

    def run_partial(self, table: Table, aggregates, where=None,
                    group_expr=None, cold: bool = True, label: str = ""):
        """:meth:`run_serial` over :func:`PartialCapture` aggregates
        that hands a grouped scan's
        :class:`~repro.engine.vectorized.GroupArrays` on as they are
        (a spilled one as finished ``(key, partial, ...)`` rows)."""
        return self._execute(table, aggregates, cold, label, where,
                             group_expr, partial=True)

    def run_index(self, table: Table, column: str,
                  aggregates: Sequence[Aggregate], equals=None,
                  lo=None, hi=None, cold: bool = True, label: str = ""
                  ) -> tuple[tuple, QueryMetrics]:
        """Execute aggregates over rows found through a secondary
        index: an index seek / range scan plus one clustered key lookup
        per qualifying row.

        The index and the rows are read at the statement's pinned
        snapshot, the rows in primary-key order — the order a scan adds
        them in — and the records found are folded as one batch.

        Args:
            column: The indexed column.
            equals: Equality value (exclusive with lo/hi).
            lo / hi: Half-open value range ``[lo, hi)``.
        """
        def batches(view, pool):
            index = view.index_on(column)
            if index is None:
                raise ValueError(f"no index on column {column!r}")
            pks = index.seek(equals, pool) if equals is not None \
                else index.range(lo, hi, pool)
            keys, payloads = [], []
            for pk in sorted(pks):
                payload = view.tree.search(pk, pool)
                if payload is not None:
                    keys.append(pk)
                    payloads.append(payload)
            return _seek_batch(view, keys, payloads)

        return self._execute(table, aggregates, cold, label,
                             seek=batches)

    def run_point(self, table: Table, key: int,
                  aggregates: Sequence[Aggregate], cold: bool = True,
                  label: str = "", finalize=None):
        """Execute aggregates over the single row with the given
        primary key — a clustered index *seek* instead of a scan.

        The B-tree descent touches ``height`` pages instead of every
        leaf; this is the plan the paper's narrow queries (one blob row
        by z-index) rely on.  The row found is folded as a one-record
        batch.

        Returns ``(values, metrics)``, or what ``finalize`` makes of
        them.  ``finalize`` is the consumer of a late-materialised plan
        (aggregates that hand a blob cell through as its
        :class:`~repro.engine.table.MaxBlobHandle`): it runs *inside*
        the read view — snapshot pinned, a cold statement's cold view
        open — and the page reads it makes are charged to ``metrics``
        once it returns.
        """
        key = int(key)

        def batches(view, pool):
            payload = view.tree.search(key, pool)
            return _seek_batch(view, [key], [payload]) \
                if payload is not None else ()

        return self._execute(table, aggregates, cold, label,
                             seek=batches, finalize=finalize)

    def _execute(self, table: Table, aggregates, cold: bool, label: str,
                 where=None, group_expr=None, *, seek=None,
                 partial: bool = False, finalize=None):
        """The one statement body behind every ``run*`` method.

        The rows come from a batch source that one fold consumes
        (:func:`~repro.engine.vectorized.scan_aggregate`, or
        :func:`~repro.engine.vectorized.scan_grouped` when grouped):
        ``seek(view, pool)`` returns a seek plan's batches — one batch
        of the records it found — charged by :meth:`_seek_cpu`; without
        it the source is the clustered scan of the view, batch by
        batch, charged by :meth:`_scan_cpu`.  The body opens the
        statement's read view (:meth:`_read_view`), measures the
        calling thread's IO and the wall time, and calls ``finalize``
        on ``(values, metrics)`` inside the view, re-measuring after
        it.
        """
        pool = self.db.pool
        costs = None if seek is not None else \
            self._scan_costs(table, aggregates, where, group_expr)
        with self._read_view(table, cold) as view:
            before = pool.snapshot_thread_counters()
            started = time.perf_counter()
            ctx = vectorized.BatchContext(pool)
            if seek is not None:
                batches = seek(view, pool)
            else:
                # A statement that reads no column scans counted batches.
                batches = view.scan_batches(
                    pool, columns=where is not None
                    or group_expr is not None
                    or any(a.expr is not None for a in aggregates))
            states = groups = None
            if group_expr is None:
                states, rows, payload_bytes = vectorized.scan_aggregate(
                    batches, aggregates, where, ctx)
            else:
                groups, rows, payload_bytes = vectorized.scan_grouped(
                    batches, group_expr, aggregates, where, ctx)

            def measured() -> QueryMetrics:
                io = pool.snapshot_thread_counters().delta_since(before)
                cpu = self._seek_cpu(table, aggregates, rows, io, ctx) \
                    if costs is None else \
                    self._scan_cpu(rows, payload_bytes, costs, ctx)
                return self._metrics(label, rows, io, cpu,
                                     time.perf_counter() - started, ctx)

            metrics = measured()
            result = (self._finish(aggregates, states, groups, rows,
                                   partial), metrics)
            if finalize is not None:
                result = finalize(result)
                vars(metrics).update(vars(measured()))
        return result


def _seek_batch(view, keys: list, payloads: list) -> tuple:
    """A seek plan's batch source: the records it found as one
    :class:`~repro.engine.vectorized.RowBatch` (none when it found
    nothing)."""
    return (vectorized.RowBatch(view.table, keys, payloads),) \
        if keys else ()
