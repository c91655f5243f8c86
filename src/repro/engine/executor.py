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
import tempfile
import threading
import time
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from . import vectorized
from .blob import BlobStore
from .bufferpool import BufferPool
from .costmodel import PAPER_HARDWARE, CostModel
from .latches import LatchManager
from .metrics import QueryMetrics
from .page import PageFile
from .table import Column, MaxBlobHandle, Table

__all__ = [
    "Database",
    "Executor",
    "Expression",
    "Col",
    "Const",
    "ScalarUdf",
    "ReadBlob",
    "Aggregate",
    "group_rank",
    "Count",
    "Sum",
    "Avg",
    "Min",
    "Max",
]


class Database:
    """A page file, blob store, buffer pool and table catalog.

    One database may be shared by many sessions (the
    :mod:`repro.server` worker pool multiplexes per-connection
    :class:`~repro.engine.sqlfront.SqlSession` objects over a single
    instance).  :attr:`latches` is the statement-granularity latch
    hierarchy those sessions take — a shared catalog latch plus
    per-table reader/writer latches, so a writer on one table overlaps
    readers on another, while readers of the *same* table pin
    copy-on-write snapshots and scan them latch-free (see
    :mod:`repro.engine.latches` and ``docs/LOCKING.md``).
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
        self._catalog_lock = threading.Lock()

    def __getstate__(self):
        state = self.__dict__.copy()
        # Latches are process-local.
        state["latches"] = None
        state["_catalog_lock"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.latches = LatchManager()
        self._catalog_lock = threading.Lock()
        for table in self.tables.values():
            table._pool_ref = self.pool

    def save(self, path: str) -> None:
        """Snapshot the whole database (pages, blobs, catalog) to a
        file.  The snapshot is a pickle of this object minus its
        process-local state (locks; the buffer pool travels cold).

        The write is atomic: the pickle goes to a temporary file in the
        target's directory, is flushed and fsynced, and only then
        replaces ``path`` — a crash mid-write leaves the previous
        snapshot, never a torn one."""
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp = tempfile.mkstemp(prefix=".save-", dir=directory)
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(self, f, protocol=pickle.HIGHEST_PROTOCOL)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def open(cls, path: str) -> "Database":
        """Re-open a database snapshot written by :meth:`save`."""
        with open(path, "rb") as f:
            db = pickle.load(f)
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
        resolution) and its latch.  The table's pages stay allocated
        in the page file until the process exits — there is no extent
        reclamation, which trades a little memory for never having to
        prove that no pinned snapshot still walks them.  Callers going
        through SQL hold the exclusive catalog latch
        (:meth:`LatchManager.ddl_latch`), so no statement can be
        scanning the table when it vanishes.
        """
        with self._catalog_lock:
            for key in self.tables:
                if key.lower() == name.lower():
                    del self.tables[key]
                    break
            else:
                raise ValueError(f"no such table {name!r}")
        self.latches.forget(name)

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


class _RowContext:
    """Evaluation context handed to expressions for one row."""

    __slots__ = ("table", "row", "pool", "udf_calls", "stream_calls",
                 "stream_bytes", "extra_cpu")

    def __init__(self, table: Table, pool: BufferPool):
        self.table = table
        self.pool = pool
        self.row: tuple = ()
        self.udf_calls = 0
        self.stream_calls = 0
        self.stream_bytes = 0
        self.extra_cpu = 0.0


class Expression:
    """Base class for scalar expressions evaluated per row."""

    def columns(self) -> set[str]:
        """Names of table columns this expression reads."""
        return set()

    def static_cpu_cost(self, table: Table, model: CostModel) -> float:
        """Per-row CPU cost that does not depend on the row's values."""
        return 0.0

    def eval(self, ctx: _RowContext):
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

    def eval(self, ctx: _RowContext):
        return ctx.row[ctx.table.column_index(self.name)]

    def eval_batch(self, ctx: "vectorized.BatchContext"):
        return ctx.batch.column(self.name)


class Const(Expression):
    """A literal value."""

    def __init__(self, value):
        self.value = value

    def eval(self, ctx: _RowContext):
        return self.value

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

    def eval(self, ctx: _RowContext):
        value = self.inner.eval(ctx)
        if isinstance(value, MaxBlobHandle):
            stream = value.open_stream(ctx.pool)
            data = stream.read_at(0, value.length)
            ctx.stream_calls += stream.stream_calls
            ctx.stream_bytes += stream.bytes_read
            return data
        return value

    def eval_batch(self, ctx: "vectorized.BatchContext"):
        values, mask = vectorized.eval_node(self.inner, ctx)
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

    def eval(self, ctx: _RowContext):
        ctx.udf_calls += 1
        return self.func(*[a.eval(ctx) for a in self.args])

    def eval_batch(self, ctx: "vectorized.BatchContext"):
        n = ctx.batch.n
        args = [vectorized.eval_node(a, ctx) for a in self.args]
        # Metric parity: the row engine charges one call per row
        # whether or not a batch kernel ends up doing the work.
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

    Subclasses implement the row-at-a-time protocol (:meth:`start`,
    :meth:`step`, :meth:`finish`).  The built-ins additionally provide
    :meth:`step_value` (advance on one already-evaluated value),
    :meth:`step_batch` (advance over the whole current batch) and
    :meth:`group_column` (the array column that holds this aggregate's
    state for every group of a vectorized grouped scan and advances a
    batch's segments at a time — see ``docs/EXECUTOR.md``, "Grouped
    scans").  Custom aggregates may omit all three — the vector engine
    then steps them per row over materialized tuples.

    The built-ins also implement the *mergeable-state* protocol of
    distributed aggregation: :meth:`partial_start` /
    :meth:`partial_step_values` accumulate a shard-local partial state
    (through :class:`PartialCapture`), and :meth:`merge` folds a
    shipped partial into the coordinator's running state.  Partials
    deliberately stay *unreduced* (ordered value lists, not folded
    scalars) so the coordinator can replay the exact left-fold the
    single-node engines use — merging in shard order then yields
    bit-identical float SUM/AVG (and NaN-faithful MIN/MAX) no matter
    how many shards ran.
    """

    expr: Expression | None = None

    def step_cost(self, model: CostModel) -> float:
        raise NotImplementedError

    def start(self):
        raise NotImplementedError

    def step(self, state, ctx: _RowContext):
        raise NotImplementedError

    def finish(self, state, rows: int):
        return state


class Count(Aggregate):
    """``COUNT(*)``."""

    expr = None

    def step_cost(self, model: CostModel) -> float:
        return model.cpu_count_step

    def start(self):
        return 0

    def step(self, state, ctx):
        return state + 1

    def step_value(self, state, value):
        return state + 1

    def step_batch(self, state, ctx: "vectorized.BatchContext"):
        return state + ctx.batch.n

    def group_column(self):
        return vectorized.CountColumn()

    partial_column = group_column

    def partial_start(self):
        return 0

    def partial_step_values(self, partial, values):
        return partial + len(values)

    def merge(self, state, partial):
        return state + partial


class _Fold(Aggregate):
    """An aggregate that folds its non-NULL inputs, left to right,
    through one binary operator :attr:`op` — every form below (row,
    value, batch, group segments, merge) applies that one operator, so
    a subclass states its semantics once.  The state is the value
    folded so far, ``None`` before the first."""

    op: Callable

    def __init__(self, expr: Expression):
        self.expr = expr

    def step_cost(self, model: CostModel) -> float:
        return model.cpu_sum_step

    def start(self):
        return None

    def step(self, state, ctx):
        value = self.expr.eval(ctx)
        if value is None:
            return state
        return value if state is None else self.op(state, value)

    def step_value(self, state, value):
        if value is None:
            return state
        return value if state is None else self.op(state, value)

    def step_batch(self, state, ctx: "vectorized.BatchContext"):
        values, mask = vectorized.eval_node(self.expr, ctx)
        return vectorized.fold_batch(self.op, state, values, mask,
                                     ctx.batch.n)[0]

    def group_column(self):
        return vectorized.FoldColumn(self.op)

    def partial_column(self):
        return vectorized.ValuesColumn()

    def finish_floats(self, values: np.ndarray, counts: np.ndarray
                      ) -> np.ndarray:
        """:meth:`finish` over float64 per-group states at once:
        ``values`` the folded values, ``counts`` how many inputs went
        into each (an entry whose count is 0 is the caller's to null
        out)."""
        return values

    def partial_start(self):
        return []

    def partial_step_values(self, partial, values):
        # Ship the full non-NULL value list, not a shard-local fold:
        # float addition is not associative, and Python's min/max keep
        # the *first* operand on incomparable (NaN) pairs, which is
        # order-dependent, so only a full replay of the left fold is
        # bit-identical.
        partial.extend(v for v in values if v is not None)
        return partial

    def merge(self, state, partial):
        return vectorized.fold(self.op, state, partial)


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
    """``AVG(expr)``."""

    def step_cost(self, model: CostModel) -> float:
        return model.cpu_sum_step + model.cpu_count_step

    def start(self):
        return (None, 0)

    def step(self, state, ctx):
        total, n = state
        value = self.expr.eval(ctx)
        if value is None:
            return state
        return (value if total is None else total + value), n + 1

    def step_value(self, state, value):
        if value is None:
            return state
        total, n = state
        return (value if total is None else total + value), n + 1

    def step_batch(self, state, ctx: "vectorized.BatchContext"):
        total, n = state
        values, mask = vectorized.eval_node(self.expr, ctx)
        total, added = vectorized.fold_batch(self.op, total, values,
                                             mask, ctx.batch.n)
        return total, n + added

    def group_column(self):
        return vectorized.FoldColumn(self.op, counted=True)

    def merge(self, state, partial):
        total, n = state
        return (vectorized.fold(self.op, total, partial),
                n + len(partial))

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


class PartialCapture(Aggregate):
    """Adapter that runs an aggregate's *partial* protocol behind the
    ordinary scan interface, so any engine yields the unreduced
    mergeable state instead of a finished value.

    This is the shard side of distributed aggregation: wrap each
    aggregate of a plan, execute the plan unchanged (row or vector
    path), and the "values" that come back are the inner
    aggregates' partial states — ordered non-NULL value lists (or a
    running count) in scan order, exactly what :meth:`Aggregate.merge`
    consumes.  The coordinator then replays the serial left fold over
    the shipped partials in shard order, which keeps float SUM/AVG
    bit-identical to a single-node run (see ``docs/SHARDING.md``).

    A vectorized grouped scan keeps a captured aggregate in the inner
    aggregate's ``partial_column`` — for every group at once, the
    arrays a ``presult`` frame ships.
    """

    def __init__(self, inner: Aggregate):
        self.inner = inner
        self.expr = inner.expr

    def step_cost(self, model: CostModel) -> float:
        return self.inner.step_cost(model)

    def start(self):
        return self.inner.partial_start()

    def step(self, state, ctx):
        value = 1 if self.expr is None else self.expr.eval(ctx)
        return self.inner.partial_step_values(state, (value,))

    def step_value(self, state, value):
        return self.inner.partial_step_values(state, (value,))

    def step_batch(self, state, ctx: "vectorized.BatchContext"):
        if self.expr is None:
            # COUNT(*): only the lane count matters.
            return self.inner.partial_step_values(
                state, range(ctx.batch.n))
        values, mask = vectorized.eval_node(self.expr, ctx)
        return self.inner.partial_step_values(
            state, vectorized.to_pylist(values, mask, ctx.batch.n))

    def group_column(self):
        make = getattr(self.inner, "partial_column", None)
        return None if make is None else make()

    def finish(self, state, rows):
        return state


def group_rank(key) -> tuple:
    """Sort key of a group key in a grouped result: values ascending,
    then NaN keys (each its own group, as a dict of float objects
    keeps them) in the order met, NULL last.  Ranking NaN explicitly
    makes the order a property of the groups, not of the order a
    particular engine happened to create them in."""
    return key is None, key != key, key


def _env_default_engine() -> str:
    value = os.environ.get("REPRO_ENGINE", "").strip().lower()
    return value if value in ("row", "vector") else "vector"


class Executor:
    """Runs aggregate scans against one database under a cost model.

    Per-query IO metrics are deltas of the *calling thread's* buffer
    pool counters (:meth:`BufferPool.snapshot_thread_counters`), so
    they stay exact when several queries run concurrently on the
    server's worker pool — concurrent scans never inflate each other's
    counts.  A ``cold=True`` query reads through a private cold view
    of the pool (forced misses for the calling thread only), so it
    neither evicts nor re-charges its neighbours.
    """

    #: Execution path used when a call does not pass ``engine=``:
    #: ``"vector"`` (columnar batches, the default) or ``"row"``.
    #: Results, NULL handling and cold-run IO accounting are identical
    #: on both.  Overridable per process with ``REPRO_ENGINE``.
    default_engine = _env_default_engine()

    def __init__(self, db: Database, model: CostModel = PAPER_HARDWARE):
        self.db = db
        self.model = model

    def _resolve_engine(self, engine: str | None) -> str:
        engine = engine if engine is not None else self.default_engine
        if engine not in ("row", "vector"):
            raise ValueError(
                f"engine must be 'row' or 'vector', got {engine!r}")
        return engine

    @contextmanager
    def _read_view(self, table: Table, cold: bool, pin: bool = True):
        """Statement-scoped read view over one table.

        The statement reads a pinned frozen snapshot of the table
        (``pin=False`` keeps the live table — the index-seek path,
        whose secondary indexes are not versioned and run under the
        session's table latch), and a ``cold`` statement gets a
        *private* cold view of the buffer pool instead of clearing it
        for everybody — so per-query IO counters are independent under
        concurrency and a cold scan does not make its neighbours
        re-fetch and eat the charge.
        """
        pool = self.db.pool
        snap = table.pin_snapshot() if pin else None
        try:
            if cold:
                pool.begin_cold_view()
            try:
                yield snap if snap is not None else table
            finally:
                if cold:
                    pool.end_cold_view()
        finally:
            if snap is not None:
                snap.unpin(pool)

    def _metrics(self, label: str, rows: int, io, cpu: float,
                 wall: float, counts, engine: str = "row") -> QueryMetrics:
        """The one :class:`QueryMetrics` builder.  ``counts`` carries
        the statement's ``stream_calls``/``udf_calls`` — a row or batch
        context."""
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
            cores=model.cores, wall_seconds=wall, engine=engine)

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
                  ctx: _RowContext) -> float:
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
    def _finish(aggregates, states, groups, rows: int):
        """Final values of a scan: the aggregate tuple, or — grouped —
        one ``(group, agg...)`` row per group, sorted by group key
        (:func:`group_rank`)."""
        if groups is None:
            return tuple(a.finish(s, rows)
                         for a, s in zip(aggregates, states))
        if isinstance(groups, vectorized.GroupArrays):
            return groups.rows(aggregates, rows)
        return [
            (group, *(a.finish(s, rows)
                      for a, s in zip(aggregates, group_states)))
            for group, group_states in sorted(
                groups.items(), key=lambda kv: group_rank(kv[0]))]

    def run(self, table: Table, aggregates: Sequence[Aggregate],
            where: Expression | None = None, cold: bool = True,
            label: str = "", engine: str | None = None
            ) -> tuple[tuple, QueryMetrics]:
        """Execute ``SELECT aggs FROM table [WHERE where]``.

        Args:
            table: Table to scan (clustered index scan, key order).
            aggregates: Aggregate list; their final values are returned
                in order.
            where: Optional predicate expression (rows where it
                evaluates falsy are skipped after being scanned).
            cold: Read through a cold buffer pool, like the paper's runs.
            label: Name recorded in the metrics.
            engine: ``"row"`` or ``"vector"``; ``None`` uses
                :attr:`default_engine`.  Both produce bit-identical
                results; cold-run IO accounting is identical too.

        Returns:
            ``(values, metrics)``.
        """
        return self.run_serial(table, aggregates, where, None, cold,
                               label, self._resolve_engine(engine))

    def run_grouped(self, table: Table, group_expr: "Expression",
                    aggregates: Sequence[Aggregate],
                    where: "Expression | None" = None, cold: bool = True,
                    label: str = "", engine: str | None = None
                    ) -> tuple[list[tuple], QueryMetrics]:
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
                               cold, label, self._resolve_engine(engine))

    def run_serial(self, table: Table, aggregates, where=None,
                   group_expr=None, cold: bool = True, label: str = "",
                   engine: str = "vector"):
        """Scan on the ``"vector"`` or ``"row"`` engine (grouped when
        ``group_expr`` is given).  ``engine`` is already resolved; a
        session calls this under its statement latch guard."""
        states, groups, rows, metrics = self._scan_serial(
            table, aggregates, where, group_expr, cold, label, engine)
        return self._finish(aggregates, states, groups, rows), metrics

    def run_partial(self, table: Table, aggregates, where=None,
                    group_expr=None, cold: bool = True, label: str = "",
                    engine: str = "vector"):
        """:meth:`run_serial` for the shard side of a distributed
        aggregate — every aggregate a :class:`PartialCapture` — that
        leaves a grouped state unreduced: ``(groups, metrics)`` with
        ``groups`` the :class:`~repro.engine.vectorized.GroupArrays`
        the vector engine's scan built, handed on as the arrays it is,
        and otherwise the finished ``(key, partial, ...)`` rows, as
        :meth:`run_serial` returns them."""
        states, groups, rows, metrics = self._scan_serial(
            table, aggregates, where, group_expr, cold, label, engine)
        if isinstance(groups, vectorized.GroupArrays):
            return groups, metrics
        return self._finish(aggregates, states, groups, rows), metrics

    def _scan_serial(self, table, aggregates, where, group_expr, cold,
                     label, engine):
        """The serial scan itself: ``(states, groups, rows scanned,
        metrics)``, ``states`` or ``groups`` as the scan left them."""
        pool = self.db.pool
        costs = self._scan_costs(table, aggregates, where, group_expr)
        with self._read_view(table, cold) as view:
            before = pool.snapshot_thread_counters()
            states = groups = None
            if engine == "vector":
                ctx = vectorized.BatchContext(view, pool)
                started = time.perf_counter()
                if group_expr is None:
                    states, rows, payload_bytes = \
                        vectorized.scan_aggregate(
                            view, pool, aggregates, where, ctx)
                else:
                    groups, rows, payload_bytes = \
                        vectorized.scan_grouped(
                            view, pool, group_expr, aggregates, where,
                            ctx)
                wall = time.perf_counter() - started
            else:
                ctx = _RowContext(view, pool)
                if group_expr is None:
                    states = [a.start() for a in aggregates]
                else:
                    groups = {}
                rows = 0
                payload_bytes = 0
                started = time.perf_counter()
                for key, payload in view.tree.scan(pool):
                    rows += 1
                    payload_bytes += len(payload)
                    ctx.row = view.decode(key, payload)
                    if where is not None and not where.eval(ctx):
                        continue
                    if groups is not None:
                        group = group_expr.eval(ctx)
                        states = groups.get(group)
                        if states is None:
                            states = groups[group] = [
                                a.start() for a in aggregates]
                    for i, agg in enumerate(aggregates):
                        states[i] = agg.step(states[i], ctx)
                wall = time.perf_counter() - started

        io = pool.snapshot_thread_counters().delta_since(before)
        cpu = self._scan_cpu(rows, payload_bytes, costs, ctx)
        return (states, groups, rows,
                self._metrics(label, rows, io, cpu, wall, ctx, engine))

    def run_index(self, table: Table, column: str,
                  aggregates: Sequence[Aggregate], equals=None,
                  lo=None, hi=None, cold: bool = True, label: str = "",
                  engine: str | None = None
                  ) -> tuple[tuple, QueryMetrics]:
        """Execute aggregates over rows found through a secondary
        index: an index seek / range scan plus one clustered key lookup
        per qualifying row.

        Seek plans touch a handful of scattered rows, so there is no
        batch to vectorize; ``engine`` is accepted (and validated) for
        API uniformity but the plan always executes row-at-a-time and
        reports ``engine="row"``.

        Args:
            column: The indexed column.
            equals: Equality value (exclusive with lo/hi).
            lo / hi: Half-open value range ``[lo, hi)``.
        """
        self._resolve_engine(engine)
        index = table.index_on(column)
        if index is None:
            raise ValueError(f"no index on column {column!r}")
        pool = self.db.pool
        with self._read_view(table, cold, pin=False):
            before = pool.snapshot_thread_counters()
            ctx = _RowContext(table, pool)
            states = [a.start() for a in aggregates]
            rows = 0
            started = time.perf_counter()
            if equals is not None:
                pks = index.seek(equals, pool)
            else:
                pks = index.range(lo, hi, pool)
            for pk in pks:
                payload = table.tree.search(pk, pool)
                if payload is None:
                    continue
                rows += 1
                ctx.row = table.decode(pk, payload)
                for i, agg in enumerate(aggregates):
                    states[i] = agg.step(states[i], ctx)
            wall = time.perf_counter() - started

        io = pool.snapshot_thread_counters().delta_since(before)
        cpu = self._seek_cpu(table, aggregates, rows, io, ctx)
        return (self._finish(aggregates, states, None, rows),
                self._metrics(label, rows, io, cpu, wall, ctx))

    def run_point(self, table: Table, key: int,
                  aggregates: Sequence[Aggregate], cold: bool = True,
                  label: str = "", engine: str | None = None,
                  finalize=None):
        """Execute aggregates over the single row with the given
        primary key — a clustered index *seek* instead of a scan.

        The B-tree descent touches ``height`` pages instead of every
        leaf; this is the plan the paper's narrow queries (one blob row
        by z-index) rely on.  Like :meth:`run_index`, a seek has no
        batch to vectorize: ``engine`` is validated but the single row
        is processed on the row path (``engine="row"`` in the metrics).

        Returns ``(values, metrics)``, or what ``finalize`` makes of
        them.  ``finalize`` is the consumer of a late-materialised plan
        (aggregates that hand a blob cell through as its
        :class:`~repro.engine.table.MaxBlobHandle`): it runs *inside*
        the read view — snapshot pinned, a cold statement's cold view
        open — and the page reads it makes are charged to ``metrics``
        once it returns.
        """
        self._resolve_engine(engine)
        pool = self.db.pool
        with self._read_view(table, cold) as view:
            before = pool.snapshot_thread_counters()
            ctx = _RowContext(view, pool)
            states = [a.start() for a in aggregates]
            rows = 0
            started = time.perf_counter()
            payload = view.tree.search(int(key), pool)
            if payload is not None:
                rows = 1
                ctx.row = view.decode(int(key), payload)
                for i, agg in enumerate(aggregates):
                    states[i] = agg.step(states[i], ctx)

            def measured() -> QueryMetrics:
                io = pool.snapshot_thread_counters().delta_since(before)
                cpu = self._seek_cpu(table, aggregates, rows, io, ctx)
                return self._metrics(label, rows, io, cpu,
                                     time.perf_counter() - started, ctx)

            result = (self._finish(aggregates, states, None, rows),
                      measured())
            if finalize is not None:
                metrics = result[1]
                result = finalize(result)
                vars(metrics).update(vars(measured()))
        return result
