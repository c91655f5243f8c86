"""Morsel-driven multi-process parallel execution.

The vectorized engine made single-core scans fast; this module makes
them scale with cores.  A table's leaf pages are split into *morsels*
(contiguous runs of whole batch-sized page chunks) and shipped to a
persistent pool of **spawned worker processes**.  Each worker maps the
database snapshot read-only out of a shared-memory segment (temp-file
fallback when the segment budget is exceeded — see
``repro.engine.shm``), runs the full vectorized pipeline over its
morsel locally — column decode, WHERE, projection
and UDF batch kernels, partial aggregate states — and ships back a
small result.  The coordinator merges partial states **in morsel
order**, which keeps float left-fold SUM/AVG bit-identical to the
serial engines no matter how workers interleaved in time.

Determinism contracts:

* **Values.**  Workers never fold across values that the serial
  engine would fold in a different order: partial states are ordered
  non-NULL value lists (see ``Aggregate.partial_step_values``), and
  the coordinator replays the exact left fold morsel by morsel via
  ``Aggregate.merge``.
* **IO accounting.**  Each worker records the *ordered* page ids of
  its physical reads; the coordinator replays descent + morsel logs
  in morsel order against a single running classification cursor, so
  the sequential/random split of a cold run is identical to a serial
  scan's.  (Warm runs are honest but not reproducible: each worker
  keeps its own page cache.)
* **Fallback.**  Plans that cannot parallelize safely — unpicklable
  expressions, UDFs registered ``parallel_safe=False``, custom
  aggregates without the merge protocol — return ``None`` from
  :func:`run_parallel` and the executor honestly runs the serial
  vector path instead, reporting the engine it actually used.
"""

from __future__ import annotations

import atexit
import io
import math
import multiprocessing
import os
import pickle
import queue as queue_mod
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from . import lockcheck, shm, vectorized
from .bufferpool import SEQ_READ_WINDOW, IoCounters

__all__ = [
    "WorkerPool",
    "ParallelResult",
    "run_parallel",
    "get_pool",
    "active_workers",
    "dumps_plan",
    "loads_plan",
]

#: Target number of morsels per worker: enough that a slow morsel
#: cannot stall the tail badly, few enough to keep dispatch overhead
#: negligible.
MORSELS_PER_WORKER = 4

#: How many worker pools may be live at once across all databases
#: (test suites create many short-lived databases; their pools are
#: retired least-recently-used so processes do not pile up).
MAX_LIVE_POOLS = 2

#: Seconds between liveness checks while waiting on morsel results.
_POLL_SECONDS = 0.2


# -- plan pickling -----------------------------------------------------------


class _PlanPickler(pickle.Pickler):
    """Pickler for query plans crossing the process boundary.

    ``repro.tsql`` publishes its functions as per-instance closures
    and bound methods of the shared ``ArrayNamespace`` instances —
    neither pickles by value.  Both are replaced by symbolic
    ``(schema, name)`` markers and re-resolved from the worker's own
    ``NAMESPACES`` registry, so the worker runs its *own* copies of
    the functions (with their batch kernels attached at import time).
    """

    def persistent_id(self, obj):
        schema = getattr(obj, "_sql_schema", None)
        if schema is not None:
            name = getattr(obj, "_sql_name", None)
            if name is not None:
                return ("tsql", schema, name)
        bound = getattr(obj, "__self__", None)
        if bound is not None and callable(obj) \
                and type(bound).__name__ == "ArrayNamespace":
            return ("tsql", bound.name, obj.__name__)
        return None


class _PlanUnpickler(pickle.Unpickler):
    def persistent_load(self, pid):
        kind, schema, name = pid
        if kind != "tsql":
            raise pickle.UnpicklingError(
                f"unknown persistent id {pid!r}")
        from ..tsql.namespaces import NAMESPACES
        ns = NAMESPACES.get(schema)
        if ns is None:
            raise pickle.UnpicklingError(f"unknown schema {schema!r}")
        fn = getattr(ns, name, None)
        if fn is None:
            raise pickle.UnpicklingError(
                f"schema {schema} has no function {name}")
        return fn


def dumps_plan(obj) -> bytes:
    """Pickle a plan with T-SQL functions as symbolic references."""
    buf = io.BytesIO()
    _PlanPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def loads_plan(data: bytes):
    """Unpickle a plan, re-resolving T-SQL function references."""
    return _PlanUnpickler(io.BytesIO(data)).load()


# -- parallel-safety checks --------------------------------------------------


def _iter_expr_nodes(expr):
    """Walk an expression tree generically (``args`` tuples plus the
    usual single-child attribute names)."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        yield node
        children = getattr(node, "args", None)
        if children:
            stack.extend(children)
        for attr in ("inner", "left", "right", "operand", "expr"):
            child = getattr(node, attr, None)
            if child is not None and hasattr(child, "eval"):
                stack.append(child)


def _plan_exprs(aggregates, where, group_expr):
    exprs = [a.expr for a in aggregates if a.expr is not None]
    if where is not None:
        exprs.append(where)
    if group_expr is not None:
        exprs.append(group_expr)
    return exprs


def _build_plan(table, aggregates, where, group_expr) -> bytes | None:
    """Serialize a scan plan, or return None when it cannot run in
    parallel safely (the executor then falls back to serial vector)."""
    from .executor import ScalarUdf

    for agg in aggregates:
        for method in ("merge", "partial_start", "partial_step_values"):
            if getattr(agg, method, None) is None:
                return None
    for root in _plan_exprs(aggregates, where, group_expr):
        for node in _iter_expr_nodes(root):
            if isinstance(node, ScalarUdf) and (
                    getattr(node, "parallel_safe", True) is False
                    or getattr(node.func, "_parallel_safe", True) is False):
                # The registry flag rides on the plan node; the func
                # attribute is still honoured for callers who stamped
                # their own callables.
                return None
    plan = {
        "table": table.name,
        "aggregates": list(aggregates),
        "where": where,
        "group": group_expr,
    }
    try:
        return dumps_plan(plan)
    except Exception:
        return None


# -- worker process ----------------------------------------------------------


def _ship_exception(exc: BaseException) -> bytes:
    """Pickle an exception for the result queue, degrading to a
    RuntimeError that carries the original type name and message."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)  # must round-trip, not just dump
        return data
    except Exception:
        return pickle.dumps(
            RuntimeError(f"{type(exc).__name__}: {exc}"))


def _load_snapshot(snap_ref):
    """Materialize a read-only database from a snapshot ref — a
    ``("shm", name, size)`` segment or a ``("file", path)`` fallback.

    Workers only ever *attach* and *close* shared-memory segments;
    unlink rights stay with the owning pool (see RM501)."""
    from .executor import Database
    if snap_ref[0] == "shm":
        return shm.read_segment(
            snap_ref,
            lambda buf: Database.from_snapshot_bytes(buf,
                                                     read_only=True))
    return Database.open(snap_ref[1], read_only=True)


def _worker_main(task_q, result_q) -> None:
    """Worker process loop: open database snapshots read-only, run
    morsels, ship results.  ``None`` is the shutdown sentinel."""
    databases: dict = {}
    last_query = None
    while True:
        try:
            task = task_q.get()
        except KeyboardInterrupt:
            # A terminal Ctrl-C signals the whole foreground process
            # group; exit quietly instead of printing a traceback.
            break
        if task is None:
            break
        (task_id, snap_ref, query_id, cold, plan_bytes, page_ids,
         skip_first, batch_pages) = task
        try:
            db = databases.get(snap_ref)
            if db is None:
                databases.clear()  # at most one snapshot resident
                db = _load_snapshot(snap_ref)
                databases[snap_ref] = db
            first_of_query = query_id != last_query
            last_query = query_id
            result = _run_morsel(db, plan_bytes, page_ids, skip_first,
                                 batch_pages, cold and first_of_query)
            result_q.put((task_id, True, result))
        except BaseException as exc:  # ship, never die silently
            result_q.put((task_id, False, _ship_exception(exc)))


def _run_morsel(db, plan_bytes: bytes, page_ids, skip_first: bool,
                batch_pages: int, clear_pool: bool) -> dict:
    """Run the full vectorized pipeline over one morsel locally."""
    plan = loads_plan(plan_bytes)
    table = db.tables[plan["table"]]
    aggregates = plan["aggregates"]
    where = plan["where"]
    group_expr = plan["group"]
    pool = db.pool
    if clear_pool:
        pool.clear()
    before = pool.snapshot_thread_counters()
    pool.start_physical_log()
    ctx = vectorized.BatchContext(table, pool)
    rows = 0
    payload_bytes = 0
    partials = None
    groups = None
    try:
        batches = table.batches_for_pages(
            pool, page_ids, batch_pages=batch_pages,
            skip_charge_first=skip_first)
        if group_expr is None:
            partials = [agg.partial_start() for agg in aggregates]
            for batch in batches:
                rows += batch.n
                payload_bytes += batch.payload_bytes
                ctx.batch = batch
                if where is not None and \
                        vectorized._apply_where(where, ctx) is None:
                    continue
                n = ctx.batch.n
                for i, agg in enumerate(aggregates):
                    if agg.expr is not None:
                        values, mask = vectorized.eval_node(agg.expr, ctx)
                        vals = vectorized.to_pylist(values, mask, n)
                    else:
                        vals = [None] * n
                    partials[i] = agg.partial_step_values(
                        partials[i], vals)
        else:
            groups = {}
            for batch in batches:
                rows += batch.n
                payload_bytes += batch.payload_bytes
                ctx.batch = batch
                if where is not None and \
                        vectorized._apply_where(where, ctx) is None:
                    continue
                n = ctx.batch.n
                gv, gm = vectorized.eval_node(group_expr, ctx)
                parts = vectorized.partition_lanes(gv, gm, n)
                cols = [
                    (vectorized.to_pylist(
                        *vectorized.eval_node(agg.expr, ctx), n)
                     if agg.expr is not None else None)
                    for agg in aggregates]
                if parts is None:
                    # Unpartitionable keys (NaN, object): one lane at
                    # a time, reproducing the per-object dict walk.
                    gvals = vectorized.to_pylist(gv, gm, n)
                    parts = [(gvals[lane], [lane]) for lane in range(n)]
                for group, lanes in parts:
                    states = groups.get(group)
                    if states is None:
                        states = [agg.partial_start()
                                  for agg in aggregates]
                        groups[group] = states
                    for i, agg in enumerate(aggregates):
                        col = cols[i]
                        states[i] = agg.partial_step_values(
                            states[i],
                            [col[lane] for lane in lanes]
                            if col is not None else [None] * len(lanes))
    finally:
        physical_log = pool.take_physical_log()
    delta = pool.snapshot_thread_counters().delta_since(before)
    return {
        "rows": rows,
        "payload_bytes": payload_bytes,
        "partials": partials,
        "groups": groups,
        "physical_log": physical_log,
        "logical_reads": delta.logical_reads,
        "udf_calls": ctx.udf_calls,
        "stream_calls": ctx.stream_calls,
        "stream_bytes": ctx.stream_bytes,
        "extra_cpu": ctx.extra_cpu,
    }


# -- the pool ----------------------------------------------------------------


class WorkerDied(RuntimeError):
    """A worker process exited while morsels were outstanding."""


class WorkerPool:
    """A persistent pool of spawned worker processes for one database.

    The process start method is explicitly ``spawn`` — workers never
    inherit the coordinator's locks, file descriptors or thread
    state, and each initializes by re-opening the database *read
    only* from its snapshot path, so this is safe on every platform
    (and a worker bug cannot corrupt the coordinator's data).

    Snapshots ship through shared memory when they fit the segment
    budget (``repro.engine.shm``) and fall back to a temp file when
    not.  A snapshot is re-cut lazily, per *queried* table: a write to
    table B does not force a re-cut (and a per-worker re-open) for
    queries against untouched table A.  The pool owns every segment's
    close/unlink; workers only attach and close.
    """

    def __init__(self, db, workers: int):
        self.db = db
        self.workers = int(workers)
        self.broken = False
        #: How many snapshots this pool has cut (regression guard for
        #: the lazy per-table refresh).
        self.snapshot_cuts = 0
        self._ctx = multiprocessing.get_context("spawn")
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        self._procs: list = []
        self._segments = shm.SegmentOwner()
        self._snapshot_paths: list[str] = []
        self._snap_ref: shm.SnapshotRef | None = None
        self._snapshot_version = None
        self._table_versions: dict[str, int] = {}
        self._query_seq = 0
        self._mutex = lockcheck.tracked_lock("workerpool")
        # No eager snapshot cut: the pool is built outside any latch, so
        # a cut here would race an in-flight writer.  Every query cuts
        # under a brief all-table latch instead (see run_parallel).
        for i in range(self.workers):
            proc = self._ctx.Process(
                target=_worker_main, args=(self._task_q, self._result_q),
                daemon=True, name=f"repro-morsel-worker-{i}")
            proc.start()
            self._procs.append(proc)

    # -- lifecycle -----------------------------------------------------------

    def _snapshot_stale_for(self, table_name: str | None) -> bool:
        """Whether the live snapshot is stale for a query against
        ``table_name`` (``None`` = stale on any write anywhere)."""
        if self._snap_ref is None:
            return True
        if table_name is None:
            return self.db.write_version != self._snapshot_version
        table = self.db.tables.get(table_name)
        if table is None:
            return True  # new/renamed table: cut so workers see it
        return self._table_versions.get(table_name) != table.mutations

    def _refresh_snapshot(self, table_name: str | None = None) -> None:
        """Cut a fresh snapshot if the one the workers hold is stale
        *for the queried table*.  Writes to other tables leave the
        snapshot (and every worker's resident copy) untouched."""
        if not self._snapshot_stale_for(table_name):
            return
        payload = self.db.snapshot_bytes()
        old_ref = self._snap_ref
        ref = self._segments.export(payload)
        if ref is None:
            fd, path = tempfile.mkstemp(prefix="repro-db-",
                                        suffix=".snap")
            with os.fdopen(fd, "wb") as f:
                f.write(payload)
            ref = ("file", path)
            self._snapshot_paths.append(path)
        self._snap_ref = ref
        self._snapshot_version = self.db.write_version
        self._table_versions = {
            name: t.mutations for name, t in self.db.tables.items()}
        self.snapshot_cuts += 1
        # The previous segment is only referenced by finished (or
        # abandoned) tasks; retire it so segments never pile up.
        self._segments.release(old_ref)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers, retire the shared-memory segments and
        remove the snapshot files."""
        for _ in self._procs:
            try:
                self._task_q.put(None)
            except Exception:
                break
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(1.0)
        self._procs = []
        self.broken = True
        self._segments.close_all()
        self._snap_ref = None
        for path in self._snapshot_paths:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._snapshot_paths = []
        for q in (self._task_q, self._result_q):
            try:
                q.close()
            except Exception:
                pass

    def _check_alive(self) -> None:
        dead = [p for p in self._procs if not p.is_alive()]
        if dead:
            self.broken = True
            codes = ", ".join(
                f"pid {p.pid} exit {p.exitcode}" for p in dead)
            raise WorkerDied(
                f"{len(dead)} parallel worker(s) died ({codes}); "
                "the query was aborted and the pool will be respawned")

    # -- query execution -----------------------------------------------------

    @contextmanager
    def guard(self):
        """The pool's dispatch mutex, exposed so the coordinator can
        keep pin -> snapshot-cut -> dispatch atomic against other
        parallel queries while holding the all-table latch only for
        the cut itself (see :func:`run_parallel`)."""
        with self._mutex:
            yield self

    def _dispatch_locked(self, plan_bytes: bytes, cold: bool,
                         leaf_ids: list[int],
                         batch_pages: int) -> list[dict]:
        """Dispatch one query's morsels and return their results in
        morsel order; ``self._mutex`` must be held and the live
        snapshot must already match the pages in ``leaf_ids``.  Raises
        the first worker-side exception, or :class:`WorkerDied` if a
        worker process disappears."""
        self._query_seq += 1
        query_id = self._query_seq
        morsel_pages = self._morsel_pages(len(leaf_ids), batch_pages)
        morsels = [leaf_ids[i:i + morsel_pages]
                   for i in range(0, len(leaf_ids), morsel_pages)]
        for idx, pages in enumerate(morsels):
            self._task_q.put((
                (query_id, idx), self._snap_ref, query_id, cold,
                plan_bytes, pages, idx == 0, batch_pages))
        results: dict[int, dict] = {}
        error = None
        while len(results) < len(morsels) and error is None:
            try:
                task_id, ok, payload = self._result_q.get(
                    timeout=_POLL_SECONDS)
            except queue_mod.Empty:
                self._check_alive()
                continue
            qid, idx = task_id
            if qid != query_id:
                continue  # stale result from an aborted query
            if ok:
                results[idx] = payload
            else:
                error = pickle.loads(payload)
        if error is not None:
            raise error
        return [results[i] for i in range(len(morsels))]

    def _morsel_pages(self, n_pages: int, batch_pages: int) -> int:
        """Morsel size in pages: whole batch_pages chunks, sized so
        each worker sees ~MORSELS_PER_WORKER morsels.  Alignment to
        batch boundaries keeps every worker's fetch runs identical to
        the serial scan's."""
        n_batches = max(1, math.ceil(n_pages / batch_pages))
        morsel_batches = max(1, math.ceil(
            n_batches / (self.workers * MORSELS_PER_WORKER)))
        return morsel_batches * batch_pages


# -- pool registry -----------------------------------------------------------


_POOL_LRU: list[WorkerPool] = []
_REGISTRY_LOCK = threading.Lock()


def get_pool(db, workers: int) -> WorkerPool:
    """The database's worker pool, (re)created as needed.

    Pools are cached on the database object and retired
    least-recently-used beyond :data:`MAX_LIVE_POOLS`, or immediately
    when broken (a dead worker) or resized (``workers`` changed).
    """
    with _REGISTRY_LOCK:
        pool = getattr(db, "_worker_pool", None)
        if pool is not None and (pool.broken or pool.workers != workers):
            if pool in _POOL_LRU:
                _POOL_LRU.remove(pool)
            pool.shutdown()
            pool = None
            db._worker_pool = None
        if pool is None:
            pool = WorkerPool(db, workers)
            db._worker_pool = pool
            _POOL_LRU.append(pool)
            while len(_POOL_LRU) > MAX_LIVE_POOLS:
                oldest = _POOL_LRU[0]
                if oldest is pool:
                    break
                _POOL_LRU.pop(0)
                if getattr(oldest.db, "_worker_pool", None) is oldest:
                    oldest.db._worker_pool = None
                oldest.shutdown()
        else:
            if pool in _POOL_LRU:
                _POOL_LRU.remove(pool)
            _POOL_LRU.append(pool)
        return pool


def active_workers() -> int:
    """Total live worker processes across all pools (a gauge for
    server stats)."""
    with _REGISTRY_LOCK:
        return sum(p.workers for p in _POOL_LRU if not p.broken)


@atexit.register
def _shutdown_all() -> None:
    with _REGISTRY_LOCK:
        pools, _POOL_LRU[:] = _POOL_LRU[:], []
    for pool in pools:
        pool.shutdown(timeout=1.0)


# -- coordinator-side execution ---------------------------------------------


@dataclass
class ParallelResult:
    """Merged outcome of a parallel scan, ready for metrics."""

    rows: int = 0
    payload_bytes: int = 0
    states: list | None = None
    groups: dict | None = None
    io: IoCounters = field(default_factory=IoCounters)
    udf_calls: int = 0
    stream_calls: int = 0
    stream_bytes: int = 0
    extra_cpu: float = 0.0
    wall: float = 0.0
    workers: int = 0


def _replay_io(descent_delta: IoCounters, descent_log: list[int],
               morsel_results: list[dict]) -> IoCounters:
    """Rebuild the query's IO counters by replaying every physical
    read in serial order: the coordinator's descent, then each
    morsel's ordered log, morsel by morsel.  On a cold run this is
    exactly the page-id sequence a serial scan produces, so the
    sequential/random classification matches bit for bit."""
    io = IoCounters()
    io.logical_reads = descent_delta.logical_reads + sum(
        r["logical_reads"] for r in morsel_results)
    last = None
    logs = [descent_log] + [r["physical_log"] for r in morsel_results]
    for log in logs:
        for page_id in log:
            io.physical_reads += 1
            if last is not None and 0 < page_id - last <= SEQ_READ_WINDOW:
                io.sequential_reads += 1
            else:
                io.random_reads += 1
            last = page_id
    return io


def _execute(db, table, plan_bytes: bytes, aggregates, cold: bool,
             workers: int, grouped: bool) -> ParallelResult:
    """Coordinator: pin a version and cut the worker snapshot under one
    *brief* all-table shared latch — writers' publish steps are
    excluded exactly while the pickle runs, so the shipped bytes are
    the pinned version's committed tip — then scan under the shared
    catalog latch only, like every serial snapshot scan: the
    coordinator's descent and the workers' morsels read only
    copy-on-write-stable pages of the pinned version.

    The pool mutex spans pin -> cut -> dispatch so a concurrent query
    cannot swap the worker snapshot between this query's cut and its
    morsels reaching the task queue.  Lock order: worker-pool mutex,
    then catalog, then table latches — the caller holds none of them.
    A cold run charges the coordinator's descent through a cold *view*
    (forced misses), leaving neighbours' counters alone.
    """
    started = time.perf_counter()
    pool_mgr = get_pool(db, workers)
    batch_pages = vectorized.DEFAULT_BATCH_PAGES
    coord_pool = db.pool
    snap = None
    with pool_mgr.guard():
        try:
            with db.latches.read_latch():
                snap = table.pin_snapshot()
                pool_mgr._refresh_snapshot(table.name)
            with db.latches.catalog_latch():
                leaf_ids = snap.data_page_ids()
                if cold:
                    coord_pool.begin_cold_view()
                try:
                    before = coord_pool.snapshot_thread_counters()
                    coord_pool.start_physical_log()
                    try:
                        # The coordinator performs (and is charged for)
                        # the root-to-leaf descent, exactly like a
                        # serial scan's first page touches; the workers
                        # only touch their own morsel's leaves and
                        # blobs.
                        snap.tree.charge_scan_descent(coord_pool)
                    finally:
                        descent_log = coord_pool.take_physical_log()
                    descent_delta = coord_pool \
                        .snapshot_thread_counters().delta_since(before)
                    morsel_results = pool_mgr._dispatch_locked(
                        plan_bytes, cold, leaf_ids, batch_pages)
                finally:
                    if cold:
                        coord_pool.end_cold_view()
        finally:
            if snap is not None:
                snap.unpin(coord_pool)
    return _merge_results(pool_mgr, aggregates, grouped, morsel_results,
                          descent_delta, descent_log, started)


def _merge_results(pool_mgr: WorkerPool, aggregates, grouped: bool,
                   morsel_results: list[dict],
                   descent_delta: IoCounters, descent_log: list[int],
                   started: float) -> ParallelResult:
    res = ParallelResult(workers=pool_mgr.workers)
    res.io = _replay_io(descent_delta, descent_log, morsel_results)
    for r in morsel_results:
        res.rows += r["rows"]
        res.payload_bytes += r["payload_bytes"]
        res.udf_calls += r["udf_calls"]
        res.stream_calls += r["stream_calls"]
        res.stream_bytes += r["stream_bytes"]
        res.extra_cpu += r["extra_cpu"]
    if grouped:
        groups: dict = {}
        for r in morsel_results:  # merge in morsel order
            for key, partials in r["groups"].items():
                states = groups.get(key)
                if states is None:
                    states = [agg.start() for agg in aggregates]
                    groups[key] = states
                for i, agg in enumerate(aggregates):
                    states[i] = agg.merge(states[i], partials[i])
        res.groups = groups
    else:
        states = [agg.start() for agg in aggregates]
        for r in morsel_results:  # merge in morsel order
            for i, agg in enumerate(aggregates):
                states[i] = agg.merge(states[i], r["partials"][i])
        res.states = states
    res.wall = time.perf_counter() - started
    return res


def run_parallel(db, table, aggregates, where, group_expr, cold: bool,
                 workers: int) -> ParallelResult | None:
    """Parallel ``SELECT aggs FROM table [WHERE ...] [GROUP BY ...]``;
    ``None`` when the plan cannot run in parallel safely (the caller
    falls back to a serial scan).  Call with no latch held."""
    if multiprocessing.current_process().daemon:
        # A daemonic process (a shard replica) may not have children,
        # so there are no morsel workers to be had here.
        return None
    plan_bytes = _build_plan(table, aggregates, where, group_expr)
    if plan_bytes is None:
        return None
    return _execute(db, table, plan_bytes, aggregates, cold, workers,
                    grouped=group_expr is not None)
