"""Layer measurements taken from outside the server, on the twin.

Two parts:

* :func:`twin_pass` replays the counted pass on the in-process twin
  ``Database`` (same seed, same load plan), with a span around every
  call into a layer's public function.  It is the source of the exact
  counts (rows, reads, bytes, modelled seconds, stored bytes) and the
  oracle's cross-check: the twin's answer must equal the value the
  client checks the server against.
* :func:`probe_layers` times each layer's public functions on small
  probe tables of *all four* schemas, so every timing metric exists on
  every workload (a layer a workload idles is still a layer a change
  can slow down).
"""

from __future__ import annotations

import statistics
import time

from repro.core import SqlArray
from repro.core.partial import BytesBlobStream, read_window_blob
from repro.engine import BufferPool, MaxBlobHandle, SqlSession
from repro.engine.constants import PAGE_SIZE
from repro.server import QueryResult, protocol
from repro.shard.merge import finalize_grouped, merge_grouped_states

from spans import Tracer
from workloads import WORKLOADS, Stmt, Workload, answer_matches, \
    fingerprint, result_rows

#: SELECT statements with a ``plan_us`` metric (DML has no public
#: plan-only entry point; INSERT parsing has its own metric).
PLANNED = ("q1", "q2", "q3", "q4", "q5", "window", "narrow",
           "wide_scalar", "wide_blob", "point", "scan")


def cell_stream(cell, pool):
    """The stream the server's ``bquery`` path opens over a blob cell:
    the out-of-page stream for a handle, an in-memory one for a cell
    the engine already materialised whole."""
    if isinstance(cell, MaxBlobHandle):
        return cell.open_stream(pool)
    return BytesBlobStream(cell)


def read_window(session: SqlSession, stmt: Stmt):
    """A windowed ``bquery`` as the server executes it: the point
    SELECT, then the window cut out of its blob cell under the same
    statement.  Returns ``(window_blob, metrics, stream, cell)``."""
    def finalize(result):
        (cell,), metrics = result
        stream = cell_stream(cell, session.db.pool)
        return (read_window_blob(stream, *stmt.window), metrics, stream,
                cell)
    return session.query(stmt.sql, cold=stmt.cold, finalize=finalize)


class TwinRun:
    """Executes ops on the twin and accumulates the exact counts."""

    def __init__(self, db, tracer: Tracer):
        self.db = db
        self.session = SqlSession(db)
        self.tracer = tracer
        self.ops = 0
        self.engine_seconds = 0.0
        self.op_seconds: list[float] = []
        self.mismatches = 0
        self.rows = self.udf_calls = self.physical_reads = 0
        self.io_bytes = self.stream_calls = 0
        self.sim_exec_seconds = 0.0
        self.logical = self.physical = 0
        self.lookups = self.seek_pages = 0
        self.window_bytes = self.window_bytes_read = 0

    def _absorb(self, metrics) -> None:
        self.rows += metrics.rows
        self.udf_calls += metrics.udf_calls
        self.physical_reads += metrics.physical_reads
        self.io_bytes += metrics.io_bytes
        self.stream_calls += metrics.stream_calls
        self.sim_exec_seconds += metrics.sim_exec_seconds

    def _select(self, stmt: Stmt):
        with self.tracer.span("engine.sqlfront.plan_select"):
            plan = self.session.plan_select(stmt.sql)
        pool = self.db.pool
        before = pool.snapshot_counters()
        start = time.perf_counter()
        if stmt.window is not None:
            with self.tracer.span("engine.blob.read_window"):
                result = read_window(self.session, stmt)
        else:
            with self.tracer.span("engine.executor.query"):
                result = self.session.query(stmt.sql, cold=stmt.cold)
        self.engine_seconds += time.perf_counter() - start
        after = pool.snapshot_counters()
        self.logical += after.logical_reads - before.logical_reads
        self.physical += after.physical_reads - before.physical_reads
        if plan.kind == "point":
            self._seek(plan.table, plan.key)
        return result

    def _seek(self, table, key: int) -> None:
        """Pages one clustered-index descent touches (a second, bare
        descent: its reads stay out of the hit-rate tally)."""
        pool = self.db.pool
        before = pool.snapshot_thread_counters().logical_reads
        with self.tracer.span("engine.btree.search"):
            table.tree.search(key, pool)
        self.seek_pages += \
            pool.snapshot_thread_counters().logical_reads - before
        self.lookups += 1

    def _window(self, stmt: Stmt):
        blob, metrics, stream, cell = self._select(stmt)
        self._absorb(metrics)
        with self.tracer.span("core.sqlarray.decode"):
            window = SqlArray.from_blob(blob).to_numpy()
        if isinstance(cell, MaxBlobHandle):
            self.stream_calls += stream.stream_calls
            self.window_bytes_read += stream.bytes_read
        else:  # the engine read the whole blob to produce the cell
            self.window_bytes_read += len(cell)
        self.window_bytes += window.nbytes
        return window

    def _statement(self, stmt: Stmt):
        if stmt.window is not None:
            return self._window(stmt)
        if stmt.name == "insert":
            with self.tracer.span("engine.sqlfront.parse_insert"):
                self.session.parse_insert(stmt.sql)
        if isinstance(stmt.expect, int):
            start = time.perf_counter()
            with self.tracer.span("engine.sqlfront.execute"):
                rowcount = self.session.execute(stmt.sql)
            self.engine_seconds += time.perf_counter() - start
            return QueryResult("ok", rowcount=rowcount)
        values, metrics = self._select(stmt)
        self._absorb(metrics)
        rows = result_rows(values, self.db.pool)
        return QueryResult("rows", rows=rows, rowcount=len(rows))

    def run_op(self, op: list[Stmt]) -> None:
        """One op; ``op_seconds`` gets the time spent in the statement
        executions alone (not in the extra plan/parse/seek calls made
        for their spans and counts)."""
        self.tracer.begin_op("twin.op", f"twin-{self.ops}")
        self.engine_seconds = 0.0
        for stmt in op:
            self.mismatches += not answer_matches(
                stmt, self._statement(stmt))
        self.op_seconds.append(self.engine_seconds)
        self.tracer.end_op()
        self.ops += 1


def stored_bytes(db) -> int:
    """Bytes the store holds: allocated pages plus every retained
    superseded page version, at 8 KiB each."""
    pagefile = db.pagefile
    history = sum(pagefile.history_len(page_id)
                  for page_id in range(pagefile.page_count))
    return (pagefile.allocated_page_count + history) * PAGE_SIZE


def twin_pass(workload: Workload, twin, tracer: Tracer) -> dict:
    """Replay the counted pass on the twin; returns exact per-op
    counts, the stored-bytes ratio and the twin's own op time."""
    ops = workload.ops()
    warm = TwinRun(twin, Tracer(enabled=False))
    if workload.twin_replays_warmup:
        for _ in range(workload.warmup_ops):
            warm.run_op(next(ops))
    run = TwinRun(twin, tracer)
    for _ in range(workload.counted_ops):
        run.run_op(next(ops))
    n = run.ops
    return {
        "mismatches": run.mismatches + warm.mismatches,
        "local_op_ms": min(run.op_seconds) * 1e3,
        "rows_per_op": run.rows / n,
        "udf_calls_per_op": run.udf_calls / n,
        "physical_reads_per_op": run.physical_reads / n,
        "io_bytes_per_op": run.io_bytes / n,
        "stream_calls_per_op": run.stream_calls / n,
        "sim_exec_s_per_op": run.sim_exec_seconds / n,
        "hit_rate": 1.0 - run.physical / run.logical,
        "seek_pages_per_lookup":
            run.seek_pages / run.lookups if run.lookups else 0.0,
        "bytes_read_per_window_byte":
            run.window_bytes_read / run.window_bytes
            if run.window_bytes else 0.0,
        "stored_bytes_per_user_byte":
            stored_bytes(twin) / workload.user_bytes(n),
    }


# -- probes -------------------------------------------------------------------

def _median_seconds(call, repeats: int = 7, inner: int = 1) -> float:
    """Median over ``repeats`` of the mean time of ``inner`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            call()
        times.append((time.perf_counter() - start) / inner)
    return statistics.median(times)


def _reply_frame(rows, metrics) -> tuple[dict, list[bytes]]:
    """A ``result`` frame exactly as ``ArrayServer._run_query`` builds
    it from an executed statement."""
    packed, blobs = protocol.pack_rows(rows)
    return {"type": "result", "kind": "rows", "rows": packed,
            "rowcount": len(rows), "metrics": metrics.to_dict(),
            "elapsed_seconds": metrics.wall_seconds}, blobs


def _probe_protocol(out: dict, scatter, session, cubes,
                    cube_session) -> None:
    statements = dict(scatter.QUERIES)
    values, metrics = session.query(statements["narrow"], cold=False)
    wide_rows, wide_metrics = session.query(statements["wide_scalar"],
                                            cold=False)
    frames = {"narrow": _reply_frame([tuple(values)], metrics),
              "wide": _reply_frame(wide_rows, wide_metrics)}
    payload, metrics, stream, _cell = read_window(
        cube_session, next(cubes.ops())[0])
    frames["bchunk"] = ({"type": "bchunk", "seq": 0, "eof": True,
                         "blob_len": stream.length(), "offset": 0,
                         "length": len(payload),
                         "metrics": metrics.to_dict(),
                         "elapsed_seconds": metrics.wall_seconds},
                        [payload])
    for name, (header, blobs) in frames.items():
        encoded = protocol.encode_frame(header, blobs)
        inner = 20 if name == "wide" else 400
        out[f"server.protocol.encode_us.{name}"] = _median_seconds(
            lambda: protocol.encode_frame(header, blobs),
            inner=inner) * 1e6
        out[f"server.protocol.decode_us.{name}"] = _median_seconds(
            lambda: protocol.decode_frame(encoded[4:]),
            inner=inner) * 1e6
    krows = len(wide_rows) / 1000.0
    out["server.protocol.pack_rows_us_per_krow"] = _median_seconds(
        lambda: protocol.pack_rows(wide_rows), inner=20) * 1e6 / krows

    partial = session.query_partial(statements["wide_scalar"],
                                    cold=False)
    groups = partial["groups"]

    def pack():
        blobs: list[bytes] = []
        return [[protocol.pack_cell(group, blobs),
                 [protocol.pack_partial(part, blobs) for part in parts]]
                for group, parts in groups], blobs

    packed, blobs = pack()
    kgroups = len(groups) / 1000.0
    out["server.protocol.pack_partial_us_per_kgroup"] = \
        _median_seconds(pack, inner=10) * 1e6 / kgroups
    out["server.protocol.unpack_partial_us_per_kgroup"] = \
        _median_seconds(
            lambda: [(protocol.unpack_cell(group, blobs),
                      [protocol.unpack_partial(p, blobs) for p in parts])
                     for group, parts in packed],
            inner=10) * 1e6 / kgroups

    plan = session.plan_select(statements["wide_scalar"])
    half = len(groups) // 2
    shard_groups = [groups[:half], groups[half:]]
    out["shard.merge.merge_us_per_kgroup"] = _median_seconds(
        lambda: finalize_grouped(
            plan.aggregates,
            merge_grouped_states(plan.aggregates, shard_groups),
            partial["rows"]),
        inner=10) * 1e6 / kgroups


def _probe_plans(out: dict, probes: dict, sessions: dict) -> None:
    for name, workload in probes.items():
        session = sessions[name]
        seen = set()
        for stmt in next(workload.ops()):
            if stmt.name in seen:
                continue
            seen.add(stmt.name)
            if stmt.name in PLANNED:
                out[f"engine.sqlfront.plan_us.{stmt.name}"] = \
                    _median_seconds(
                        lambda: session.plan_select(stmt.sql),
                        inner=50) * 1e6
            elif stmt.name == "insert":
                out["engine.sqlfront.parse_insert_us_per_row"] = \
                    _median_seconds(
                        lambda: session.parse_insert(stmt.sql)
                    ) * 1e6 / stmt.expect


def _probe_engine(out: dict, table1, session) -> None:
    per_query = {}
    for stmt in next(table1.ops()):
        samples = []
        for _ in range(7):
            _values, metrics = session.query(stmt.sql, cold=True)
            samples.append(metrics.wall_seconds)
        per_query[stmt.name] = (statistics.median(samples), metrics)
        out[f"engine.vectorized.vector_ns_per_row.{stmt.name}"] = \
            per_query[stmt.name][0] * 1e9 / metrics.rows
    q2, q4, q5 = (per_query[q][0] for q in ("q2", "q4", "q5"))
    # Section 7.1 redone for this runtime: the empty UDF's cost over
    # the bare scan of the same table, and what extracting an item
    # adds over the empty call.
    out["engine.executor.udf_call_ns"] = \
        (q5 - q2) * 1e9 / per_query["q5"][1].udf_calls
    out["engine.executor.item_extract_share"] = q4 / q5 - 1.0


def _probe_storage(out: dict, churn, session, cubes,
                   cube_session) -> None:
    """Mutates the churn probe table: run it last."""
    db = session.db
    table = db.tables["t"]
    page_ids = table.data_page_ids()[:2]
    db.pool.fetch_many(page_ids)
    out["engine.bufferpool.fetch_ns_hit"] = _median_seconds(
        lambda: db.pool.fetch(page_ids[0]), inner=2000) * 1e9
    tiny = BufferPool(db.pagefile, capacity_pages=1)

    def two_misses():
        tiny.fetch(page_ids[0])
        tiny.fetch(page_ids[1])

    out["engine.bufferpool.fetch_ns_miss"] = _median_seconds(
        two_misses, inner=1000) * 1e9 / 2

    size = churn.size["batch"]
    batches = churn.size["rows"] // size
    insert_us, delete_us = [], []
    for done in range(5):  # the write half of five churn ops
        _table, rows = session.parse_insert(
            churn.insert_stmt(batches + done).sql)
        prep = table.prepare_insert(rows)
        start = time.perf_counter()
        table.apply_insert(prep)
        insert_us.append((time.perf_counter() - start) * 1e6 / size)
        start = time.perf_counter()
        for key in churn.batch(done)[0]:
            table.delete(key)
        delete_us.append((time.perf_counter() - start) * 1e6 / size)
    out["engine.table.apply_insert_us_per_row"] = \
        statistics.median(insert_us)
    out["engine.table.delete_us_per_row"] = statistics.median(delete_us)

    window = next(cubes.ops())[0]
    out["engine.blob.window_us"] = _median_seconds(
        lambda: read_window(cube_session, window), inner=50) * 1e6


def probe_layers(seed: int) -> dict:
    """Time each layer's public functions on probe-scale tables of all
    four schemas; returns metric name -> value."""
    probes = {name: cls(seed, "probe")
              for name, cls in WORKLOADS.items()}
    sessions = {name: SqlSession(probe.build_twin())
                for name, probe in probes.items()}
    cubes = probes["blob_window"], sessions["blob_window"]
    out: dict = {}
    _probe_protocol(out, probes["shard_scatter"],
                    sessions["shard_scatter"], *cubes)
    _probe_plans(out, probes, sessions)
    _probe_engine(out, probes["table1_scan"], sessions["table1_scan"])
    _probe_storage(out, probes["churn_rw"], sessions["churn_rw"], *cubes)
    return out


def router_pass(workload: Workload, shards, count: int) -> float:
    """Op floor (ms; per-statement minima, summed) of an in-process
    ``ShardRouter`` against the deployment's own fleet: the
    scatter-gather path minus the coordinator's wire hop."""
    from repro.shard import ShardRouter

    router = ShardRouter([[address] for address in shards],
                         workload.shard_config().make_partitioner())
    try:
        for sql in workload.ddl():
            router.session.execute(sql)  # catalog mirror only
        ops = workload.ops()
        fastest: dict[int, float] = {}
        for _ in range(count):
            for position, stmt in enumerate(next(ops)):
                start = time.perf_counter()
                got = router.execute(stmt.sql, cold=stmt.cold)
                spent = time.perf_counter() - start
                fastest[position] = min(spent,
                                        fastest.get(position, spent))
                if fingerprint(got["rows"]) != stmt.expect:
                    raise AssertionError(
                        f"router answered {stmt.name!r} wrong")
        return sum(fastest.values()) * 1e3
    finally:
        router.shutdown()
