"""A row-at-a-time reference interpreter: the parity oracle.

The engine runs every statement a batch at a time
(:mod:`repro.engine.vectorized`).  This module runs the same planned
statement one decoded tuple at a time — the shape of the paper's per-row
CLR calls — through an evaluator of its own over the same expression
trees and the aggregates' one-value ``step``, and prices it with the
executor's own read view, cost formulas and metrics builder.  The
parity suites compare the two: values bit for bit, and every metric but
``wall_seconds`` and ``engine`` (which reads ``"row"`` here).

    values, metrics = row_oracle.query(session, sql)
    payload = row_oracle.query_partial(session, sql)
    values, metrics = row_oracle.run(executor, table, aggregates)
"""

import time
from dataclasses import replace

from repro.engine import vectorized
from repro.engine.executor import Col, Const, PartialCapture, ReadBlob, \
    ScalarUdf
from repro.engine.sqlfront import _BinOp, _IsNull, _Not
from repro.engine.table import MaxBlobHandle

__all__ = ["evaluate", "execute", "query", "query_partial", "run"]


class RowContext:
    """What the interpreter threads through one statement: the decoded
    row being evaluated and the counters its metrics charge."""

    __slots__ = ("table", "pool", "row", "udf_calls", "stream_calls",
                 "stream_bytes", "extra_cpu")

    def __init__(self, table, pool):
        self.table = table
        self.pool = pool
        self.row: tuple = ()
        self.udf_calls = 0
        self.stream_calls = 0
        self.stream_bytes = 0
        self.extra_cpu = 0.0


def evaluate(expr, ctx: RowContext):
    """The value of ``expr`` on ``ctx.row`` (``None`` is NULL)."""
    if isinstance(expr, Col):
        return ctx.row[ctx.table.column_index(expr.name)]
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, ReadBlob):
        value = evaluate(expr.inner, ctx)
        if isinstance(value, MaxBlobHandle):
            stream = value.open_stream(ctx.pool)
            data = stream.read_at(0, value.length)
            ctx.stream_calls += stream.stream_calls
            ctx.stream_bytes += stream.bytes_read
            return data
        return value
    if isinstance(expr, ScalarUdf):
        ctx.udf_calls += 1
        return expr.func(*[evaluate(a, ctx) for a in expr.args])
    if isinstance(expr, _BinOp):
        left = evaluate(expr.left, ctx)
        right = evaluate(expr.right, ctx)
        if left is None or right is None:
            return None  # SQL three-valued logic, collapsed to NULL
        return expr._FUNCS[expr.op](left, right)
    if isinstance(expr, _Not):
        value = evaluate(expr.inner, ctx)
        return None if value is None else not bool(value)
    if isinstance(expr, _IsNull):
        is_null = evaluate(expr.inner, ctx) is None
        return not is_null if expr.negate else is_null
    raise TypeError(f"no row semantics for {type(expr).__name__}")


def execute(executor, table, aggregates, where=None, group_expr=None,
            cold=True, label="", *, seek=None, partial=False,
            finalize=None):
    """``Executor._execute``, one record at a time: ``seek(view, pool)``
    yields a seek plan's ``(key, payload)`` records, interleaved with
    their evaluation; without it every record of a clustered scan."""
    pool = executor.db.pool
    costs = None if seek is not None else \
        executor._scan_costs(table, aggregates, where, group_expr)
    with executor._read_view(table, cold) as view:
        before = pool.snapshot_thread_counters()
        started = time.perf_counter()
        ctx = RowContext(view, pool)
        states = groups = nan = None
        if group_expr is None:
            states = [a.start() for a in aggregates]
        else:
            groups = {}
        rows = payload_bytes = 0
        records = view.tree.scan(pool) if seek is None \
            else seek(view, pool)
        for key, payload in records:
            rows += 1
            payload_bytes += len(payload)
            ctx.row = view.table.decode(key, payload)
            if where is not None and not evaluate(where, ctx):
                continue
            if groups is not None:
                group = evaluate(group_expr, ctx)
                if group != group:  # NaN keys: one group, the first met
                    group = nan = group if nan is None else nan
                states = groups.get(group)
                if states is None:
                    states = groups[group] = [a.start() for a in aggregates]
            for i, agg in enumerate(aggregates):
                value = None if agg.expr is None else evaluate(agg.expr, ctx)
                states[i] = agg.step(states[i], value)

        def measured():
            io = pool.snapshot_thread_counters().delta_since(before)
            cpu = executor._seek_cpu(table, aggregates, rows, io, ctx) \
                if costs is None else \
                executor._scan_cpu(rows, payload_bytes, costs, ctx)
            metrics = executor._metrics(label, rows, io, cpu,
                                        time.perf_counter() - started, ctx)
            metrics.engine = "row"
            return metrics

        metrics = measured()
        if groups is not None:
            groups = vectorized.SpilledGroups(groups)
        result = (executor._finish(aggregates, states, groups, rows,
                                   partial), metrics)
        if finalize is not None:
            result = finalize(result)
            vars(metrics).update(vars(measured()))
    return result


def run(executor, table, aggregates, where=None, group_expr=None,
        cold=True, label=""):
    """``Executor.run`` / ``run_grouped`` on the oracle."""
    return execute(executor, table, aggregates, where, group_expr, cold,
                   label)


def _point(key):
    def records(view, pool):
        payload = view.tree.search(key, pool)
        return () if payload is None else ((key, payload),)
    return records


def _index(column, equals, lo, hi):
    def records(view, pool):
        index = view.index_on(column)
        pks = index.seek(equals, pool) if equals is not None \
            else index.range(lo, hi, pool)
        for pk in sorted(pks):
            payload = view.tree.search(pk, pool)
            if payload is not None:
                yield pk, payload
    return records


def _select(session, plan, cold, finalize):
    """``SqlSession._select`` on the oracle."""
    ex = session.executor
    with session.db.latches.catalog_latch():
        if plan.late:
            return execute(ex, plan.table, plan.aggregates, cold=cold,
                           label=plan.label, seek=_point(plan.key),
                           finalize=finalize or session._read_out)
        if plan.kind == "point":
            result = execute(ex, plan.table, plan.aggregates, cold=cold,
                             label=plan.label, seek=_point(plan.key))
        elif plan.kind == "index":
            result = execute(ex, plan.table, plan.aggregates, cold=cold,
                             label=plan.label, seek=_index(
                                 plan.index_column, plan.index_equals,
                                 plan.index_lo, plan.index_hi))
        else:
            result = execute(ex, plan.table, plan.aggregates, plan.where,
                             plan.group_expr, cold, plan.label,
                             partial=plan.partial)
        return result if finalize is None else finalize(result)


def query(session, sql, cold=True, finalize=None):
    """``SqlSession.query`` on the oracle."""
    return _select(session, session.prepare(sql), cold, finalize)


def query_partial(session, sql, cold=True, finalize=None):
    """``SqlSession.query_partial`` on the oracle: the partial comes
    back loaded into a :class:`~repro.engine.vectorized.GroupArrays`,
    as the engine's (a scalar statement's as one group, key 0)."""
    plan = session.prepare(sql)
    wrapped = replace(plan, partial=True, aggregates=[
        PartialCapture(agg) for agg in plan.aggregates])

    def shape(result):
        if plan.late and finalize is None:
            result = session._read_out(result)
        rows, metrics = result
        if plan.kind != "grouped":
            rows = [(0, *rows)]
        groups = vectorized.GroupArrays.from_rows(wrapped.aggregates, rows)
        payload = {"rows": metrics.rows, "groups": groups,
                   "metrics": metrics}
        return payload if finalize is None else finalize(payload)

    return _select(session, wrapped, cold, shape)
