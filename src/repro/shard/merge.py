"""Coordinator-side merging of shard partial states.

The shards ship the *unreduced* mergeable states their scans produced
(:class:`~repro.engine.executor.PartialCapture`); these helpers fold
them — in the shard order the caller supplies — and finish the original
aggregates.  With range partitioning, shard order is key order, so the
fold visits values in exactly the sequence a single-node scan would
and float SUM/AVG come out bit-identical.

Grouped partials arrive, and are merged, as arrays
(:class:`~repro.server.columnar.Columns`: a key column and per
aggregate a counts buffer plus one flat values column).  The merge
concatenates the shards' arrays in shard order and sorts the keys
**stably**, so the entries of a group seen by several shards stay in
shard order and its values in the order one node would have scanned
them.  Counts are summed as arrays and a value column in which no
group holds more than one value passes through untouched; any other
column is folded group by group through the aggregate's own ``merge``
and ``finish``, so there is one copy of the aggregate semantics.

Every function here is *pure* (replint RS401 enforces this for
``merge_*`` names): fresh state in, merged value out, no argument
mutated and no process state touched.  Purity is what makes the merge
order the only thing that matters — the coordinator can gather replies
in any arrival order and still merge deterministically.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from ..engine.executor import Avg, Count, Max, Min, Sum, group_rank
from ..engine.metrics import QueryMetrics
from ..server.columnar import Column, Columns, concat

__all__ = [
    "merge_scalar_states",
    "merge_grouped_states",
    "merge_metrics",
    "finalize_scalar",
    "finalize_grouped",
]


def merge_scalar_states(aggregates: Sequence, shard_states: Sequence):
    """Fold each aggregate's per-shard partials in the given order.

    ``shard_states[s][i]`` is shard ``s``'s partial for aggregate
    ``i``; returns one merged (still unfinished) state per aggregate.
    """
    states = [agg.start() for agg in aggregates]
    merged = []
    for i, agg in enumerate(aggregates):
        state = states[i]
        for per_shard in shard_states:
            state = agg.merge(state, per_shard[i])
        merged.append(state)
    return merged


class GroupedStates(NamedTuple):
    """Merged, still unfinished, grouped states: the distinct group
    keys in result order and one state column per aggregate (see
    :func:`_merge_column` for the three forms a state column takes)."""

    keys: Column
    states: list


class _Single(NamedTuple):
    """An aggregate's state where no group saw more than one value:
    the value column as it arrived (arbitrary where ``counts`` is 0)
    and, per group, whether it holds a value."""

    values: Column
    counts: np.ndarray


def _group_order(keys: Column):
    """``(order, starts)``: a *stable* sort of the concatenated group
    keys, NULL last (the order :meth:`Executor.run_grouped` emits),
    and where each distinct key's run begins in it.  ``order`` is None
    when the keys are already sorted — shards of a range-partitioned
    ``GROUP BY pk``."""
    n = len(keys)
    if keys.code == "q" and keys.nulls is None:
        k = keys.values
        order = None
        if n and not (k[1:] >= k[:-1]).all():
            order = np.argsort(k, kind="stable")
            k = k[order]
        new = np.ones(n, np.bool_)
        new[1:] = k[1:] != k[:-1]
    else:
        cells = keys.cells()
        ranked = sorted(range(n), key=lambda i: group_rank(cells[i]))
        order = np.array(ranked, np.intp)
        new = np.ones(n, np.bool_)
        new[1:] = [cells[a] != cells[b]
                   for a, b in zip(ranked, ranked[1:])]
    return order, np.flatnonzero(new)


def _merge_column(agg, column: Column, starts: np.ndarray):
    """Merge one aggregate's partial column, already in group order,
    over the runs beginning at ``starts``.  Returns, per group,

    * an int64 array — a count aggregate's summed counts;
    * a :class:`_Single` — value-list partials of a built-in aggregate
      none of whose groups holds more than one value (nothing to fold:
      ``-0.0`` stays ``-0.0``);
    * a list of Python states, folded entry by entry through
      ``agg.merge`` — everything else.
    """
    kind = type(agg)
    if kind is Count and column.code == "q" and column.nulls is None:
        return np.add.reduceat(column.values, starts)
    values = column.values
    if kind in (Sum, Avg, Min, Max) and column.code == "*" \
            and column.nulls is None and len(values) \
            and values.nulls is None and values.code != "j":
        counts = np.add.reduceat(column.sizes, starts)
        if int(counts.max()) == 1:
            if len(values) != len(counts):  # some group has no value
                values = values.take((np.cumsum(counts) - counts).clip(
                    max=len(values) - 1))
            return _Single(values, counts)
    cells = column.cells()
    bounds = starts.tolist() + [len(cells)]
    states = []
    for lo, hi in zip(bounds, bounds[1:]):
        state = agg.start()
        for partial in cells[lo:hi]:
            state = agg.merge(state, partial)
        states.append(state)
    return states


def merge_grouped_states(aggregates: Sequence,
                         shard_groups: Sequence) -> GroupedStates:
    """Fold grouped partials across shards.

    ``shard_groups[s]`` is shard ``s``'s grouped partial: a decoded
    :class:`Columns` (key column, one partial column per aggregate),
    or the ordered ``(group_value, [partial, ...])`` pairs
    :meth:`SqlSession.query_partial` returns, which are first put in
    that form.  Groups seen by several shards are folded in shard
    order, groups seen by one shard pass through.
    """
    width = 1 + len(aggregates)
    parts = []
    for groups in shard_groups:
        if not isinstance(groups, Columns):
            groups = Columns.from_groups(groups)
        if not groups.rowcount:
            continue
        if len(groups.columns) != width:
            raise ValueError(
                f"a grouped partial of {len(groups.columns)} columns "
                f"for {len(aggregates)} aggregates")
        parts.append(groups.columns)
    if not parts:
        return GroupedStates(Column("q", np.empty(0, np.int64)),
                             [[] for _ in aggregates])
    keys = concat([columns[0] for columns in parts])
    order, starts = _group_order(keys)
    states = []
    for i, agg in enumerate(aggregates, 1):
        column = concat([columns[i] for columns in parts])
        if order is not None:
            column = column.take(order)
        states.append(_merge_column(agg, column, starts))
    first = starts if order is None else order[starts]
    return GroupedStates(keys.take(first), states)


def merge_metrics(parts: Sequence[dict], label: str,
                  shards: int) -> QueryMetrics:
    """Combine per-shard :meth:`QueryMetrics.to_dict` payloads into
    the coordinator's view of the statement.

    Additive counters (rows, IO, UDF calls, modeled IO/CPU seconds)
    sum across shards; the modeled execution time and measured wall
    time take the slowest shard, because shards run concurrently.
    ``engine`` is reported as ``"sharded"`` and ``workers`` as the
    cluster's shard count.
    """
    merged = QueryMetrics(label=label, engine="sharded",
                          workers=shards)
    for part in parts:
        m = QueryMetrics.from_dict(part)
        merged.rows += m.rows
        merged.io_bytes += m.io_bytes
        merged.physical_reads += m.physical_reads
        merged.sequential_reads += m.sequential_reads
        merged.random_reads += m.random_reads
        merged.stream_calls += m.stream_calls
        merged.udf_calls += m.udf_calls
        merged.sim_io_seconds += m.sim_io_seconds
        merged.sim_io_seq_seconds += m.sim_io_seq_seconds
        merged.sim_io_random_seconds += m.sim_io_random_seconds
        merged.sim_cpu_core_seconds += m.sim_cpu_core_seconds
        merged.sim_exec_seconds = max(merged.sim_exec_seconds,
                                      m.sim_exec_seconds)
        merged.wall_seconds = max(merged.wall_seconds, m.wall_seconds)
        merged.cores = m.cores
    return merged


def finalize_scalar(aggregates: Sequence, states: Sequence,
                    rows: int) -> tuple:
    """Finish merged scalar states into the statement's value row."""
    return tuple(agg.finish(state, rows)
                 for agg, state in zip(aggregates, states))


def _finish_column(agg, state, rows: int) -> Column:
    """Finish one aggregate's merged state column into its result
    column."""
    if isinstance(state, list):
        return Column.from_cells([agg.finish(s, rows) for s in state])
    if not isinstance(state, _Single):
        return Column("q", state)
    values, counts = state
    if values.code == "d":
        # ``finish`` as one array operation: AVG's total / 1, and a
        # NaN total of SUM/AVG reported as the canonical ``nan``.
        values = Column("d", agg.finish_floats(values.values, counts))
    elif type(agg) is Avg:  # int / int: Python's exact division
        return Column.from_cells([
            agg.finish((value, n), rows) for value, n
            in zip(values.cells(), counts.tolist())])
    empty = counts == 0
    return Column(values.code, values.values, values.sizes,
                  empty if empty.any() else None)


def finalize_grouped(aggregates: Sequence, groups: GroupedStates,
                     rows: int) -> Columns:
    """Finish merged grouped states into the result set, as columns
    (:func:`merge_grouped_states` already put the groups in
    :meth:`Executor.run_grouped`'s NULL-last order)."""
    columns = [groups.keys] + [
        _finish_column(agg, state, rows)
        for agg, state in zip(aggregates, groups.states)]
    return Columns(columns, len(groups.keys))
