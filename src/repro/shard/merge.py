"""Coordinator-side merging of shard partial states.

A shard ships its scan's *unreduced* partial
(:func:`~repro.engine.executor.PartialCapture`): per group its count,
or its non-NULL inputs in scan order — a scalar SELECT as one group
under the key 0.  Folding it in is the accumulate a grouped scan runs
over one more batch, so the coordinator runs exactly that: one
:class:`~repro.engine.vectorized.GroupArrays` over the plan's own
aggregates absorbs the shards' arrays in the order the caller gives
(:meth:`~repro.engine.vectorized.GroupArrays.absorb_partial`) — all
of them as one batch when their keys, joined, still stand in group
order — and keys that do not order as an array go to the grouped
scan's per-lane walk (:class:`~repro.engine.vectorized.SpilledGroups`).
With range
partitioning, shard order is key order, so the fold visits values in
exactly the sequence a single-node scan would and float SUM/AVG come
out bit-identical.

Every function here is *pure* (``tests/shard/test_merge_purity.py``
checks each one's arguments bit for bit), so the merge order is the
only thing that matters: the coordinator can gather replies in any
arrival order and still merge deterministically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..engine.executor import Count, Max, Min
from ..engine.metrics import QueryMetrics
from ..engine.vectorized import GroupArrays, SpilledGroups, to_pylist
from ..server.columnar import Column, Columns

__all__ = ["merge_grouped_states", "merge_metrics", "finalize_grouped"]


def _operands(column: Column) -> np.ndarray:
    """Shipped values as the fold takes them: int64 and float64 as they
    came, bytes of one length as fixed-width records, else objects."""
    if column.nulls is None:
        if column.code in ("q", "d"):
            return column.values
        if column.code == "b" and len(column) and column.sizes[0] \
                and (column.sizes == column.sizes[0]).all():
            return np.frombuffer(column.values, f"V{column.sizes[0]}")
    return np.array(column.cells(), object)


def _partial(agg, column: Column) -> tuple:
    """A shipped partial column as ``(counts, values)`` (``values``
    None for a count)."""
    count = isinstance(agg, Count)
    if column.code != ("q" if count else "*") or column.nulls is not None:
        raise ValueError(f"a {type(agg).__name__} partial of type "
                         f"{column.code!r}")
    return (column.values, None) if count \
        else (column.sizes, _operands(column.values))


def _lanes(aggregates: Sequence, partial) -> tuple:
    """A shard's partial as ``(keys, mask, [(counts, values), ...])``,
    None when it holds no group."""
    if not isinstance(partial, Columns):
        partial = Columns.from_groups(partial)
    if not partial.rowcount:
        return None
    if len(partial.columns) != 1 + len(aggregates):
        raise ValueError(
            f"a grouped partial of {len(partial.columns)} columns "
            f"for {len(aggregates)} aggregates")
    key, *columns = partial.columns
    keys, mask = (key.values, key.nulls) if key.code in ("q", "d") \
        else (np.array(key.cells(), object), None)
    return keys, mask, [_partial(agg, column)
                        for agg, column in zip(aggregates, columns)]


def _joined(shards: list) -> tuple:
    """Several shards' lanes end to end, as one partial."""
    keys, masks, partials = zip(*shards)
    mask = None if all(m is None for m in masks) else np.concatenate([
        np.zeros(len(k), np.bool_) if m is None else m
        for k, m in zip(keys, masks)])
    joined = []
    for parts in zip(*partials):
        counts, values = zip(*parts)
        if values[0] is not None and len({v.dtype for v in values}) > 1:
            values = [v.astype(object) for v in values]
        joined.append((np.concatenate(counts), None if values[0] is None
                       else np.concatenate(values)))
    return np.concatenate(keys), mask, joined


def merge_grouped_states(aggregates: Sequence, shard_groups: Sequence):
    """Fold grouped partials across shards, in the order given.

    ``shard_groups[s]`` is shard ``s``'s partial: a decoded
    :class:`Columns` (key column, one partial column per aggregate),
    or ``(group_value, [partial, ...])`` pairs (the form the
    benchmark's probes pass).  Shards whose keys still ascend when
    joined end to end — range partitions, a scalar statement's one
    group — are one batch; others are absorbed a shard at a time.
    Returns the unfinished merged state: a :class:`GroupArrays`, or
    :class:`SpilledGroups`.
    """
    shards = [_lanes(aggregates, partial) for partial in shard_groups]
    shards = [lanes for lanes in shards if lanes is not None]
    groups = GroupArrays([agg.group_column() for agg in aggregates])
    if len(shards) > 1 and len({lanes[0].dtype for lanes in shards}) == 1 \
            and groups.absorb_partial(*_joined(shards)):
        return groups
    for keys, mask, partials in shards:
        if isinstance(groups, GroupArrays):
            if groups.absorb_partial(keys, mask, partials):
                continue
            groups = SpilledGroups(groups)
        groups.absorb_partial(aggregates, to_pylist(keys, mask, len(keys)),
                              partials)
    return groups


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


def _result_column(agg, column, rows: int) -> Column:
    """One aggregate's finished result column: float64 as one array
    operation, MIN/MAX over fixed-width bytes as the records they are,
    anything else through ``finish`` a group at a time."""
    values = column.values
    if values is None:
        return Column("q", column.counts)
    empty = column.counts == 0
    nulls = empty if empty.any() else None
    if values.dtype.kind == "f":
        return Column("d", agg.finish_floats(values, column.counts),
                      nulls=nulls)
    if values.dtype.kind == "V" and isinstance(agg, (Min, Max)):
        return Column("b", values.view(np.uint8), np.full(
            len(values), values.dtype.itemsize, np.int64), nulls)
    return Column.from_cells(column.finish(agg, rows))


def finalize_grouped(aggregates: Sequence, groups, rows: int) -> Columns:
    """Finish a merged grouped state into the result set, as columns,
    in :meth:`Executor.run_grouped`'s order (NaN group, then NULL
    group last)."""
    if not isinstance(groups, GroupArrays):
        return Columns.from_rows(groups.rows(aggregates, rows))
    keys = groups.group_keys  # the plan's own columns: nothing to settle
    if not len(groups):
        return Columns([], 0)
    code = "d" if keys.dtype.kind == "f" else "q"
    key = Column(code, np.append(keys, 0), nulls=np.arange(
        len(groups)) == len(keys)) if groups.null else Column(code, keys)
    return Columns([key] + [
        _result_column(agg, column, rows)
        for agg, column in zip(aggregates, groups.columns)], len(groups))
