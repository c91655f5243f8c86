"""The array merge against the per-group Python fold it replaced.

``reference_merge`` is the pre-columnar ``merge_grouped_states`` +
``finalize_grouped`` pair — a dict of groups, every partial folded
through the aggregate's own ``merge``, every state through ``finish``
— kept here as the oracle.  The array merge must return the same
rows with the same float bits whichever of its paths (pass-through
or the per-group fold through the aggregate) a column takes.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.executor import Avg, Count, Max, Min, Sum
from repro.server.columnar import Columns
from repro.shard.merge import finalize_grouped, merge_grouped_states

from .conftest import bits


def reference_merge(aggregates, shard_groups, rows):
    groups = {}
    for per_shard in shard_groups:
        for group, partials in per_shard:
            states = groups.get(group)
            if states is None:
                states = [agg.start() for agg in aggregates]
            groups[group] = [agg.merge(state, partial) for agg, state,
                             partial in zip(aggregates, states, partials)]
    finished = [(group, *[agg.finish(state, rows)
                          for agg, state in zip(aggregates, states)])
                for group, states in groups.items()]
    finished.sort(key=lambda row: (row[0] is None, row[0]))
    return finished


def array_merge(aggregates, shard_groups, rows):
    return finalize_grouped(
        aggregates, merge_grouped_states(aggregates, shard_groups),
        rows).rows()


FLOATS = st.sampled_from([0.0, -0.0, float("nan"), float("inf"),
                          -float("inf"), 1.5, -2.25, 1e308, -1e308,
                          5e-324, 0.1, 0.2, 0.3, 1e16, 1.0])
SMALL_INTS = st.integers(-1000, 1000)
BIG_INTS = st.integers(2 ** 61, 2 ** 63 - 1) | st.integers(-2 ** 63,
                                                            -2 ** 61)
BLOBS = st.binary(max_size=4)

#: (aggregate class, strategies its value lists may be drawn from)
AGGREGATES = [
    (Sum, [FLOATS, SMALL_INTS, BIG_INTS]),
    (Avg, [FLOATS, SMALL_INTS, BIG_INTS]),
    (Min, [FLOATS, SMALL_INTS, BIG_INTS, BLOBS]),
    (Max, [FLOATS, SMALL_INTS, BIG_INTS, BLOBS]),
]


@st.composite
def scattered_groups(draw):
    """Aggregates plus, per shard, ordered (key, partials) pairs as
    ``query_partial`` returns them: each shard sees a subset of the
    keys (sorted, NULL last) and 0..4 values per group."""
    keys = draw(st.sampled_from([
        list(range(6)), list(range(40)),
        [-3, 7, None], ["a", "b", "c", None], [0.5, -0.0, 2.5]]))
    specs = draw(st.lists(st.sampled_from(AGGREGATES) | st.none(),
                          min_size=1, max_size=3))
    aggregates, values = [], []
    for spec in specs:
        if spec is None:
            aggregates.append(Count())
            values.append(None)
        else:
            aggregates.append(spec[0](None))
            values.append(draw(st.sampled_from(spec[1])))
    longest = draw(st.sampled_from([1, 2, 4]))
    shards = []
    for _ in range(draw(st.integers(1, 4))):
        seen = draw(st.lists(st.sampled_from(keys), unique=True))
        seen.sort(key=lambda key: (key is None, key))
        shards.append([
            (key, [draw(st.integers(0, 9)) if strategy is None else
                   draw(st.lists(strategy, max_size=longest))
                   for strategy in values])
            for key in seen])
    return aggregates, shards


@settings(max_examples=300, deadline=None)
@given(scattered_groups())
def test_array_merge_is_the_python_fold(case):
    aggregates, shards = case
    want = bits(reference_merge(aggregates, shards, 123))
    assert bits(array_merge(aggregates, shards, 123)) == want
    # ... and the same from the decoded wire form the router passes.
    wired = []
    for pairs in shards:
        types, buffers = Columns.from_groups(pairs).encode()
        wired.append(Columns.decode(types, [bytes(b) for b in buffers],
                                    len(pairs)))
    before = [w.encode() for w in wired]
    assert bits(array_merge(aggregates, wired, 123)) == want
    after = [w.encode() for w in wired]
    assert [(t, [bytes(b) for b in bs]) for t, bs in before] == \
        [(t, [bytes(b) for b in bs]) for t, bs in after]   # RS401: pure


def shards_of(groups, values_per_group, shards=3, make=float):
    """``groups`` integer keys on each of ``shards`` shards, every one
    with ``values_per_group`` values there."""
    return [[(g, [[make(s * 1000 + g * 10 + j)
                   for j in range(values_per_group)]])
             for g in range(groups)] for s in range(shards)]


class TestWhichPathRuns:
    """Single-value groups pass through as arrays; anything longer is
    folded by the aggregate itself — the merge holds no second copy of
    an aggregate's arithmetic."""

    @staticmethod
    def spy(owner, name):
        """Count calls of ``owner.name`` while it keeps working."""
        return mock.patch.object(owner, name, autospec=True,
                                 side_effect=getattr(owner, name))

    @pytest.mark.parametrize("groups,values_per_group",
                             [(50, 2), (3, 40)])
    def test_multi_value_groups_go_through_the_aggregate(
            self, groups, values_per_group):
        shards = shards_of(groups, values_per_group)
        with self.spy(Sum, "merge") as python_folds:
            rows = array_merge([Sum(None)], shards, 0)
        assert python_folds.call_count == groups * 3  # per group, shard
        assert rows == reference_merge([Sum(None)], shards, 0)

    def test_single_value_groups_are_not_folded_at_all(self):
        shards = [[(g, [[bytes([g])]]) for g in range(s, 30, 3)]
                  for s in range(3)]       # keys interleave: a real sort
        with self.spy(Max, "merge") as python_folds:
            rows = array_merge([Max(None)], shards, 0)
        assert python_folds.call_count == 0
        assert rows == [(g, bytes([g])) for g in range(30)]

    def test_single_negative_zero_and_nan_payload_pass_through(self):
        quiet, signalling = struct.unpack("<2d", struct.pack(
            "<2Q", 0x7FF8_0000_DEAD_BEEF, 0x7FF0_0000_0000_0001))
        shards = [[(1, [[-0.0]] * 4)],
                  [(2, [[quiet]] * 4), (3, [[signalling]] * 4)], []]
        aggregates = [Sum(None), Avg(None), Min(None), Max(None)]
        assert bits(array_merge(aggregates, shards, 0)) == \
            bits(reference_merge(aggregates, shards, 0))

    def test_int_sums_do_not_wrap(self):
        shards = shards_of(groups=50, values_per_group=2,
                           make=lambda x: 2 ** 62 + x)
        rows = array_merge([Sum(None)], shards, 0)
        assert rows == reference_merge([Sum(None)], shards, 0)
        assert all(total > 2 ** 63 for _g, total in rows)


def test_min_max_keep_the_first_operand_on_nan():
    nan = float("nan")
    shards = [[(g, [[nan, 1.0], [nan, 1.0]]) for g in range(20)],
              [(g, [[-5.0, nan], [9.0, nan]]) for g in range(20)]]
    aggregates = [Min(None), Max(None)]
    rows = array_merge(aggregates, shards, 0)
    assert bits(rows) == \
        bits(reference_merge(aggregates, shards, 0))
    # NaN came first, so it stays: np.minimum would agree here, but
    # the mirrored data below tells the two apart.
    assert all(low != low and high != high for _g, low, high in rows)
    mirrored = [shards[1], shards[0]]
    rows = array_merge(aggregates, mirrored, 0)
    assert bits(rows) == \
        bits(reference_merge(aggregates, mirrored, 0))
    assert all((low, high) == (-5.0, 9.0) for _g, low, high in rows)


def test_null_group_sorts_last_and_empty_groups_are_null():
    shards = [[(2, [[], 0]), (None, [[1.5], 1])],
              [(1, [[2.5], 1]), (2, [[], 0]), (None, [[-1.5], 1])]]
    aggregates = [Avg(None), Count()]
    assert array_merge(aggregates, shards, 0) == \
        [(1, 2.5, 1), (2, None, 0), (None, 0.0, 2)]


def test_a_partial_of_the_wrong_width_is_refused():
    with pytest.raises(ValueError, match="2 columns"):
        merge_grouped_states([Sum(None), Count()], [[(1, [[1.0]])]])


def test_no_shard_saw_a_group():
    aggregates = [Sum(None)]
    merged = finalize_grouped(
        aggregates, merge_grouped_states(aggregates, [[], []]), 0)
    assert merged.rows() == [] and merged.rowcount == 0
    assert np.asarray(merged.columns[0].values).size == 0
