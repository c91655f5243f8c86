"""The coordinator's merge against a per-group Python fold.

``reference_merge`` is the merge as a dict of groups: every shard's
partial stepped, in shard order, through the aggregate's own ``step``
(a count added whole), every state through ``finish``, NaN keys one
group keyed by the first NaN met.  The merge the router runs — one
``GroupArrays`` absorbing the shards' arrays (one batch when their
keys, joined, still ascend; a batch per shard otherwise), or the
spilled walk for keys that do not order as an array — must return the
same rows with the same float bits, whichever path a column takes.  Two seeded
mutants of real ``src/`` (shards absorbed in reverse order; a lone
value passed through although its group has a running state) must
fail that comparison.
"""

import operator
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import vectorized
from repro.engine.executor import Avg, Count, Max, Min, Sum
from repro.server.columnar import Column, Columns
from repro.shard import merge
from repro.shard.merge import finalize_grouped, merge_grouped_states
from tests.mutation import mutated

from .conftest import bits


def rank(key):
    return key is None, key != key, key


def reference_merge(aggregates, shard_groups, rows):
    groups = {}
    nan = None
    for per_shard in shard_groups:
        for group, partials in per_shard:
            if group != group:
                group = nan = group if nan is None else nan
            states = groups.setdefault(group,
                                       [agg.start() for agg in aggregates])
            for i, (agg, partial) in enumerate(zip(aggregates, partials)):
                if isinstance(agg, Count):
                    states[i] += partial
                    continue
                for value in partial:
                    states[i] = agg.step(states[i], value)
    return [(group, *[agg.finish(state, rows)
                      for agg, state in zip(aggregates, states)])
            for group, states in sorted(groups.items(),
                                        key=lambda kv: rank(kv[0]))]


def array_merge(aggregates, shard_groups, rows, module=merge):
    return module.finalize_grouped(
        aggregates, module.merge_grouped_states(aggregates, shard_groups),
        rows).rows()


def wired(pairs):
    """A shard's pairs as the router holds them: a decoded frame."""
    types, buffers = Columns.from_groups(pairs).encode()
    return Columns.decode(types, [bytes(b) for b in buffers], len(pairs))


QUIET, SIGNALLING, NEGATIVE = struct.unpack("<3d", struct.pack(
    "<3Q", 0x7FF8_0000_DEAD_BEEF, 0x7FF0_0000_0000_0001,
    0xFFF8_0000_0000_0002))
FLOATS = st.sampled_from([0.0, -0.0, QUIET, SIGNALLING, NEGATIVE,
                          float("inf"), -float("inf"), 1.5, -2.25, 1e308,
                          -1e308, 5e-324, 0.1, 0.2, 0.3, 1e16, 1.0])
SMALL_INTS = st.integers(-1000, 1000)
EDGE_INTS = st.sampled_from([2 ** 63 - 1, -2 ** 63, 2 ** 63, -2 ** 63 - 1,
                             2 ** 62, 1, -1])
BLOBS = st.binary(max_size=4)
SAME_LENGTH_BLOBS = st.binary(min_size=3, max_size=3)

#: (aggregate class, strategies its value lists may be drawn from)
AGGREGATES = [
    (Sum, [FLOATS, SMALL_INTS, EDGE_INTS]),
    (Avg, [FLOATS, SMALL_INTS, EDGE_INTS]),
    (Min, [FLOATS, SMALL_INTS, EDGE_INTS, BLOBS, SAME_LENGTH_BLOBS]),
    (Max, [FLOATS, SMALL_INTS, EDGE_INTS, BLOBS, SAME_LENGTH_BLOBS]),
]

#: Key sets a case draws its groups from: ints, floats with both zeros
#: and NaNs of several payloads, strings, a mix of ints and floats
#: (a JSON key column, which carries NaN without its payload), NULL,
#: and a scalar statement's one group.
KEY_SETS = [
    list(range(6)), list(range(40)), [-3, 7, None],
    ["a", "b", "c", None], [0.5, -0.0, 0.0, 2.5, float("inf")],
    [1.5, QUIET, NEGATIVE, None], [QUIET, NEGATIVE, SIGNALLING],
    [1, 2.5, float("nan"), None], [0],
]


@st.composite
def scattered_groups(draw):
    """Aggregates plus, per shard, ordered (key, partials) pairs as
    ``query_partial`` reads: each shard sees a subset of the keys
    (in group order) and 0..4 values per group."""
    keys = draw(st.sampled_from(KEY_SETS))
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
        seen = draw(st.lists(st.sampled_from(keys), unique_by=id))
        seen.sort(key=rank)
        shards.append([
            (key, [draw(st.integers(0, 9)) if strategy is None else
                   draw(st.lists(strategy, max_size=longest))
                   for strategy in values])
            for key in seen])
    return aggregates, shards


#: Drawn cases come after these, one per seeded mutant below: a fold
#: whose float bits depend on shard order, and one value meeting a
#: seed (the second shard's key 0 comes after key 1, so the shards are
#: absorbed one at a time).
EXAMPLES = [([Sum(None)], [[(0, [[0.1]])], [(0, [[0.2, 0.3]])]]),
            ([Sum(None)], [[(0, [[1.0]]), (1, [[5.0]])], [(0, [[2.0]])]])]


def with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


def check(module, case):
    aggregates, shards = case
    want = bits(reference_merge(aggregates, shards, 123))
    assert bits(array_merge(aggregates, shards, 123, module)) == want
    # ... and the same from the decoded wire form the router passes,
    # which the merge leaves as it found it.
    frames = [wired(pairs) for pairs in shards]
    before = [w.encode() for w in frames]
    assert bits(array_merge(aggregates, frames, 123, module)) == want
    after = [w.encode() for w in frames]
    assert [(t, [bytes(b) for b in bs]) for t, bs in before] == \
        [(t, [bytes(b) for b in bs]) for t, bs in after]


@settings(max_examples=300, deadline=None)
@given(scattered_groups())
@with_examples
def test_array_merge_is_the_python_fold(case):
    check(merge, case)


def caught_by_the_differential(module) -> bool:
    @settings(max_examples=300, deadline=None, database=None)
    @given(scattered_groups())
    @with_examples
    def differential(case):
        check(module, case)

    try:
        differential()
    except Exception:  # noqa: BLE001 - any failure is a catch
        return True
    return False


def test_shards_absorbed_in_reverse_order_are_caught():
    mutant = mutated(merge, " for partial in shard_groups]\n",
                     " for partial in reversed(shard_groups)]\n")
    assert caught_by_the_differential(mutant)


def test_a_lone_value_passed_through_over_a_seed_is_caught(monkeypatch):
    mutant = mutated(vectorized, "    lone = (counts == 1) & ~seeded\n",
                     "    lone = counts == 1\n")
    monkeypatch.setattr(vectorized, "fold_segments_kernel",
                        mutant.fold_segments_kernel)
    assert caught_by_the_differential(merge)


def shards_of(groups, values_per_group, shards=3, make=float):
    """``groups`` integer keys on each of ``shards`` shards, every one
    with ``values_per_group`` values there."""
    return [[(g, [[make(s * 1000 + g * 10 + j)
                   for j in range(values_per_group)]])
             for g in range(groups)] for s in range(shards)]


class TestWhichPathRuns:
    """Single-value groups pass through as arrays; anything longer is
    folded through the aggregate's operator — the merge holds no
    second copy of an aggregate's arithmetic."""

    @staticmethod
    def spy_fold():
        """Count calls of ``vectorized.fold`` while it keeps working."""
        return mock.patch.object(vectorized, "fold",
                                 side_effect=vectorized.fold)

    @pytest.mark.parametrize("groups,values_per_group",
                             [(50, 2), (3, 40)])
    def test_multi_value_groups_go_through_the_aggregate(
            self, groups, values_per_group):
        shards = shards_of(groups, values_per_group)
        with self.spy_fold() as folds:
            rows = array_merge([Sum(None)], shards, 0)
        assert folds.call_count == groups * 3  # per group, shard
        assert all(call.args[0] is operator.add
                   for call in folds.call_args_list)
        assert rows == reference_merge([Sum(None)], shards, 0)

    def test_single_value_groups_are_not_folded_at_all(self):
        shards = [[(g, [[bytes([g])]]) for g in range(s, 30, 3)]
                  for s in range(3)]       # keys interleave: a real merge
        with self.spy_fold() as folds:
            rows = array_merge([Max(None)], shards, 0)
        assert folds.call_count == 0
        assert rows == [(g, bytes([g])) for g in range(30)]

    def test_single_negative_zero_and_nan_payload_pass_through(self):
        shards = [[(1, [[-0.0]] * 4)],
                  [(2, [[QUIET]] * 4), (3, [[SIGNALLING]] * 4)], []]
        aggregates = [Sum(None), Avg(None), Min(None), Max(None)]
        assert bits(array_merge(aggregates, shards, 0)) == \
            bits(reference_merge(aggregates, shards, 0))

    def test_int_sums_do_not_wrap(self):
        shards = shards_of(groups=50, values_per_group=2,
                           make=lambda x: 2 ** 62 + x)
        rows = array_merge([Sum(None)], shards, 0)
        assert rows == reference_merge([Sum(None)], shards, 0)
        assert all(total > 2 ** 63 for _g, total in rows)

    def test_shards_whose_keys_ascend_joined_fold_once(self):
        """A scalar statement's one group, or range partitions: the
        shards end to end are one batch, each group one fold."""
        values = [0.1 * i for i in range(500)]
        for shards in ([[(0, [values[:300]])], [(0, [values[300:]])]],
                       shards_of(groups=4, values_per_group=3)[:1] + [
                           [(g, [[0.5, 0.25]]) for g in range(3, 6)]]):
            with self.spy_fold() as folds:
                rows = array_merge([Sum(None)], shards, 0)
            assert folds.call_count == len(rows)
            assert bits(rows) == \
                bits(reference_merge([Sum(None)], shards, 0))


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


def test_nan_keys_are_one_group_after_the_others():
    shards = [[(1.0, [1]), (QUIET, [2])],
              [(NEGATIVE, [3]), (None, [4])],
              [(0.5, [5]), (SIGNALLING, [6])],
              [(SIGNALLING, [7]), (NEGATIVE, [8])]]   # two NaN lanes
    for form in (shards, [wired(pairs) for pairs in shards]):
        rows = array_merge([Count()], form, 0)
        assert bits(rows) == bits([(0.5, 5), (1.0, 1), (QUIET, 26),
                                   (None, 4)])


def test_a_null_key_lane_before_the_last_is_not_group_0():
    """A key column with a NULL lane amid the keys is out of group
    order: it is not a batch already cut, and the NULL lane's fill
    value (0) never joins group 0."""
    pairs = [(-3, [[1.0], 1]), (None, [[2.0], 1]), (5, [[4.0], 1])]
    aggregates = [Sum(None), Count()]
    want = [(-3, 1.0, 1), (5, 4.0, 1), (None, 2.0, 1)]
    assert reference_merge(aggregates, [pairs], 0) == want
    assert array_merge(aggregates, [wired(pairs)], 0) == want
    assert array_merge(aggregates, [wired([(7, [[8.0], 1])]),
                                    wired(pairs)], 0) == \
        reference_merge(aggregates, [[(7, [[8.0], 1])], pairs], 0)


def test_a_partial_of_the_wrong_width_is_refused():
    with pytest.raises(ValueError, match="2 columns"):
        merge_grouped_states([Sum(None), Count()], [[(1, [[1.0]])]])


def test_no_shard_saw_a_group():
    aggregates = [Sum(None)]
    merged = finalize_grouped(
        aggregates, merge_grouped_states(aggregates, [[], []]), 0)
    assert merged.rows() == [] and merged.rowcount == 0
    assert len(merge_grouped_states(aggregates, [])) == 0


def test_bytes_of_one_length_stay_one_buffer():
    """MAX over equal-length bytes, one value per group: the shards'
    value buffers become the result column without a ``bytes`` object
    per value."""
    shards = [wired([(g, [[bytes([g]) * 3]]) for g in range(s, s + 5)])
              for s in (0, 5)]
    with mock.patch.object(Column, "cells", autospec=True,
                           side_effect=Column.cells) as cells:
        columns = finalize_grouped([Max(None)], merge_grouped_states(
            [Max(None)], shards), 0)
    assert cells.call_count == 0
    assert columns.columns[1].code == "b"
    assert bytes(columns.columns[1].values) == \
        b"".join(bytes([g]) * 3 for g in range(10))
    assert np.array_equal(columns.columns[1].sizes, np.full(10, 3))
