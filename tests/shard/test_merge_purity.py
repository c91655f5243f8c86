"""The coordinator's merge leaves its arguments alone.

``shard/merge.py`` promises pure functions: the router hands them the
shards' decoded replies and may read those again — for a retry, a
metrics line or the next merge — so a merge that consumed or rewrote
its input would answer the next question wrongly.  Each test calls one function
and compares every argument, pickled, with its pickle from before the
call: bit for bit, floats and NumPy buffers included.

``test_a_merge_that_clears_its_input_is_caught`` runs an in-memory copy
of ``shard/merge.py`` whose ``merge_grouped_states`` clears the list of
shard partials it folded (the checkout is never written) and shows the
check fails on it.
"""

import pickle
import struct

import pytest

from repro.engine.executor import Avg, Count, Max, Min, Sum
from repro.engine.metrics import QueryMetrics
from repro.server.columnar import Columns
from repro.shard import merge
from tests.mutation import mutated

QUIET_NAN, SIGNALLING_NAN = struct.unpack("<2d", struct.pack(
    "<2Q", 0x7FF8_0000_DEAD_BEEF, 0x7FF0_0000_0000_0001))


def aggregates():
    return [Sum(None), Avg(None), Min(None), Max(None), Count()]


def scalar_pairs():
    """Three shards' scalar partials — one group under the key 0: value
    lists per fold, a count."""
    return [
        [(0, [[1.5, -0.0], [2 ** 70, 3], [QUIET_NAN, 1.0], [b"b", b"a"],
              2])],
        [(0, [[], [], [], [], 0])],
        [(0, [[1e308, 1e308], [0.1], [-0.0], [b"c"], 4])],
    ]


def shard_pairs():
    """Three shards' grouped partials as ``(key, [partials])`` pairs:
    groups seen once and groups several shards saw, a NULL group."""
    return [
        [(1, [[0.5], [1.0, 2.0], [SIGNALLING_NAN], [1.5], 1]),
         (4, [[-0.0], [3.0], [2.0], [2.0], 1]),
         (None, [[7.0], [7.0], [7.0], [7.0], 1])],
        [(1, [[0.25, 0.125], [4.0], [-1.0], [QUIET_NAN], 2]),
         (9, [[], [], [], [], 0])],
        [(4, [[1e308], [1e308], [1e308], [1e308], 1]),
         (None, [[-7.0], [-7.0], [-7.0], [-7.0], 1])],
    ]


def shard_columns(pairs_of=shard_pairs):
    """The same partials as the router holds them: decoded frames."""
    out = []
    for pairs in pairs_of():
        types, buffers = Columns.from_groups(pairs).encode()
        out.append(Columns.decode(types, [bytes(b) for b in buffers],
                                  len(pairs)))
    return out


def shard_metrics():
    return [QueryMetrics(label="q", rows=10 * s, io_bytes=8192 * s,
                         physical_reads=s, sim_cpu_core_seconds=0.1 * s,
                         sim_exec_seconds=0.2 * s, wall_seconds=0.01,
                         engine="vector").to_dict() for s in range(1, 4)]


def changed(fn, *args) -> list[int]:
    """Call ``fn(*args)``; the positions of the arguments it changed."""
    before = [pickle.dumps(arg, pickle.HIGHEST_PROTOCOL) for arg in args]
    fn(*args)
    return [i for i, (arg, was) in enumerate(zip(args, before))
            if pickle.dumps(arg, pickle.HIGHEST_PROTOCOL) != was]


SHARDS = [shard_columns, shard_pairs, scalar_pairs,
          lambda: shard_columns(scalar_pairs)]
SHARD_IDS = ["columns", "pairs", "scalar-pairs", "scalar-columns"]


@pytest.mark.parametrize("shards", SHARDS, ids=SHARD_IDS)
def test_merge_grouped_states(shards):
    assert changed(merge.merge_grouped_states, aggregates(),
                   shards()) == []


def test_merge_metrics():
    assert changed(merge.merge_metrics, shard_metrics(), "q", 3) == []


@pytest.mark.parametrize("shards", SHARDS, ids=SHARD_IDS)
def test_finalize_grouped(shards):
    groups = merge.merge_grouped_states(aggregates(), shards())
    assert changed(merge.finalize_grouped, aggregates(), groups, 16) == []


def _merge_that_clears_its_input():
    """``merge_grouped_states`` from a copy of ``shard/merge.py`` that
    clears the list of shard partials it folded."""
    return mutated(merge,
                   "                              partials)\n"
                   "    return groups\n",
                   "                              partials)\n"
                   "    shard_groups.clear()\n"
                   "    return groups\n").merge_grouped_states


def test_a_merge_that_clears_its_input_is_caught():
    assert changed(_merge_that_clears_its_input(), aggregates(),
                   shard_pairs()) == [1]
