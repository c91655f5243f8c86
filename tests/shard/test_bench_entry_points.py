"""The calls the benchmark's traced probes make into ``src/``.

``bench/layers.py`` times the partial codec and the coordinator's
merge on a ``shard_scatter``-shaped table: it reads
``query_partial(...)["groups"]`` as ``(key, [partials])`` pairs and
slices, round-trips the parts through ``pack_partial`` /
``unpack_partial``, and merges two pair-list slices with
``merge_grouped_states`` + ``finalize_grouped``.  This test makes the
same calls, so a change that would break the benchmark's import or
its probes fails here first.
"""

import random

import pytest

from repro.engine import Column, Database
from repro.engine.sqlfront import SqlSession
from repro.server import protocol
from repro.shard.merge import finalize_grouped, merge_grouped_states
from repro.tsql import FloatArray

from .conftest import bits

#: bench/workloads.py, ``ShardScatter.QUERIES``.
GROUPED = ["SELECT id, SUM(v1), AVG(v2) FROM tb GROUP BY id",
           "SELECT id, MAX(v) FROM tb GROUP BY id"]


@pytest.fixture(scope="module")
def session():
    db = Database()
    rng = random.Random(11)
    db.create_table("tb", [
        Column("id", "bigint"), Column("v1", "float"),
        Column("v2", "float"), Column("v", "varbinary", cap=100)])
    db.tables["tb"].insert_many([
        (i, rng.gauss(0, 1), rng.gauss(0, 1),
         FloatArray.Vector_5(*[rng.gauss(0, 1) for _ in range(5)]))
        for i in range(200)])
    return SqlSession(db)


@pytest.mark.parametrize("sql", GROUPED)
def test_the_partial_reads_as_pairs_and_slices(session, sql):
    groups = session.query_partial(sql, cold=False)["groups"]
    pairs = list(groups)
    assert len(groups) == len(pairs) == 200
    assert [key for key, _parts in pairs] == list(range(200))
    half = len(groups) // 2
    assert groups[:half] + groups[half:] == pairs
    assert all(len(parts) == 2 if "AVG" in sql else len(parts) == 1
               for _key, parts in pairs)


@pytest.mark.parametrize("sql", GROUPED)
def test_pack_and_unpack_partial_round_trip(session, sql):
    groups = session.query_partial(sql, cold=False)["groups"]
    blobs: list[bytes] = []
    packed = [[protocol.pack_cell(key, blobs),
               [protocol.pack_partial(part, blobs) for part in parts]]
              for key, parts in groups]
    unpacked = [(protocol.unpack_cell(key, blobs),
                 [protocol.unpack_partial(p, blobs) for p in parts])
                for key, parts in packed]
    assert bits([(key, *parts) for key, parts in unpacked]) == \
        bits([(key, *parts) for key, parts in groups])


@pytest.mark.parametrize("sql", GROUPED)
def test_merging_two_pair_list_slices_is_the_query(session, sql):
    partial = session.query_partial(sql, cold=False)
    groups = partial["groups"]
    half = len(groups) // 2
    plan = session.plan_select(sql)
    merged = finalize_grouped(
        plan.aggregates,
        merge_grouped_states(plan.aggregates,
                             [groups[:half], groups[half:]]),
        partial["rows"])
    rows, _metrics = session.query(sql, cold=False)
    assert bits(merged.rows()) == bits(rows)
