"""NaN group keys are one group, by value, on every path.

A UDF that returns the shared ``math.nan`` and a stored FLOAT column
with NaN cells (each decoded NaN a fresh object) both put every NaN
key in one group — after the ordered keys, before NULL, keyed by the
first NaN met — at one node and through 1, 2 and 3 shards, range and
hash partitioned (PostgreSQL groups NaN the same way).  The sums are
over integers and exact halves, so hash partitioning's shard order
cannot move their bits.
"""

import math
import struct

import pytest

from repro.engine import Column, Database
from repro.engine.sqlfront import SqlSession
from repro.shard import ShardConfig, ShardFleet, ShardRouter

from .conftest import bits

ROWS = 300


def nk(k):
    """``k``'s group, or the shared ``math.nan`` for every fifth."""
    return None if k is None else math.nan if k % 5 == 0 else k % 7


def setup_udfs(session):
    session.register_function("dbo.Nk", nk)


def make_rows():
    return [(i, None if i % 23 == 0 else i,
             math.nan if i % 5 == 0 else None if i % 23 == 1
             else float(i % 7), (i % 11) * 0.5)
            for i in range(ROWS)]


CREATE = ("CREATE TABLE t (id BIGINT PRIMARY KEY, k INT, f FLOAT, "
          "h FLOAT)")
QUERIES = {
    "udf": "SELECT dbo.Nk(k), COUNT(*), SUM(id), SUM(h) FROM t "
           "GROUP BY dbo.Nk(k)",
    "stored": "SELECT f, COUNT(*), SUM(id), SUM(h) FROM t GROUP BY f",
}


def nan_rows(rows):
    return [row for row in rows if row[0] != row[0]]


@pytest.fixture(scope="module")
def reference():
    db = Database()
    session = SqlSession(db)
    setup_udfs(session)
    db.create_table("t", [Column("id", "bigint"), Column("k", "int"),
                          Column("f", "float"), Column("h", "float")])
    session._resolve_table("t").insert_many(make_rows())
    return session


@pytest.fixture(scope="module", params=[
    (1, "range"), (2, "range"), (3, "range"), (2, "hash"), (3, "hash")],
    ids=lambda p: f"{p[1]}{p[0]}")
def router(request):
    shards, partitioning = request.param
    config = ShardConfig(shards=shards, partitioning=partitioning,
                         key_lo=0, key_hi=ROWS)
    with ShardFleet(config, session_setup=setup_udfs) as fleet:
        router = ShardRouter(fleet.addresses, config.make_partitioner(),
                             session_setup=setup_udfs)
        try:
            router.execute(CREATE)
            assert router.insert_rows("t", make_rows()) == ROWS
            yield router
        finally:
            router.shutdown()


#: Rows of the NaN group: ``k`` NULL is the UDF's NULL group.
NAN_IDS = {"udf": [i for i in range(ROWS) if i % 5 == 0 and i % 23],
           "stored": [i for i in range(ROWS) if i % 5 == 0]}


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_one_node_has_one_nan_group(reference, name):
    rows, _metrics = reference.query(QUERIES[name])
    (nan,) = nan_rows(rows)
    ids = NAN_IDS[name]
    assert nan[1:3] == (len(ids), sum(ids))
    # After the ordered keys, before NULL.
    assert rows[-1][0] is None and rows[-2] is nan
    assert struct.pack("<d", nan[0]) == struct.pack("<d", math.nan)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_every_cluster_has_the_one_node_groups(router, reference, name):
    want, _metrics = reference.query(QUERIES[name])
    got = router.execute(QUERIES[name])["rows"]
    assert bits(got) == bits(want)
    assert len(nan_rows(got)) == 1
