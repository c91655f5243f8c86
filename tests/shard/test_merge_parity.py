"""The coordinator's array merge is the single-node fold, bit for bit.

``test_parity.py`` covers ``GROUP BY`` over a well-behaved float
column; the cases here are the ones an array merge can get wrong
where a per-group Python fold cannot: groups whose values are spread
over several shards (the stable sort must keep them in shard order),
NaN / +-inf / ``-0.0`` / NULL under SUM, AVG, MIN and MAX, int sums
that leave int64, NULL and non-integer group keys, ``MAX`` over
``VARBINARY``, a shard that holds no rows and a table that holds
none.  One node is the oracle; 2 and 4 shards, range and hash
partitioned, must answer with the same bits.
"""

import struct

import pytest

from repro.engine import Column, Database
from repro.engine.sqlfront import SqlSession
from repro.server.server import ServerConfig, ServerThread
from repro.shard import (ShardClient, ShardConfig, ShardFleet,
                         ShardRouter, ShardServer)

from .conftest import bits

ROWS = 420
#: Range cut points fall inside the data for 2 shards and leave the
#: fourth of 4 shards without a row.
KEY_HI = ROWS * 4 // 3

CREATE = ("CREATE TABLE m (id BIGINT PRIMARY KEY, k INT, h INT, "
          "f FLOAT, n BIGINT, v VARBINARY(100))")
CREATE_EMPTY = CREATE.replace("TABLE m", "TABLE e")

NAN = float("nan")
INF = float("inf")


def tag(k):
    """A string-valued group key: the JSON-fallback key column."""
    return None if k is None else "odd" if k % 2 else "even"


def setup_udfs(session):
    session.register_function("dbo.Tag", tag)


def make_rows():
    """Seven ``k`` groups (plus a NULL one) and sixty ``h`` groups,
    both interleaved over the key space, so every group has values on
    every shard that holds rows: few long groups (folded through the
    aggregates' own ``merge``) and many short ones (folded as
    arrays)."""
    rows = []
    for i in range(ROWS):
        k = None if i % 29 == 0 else i % 7
        f = (i % 97) * 0.37 - 17.0
        if i % 31 == 0:
            f = None
        elif k == 2:
            f = -0.0                    # a group of nothing but -0.0
        elif k == 3 and i % 5 == 0:
            f = INF if i % 2 else -INF  # inf - inf inside one group
        elif k == 5 and i % 11 == 0:
            f = NAN                     # NaN mid-fold: first-operand-wins
        elif i % 13 == 0:
            f = -0.0
        n = (2 ** 62 - i) if k in (1, 4) else i - 200
        v = None if i % 17 == 0 else bytes([i % 251]) * (i % 6)
        rows.append((i, k, (i * 7) % 60, f, n, v))
    return rows


QUERIES = [
    # multi-value groups spread over shards
    "SELECT k, SUM(f), AVG(f), COUNT(*) FROM m GROUP BY k",
    "SELECT k, MIN(f), MAX(f) FROM m GROUP BY k",
    "SELECT h, SUM(f), AVG(f), MIN(f), MAX(f) FROM m GROUP BY h",
    "SELECT h, SUM(id), AVG(id), MIN(n), MAX(n) FROM m GROUP BY h",
    # int sums: inside int64 for some groups, beyond it for others
    "SELECT h, SUM(n), AVG(n) FROM m GROUP BY h",
    "SELECT k, SUM(n), AVG(n), MIN(n), MAX(n) FROM m GROUP BY k",
    # one value per group: everything passes through untouched
    "SELECT id, SUM(f), AVG(f), MIN(f), MAX(f) FROM m GROUP BY id",
    "SELECT id, SUM(n), AVG(n), COUNT(*) FROM m GROUP BY id",
    # bytes under MAX/MIN, grouped both ways
    "SELECT k, MAX(v), MIN(v) FROM m GROUP BY k",
    "SELECT id, MAX(v) FROM m GROUP BY id",
    # non-integer group keys: floats, strings (JSON fallback), NULL
    "SELECT f, COUNT(*), SUM(n) FROM m WHERE f > -100.0 GROUP BY f",
    "SELECT dbo.Tag(k), SUM(f), MAX(v), COUNT(*) FROM m "
    "GROUP BY dbo.Tag(k)",
    # groups where an aggregate saw only NULLs
    "SELECT k, SUM(f), AVG(f), MIN(f) FROM m WHERE id < 32 GROUP BY k",
    # an empty table, grouped and not
    "SELECT k, SUM(f), COUNT(*) FROM e GROUP BY k",
    "SELECT SUM(f), COUNT(*) FROM e",
]

#: Under hash partitioning a multi-shard group is folded shard by
#: shard, not in key order, so only order-insensitive statements are
#: bit-comparable with one node: groups that live on one shard, and
#: integer / bytes aggregates.
HASH_QUERIES = [sql for sql in QUERIES
                if "GROUP BY id" in sql or "f" not in sql.split("FROM")[0]]


@pytest.fixture(scope="module")
def reference():
    db = Database()
    session = SqlSession(db)
    setup_udfs(session)
    columns = [Column("id", "bigint"), Column("k", "int"),
               Column("h", "int"), Column("f", "float"), Column("n", "bigint"),
               Column("v", "varbinary", cap=100)]
    db.create_table("m", columns)
    db.create_table("e", columns)
    session._resolve_table("m").insert_many(make_rows())
    return session


def start_cluster(shards, partitioning):
    config = ShardConfig(shards=shards, partitioning=partitioning,
                         key_lo=0, key_hi=KEY_HI)
    with ShardFleet(config, session_setup=setup_udfs) as fleet:
        router = ShardRouter(fleet.addresses, config.make_partitioner(),
                             session_setup=setup_udfs)
        try:
            router.execute(CREATE)
            router.execute(CREATE_EMPTY)
            assert router.insert_rows("m", make_rows()) == ROWS
            coordinator = ShardServer(router, ServerConfig(
                name=f"coord-{partitioning}{shards}"))
            with ServerThread(server=coordinator) as handle:
                with ShardClient("127.0.0.1", handle.port) as client:
                    yield {"router": router, "client": client,
                           "shards": shards}
        finally:
            router.shutdown()


@pytest.fixture(scope="module", params=[2, 4],
                ids=lambda n: f"range{n}")
def range_cluster(request):
    yield from start_cluster(request.param, "range")


@pytest.fixture(scope="module", params=[2, 4],
                ids=lambda n: f"hash{n}")
def hash_cluster(request):
    yield from start_cluster(request.param, "hash")


def local_rows(reference, sql):
    values, _metrics = reference.query(sql)
    return values if isinstance(values, list) else [tuple(values)]


def assert_bitwise_parity(cluster, reference, sql):
    want = bits(local_rows(reference, sql))
    got = cluster["router"].execute(sql)
    assert bits(got["rows"]) == want
    assert got["rowcount"] == len(want)
    result = cluster["client"].query(sql)
    assert bits(result.rows) == want
    assert result.rowcount == len(want)


@pytest.mark.parametrize("sql", QUERIES)
def test_range_cluster_matches_one_node_bitwise(range_cluster,
                                                reference, sql):
    assert_bitwise_parity(range_cluster, reference, sql)


@pytest.mark.parametrize("sql", HASH_QUERIES)
def test_hash_cluster_matches_one_node_bitwise(hash_cluster, reference,
                                               sql):
    assert_bitwise_parity(hash_cluster, reference, sql)


def test_the_data_has_the_texture_the_cases_need(reference):
    """Guards the fixture, not the merge: each trap must actually be
    in the single-node answer the clusters are compared with."""
    by_k = {row[0]: row for row in local_rows(
        reference, "SELECT k, SUM(f), MIN(f), SUM(n) FROM m GROUP BY k")}
    assert None in by_k and list(by_k)[-1] is None   # NULL key, last
    assert struct.pack("<d", by_k[2][1]) == struct.pack("<d", -0.0)
    assert by_k[3][1] != by_k[3][1]                  # inf - inf
    assert by_k[5][1] != by_k[5][1]                  # NaN propagated
    assert by_k[5][2] == by_k[5][2]                  # MIN skipped it
    assert by_k[1][3] > 2 ** 63                      # left int64
    assert -2 ** 63 < by_k[0][3] < 2 ** 63


def test_an_empty_shard_answers_no_groups(range_cluster):
    """The fourth of 4 range shards owns keys >= ROWS and holds no
    row; with 2 shards both hold some."""
    router = range_cluster["router"]
    counts = [router._scatter_read([(
        shard_id, {"type": "pquery", "cold": False,
                   "sql": "SELECT k, COUNT(*) FROM m GROUP BY k",
                   "timeout": "none"}, ())])[0][1]["rowcount"]
        for shard_id in range(range_cluster["shards"])]
    assert all(counts[:3])
    assert counts[3:] in ([], [0])
