"""Sharded execution is bit-identical to single-node execution.

Every query here runs twice: once on a plain single-node
``SqlSession`` over the full data set, once against a cluster of
1 / 2 / 4 shard processes — and the answers are compared down to the
IEEE-754 bit patterns of every float, because the coordinator's
shard-order merge must replay the exact serial fold, not an
approximation of it.
"""

import random
import struct

import pytest

from repro.engine import Column, Database
from repro.engine.sqlfront import SqlSession
from repro.server import ServerError, protocol
from repro.server.server import ServerConfig, ServerThread
from repro.shard import (ShardClient, ShardConfig, ShardFleet,
                         ShardRouter, ShardServer)
from tests.engine import row_oracle

from .conftest import (KEY_HI, ROWS, bits, make_reference, make_rows,
                       normalize, setup_udfs)

CREATE = ("CREATE TABLE t (id BIGINT PRIMARY KEY, v FLOAT, g INT)")

FIXED_QUERIES = [
    "SELECT SUM(v), AVG(v), COUNT(*), MIN(v), MAX(v) FROM t",
    "SELECT SUM(v), COUNT(*) FROM t WHERE v > 0.0",
    "SELECT COUNT(*), SUM(v), AVG(v) FROM t WHERE id >= 500 AND id < 1700",
    "SELECT SUM(v), COUNT(*) FROM t WHERE id = 123",
    "SELECT SUM(v) FROM t WHERE id = 2999",
    "SELECT COUNT(*) FROM t WHERE id = 999999",
    "SELECT g, SUM(v), AVG(v), COUNT(*) FROM t GROUP BY g",
    "SELECT g, MIN(v), MAX(v) FROM t WHERE v IS NOT NULL GROUP BY g",
    "SELECT SUM(dbo.Scale(v)), AVG(dbo.Scale(v)) FROM t",
    "SELECT g, SUM(dbo.Scale(v)) FROM t GROUP BY g",
]


def random_queries(n=8, seed=20260808):
    rng = random.Random(seed)
    aggs = ["SUM(v)", "AVG(v)", "COUNT(*)", "MIN(v)", "MAX(v)",
            "SUM(dbo.Scale(v))"]
    out = []
    for _ in range(n):
        picked = ", ".join(rng.sample(aggs, rng.randint(1, 3)))
        shape = rng.randrange(4)
        if shape == 0:
            lo = rng.randrange(0, ROWS)
            hi = rng.randrange(lo, ROWS + 1)
            out.append(f"SELECT {picked} FROM t "
                       f"WHERE id >= {lo} AND id < {hi}")
        elif shape == 1:
            cut = rng.uniform(-35.0, 50.0)
            out.append(f"SELECT {picked} FROM t WHERE v < {cut!r}")
        elif shape == 2:
            out.append(f"SELECT g, {picked} FROM t GROUP BY g")
        else:
            out.append(f"SELECT {picked} FROM t")
    return out


ALL_QUERIES = FIXED_QUERIES + random_queries()


@pytest.fixture(scope="module")
def reference():
    return make_reference(make_rows())


@pytest.fixture(scope="module", params=[1, 2, 4],
                ids=lambda n: f"shards{n}")
def cluster(request):
    """A live cluster: fleet + router + coordinator + client."""
    shards = request.param
    config = ShardConfig(shards=shards, key_lo=0, key_hi=KEY_HI)
    with ShardFleet(config, session_setup=setup_udfs) as fleet:
        router = ShardRouter(fleet.addresses, config.make_partitioner(),
                             session_setup=setup_udfs)
        try:
            router.execute(CREATE)
            assert router.insert_rows("t", make_rows()) == ROWS
            coordinator = ShardServer(router, ServerConfig(
                name=f"coord-{shards}"))
            with ServerThread(server=coordinator) as handle:
                with ShardClient("127.0.0.1", handle.port) as client:
                    yield {"shards": shards, "router": router,
                           "client": client}
        finally:
            router.shutdown()  # this thread's links


@pytest.mark.parametrize("sql", ALL_QUERIES)
def test_router_matches_single_node_bitwise(cluster, reference, sql):
    want = normalize(reference.query(sql))
    assert bits(normalize(row_oracle.query(reference, sql))) == bits(want)
    got = cluster["router"].execute(sql)
    assert bits([tuple(r) for r in got["rows"]]) == bits(want)


@pytest.mark.parametrize("sql", [
    FIXED_QUERIES[0], FIXED_QUERIES[6], FIXED_QUERIES[9],
])
def test_client_through_coordinator_matches_bitwise(cluster, reference,
                                                    sql):
    want = normalize(reference.query(sql))
    result = cluster["client"].query(sql)
    assert bits([tuple(r) for r in result.rows]) == bits(want)


def test_merged_metrics_are_sane(cluster, reference):
    sql = "SELECT SUM(v), COUNT(*) FROM t"
    _, ref_metrics = reference.query(sql)
    result = cluster["client"].query(sql)
    metrics = result.metrics
    assert metrics["engine"] == "sharded"
    assert metrics["workers"] == cluster["shards"]
    # The shards together scan exactly the rows one node scans.
    assert metrics["rows"] == ref_metrics.rows
    assert metrics["io_bytes"] > 0
    assert metrics["physical_reads"] > 0
    assert metrics["sim_exec_seconds"] > 0.0
    assert result.elapsed_seconds >= 0.0


def test_shard_count_surfaces_in_stats(cluster):
    client = cluster["client"]
    assert client.shard_count() == cluster["shards"]
    stats = client.stats()
    assert len(stats["shards"]["addresses"]) == cluster["shards"]


def test_point_delete_routes_and_deletes(cluster, reference):
    router = cluster["router"]
    out = router.execute("DELETE FROM t WHERE id = 1500")
    assert out["rowcount"] == 1
    got = router.execute("SELECT COUNT(*) FROM t")
    assert got["rows"][0][0] == ROWS - 1
    # Put the row back so later parametrizations see the full table.
    row = next(r for r in make_rows() if r[0] == 1500)
    assert router.insert_rows("t", [row]) == 1
    got = router.execute("SELECT COUNT(*) FROM t")
    assert got["rows"][0][0] == ROWS


def test_range_delete_deletes_the_single_node_rows(cluster,
                                                   monkeypatch):
    """A key-range DELETE reaches only the shards its interval
    overlaps and deletes exactly the rows a single node deletes."""
    router = cluster["router"]
    sql = "DELETE FROM t WHERE id >= 700 AND id < 1600 AND v > 0.0"
    targets = []
    scatter_write = router._scatter_write

    def spy(requests):
        targets.append([shard_id for shard_id, _h, _b in requests])
        return scatter_write(requests)

    monkeypatch.setattr(router, "_scatter_write", spy)
    single = make_reference(make_rows())
    want = single.execute(sql)
    assert want > 0
    assert router.execute(sql)["rowcount"] == want
    assert targets == [router.partitioner.shards_for_range(700, 1600)]
    for query in (FIXED_QUERIES[0], FIXED_QUERIES[6]):
        got = router.execute(query)
        assert bits([tuple(r) for r in got["rows"]]) == \
            bits(normalize(single.query(query)))
    # Put the rows back so later parametrizations see the full table.
    deleted = [r for r in make_rows() if 700 <= r[0] < 1600
               and r[1] is not None and r[1] > 0.0]
    assert router.insert_rows("t", deleted) == want
    got = router.execute("SELECT COUNT(*) FROM t")
    assert got["rows"][0][0] == ROWS


def test_fractional_key_touches_no_row_on_any_shard(cluster):
    router = cluster["router"]
    for const in ("1.5", "1e999"):
        got = router.execute(
            f"SELECT COUNT(*), SUM(v) FROM t WHERE id = {const}")
        assert [tuple(r) for r in got["rows"]] == [(0, None)], const
        out = router.execute(f"DELETE FROM t WHERE id = {const}")
        assert out["rowcount"] == 0, const
    got = router.execute("SELECT COUNT(*) FROM t")
    assert got["rows"][0][0] == ROWS


def test_sql_insert_through_router(cluster):
    router = cluster["router"]
    out = router.execute(
        "INSERT INTO t VALUES (900001, 1.25, 3), (900002, -2.5, 4)")
    assert out["rowcount"] == 2
    got = router.execute(
        "SELECT COUNT(*), SUM(v) FROM t WHERE id >= 900001")
    assert got["rows"][0][0] == 2
    assert got["rows"][0][1] == -1.25
    out = router.execute("DELETE FROM t WHERE id = 900001")
    assert out["rowcount"] == 1
    out = router.execute("DELETE FROM t WHERE id = 900002")
    assert out["rowcount"] == 1


def test_a_bad_row_answers_sql_error_through_the_coordinator(cluster):
    """What a shard refuses — a key already there, a cell that does
    not fit its column — is the statement's fault at the coordinator
    too, not ``INTERNAL``, and the connection stays usable."""
    client = cluster["client"]
    for sql, said in [
            ("INSERT INTO t VALUES (5, 1.0, 1)", "key 5 already exists"),
            ("INSERT INTO t VALUES (900010, 1.0, 2.5)", "column g: "),
            ("INSERT INTO t VALUES (900011, 'x', 1)", "column v: "),
            ("INSERT INTO t VALUES (1.5, 1.0, 1)", "integer primary key")]:
        with pytest.raises(ServerError) as err:
            client.query(sql)
        assert err.value.code == protocol.SQL_ERROR, sql
        assert said in str(err.value), sql
    assert client.query("SELECT COUNT(*) FROM t").scalar() == ROWS


def test_float_group_keys_and_nan_totals_bit_for_bit(cluster):
    """Both NaN signs inside every group of ``a`` and a ``0.0`` /
    ``-0.0`` group whose rows meet on every shard: row = vector =
    cluster, down to the sign of the NaN total and to which
    zero names the group (the first in key order, here ``-0.0``)."""
    nans = struct.unpack("<2d", struct.pack(
        "<2Q", 0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_0000))
    rows = [(i * 7, float(i % 3) if i % 3 else (-0.0, 0.0)[i // 3 % 2],
             float(i % 4), nans[(i + i // 40) % 2], i * 0.5)
            for i in range(420)]
    router = cluster["router"]
    router.execute("CREATE TABLE z (id BIGINT PRIMARY KEY, k FLOAT, "
                   "a FLOAT, x FLOAT, y FLOAT)")
    assert router.insert_rows("z", rows) == len(rows)
    db = Database()
    db.create_table("z", [Column("id", "bigint"), Column("k", "float"),
                          Column("a", "float"), Column("x", "float"),
                          Column("y", "float")]).insert_many(rows)
    reference = SqlSession(db)
    for sql in ["SELECT k, SUM(y), COUNT(*) FROM z GROUP BY k",
                "SELECT a, SUM(x), AVG(x), MIN(x), MAX(x) FROM z GROUP BY a",
                "SELECT SUM(x), AVG(x) FROM z"]:
        got = bits([tuple(r) for r in router.execute(sql)["rows"]])
        for query in (row_oracle.query, SqlSession.query):
            want = normalize(query(reference, sql))
            assert got == bits(want), (sql, query)
    zero_group = router.execute(
        "SELECT k, COUNT(*) FROM z GROUP BY k")["rows"][0]
    assert bits([tuple(zero_group)]) == bits([(-0.0, 140)])


#: Integers whose nearest float64 lies exactly halfway between two
#: float32 neighbours: ``float(n)`` then float32 (the callable) rounds
#: to even, an int64 cast straight to float32 rounds up.
DOUBLE_ROUNDED = [2 ** 60 + i * 2 ** 38 + 2 ** 36 + 1 for i in range(12)]


def test_binary_cells_and_vector_rounding_bit_for_bit(cluster):
    """Non-empty all-zero cells are true as a predicate, and
    ``RealArray.Vector_1`` of a bigint rounds through float64 — on the
    row oracle, the engine (its batch kernels, in a ``SELECT`` and in an
    ``INSERT … VALUES`` run long enough for one) and the cluster
    alike."""
    from repro.engine.values import _KERNEL_ROWS
    from repro.tsql import RealArray

    rows = [(i, n, bytes(16)) for i, n in enumerate(DOUBLE_ROUNDED)]
    router = cluster["router"]
    router.execute("CREATE TABLE zc (id BIGINT PRIMARY KEY, n BIGINT, "
                   "z VARBINARY(16))")
    assert router.insert_rows("zc", rows) == len(rows)
    db = Database()
    db.create_table("zc", [Column("id", "bigint"), Column("n", "bigint"),
                           Column("z", "varbinary", cap=16)]
                    ).insert_many(rows)
    reference = SqlSession(db)
    assert len(DOUBLE_ROUNDED) >= _KERNEL_ROWS
    insert = ("INSERT INTO w VALUES " + ", ".join(
        f"({i}, RealArray.Vector_1({n}))"
        for i, n in enumerate(DOUBLE_ROUNDED)))
    for run in (router.execute, reference.execute):
        run("CREATE TABLE w (id BIGINT PRIMARY KEY, v VARBINARY(32))")
        run(insert)
    cells = [RealArray.Vector_1(n) for n in DOUBLE_ROUNDED]
    expected = {
        "SELECT COUNT(*) FROM zc WHERE z": [(len(rows),)],
        "SELECT COUNT(*) FROM zc WHERE NOT z": [(0,)],
        "SELECT COUNT(*) FROM zc WHERE z AND id > 3": [(len(rows) - 4,)],
        "SELECT id, MAX(RealArray.Vector_1(n)) FROM zc GROUP BY id":
            list(enumerate(cells)),
        "SELECT MAX(RealArray.Vector_1(n)) FROM zc": [(max(cells),)],
        "SELECT id, MAX(v) FROM w GROUP BY id": list(enumerate(cells)),
    }
    for sql, want in expected.items():
        got = [tuple(r) for r in router.execute(sql)["rows"]]
        assert got == want, sql
        for query in (row_oracle.query, SqlSession.query):
            assert normalize(query(reference, sql)) == want, (sql, query)
    for name in ("zc", "w"):
        router.execute(f"DROP TABLE {name}")
