"""Sharded data plane: coordinator plan cache, pipelined statements
through the coordinator, binary ``insert`` frames routed to the owning
shards, and bquery streams relayed chunk-at-a-time from the owning
shard without re-buffering the slice."""

import numpy as np
import pytest

from repro.core import SqlArray
from repro.server import ArrayClient, ServerError, protocol
from repro.server.client import _parse_result
from repro.server.server import ServerConfig, ServerThread
from repro.shard import ShardConfig, ShardFleet, ShardRouter, ShardServer

KEY_HI = 100
ARR_SHAPE = (30, 20)
BLOB_IDS = (5, 60)

CREATE = "CREATE TABLE tb (id BIGINT PRIMARY KEY, m VARBINARY(MAX))"


def make_blob_array(blob_id: int) -> np.ndarray:
    rng = np.random.default_rng(300 + blob_id)
    return rng.random(ARR_SHAPE)


@pytest.fixture(scope="module")
def cluster():
    config = ShardConfig(shards=2, key_lo=0, key_hi=KEY_HI)
    with ShardFleet(config) as fleet:
        router = ShardRouter(fleet.addresses,
                             config.make_partitioner())
        try:
            router.execute(CREATE)
            rows = [(i, SqlArray.from_numpy(make_blob_array(i)).to_blob())
                    for i in BLOB_IDS]
            assert router.insert_rows("tb", rows) == len(rows)
            coordinator = ShardServer(router, ServerConfig(
                name="coord-dataplane"))
            with ServerThread(server=coordinator) as handle:
                yield {"router": router, "port": handle.port}
        finally:
            router.shutdown()  # this thread's links


@pytest.fixture
def client(cluster):
    with ArrayClient("127.0.0.1", cluster["port"]) as c:
        yield c


def blob_sql(blob_id: int) -> str:
    return f"SELECT MAX(m) FROM tb WHERE id = {blob_id}"


class TestCoordinatorPlanCache:
    def test_prepare_through_coordinator(self, client):
        info = client.prepare(blob_sql(60))
        assert info == {"kind": "point", "table": "tb"}

    def test_plan_cache_hits_and_ddl_invalidation(self, cluster,
                                                  client):
        router = cluster["router"]
        client.prepare(blob_sql(5))
        assert blob_sql(5) in router._plan_cache
        plan = router._plan_cache[blob_sql(5)]
        # Re-preparing returns the cached object, not a re-plan.
        assert router.prepare(blob_sql(5)) is plan
        # DDL clears the cache (new tables can shadow plans).
        router.execute("CREATE TABLE tddl "
                       "(id BIGINT PRIMARY KEY, x FLOAT)")
        assert router._plan_cache == {}

    def test_data_writes_leave_plans_cached(self, cluster, client):
        router = cluster["router"]
        router.prepare("SELECT COUNT(*) FROM tb")
        router.execute("INSERT INTO tb VALUES (7, NULL)")
        try:
            assert "SELECT COUNT(*) FROM tb" in router._plan_cache
        finally:
            router.execute("DELETE FROM tb WHERE id = 7")


def send_insert(client, table, rows):
    """One binary ``insert`` frame through ``client``'s connection."""
    types, buffers = protocol.pack_rows(rows)
    return _parse_result(*client._request_raw(
        {"type": "insert", "table": table, "rows": types,
         "rowcount": len(rows)}, buffers))


class TestCoordinatorInsertFrame:
    def test_insert_frame_is_routed_not_kept_in_the_mirror(self, cluster,
                                                           client):
        """Regression: ``ShardServer`` had no ``_execute_insert_sync``
        of its own, so a binary ``insert`` frame sent to the
        coordinator landed in its schema-only catalog mirror — an ok
        reply, and rows no SELECT would ever see."""
        router = cluster["router"]
        rows = [(11, b"low"), (77, b"high")]      # one per shard
        assert {router.partitioner.shard_of(k) for k, _ in rows} == {0, 1}
        try:
            result = send_insert(client, "tb", rows)
            assert (result.kind, result.rowcount) == ("ok", 2)
            got = client.query(
                "SELECT id, MAX(m) FROM tb WHERE id = 11 GROUP BY id")
            assert got.rows == [(11, b"low")]
            assert client.query(
                "SELECT COUNT(*) FROM tb").scalar() == len(BLOB_IDS) + 2
            (mirrored,), _ = router.session.query(
                "SELECT COUNT(*) FROM tb")
            assert mirrored == 0
        finally:
            for key, _ in rows:
                router.execute(f"DELETE FROM tb WHERE id = {key}")

    def test_insert_frame_errors_stay_typed(self, client):
        with pytest.raises(ServerError) as err:
            send_insert(client, "nowhere", [(1, b"x")])
        assert err.value.code == protocol.SQL_ERROR
        with pytest.raises(ServerError) as err:
            send_insert(client, "tb", [("not a key", b"x")])
        assert err.value.code == protocol.SQL_ERROR
        client.ping()


class TestShardPipeline:
    def test_pipeline_through_coordinator(self, client):
        results = client.query_pipeline(
            ["SELECT COUNT(*) FROM tb"] * 3)
        assert [r.scalar() for r in results] == [len(BLOB_IDS)] * 3

    def test_pipeline_error_slot(self, client):
        results = client.query_pipeline(
            ["SELECT COUNT(*) FROM tb",
             "SELECT FROM nowhere",
             "SELECT COUNT(*) FROM tb"],
            return_exceptions=True)
        assert results[0].scalar() == len(BLOB_IDS)
        assert isinstance(results[1], ServerError)
        assert results[2].scalar() == len(BLOB_IDS)

    def test_pipeline_counts_in_stats(self, client):
        before = client.stats()["pipeline"]
        client.query_pipeline(["SELECT COUNT(*) FROM tb"] * 4)
        after = client.stats()["pipeline"]
        assert after["statements"] >= before["statements"] + 4


class TestShardBquery:
    def test_relayed_slice_bit_identical(self, client):
        full = client.query(blob_sql(60)).scalar()
        result = client.query_blob(blob_sql(60), offset=64,
                                   length=512, chunk_bytes=128)
        assert result.data == bytes(full)[64:576]
        assert result.chunks == 4
        assert result.blob_len == len(full)

    def test_relayed_full_read(self, client):
        full = client.query(blob_sql(5)).scalar()
        result = client.query_blob(blob_sql(5))
        assert result.data == bytes(full)

    def test_relayed_window(self, client):
        arr = make_blob_array(5)
        got = client.query_array(blob_sql(5), slice=((2, 3), (4, 5)))
        np.testing.assert_array_equal(got, arr[2:6, 3:8])

    def test_scatter_bquery_rejected(self, client):
        """bquery needs exactly one owning shard: a non-point SELECT
        has no single owner and must fail cleanly."""
        with pytest.raises(ServerError) as err:
            client.query_blob("SELECT MAX(m) FROM tb", length=4)
        assert err.value.code == protocol.BAD_FRAME
        # Coordinator connection survives the rejection.
        assert client.query("SELECT COUNT(*) FROM tb").scalar() == \
            len(BLOB_IDS)

    def test_out_of_range_slice_relays_shard_error(self, client):
        blob_len = len(bytes(client.query(blob_sql(5)).scalar()))
        with pytest.raises(ServerError) as err:
            client.query_blob(blob_sql(5), offset=blob_len + 1)
        assert err.value.code == protocol.BAD_FRAME

    def test_bquery_counts_in_coordinator_stats(self, client):
        before = client.stats()["bquery"]
        client.query_blob(blob_sql(60), offset=0, length=256)
        after = client.stats()["bquery"]
        assert after["streams"] == before["streams"] + 1
        assert after["payload_bytes"] >= before["payload_bytes"] + 256


class TestLateMaterialisationBehindTheCoordinator:
    """A point SELECT of a ``VARBINARY(MAX)`` cell hands the shard's
    hooks a handle; through the coordinator every frame kind still
    answers bytes — out-of-page, in-row, NULL and missing alike — and
    a relayed window is charged only the pages it touches."""

    EDGE = 24
    #: One out-of-page cube per shard, an in-row cell (5), a NULL.
    KEYS = {20: "cube", 80: "cube", 5: "row", 30: None, 31: "missing"}

    @pytest.fixture(scope="class")
    def cubes(self, cluster):
        router = cluster["router"]
        cubes = {key: np.random.default_rng(key).standard_normal(
            (self.EDGE,) * 3) for key in (20, 80)}
        rows = [(key, SqlArray.from_numpy(cube).to_blob())
                for key, cube in cubes.items()] + [(30, None)]
        assert router.insert_rows("tb", rows) == 3
        assert {router.partitioner.shard_of(k) for k in cubes} == {0, 1}
        yield cubes
        for key, _blob in rows:
            router.execute(f"DELETE FROM tb WHERE id = {key}")

    def expected(self, cubes, key):
        kind = self.KEYS[key]
        if kind == "cube":
            return SqlArray.from_numpy(cubes[key]).to_blob()
        if kind == "row":
            return SqlArray.from_numpy(make_blob_array(key)).to_blob()
        return None

    @pytest.mark.parametrize("key", sorted(KEYS))
    def test_every_frame_kind_answers_bytes(self, client, cubes, key):
        want = self.expected(cubes, key)
        found = int(self.KEYS[key] != "missing")
        for select, expect in [("MAX(m)", (want,)), ("MIN(m)", (want,)),
                               ("MAX(m), COUNT(*)", (want, found))]:
            sql = f"SELECT {select} FROM tb WHERE id = {key}"
            assert client.query(sql).rows == [expect]
            assert client.query_pipeline([sql])[0].rows == [expect]
        if want is not None:
            assert client.query_blob(blob_sql(key)).data == want

    @pytest.mark.parametrize("key", [20, 80])
    def test_a_relayed_window_reads_its_own_pages(self, client, cubes,
                                                  key):
        whole = client.query(blob_sql(key), cold=True)
        got = client._read_bquery(
            {"type": "bquery", "sql": blob_sql(key), "cold": True,
             "window": {"offset": [3, 4, 5], "size": [8, 8, 8]}})
        np.testing.assert_array_equal(
            SqlArray.from_blob(got.data).to_numpy(),
            cubes[key][3:11, 4:12, 5:13])
        # 14 chunk pages in all; the window's runs lie in 7 of them.
        assert 0 < got.metrics["physical_reads"] \
            < whole.metrics["physical_reads"] - 5
        assert got.metrics["stream_calls"] == 2
