"""Replica shards: a dead replica is invisible to clients.

Every test here SIGKILLs a replica (never a whole shard) somewhere in
a live workload and then demands two things at once: the statements
all complete with answers bit-identical to a single-node oracle, and
the router's ``failovers`` counter proves a sibling actually served —
i.e. the failure happened and nobody outside the coordinator saw it.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import SqlArray
from repro.server import ArrayClient, RetryPolicy
from repro.server.server import ServerConfig, ServerThread
from repro.shard import (ShardClient, ShardConfig, ShardFleet,
                         ShardRouter, ShardServer)
from repro.shard.router import LIVE, STALE, SUSPECT

from .conftest import (KEY_HI, ROWS, bits, make_reference, make_rows,
                       normalize, setup_udfs)
from .test_parity import FIXED_QUERIES

CREATE = "CREATE TABLE t (id BIGINT PRIMARY KEY, v FLOAT, g INT)"

FAST_RETRY = dict(retry=RetryPolicy(max_retries=1, backoff_base=0.01,
                                    backoff_cap=0.05),
                  connect_timeout=2.0, request_timeout=10.0)


def build_cluster(shards, replicas, reprobe_interval=0.05):
    """Fleet + router, loaded with the parity data set."""
    config = ShardConfig(shards=shards, replicas=replicas,
                         key_lo=0, key_hi=KEY_HI)
    fleet = ShardFleet(config, session_setup=setup_udfs).start()
    router = ShardRouter(fleet.addresses, config.make_partitioner(),
                         session_setup=setup_udfs,
                         reprobe_interval=reprobe_interval,
                         **FAST_RETRY)
    router.execute(CREATE)
    assert router.insert_rows("t", make_rows()) == ROWS
    return fleet, router


@pytest.fixture(scope="module")
def reference():
    return make_reference(make_rows())


# -- parity: replicated clusters still match single-node bitwise ----------

@pytest.fixture(scope="module", params=[1, 2, 4],
                ids=lambda n: f"shards{n}")
def replicated(request):
    fleet, router = build_cluster(request.param, replicas=2)
    try:
        coordinator = ShardServer(router, ServerConfig(
            name=f"coord-r2-{request.param}"))
        with ServerThread(server=coordinator) as handle:
            with ShardClient("127.0.0.1", handle.port) as client:
                yield {"shards": request.param, "router": router,
                       "fleet": fleet, "client": client}
    finally:
        router.shutdown()
        fleet.stop()


@pytest.mark.parametrize("sql", FIXED_QUERIES)
def test_replicated_cluster_matches_single_node_bitwise(replicated,
                                                        reference, sql):
    want = normalize(reference.query(sql))
    got = replicated["router"].execute(sql)
    assert bits([tuple(r) for r in got["rows"]]) == bits(want)


def test_replica_topology_surfaces_in_stats(replicated):
    stats = replicated["client"].stats()
    shards = stats["shards"]
    assert shards["count"] == replicated["shards"]
    assert len(shards["addresses"]) == replicated["shards"]
    for replica_set in shards["addresses"]:
        assert len(replica_set) == 2
    assert replicated["client"].replica_counts() == \
        [2] * replicated["shards"]
    assert shards["suspects"] == 0
    assert shards["stale"] == 0


def test_reads_rotate_across_replicas(replicated):
    """Round-robin: consecutive reads of the same shard pick
    different replicas (observed through the rotation cursor)."""
    router = replicated["router"]
    first = router._read_candidates(0)[0]
    second = router._read_candidates(0)[0]
    assert first is not second


# -- the kill matrix ------------------------------------------------------

@pytest.fixture
def duo():
    """A fresh 2-shard x 2-replica cluster per test (these tests
    leave corpses behind)."""
    fleet, router = build_cluster(2, replicas=2)
    try:
        yield {"fleet": fleet, "router": router}
    finally:
        router.shutdown()
        fleet.stop()


def test_kill_mid_scatter_statement_completes_on_sibling(duo,
                                                         reference):
    """SIGKILL a replica with warm links, then run the whole query
    corpus: every scatter that lands on the corpse must replay on the
    sibling and still match the oracle bitwise."""
    router = duo["router"]
    for sql in FIXED_QUERIES[:2]:  # warm the links to every replica
        router.execute(sql)
    duo["fleet"].kill(0, replica=0)
    for sql in FIXED_QUERIES:
        want = normalize(reference.query(sql))
        got = router.execute(sql)
        assert bits([tuple(r) for r in got["rows"]]) == bits(want)
    health = router.health()
    assert health["failovers"] >= 1
    assert health["suspects"] >= 1


def test_kill_a_replica_mid_workload_is_client_invisible(duo,
                                                         reference):
    """The acceptance drill: a replica dies *during* a client
    workload; the client sees zero errors, every answer stays
    bit-identical, and the failover counter proves the faulted reads
    were actually replayed."""
    router = duo["router"]
    oracle = {sql: bits(normalize(reference.query(sql)))
              for sql in FIXED_QUERIES}
    coordinator = ShardServer(router, ServerConfig(name="coord-drill"))
    with ServerThread(server=coordinator) as handle:
        with ShardClient("127.0.0.1", handle.port) as client:
            killer = threading.Timer(
                0.05, lambda: duo["fleet"].kill(1, replica=1))
            killer.start()
            try:
                deadline = time.monotonic() + 30.0
                while client.failovers() < 1:
                    for sql in FIXED_QUERIES:
                        result = client.query(sql)  # must never raise
                        got = bits([tuple(r) for r in result.rows])
                        assert got == oracle[sql]
                    assert time.monotonic() < deadline, \
                        "killed replica never triggered a failover"
            finally:
                killer.cancel()
            assert client.stats()["shards"]["failovers"] >= 1


def test_kill_mid_pexec_batch_completes_on_sibling(duo, reference):
    """Pipelined prepared statements keep completing when a replica
    dies between (or under) batched executions."""
    router = duo["router"]
    point = [f"SELECT SUM(v), COUNT(*) FROM t WHERE id = {k}"
             for k in (10, 700, 1600, 2100, 2900)] * 4
    oracle = [bits(normalize(reference.query(sql))) for sql in point]
    coordinator = ShardServer(router, ServerConfig(name="coord-pexec"))
    with ServerThread(server=coordinator) as handle:
        with ShardClient("127.0.0.1", handle.port) as client:
            client.query_pipeline(point[:4])  # warm replica links
            duo["fleet"].kill(0, replica=1)
            results = client.query_pipeline(point)
            got = [bits([tuple(r) for r in result.rows])
                   for result in results]
            assert got == oracle
    assert router.health()["failovers"] >= 1


def test_kill_mid_bquery_stream_resumes_chunk_exact(reference):
    """A replica dying inside a ``bquery`` chunk stream must be
    replaced mid-stream: the sibling replays the request, the chunks
    the client already holds are skipped, and the assembled bytes are
    identical to the blob."""
    config = ShardConfig(shards=2, replicas=2, key_lo=0, key_hi=100)
    blob = np.random.default_rng(7).random((400, 400))  # ~1.2 MiB
    with ShardFleet(config) as fleet:
        router = ShardRouter(fleet.addresses,
                             config.make_partitioner(),
                             **FAST_RETRY)
        try:
            router.execute("CREATE TABLE tb (id BIGINT PRIMARY KEY, "
                           "m VARBINARY(MAX))")
            payload = SqlArray.from_numpy(blob).to_blob()
            assert router.insert_rows("tb", [(5, payload)]) == 1
            want = bytes(payload)
            coordinator = ShardServer(router, ServerConfig(
                name="coord-bq"))
            with ServerThread(server=coordinator) as handle:
                with ArrayClient("127.0.0.1", handle.port) as client:
                    sql = "SELECT MAX(m) FROM tb WHERE id = 5"
                    killer = threading.Timer(
                        0.02, lambda: fleet.kill(0, replica=0))
                    killer.start()
                    try:
                        deadline = time.monotonic() + 30.0
                        while router.health()["failovers"] < 1:
                            got = client.query_blob(sql,
                                                    chunk_bytes=4096)
                            assert got.data == want
                            assert time.monotonic() < deadline, \
                                "bquery streams never hit the corpse"
                    finally:
                        killer.cancel()
        finally:
            router.shutdown()


# -- consistency of the rotation ------------------------------------------

def test_reprobe_returns_recovered_replica_to_rotation(duo):
    """A suspect replica that answers a ping goes back to live (the
    process here never actually died, so the probe succeeds at once)."""
    router = duo["router"]
    replica = router.replica_sets[0][0]
    router._mark_suspect(replica)
    assert replica.state == SUSPECT
    deadline = time.monotonic() + 10.0
    while replica.state != LIVE:
        assert time.monotonic() < deadline, \
            "reprobe never revived a healthy suspect"
        time.sleep(0.02)
    assert router.health()["reprobed"] >= 1


def test_write_failure_marks_replica_stale_forever(duo):
    """A replica that misses a write a sibling committed is stale:
    out of the read rotation permanently, never revived by reprobe —
    serving reads from it would silently drop the write."""
    router = duo["router"]
    duo["fleet"].kill(0, replica=1)
    # The write succeeds (replica 0 acks) and the corpse goes stale.
    out = router.execute("DELETE FROM t WHERE id = 50")
    assert out["rowcount"] == 1
    replica = router.replica_sets[0][1]
    assert replica.state == STALE
    # Reads keep working off the surviving replica...
    got = router.execute("SELECT COUNT(*) FROM t WHERE id = 50")
    assert got["rows"][0][0] == 0
    # ...and several reprobe periods later the corpse is still out.
    time.sleep(max(0.2, router.reprobe_interval * 3))
    assert replica.state == STALE
    assert replica not in router._read_candidates(0)


def test_whole_replica_set_dead_is_typed_unavailable(duo):
    from repro.server import protocol
    router = duo["router"]
    duo["fleet"].kill_shard(1)
    with pytest.raises(protocol.WireError) as excinfo:
        router.execute("SELECT COUNT(*) FROM t")
    assert excinfo.value.code == protocol.SHARD_UNAVAILABLE
    # The other shard still answers point reads it owns.
    got = router.execute("SELECT COUNT(*) FROM t WHERE id = 3")
    assert got["rows"][0][0] == 1


# -- the coordinator routes and merges: no pages, no re-planning ------------

def test_the_coordinator_reads_no_page(duo):
    """Scatter, relay and failover statements through a coordinator
    leave its catalog mirror's buffer pool untouched: pages belong to
    the shard processes."""
    router = duo["router"]
    router.execute("CREATE TABLE tb (id BIGINT PRIMARY KEY, "
                   "m VARBINARY(MAX))")
    payload = SqlArray.from_numpy(
        np.random.default_rng(3).random((60, 60))).to_blob()
    assert router.insert_rows("tb", [(5, payload)]) == 1
    blob_sql = "SELECT MAX(m) FROM tb WHERE id = 5"
    coordinator = ShardServer(router, ServerConfig(name="coord-pages"))
    with ServerThread(server=coordinator) as handle:
        with ArrayClient("127.0.0.1", handle.port) as client:
            for sql in FIXED_QUERIES:  # scatter, warming every link
                client.query(sql)
            assert client.query_blob(blob_sql).data == bytes(payload)
            duo["fleet"].kill(0, replica=0)
            duo["fleet"].kill(1, replica=0)
            for _ in range(2):  # both replicas' turns: a failover
                for sql in FIXED_QUERIES:
                    client.query(sql)
                assert client.query_blob(blob_sql).data == bytes(payload)
    assert router.health()["failovers"] >= 1
    counters = router.catalog.pool.snapshot_counters()
    assert (counters.logical_reads, counters.physical_reads) == (0, 0)
    assert router.catalog.pool.cached_pages == 0


def test_failover_replays_the_request_without_replanning(duo, reference,
                                                        monkeypatch):
    """A replica SIGKILLed under warm links fails the next statements
    over to its sibling; the replay ships the planned request again and
    calls the planner zero times."""
    router = duo["router"]
    failing_over = []
    replans = []

    def failover(name):
        original = getattr(router, name)

        def call(*args, **kwargs):
            failing_over.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                failing_over.pop()

        monkeypatch.setattr(router, name, call)

    def planner(owner, name):
        original = getattr(owner, name)

        def call(*args, **kwargs):
            if failing_over:
                replans.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)

    failover("_failover")
    planner(router, "prepare")
    planner(router.session, "plan_select")
    planner(router.session, "prepare")
    for sql in FIXED_QUERIES[:2]:  # warm the links to every replica
        router.execute(sql)
    duo["fleet"].kill(0, replica=0)
    for sql in FIXED_QUERIES:
        want = normalize(reference.query(sql))
        got = router.execute(sql)
        assert bits([tuple(r) for r in got["rows"]]) == bits(want)
    assert router.health()["failovers"] >= 1
    assert replans == []
