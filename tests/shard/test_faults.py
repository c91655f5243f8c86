"""A dead shard is a typed error, never a hang.

One shard is SIGKILLed mid-workload; statements that need it must
fail with ``SHARD_UNAVAILABLE`` within the bounded retry budget, the
client's coordinator connection must survive, and statements routed
entirely to live shards must keep working.
"""

import time

import pytest

from repro.server import RetryPolicy, ShardUnavailableError, protocol
from repro.server.server import ServerConfig, ServerThread
from repro.shard import (ShardClient, ShardConfig, ShardFleet,
                         ShardRouter, ShardServer)

from .conftest import KEY_HI, ROWS, make_rows, setup_udfs

CREATE = "CREATE TABLE t (id BIGINT PRIMARY KEY, v FLOAT, g INT)"


@pytest.fixture(scope="module")
def wounded():
    """A 2-shard cluster whose second shard gets killed mid-module.

    ``kill_shard`` takes down the *whole* replica set, so these tests
    hold under ``REPRO_SHARD_REPLICAS`` too: replica failover can mask
    a single corpse, never a fully dead shard.
    """
    config = ShardConfig(shards=2, key_lo=0, key_hi=KEY_HI)
    with ShardFleet(config, session_setup=setup_udfs) as fleet:
        router = ShardRouter(
            fleet.addresses, config.make_partitioner(),
            retry=RetryPolicy(max_retries=1, backoff_base=0.01,
                              backoff_cap=0.05),
            connect_timeout=2.0, request_timeout=5.0,
            session_setup=setup_udfs)
        try:
            router.execute(CREATE)
            assert router.insert_rows("t", make_rows()) == ROWS
            coordinator = ShardServer(router, ServerConfig(name="coord"))
            with ServerThread(server=coordinator) as handle:
                with ShardClient("127.0.0.1", handle.port) as client:
                    # Sanity before the injection: the cluster answers.
                    assert client.query(
                        "SELECT COUNT(*) FROM t").rows[0][0] == ROWS
                    fleet.kill_shard(1)
                    yield {"fleet": fleet, "client": client,
                           "router": router}
        finally:
            router.shutdown()  # this thread's links


def test_scan_needing_dead_shard_fails_typed_and_bounded(wounded):
    t0 = time.monotonic()
    with pytest.raises(ShardUnavailableError) as excinfo:
        wounded["client"].query("SELECT SUM(v), COUNT(*) FROM t")
    elapsed = time.monotonic() - t0
    assert elapsed < 20.0, "shard failure must not stall the client"
    assert "shard 1" in str(excinfo.value)


def test_connection_survives_the_failure(wounded):
    client = wounded["client"]
    with pytest.raises(ShardUnavailableError):
        client.query("SELECT COUNT(*) FROM t")
    client.ping()
    stats = client.stats()
    assert stats["shards"]["count"] == 2


def test_statements_on_live_shards_keep_working(wounded):
    client = wounded["client"]
    # Key 100 lives in shard 0's interval [0, 1500): a point statement
    # never touches the corpse.
    result = client.query("SELECT SUM(v), COUNT(*) FROM t WHERE id = 100")
    assert result.rows[0][1] == 1
    # So does a key-range statement entirely inside shard 0.
    result = client.query(
        "SELECT COUNT(*) FROM t WHERE id >= 0 AND id < 1000")
    assert result.rows[0][0] == 1000


def test_fleet_reports_the_corpse(wounded):
    alive = wounded["fleet"].alive()
    assert all(alive[0]), "shard 0's replicas must all be up"
    assert not any(alive[1]), "shard 1's replicas must all be dead"


def test_insert_into_dead_shard_fails_typed(wounded):
    # Called in-process (no coordinator server in between), the router
    # raises the server-side typed error carrying the same code the
    # wire would.
    with pytest.raises(protocol.WireError) as excinfo:
        wounded["router"].insert_rows("t", [(2900, 1.0, 0)])
    assert excinfo.value.code == protocol.SHARD_UNAVAILABLE
    # Nothing committed anywhere: the partial-progress report says so.
    assert excinfo.value.detail == {
        "applied": {}, "applied_shards": [], "failed_shards": [1],
        "partial_rowcount": 0}
    # The live shard still accepts keys it owns (-1 routes to the
    # first interval).
    assert wounded["router"].insert_rows("t", [(-1, 0.5, 0)]) == 1


def test_insert_frame_into_dead_shard_keeps_the_partial_report(wounded):
    """The same failure through the coordinator's binary ``insert``
    frame: routed (not applied to the catalog mirror), so the typed
    ``SHARD_UNAVAILABLE`` and its per-shard ``detail`` reach the wire
    client."""
    from repro.server.client import _parse_result

    client = wounded["client"]
    rows = [(-2, 0.5, 0), (2901, 1.0, 0)]      # shard 0, dead shard 1
    types, buffers = protocol.pack_rows(rows)
    with pytest.raises(ShardUnavailableError) as excinfo:
        _parse_result(*client._request_raw(
            {"type": "insert", "table": "t", "rows": types,
             "rowcount": len(rows)}, buffers))
    assert excinfo.value.detail == {
        "applied": {"0": 1}, "applied_shards": [0],
        "failed_shards": [1], "partial_rowcount": 1}
    client.ping()
