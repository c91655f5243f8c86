"""Unit tests for the shard layer's pure pieces: partitioners,
partial-state packing, routing decisions, and metric merging — no
processes spawned."""

import pytest

from repro.engine import Column, Database
from repro.engine.metrics import QueryMetrics
from repro.engine.sqlfront import SqlSession
from repro.server import protocol
from repro.shard import (HashPartitioner, RangePartitioner, ShardConfig,
                         ShardRouter)
from repro.shard.merge import merge_metrics


# -- partitioners -----------------------------------------------------------

class TestRangePartitioner:
    def test_even_split(self):
        p = RangePartitioner.for_keyspace(4, 0, 100)
        assert p.boundaries == [25, 50, 75]
        assert p.shards == 4

    def test_shard_of_boundaries(self):
        p = RangePartitioner([10, 20])
        assert [p.shard_of(k) for k in (0, 9, 10, 19, 20, 99)] == \
            [0, 0, 1, 1, 2, 2]

    def test_keys_outside_keyspace_still_route(self):
        p = RangePartitioner.for_keyspace(2, 0, 100)
        assert p.shard_of(-5) == 0
        assert p.shard_of(10**9) == 1

    def test_shards_for_range_prunes(self):
        p = RangePartitioner([10, 20])
        assert p.shards_for_range(0, 5) == [0]
        assert p.shards_for_range(5, 15) == [0, 1]
        assert p.shards_for_range(10, 25) == [1, 2]
        assert p.shards_for_range(None, 10) == [0]
        assert p.shards_for_range(20, None) == [2]
        assert p.shards_for_range(None, None) == [0, 1, 2]
        assert p.shards_for_range(7, 7) == []

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            RangePartitioner([10, 10])
        with pytest.raises(ValueError):
            RangePartitioner([20, 10])

    def test_empty_keyspace_rejected(self):
        with pytest.raises(ValueError):
            RangePartitioner.for_keyspace(2, 5, 5)


class TestHashPartitioner:
    def test_deterministic_and_in_range(self):
        p = HashPartitioner(4)
        placed = [p.shard_of(k) for k in range(1000)]
        assert placed == [p.shard_of(k) for k in range(1000)]
        assert set(placed) == {0, 1, 2, 3}

    def test_spread_is_roughly_even(self):
        p = HashPartitioner(4)
        counts = [0, 0, 0, 0]
        for k in range(4000):
            counts[p.shard_of(k)] += 1
        assert min(counts) > 700  # perfect would be 1000

    def test_only_point_ranges_prune(self):
        p = HashPartitioner(4)
        assert p.shards_for_range(7, 8) == [p.shard_of(7)]
        assert p.shards_for_range(7, 9) == [0, 1, 2, 3]
        assert p.shards_for_range(None, 9) == [0, 1, 2, 3]
        assert p.shards_for_range(9, 9) == []


def test_config_builds_partitioners():
    assert ShardConfig(shards=3).make_partitioner().shards == 3
    assert ShardConfig(shards=3, partitioning="hash") \
        .make_partitioner().kind == "hash"
    with pytest.raises(ValueError):
        ShardConfig(partitioning="modulo").make_partitioner()


# -- partial-state packing --------------------------------------------------

class TestPartialPacking:
    def roundtrip(self, partial):
        blobs = []
        packed = protocol.pack_partial(partial, blobs)
        import json
        packed = json.loads(json.dumps(packed))
        return protocol.unpack_partial(packed, blobs)

    def test_int_partial_inline(self):
        assert self.roundtrip(42) == 42

    def test_float_list_via_blob(self):
        values = [1.5, -0.25, 3.0e300, 5e-324]
        got = self.roundtrip(values)
        assert got == values
        assert all(isinstance(v, float) for v in got)

    def test_int_list_via_blob(self):
        assert self.roundtrip([1, -2, 2**40]) == [1, -2, 2**40]

    def test_huge_int_falls_back(self):
        values = [2**100, 1]
        assert self.roundtrip(values) == values

    def test_mixed_list(self):
        values = [1.5, None, 7, b"\x01\x02"]
        assert self.roundtrip(values) == values

    def test_empty_list(self):
        assert self.roundtrip([]) == []

    def test_bool_partial_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.pack_partial(True, [])


# -- routing ----------------------------------------------------------------

def make_router(shards=3, key_hi=300):
    config = ShardConfig(shards=shards, key_lo=0, key_hi=key_hi)
    addresses = [("127.0.0.1", 1 + i) for i in range(shards)]
    router = ShardRouter(addresses, config.make_partitioner())
    router.session.execute(
        "CREATE TABLE t (id BIGINT PRIMARY KEY, v FLOAT, g INT)")
    return router


class TestRouting:
    def test_point_plan_routes_to_owner(self):
        router = make_router()
        plan = router.session.plan_select(
            "SELECT SUM(v) FROM t WHERE id = 150")
        assert plan.kind == "point"
        assert router._route(plan) == [1]

    def test_key_range_prunes(self):
        router = make_router()
        plan = router.session.plan_select(
            "SELECT SUM(v) FROM t WHERE id >= 10 AND id < 90")
        assert router._route(plan) == [0]
        plan = router.session.plan_select(
            "SELECT SUM(v) FROM t WHERE id >= 90 AND id < 210")
        assert router._route(plan) == [0, 1, 2]

    def test_a_negative_key_routes_to_one_shard(self):
        router = make_router(shards=2)
        plan = router.session.plan_select(
            "SELECT COUNT(*) FROM t WHERE id = -5")
        assert plan.kind == "point" and plan.key == -5
        assert router._route(plan) == [0]
        plan = router.session.plan_select(
            "SELECT COUNT(*) FROM t WHERE id >= -5 AND id < 3")
        assert router._route(plan) == [0]

    def test_scan_broadcasts(self):
        router = make_router()
        plan = router.session.plan_select("SELECT SUM(v) FROM t")
        assert router._route(plan) == [0, 1, 2]
        plan = router.session.plan_select(
            "SELECT SUM(v) FROM t WHERE v > 1.0")
        assert router._route(plan) == [0, 1, 2]

    def test_grouped_plan_broadcasts(self):
        router = make_router()
        plan = router.session.plan_select(
            "SELECT g, SUM(v) FROM t GROUP BY g")
        assert plan.kind == "grouped"
        assert router._route(plan) == [0, 1, 2]

    def test_point_delete_detected(self):
        """A DELETE is routed on the interval the planner reads off its
        WHERE clause: a point reaches one shard, a key range the shards
        it overlaps, any other predicate every shard, a key no integer
        equals none, and an unknown table none (the mirror refuses it)."""
        from unittest import mock
        from repro.engine.sqlfront import SqlSyntaxError
        router = make_router()  # range cuts at 100 and 200
        framed = []

        def scatter_write(requests):
            framed.append({shard_id for shard_id, _h, _b in requests})
            return {shard_id: ({"rowcount": 0}, [])
                    for shard_id, _h, _b in requests}, {}

        with mock.patch.object(router, "_scatter_write",
                               side_effect=scatter_write):
            for sql, shards in [
                    ("DELETE FROM t WHERE id = 42", {0}),
                    ("DELETE FROM t WHERE v = 42", {0, 1, 2}),
                    ("DELETE FROM t WHERE id = 4.5", set()),
                    ("DELETE FROM t WHERE id > 42", {0, 1, 2}),
                    ("DELETE FROM t WHERE id > 142", {1, 2}),
                    ("DELETE FROM t WHERE id >= 100 AND id < 200",
                     {1})]:
                framed.clear()
                assert router.execute(sql)["rowcount"] == 0
                assert framed == [shards], sql
            framed.clear()
            with pytest.raises(SqlSyntaxError):
                router.execute("DELETE FROM missing WHERE id = 1")
            assert framed == []

    def test_an_insert_is_read_once_by_the_values_reader(self):
        """The coordinator routes on the leading keyword: an INSERT is
        not tokenised to be told apart from a SELECT, nor a second time
        on its way to ``insert_rows``."""
        from unittest import mock
        router = make_router()
        tokenised = AssertionError("an INSERT went through _tokenize")
        with mock.patch.object(router, "insert_rows",
                               return_value=2) as insert_rows, \
                mock.patch("repro.engine.sqlfront._tokenize",
                           side_effect=tokenised), \
                mock.patch("repro.shard.router._tokenize",
                           side_effect=tokenised):
            result = router.execute(
                "  insert INTO t VALUES (1, 1.5, 2), (250, -2.5, NULL)")
        assert result["rowcount"] == 2
        insert_rows.assert_called_once_with(
            "t", [(1, 1.5, 2), (250, -2.5, None)])

    def test_unsupported_statements_keep_their_messages(self):
        from repro.engine.sqlfront import SqlSyntaxError
        router = make_router()
        for sql, message in [
                ("UPSERT INTO t VALUES (1)",
                 "unsupported statement starting with 'UPSERT'"),
                ("where x", "unsupported statement starting with 'WHERE'"),
                ("42", "unsupported statement starting with '42'"),
                ("", "unsupported statement starting with ''"),
                ("UPSERT $", "unexpected character '$' at offset 7"),
                ("SELECTED 1", "unsupported statement starting with "
                               "'SELECTED'")]:
            for execute in (router.execute, router.session.execute):
                with pytest.raises(SqlSyntaxError) as err:
                    execute(sql)
                assert str(err.value) == message

    def test_address_count_must_match_partitioner(self):
        config = ShardConfig(shards=3)
        with pytest.raises(ValueError):
            ShardRouter([("127.0.0.1", 1)], config.make_partitioner())

    def test_insert_rows_rejects_non_integer_keys(self):
        from repro.engine.sqlfront import SqlSyntaxError
        router = make_router()
        with pytest.raises(SqlSyntaxError):
            router.insert_rows("t", [("oops", 1.0, 0)])
        with pytest.raises(SqlSyntaxError):
            router.insert_rows("t", [(True, 1.0, 0)])


# -- replica bookkeeping (no processes) -------------------------------------

class TestReplicaSets:
    def test_flat_addresses_become_single_replica_sets(self):
        router = make_router()
        assert [len(s) for s in router.replica_sets] == [1, 1, 1]
        assert router.addresses == [[("127.0.0.1", 1 + i)]
                                    for i in range(3)]

    def test_nested_addresses_build_replica_sets(self):
        config = ShardConfig(shards=2, key_lo=0, key_hi=100)
        addresses = [[("127.0.0.1", 1), ("127.0.0.1", 2)],
                     [("127.0.0.1", 3), ("127.0.0.1", 4)]]
        router = ShardRouter(addresses, config.make_partitioner())
        assert [len(s) for s in router.replica_sets] == [2, 2]
        replica = router.replica_sets[1][0]
        assert (replica.shard_id, replica.replica_id,
                replica.port) == (1, 0, 3)
        assert router.health() == {
            "replicas": [2, 2], "failovers": 0, "suspects": 0,
            "stale": 0, "reprobed": 0}

    def test_empty_replica_set_rejected(self):
        config = ShardConfig(shards=1)
        with pytest.raises(ValueError):
            ShardRouter([[]], config.make_partitioner())

    def test_read_candidates_rotate_and_skip_stale(self):
        from repro.shard.router import STALE, SUSPECT
        config = ShardConfig(shards=1, key_lo=0, key_hi=100)
        addresses = [[("127.0.0.1", 1), ("127.0.0.1", 2),
                      ("127.0.0.1", 3)]]
        router = ShardRouter(addresses, config.make_partitioner())
        first = [router._read_candidates(0)[0].replica_id
                 for _ in range(6)]
        assert first == [0, 1, 2, 0, 1, 2]
        # Suspects drop to the back of the order; stale vanishes.
        router.replica_sets[0][0].state = SUSPECT
        router.replica_sets[0][2].state = STALE
        order = [r.replica_id for r in router._read_candidates(0)]
        assert order == [1, 0]

    def test_write_targets_skip_stale_keep_suspect(self):
        from repro.shard.router import STALE, SUSPECT
        config = ShardConfig(shards=1, key_lo=0, key_hi=100)
        addresses = [[("127.0.0.1", 1), ("127.0.0.1", 2),
                      ("127.0.0.1", 3)]]
        router = ShardRouter(addresses, config.make_partitioner())
        router.replica_sets[0][0].state = SUSPECT
        router.replica_sets[0][1].state = STALE
        targets = [r.replica_id for r in router._write_targets(0)]
        assert targets == [0, 2]

    def test_config_replicas_validated(self):
        with pytest.raises(ValueError):
            ShardConfig(shards=2, replicas=0)

    def test_replicas_from_env(self, monkeypatch):
        from repro.shard.config import replicas_from_env
        monkeypatch.setenv("REPRO_SHARD_REPLICAS", "3")
        assert replicas_from_env() == 3
        assert ShardConfig(shards=2).replicas == 3
        monkeypatch.setenv("REPRO_SHARD_REPLICAS", "zero")
        with pytest.raises(ValueError):
            replicas_from_env()


# -- metric merging ---------------------------------------------------------

def test_merge_metrics_sums_and_maxes():
    a = QueryMetrics(label="q", rows=10, io_bytes=100,
                     physical_reads=3, sequential_reads=2,
                     random_reads=1, udf_calls=5,
                     sim_io_seconds=0.5, sim_cpu_core_seconds=0.2,
                     sim_exec_seconds=0.7, wall_seconds=0.01,
                     engine="vector", cores=4)
    b = QueryMetrics(label="q", rows=20, io_bytes=50,
                     physical_reads=1, sequential_reads=1,
                     random_reads=0, udf_calls=2,
                     sim_io_seconds=0.1, sim_cpu_core_seconds=0.6,
                     sim_exec_seconds=0.9, wall_seconds=0.02,
                     engine="vector", cores=4)
    merged = merge_metrics([a.to_dict(), b.to_dict()], "q", shards=2)
    assert merged.rows == 30
    assert merged.io_bytes == 150
    assert merged.physical_reads == 4
    assert merged.udf_calls == 7
    assert merged.sim_io_seconds == pytest.approx(0.6)
    assert merged.sim_exec_seconds == 0.9   # max: shards overlap
    assert merged.wall_seconds == 0.02
    assert merged.engine == "sharded"
    assert merged.workers == 2


def test_catalog_mirror_never_holds_rows():
    router = make_router()
    table = router.session._resolve_table("t")
    assert table.row_count == 0
