"""Benchmark: scatter-gather aggregate throughput vs shard count.

Runs the Table 1-style array-UDF aggregate mix through a
:class:`ShardRouter` over clusters of 1, 2 and 4 shard processes,
reporting queries/sec and p95 latency per shard count and asserting
bit-identical values against a single-node session throughout (range
partitioning preserves the fold order, so float SUM/AVG must match
exactly).  ``sharded_throughput`` is what ``collect_results.py``
records into ``results.json``.

Two replica measurements ride along: ``replica_read_throughput``
(read qps over a 2-shard cluster as the replica count grows) and
``kill_a_replica_drill``, which SIGKILLs a replica mid-workload and
asserts zero client-visible errors with at least one recorded
failover — the repeatable form of the PR's acceptance drill.

The ≥1.5x scan-throughput assertion only runs on hosts with at least
four cores — on a one-CPU container the shard processes time-slice
one core and the honest measurement is pure coordination overhead.

Usage::

    PYTHONPATH=src python benchmarks/bench_sharded.py          # full
    PYTHONPATH=src python benchmarks/bench_sharded.py --smoke  # CI
"""

import json
import os
import struct
import sys
import time

import numpy as np
import pytest

from repro.engine import Column, Database
from repro.engine.sqlfront import SqlSession
from repro.shard import ShardConfig, ShardFleet, ShardRouter
from repro.tsql import FloatArray

#: Rows loaded into the benchmark table (per cluster, total).
ROWS = int(os.environ.get("REPRO_BENCH_SHARD_ROWS", "8000"))

SHARD_COUNTS = (1, 2, 4)

CREATE = ("CREATE TABLE tb (id BIGINT PRIMARY KEY, k INT, "
          "v VARBINARY(100))")
SCAN_SQL = "SELECT SUM(FloatArray.Item_1(v, 0)), COUNT(*) FROM tb"
GROUP_SQL = ("SELECT k, SUM(FloatArray.Item_1(v, 1)), COUNT(*) "
             "FROM tb GROUP BY k")


def make_rows(rows: int = ROWS):
    values = np.random.default_rng(7).standard_normal((rows, 5))
    return [(i, i % 8, FloatArray.Vector_5(*values[i]))
            for i in range(rows)]


def build_reference(rows: int = ROWS) -> SqlSession:
    db = Database()
    table = db.create_table(
        "tb", [Column("id", "bigint"), Column("k", "int"),
               Column("v", "varbinary", cap=100)])
    table.insert_many(make_rows(rows))
    return SqlSession(db)


def build_cluster(shards: int, rows: int = ROWS, replicas: int = 1):
    """A loaded cluster; caller owns ``fleet.stop()``."""
    config = ShardConfig(shards=shards, replicas=replicas,
                         key_lo=0, key_hi=rows)
    fleet = ShardFleet(config).start()
    try:
        router = ShardRouter(fleet.addresses, config.make_partitioner())
        router.execute(CREATE)
        router.insert_rows("tb", make_rows(rows))
        return fleet, router
    except BaseException:
        fleet.stop()
        raise


def _bits(value):
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


def _reference_bits(rows: int):
    session = build_reference(rows)
    out = {}
    for sql in (SCAN_SQL, GROUP_SQL):
        values, _m = session.query(sql, cold=False)
        out[sql] = _bits(values if isinstance(values, list)
                         else [tuple(values)])
    return out


def sharded_throughput(rows: int = ROWS,
                       shard_counts=SHARD_COUNTS,
                       iterations: int = 12) -> dict:
    """Per shard count: queries/sec and p95 latency (ms) over the
    aggregate mix, values asserted bit-identical to single-node.
    Used by ``collect_results.py``."""
    reference = _reference_bits(rows)
    out = {}
    for shards in shard_counts:
        fleet, router = build_cluster(shards, rows)
        try:
            for sql in (SCAN_SQL, GROUP_SQL):
                got = router.execute(sql, cold=False)
                assert _bits([tuple(r) for r in got["rows"]]) == \
                    reference[sql], (shards, sql)
            latencies = []
            t0 = time.perf_counter()
            for i in range(iterations):
                sql = SCAN_SQL if i % 2 == 0 else GROUP_SQL
                q0 = time.perf_counter()
                router.execute(sql, cold=False)
                latencies.append(time.perf_counter() - q0)
            elapsed = time.perf_counter() - t0
            latencies.sort()
            p95 = latencies[int(0.95 * (len(latencies) - 1))]
            out[str(shards)] = {
                "qps": iterations / elapsed,
                "p95_ms": p95 * 1e3,
            }
        finally:
            router.close()
            fleet.stop()
    return out


def replica_read_throughput(rows: int = ROWS,
                            replica_counts=(1, 2),
                            iterations: int = 12) -> dict:
    """Read qps over a fixed 2-shard cluster as the replica count
    grows (reads round-robin across replicas, so extra replicas add
    read capacity on a multi-core host).  Used by
    ``collect_results.py``."""
    reference = _reference_bits(rows)
    out = {}
    for replicas in replica_counts:
        fleet, router = build_cluster(2, rows, replicas=replicas)
        try:
            got = router.execute(SCAN_SQL, cold=False)
            assert _bits([tuple(r) for r in got["rows"]]) == \
                reference[SCAN_SQL], replicas
            latencies = []
            t0 = time.perf_counter()
            for i in range(iterations):
                sql = SCAN_SQL if i % 2 == 0 else GROUP_SQL
                q0 = time.perf_counter()
                router.execute(sql, cold=False)
                latencies.append(time.perf_counter() - q0)
            elapsed = time.perf_counter() - t0
            latencies.sort()
            p95 = latencies[int(0.95 * (len(latencies) - 1))]
            out[str(replicas)] = {
                "qps": iterations / elapsed,
                "p95_ms": p95 * 1e3,
            }
        finally:
            router.shutdown()
            fleet.stop()
    return out


def kill_a_replica_drill(rows: int = 2000, iterations: int = 40) -> dict:
    """The failover drill: run the aggregate mix against a 2-shard x
    2-replica cluster, SIGKILL one replica mid-run, and demand zero
    client-visible errors plus bit-identical answers throughout.
    Returns the error count (must be 0) and the failovers the router
    recorded (must be >= 1)."""
    reference = _reference_bits(rows)
    fleet, router = build_cluster(2, rows, replicas=2)
    try:
        errors = 0
        failovers = 0
        kill_at = iterations // 4
        for i in range(iterations):
            if i == kill_at:
                fleet.kill(0, replica=0)
            sql = SCAN_SQL if i % 2 == 0 else GROUP_SQL
            try:
                got = router.execute(sql, cold=False)
                if _bits([tuple(r) for r in got["rows"]]) != \
                        reference[sql]:
                    errors += 1
            except Exception:
                errors += 1
        failovers = router.health()["failovers"]
        return {"statements": iterations, "errors": errors,
                "failovers": failovers}
    finally:
        router.shutdown()
        fleet.stop()


# -- pytest entry points ----------------------------------------------------

@pytest.fixture(scope="module")
def two_shard_cluster():
    rows = min(ROWS, 4000)
    fleet, router = build_cluster(2, rows)
    yield rows, router
    router.close()
    fleet.stop()


@pytest.mark.parametrize("sql", [SCAN_SQL, GROUP_SQL])
def test_sharded_matches_single_node(two_shard_cluster, sql):
    """CI smoke: two real shard processes, bit-identical answers."""
    rows, router = two_shard_cluster
    session = build_reference(rows)
    values, _m = session.query(sql, cold=False)
    want = _bits(values if isinstance(values, list)
                 else [tuple(values)])
    got = router.execute(sql, cold=False)
    assert _bits([tuple(r) for r in got["rows"]]) == want
    assert got["metrics"]["engine"] == "sharded"


@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="throughput scaling needs >= 4 cores")
def test_scan_throughput_scales_1_5x_at_4_shards():
    """The acceptance bar, on a host with at least four cores."""
    results = sharded_throughput(shard_counts=(1, 4))
    ratio = results["4"]["qps"] / results["1"]["qps"]
    assert ratio >= 1.5, results


def test_kill_a_replica_drill_zero_errors():
    """CI smoke of the failover drill: a SIGKILLed replica mid-run
    must cost zero client-visible errors and record >= 1 failover."""
    drill = kill_a_replica_drill(rows=1500, iterations=20)
    assert drill["errors"] == 0, drill
    assert drill["failovers"] >= 1, drill


# -- CLI --------------------------------------------------------------------

def main(argv):
    smoke = "--smoke" in argv
    rows = min(ROWS, 2000) if smoke else ROWS
    iterations = 4 if smoke else 12
    results = sharded_throughput(rows=rows, iterations=iterations)
    for shards, numbers in results.items():
        print(f"  {shards} shard(s): {numbers['qps']:7.1f} q/s   "
              f"p95 {numbers['p95_ms']:6.1f} ms")
    replicas = replica_read_throughput(rows=rows,
                                       iterations=iterations)
    for count, numbers in replicas.items():
        print(f"  2 shards x {count} replica(s): "
              f"{numbers['qps']:7.1f} q/s   "
              f"p95 {numbers['p95_ms']:6.1f} ms")
    drill = kill_a_replica_drill(rows=min(rows, 2000),
                                 iterations=max(iterations * 2, 20))
    print(f"  kill-a-replica drill: {drill['statements']} statements, "
          f"{drill['errors']} errors, {drill['failovers']} failovers")
    assert drill["errors"] == 0, drill
    print(json.dumps({"rows": rows, "sharded_throughput": results,
                      "replica_read_throughput": replicas,
                      "kill_a_replica_drill": drill}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
