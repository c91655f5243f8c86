"""repro.shard — a sharded multi-process backend for the array engine.

A cluster is N logical shards, each owning a partitioned slice of
every table and each backed by one or more replica
:class:`~repro.server.server.ArrayServer` processes
(:class:`ShardFleet`, ``ShardConfig(replicas=...)``), fronted by a
coordinator (:class:`ShardRouter` inside a :class:`ShardServer`) that
plans each statement once, routes it — point statements to one shard,
key ranges to the owning shards, scans to all — and merges replies.
Aggregates travel as unreduced partial states (``pquery``/``presult``
frames, a scalar SELECT as one group) and the coordinator absorbs them
in shard order into one grouped-scan state, so float SUM/AVG under
range partitioning are bit-identical to single-node execution.

Replicas make shard loss survivable: writes apply to every replica of
the owning shard, reads round-robin across the live replicas, and a
replica that dies mid-read is replaced by a sibling replaying the
identical request — client-invisibly, down to the bytes of a streamed
``bquery``.  ``SHARD_UNAVAILABLE`` is reserved for a fully dead
replica set, and cross-shard writes that die halfway report their
partial progress (and CREATE rolls itself back) instead of leaving
the cluster silently inconsistent.

Quick start::

    from repro.shard import ShardConfig, ShardClient, start_cluster
    from repro.server.server import ServerThread

    fleet, router = start_cluster(ShardConfig(shards=4))
    with ServerThread(server=ShardServer(router)) as coord:
        with ShardClient("127.0.0.1", coord.port) as client:
            client.query("CREATE TABLE a (pk INT, v FLOAT)")
            ...
    fleet.stop()

or ``repro shard-serve --shards 4 --replicas 2`` from the command
line.  See ``docs/SHARDING.md``.
"""

from .client import ShardClient, ShardLink
from .config import ShardConfig
from .partitioner import HashPartitioner, Partitioner, RangePartitioner
from .process import ShardFleet
from .router import ShardRouter, ShardServer, start_cluster

__all__ = [
    "ShardClient",
    "ShardConfig",
    "ShardFleet",
    "ShardLink",
    "ShardRouter",
    "ShardServer",
    "Partitioner",
    "RangePartitioner",
    "HashPartitioner",
    "start_cluster",
]
