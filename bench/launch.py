"""Server-side launcher: one real server (or cluster) per benchmark set-up.

Run as a subprocess by ``harness.Deployment``; never imported by it.
Conversation over the pipes (one JSON object per line):

    child  -> {"event": "ready", "port": P, "pids": [...],
               "shards": [[host, port], ...]}
    parent -> "stop"
    child  -> {"event": "stopped", "vm_hwm_kb": {pid: kB, ...}}

``ready`` is printed only after the data is loaded and the listening
socket is bound (port 0), so the parent never polls a port.  EOF on
stdin (the parent died) tears down exactly like ``stop``.  The parent
starts this process in its own session, so the shard processes the
fleet spawns share its process group and one ``killpg`` reaps them all.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

if __name__ == "__main__":
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        sys.exit(f"launch.py: no src/repro under {_ROOT}")
    sys.path.insert(0, os.path.join(_ROOT, "src"))

#: Worker threads per process.  One closed-loop client drives the
#: server, so more threads only add scheduler noise on a 2-core host;
#: 2 on the process the client talks to keeps a stats frame from
#: queueing behind a statement.
FRONT_WORKERS = 2
SHARD_WORKERS = 1


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set of one process (``VmHWM`` in kB)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def serve(workload) -> None:
    from repro.engine import Database
    from repro.server import ServerConfig, ServerThread
    from repro.shard import ShardFleet, ShardRouter, ShardServer

    from workloads import STATEMENT_TIMEOUT, load_database, load_router

    config = ServerConfig(port=0, max_workers=FRONT_WORKERS,
                          query_timeout=STATEMENT_TIMEOUT,
                          name=f"bench-{workload.name}")
    fleet = None
    shards: list = []
    if workload.kind == "cluster":
        shard_config = workload.shard_config(max_workers=SHARD_WORKERS)
        fleet = ShardFleet(shard_config).start()
    try:
        if fleet is not None:
            router = ShardRouter(fleet.addresses,
                                 shard_config.make_partitioner())
            load_router(router, workload)
            router.close()
            shards = [list(replicas[0]) for replicas in fleet.addresses]
            thread = ServerThread(server=ShardServer(router, config))
        else:
            db = Database(buffer_pages=workload.buffer_pages)
            load_database(db, workload)
            thread = ServerThread(db, config)
        with thread:
            pids = [os.getpid()] + [
                child.pid for child in multiprocessing.active_children()]
            print(json.dumps({"event": "ready", "port": thread.port,
                              "pids": pids, "shards": shards}),
                  flush=True)
            for line in sys.stdin:
                if line.strip() == "stop":
                    break
            hwm = {str(pid): vm_hwm_kb(pid) for pid in pids}
    finally:
        if fleet is not None:
            fleet.stop()
    print(json.dumps({"event": "stopped", "vm_hwm_kb": hwm}), flush=True)


def main() -> None:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="default")
    args = parser.parse_args()
    serve(WORKLOADS[args.workload](args.seed, args.scale))


if __name__ == "__main__":
    main()
