"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``table1 [rows]`` — regenerate the paper's Table 1 (delegates to
  the benchmark harness logic).
* ``info`` — print the library inventory: schemas, registered SQL
  functions, supported element types.
* ``serve`` — run the array-database server over the two Table 1
  evaluation tables (see ``docs/SERVER.md``).
* ``shard-serve`` — run a sharded cluster: N shard server processes
  plus a scatter-gather coordinator (see ``docs/SHARDING.md``).
* ``client`` — issue a query (or fetch stats) against a running
  server and print rows plus the Table 1 metrics triple.
* ``lint`` — run replint, the AST-based invariant checker, over the
  source tree (see ``docs/ANALYSIS.md``).
"""

from __future__ import annotations

import argparse
import sys


def _cmd_table1(args: list[str]) -> int:
    rows = int(args[0]) if args else 20_000
    import os
    sys.path.insert(0, os.path.join(os.path.dirname(__file__),
                                    "..", "..", "benchmarks"))
    try:
        from table1_harness import main as harness_main
    except ImportError:
        print("table1_harness.py not found; run from a source checkout",
              file=sys.stderr)
        return 1
    harness_main(rows)
    return 0


def _cmd_info(_args: list[str]) -> int:
    from repro.core import ALL_DTYPES
    from repro.sqlbind import connect
    from repro.tsql import MATH_EXPORTS, NAMESPACES

    print("Element types:")
    for dt in ALL_DTYPES:
        print(f"  {dt.name:<11} code 0x{dt.code:02x}  "
              f"{dt.itemsize} bytes  schema {dt.schema_name}")
    print(f"\nT-SQL schemas: {len(NAMESPACES)} "
          f"({', '.join(sorted(NAMESPACES)[:6])}, ...)")
    print(f"Math UDFs per float/complex schema: {len(MATH_EXPORTS)}")
    conn = connect()
    print(f"SQLite functions registered by connect(): "
          f"{conn.registered_functions}")
    return 0


def _load_demo_db(rows: int):
    """The two Section 6.2 evaluation tables, for a self-contained
    server deployment."""
    import numpy as np

    from repro.engine import Column, Database
    from repro.tsql import FloatArray

    db = Database()
    tscalar = db.create_table(
        "Tscalar", [Column("id", "bigint")] +
        [Column(f"v{i}", "float") for i in range(1, 6)])
    tvector = db.create_table(
        "Tvector", [Column("id", "bigint"),
                    Column("v", "varbinary", cap=100)])
    values = np.random.default_rng(0).standard_normal((rows, 5))
    for i in range(rows):
        tscalar.insert((i, *values[i]))
        tvector.insert((i, FloatArray.Vector_5(*values[i])))
    return db


def _cmd_serve(args: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve the array database over TCP.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7433)
    parser.add_argument("--rows", type=int, default=5000,
                        help="rows loaded into the evaluation tables")
    parser.add_argument("--workers", type=int, default=4,
                        help="statements running at once (run permits)")
    parser.add_argument("--queue", type=int, default=8,
                        help="statements that may wait for a run permit")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-query timeout in seconds")
    opts = parser.parse_args(args)

    from repro.server import ArrayServer, ServerConfig

    _sigterm_interrupts()
    print(f"Loading evaluation tables at {opts.rows:,} rows ...")
    db = _load_demo_db(opts.rows)
    config = ServerConfig(host=opts.host, port=opts.port,
                          max_workers=opts.workers,
                          queue_limit=opts.queue,
                          query_timeout=opts.timeout)
    _serve_until_interrupted(
        ArrayServer(db, config),
        lambda port: f"repro-array-server listening on "
                     f"{opts.host}:{port} "
                     f"(workers={opts.workers}, queue={opts.queue}, "
                     f"timeout={opts.timeout:g}s)")
    return 0


def _sigterm_interrupts() -> None:
    """Make SIGTERM end the process the way Ctrl-C does — a
    ``KeyboardInterrupt`` in the main thread — so ``finally`` blocks
    run: the server stops, and a cluster's shard processes are not
    left behind."""
    import signal

    def interrupt(_signum, _frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, interrupt)


def _serve_until_interrupted(server, banner) -> None:
    """Start ``server``, announce it with ``banner(port)``, serve until
    SIGINT or SIGTERM, stop it.  The banner is printed inside the
    ``try`` so a supervisor that signals as soon as it has read the
    line still gets the clean exit."""
    try:
        server.start()
        print(banner(server.port), flush=True)
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        server.stop()


def _cmd_shard_serve(args: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro shard-serve",
        description="Serve the array database as a sharded cluster: "
                    "N shard processes plus a coordinator speaking "
                    "the ordinary wire protocol.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7433,
                        help="coordinator port (shards bind ephemeral "
                             "loopback ports)")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--replicas", type=int, default=1,
                        help="server processes per shard; with more "
                             "than one, reads fail over to a sibling "
                             "when a replica dies")
    parser.add_argument("--partitioning", choices=("range", "hash"),
                        default="range")
    parser.add_argument("--rows", type=int, default=5000,
                        help="rows loaded into the evaluation tables")
    parser.add_argument("--workers", type=int, default=4,
                        help="statements running at once (run "
                             "permits) per shard and on the "
                             "coordinator")
    parser.add_argument("--queue", type=int, default=8,
                        help="statements that may wait for a run permit")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="coordinator per-query timeout in seconds")
    opts = parser.parse_args(args)

    import numpy as np

    from repro.server import ServerConfig
    from repro.shard import ShardConfig, ShardServer, start_cluster
    from repro.tsql import FloatArray

    _sigterm_interrupts()
    shard_config = ShardConfig(
        shards=opts.shards, replicas=opts.replicas,
        partitioning=opts.partitioning,
        key_lo=0, key_hi=max(opts.rows, 1),
        host="127.0.0.1", max_workers=opts.workers,
        queue_limit=opts.queue)
    print(f"Starting {opts.shards} shard(s) x {opts.replicas} "
          f"replica(s) ...")
    fleet, router = start_cluster(shard_config)
    try:
        print(f"Loading evaluation tables at {opts.rows:,} rows ...")
        router.execute(
            "CREATE TABLE Tscalar (id BIGINT PRIMARY KEY, "
            "v1 FLOAT, v2 FLOAT, v3 FLOAT, v4 FLOAT, v5 FLOAT)")
        router.execute(
            "CREATE TABLE Tvector (id BIGINT PRIMARY KEY, "
            "v VARBINARY(100))")
        values = np.random.default_rng(0).standard_normal(
            (opts.rows, 5))
        router.insert_rows(
            "Tscalar",
            [(i, *map(float, values[i])) for i in range(opts.rows)])
        router.insert_rows(
            "Tvector",
            [(i, bytes(FloatArray.Vector_5(*values[i])))
             for i in range(opts.rows)])

        coordinator = ShardServer(router, ServerConfig(
            host=opts.host, port=opts.port,
            max_workers=opts.workers, queue_limit=opts.queue,
            query_timeout=opts.timeout, name="repro-shard-coordinator"))

        shards = ", ".join(
            "|".join(f"{h}:{p}" for h, p in replica_set)
            for replica_set in fleet.addresses)
        _serve_until_interrupted(
            coordinator,
            lambda port: f"repro-shard-coordinator listening on "
                         f"{opts.host}:{port} "
                         f"({opts.shards} shards [{shards}], "
                         f"replicas={opts.replicas}, "
                         f"partitioning={opts.partitioning})")
    finally:
        fleet.stop()
    return 0


def _cmd_client(args: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro client",
        description="Query a running array-database server.")
    parser.add_argument("sql", nargs="?",
                        help="statement to execute")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7433)
    parser.add_argument("--stats", action="store_true",
                        help="print the server stats snapshot instead")
    parser.add_argument("--warm", action="store_true",
                        help="keep the buffer pool warm (cold is the "
                             "paper's default)")
    opts = parser.parse_args(args)
    if not opts.stats and not opts.sql:
        parser.error("need a SQL statement (or --stats)")

    import json

    from repro.server import ArrayClient, ServerError

    try:
        with ArrayClient(opts.host, opts.port) as client:
            if opts.stats:
                print(json.dumps(client.stats(), indent=2,
                                 sort_keys=True))
                return 0
            result = client.query(opts.sql, cold=not opts.warm)
            if result.kind == "ok":
                print(f"ok ({result.rowcount} rows affected)")
                return 0
            for row in result.rows:
                print("\t".join(
                    f"0x{cell.hex()}" if isinstance(cell, bytes)
                    else str(cell) for cell in row))
            m = result.metrics or {}
            print(f"-- {result.rowcount} row(s); "
                  f"sim {m.get('sim_exec_seconds', 0):.3f} s, "
                  f"cpu {m.get('cpu_percent', 0):.0f} %, "
                  f"io {m.get('io_mb_per_s', 0):.0f} MB/s; "
                  f"server wall {result.elapsed_seconds * 1e3:.1f} ms")
            return 0
    except ServerError as exc:
        print(f"server error — {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot reach {opts.host}:{opts.port} — {exc}",
              file=sys.stderr)
        return 1


def _cmd_lint(args: list[str]) -> int:
    from repro.analysis.__main__ import main as lint_main
    return lint_main(args)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {"table1": _cmd_table1, "info": _cmd_info,
                "serve": _cmd_serve, "shard-serve": _cmd_shard_serve,
                "client": _cmd_client, "lint": _cmd_lint}
    if not argv or argv[0] not in commands:
        names = ", ".join(sorted(commands))
        print(f"usage: python -m repro {{{names}}} [args]",
              file=sys.stderr)
        return 2
    return commands[argv[0]](argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
