"""Shard fleet lifecycle: spawn replica sets, handshake, kill, stop.

Each replica is a separate OS process running its own
:class:`~repro.server.server.ArrayServer` over its own
:class:`~repro.engine.executor.Database` — nothing is shared, which is
the point: a replica crash cannot corrupt its siblings, and each
replica's buffer pool, latches and admission controller are private.
A logical shard is ``config.replicas`` such processes holding the same
key slice; the router applies writes to all of them and spreads reads
across them.

Processes are started with the ``spawn`` context (no forked locks or
threads) and bind port 0; the child reports its bound port back
over a pipe, so clusters never race for fixed ports in tests.

:meth:`ShardFleet.kill` SIGKILLs one replica — the fault-injection
hook the replica tests use to prove a dead replica fails reads over
to a sibling; :meth:`ShardFleet.kill_shard` kills the whole replica
set, which is what turns into a typed ``SHARD_UNAVAILABLE``.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from typing import Callable

from ..engine.executor import Database
from ..engine.sqlfront import SqlSession
from ..server.server import ArrayServer, ServerConfig
from .config import ShardConfig

__all__ = ["ShardFleet"]

_START_TIMEOUT = 30.0


def _shard_main(index: int, replica: int, conn,
                config: ServerConfig,
                session_setup: Callable[[SqlSession], None] | None) -> None:
    """Child-process entry point: serve one empty shard database.

    Must stay module-level and importable — the spawn context pickles
    a reference to it, not the function itself.
    """
    server = ArrayServer(Database(), config, session_setup)
    server.start()
    conn.send(server.port)
    conn.close()
    # Serve until the fleet terminates the process.  A terminal Ctrl-C
    # reaches every process in the foreground group, so swallow it
    # here — shutdown belongs to the fleet, and the coordinator's own
    # handler prints the one goodbye message.
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass


class ShardFleet:
    """Owns the lifetime of ``shards x replicas`` server processes.

    Usage::

        with ShardFleet(ShardConfig(shards=4, replicas=2)) as fleet:
            router = ShardRouter(fleet.addresses,
                                 fleet.config.make_partitioner())
            ...

    ``addresses`` is one list per shard of that shard's replica
    addresses, in replica order — the shape :class:`ShardRouter`
    consumes directly (it also still accepts a flat one-address-per-
    shard list for unreplicated clusters built by hand).

    ``session_setup`` must be picklable (a module-level function) —
    it crosses the process boundary to run on each replica.
    """

    def __init__(self, config: ShardConfig,
                 session_setup: Callable[[SqlSession], None] | None = None):
        self.config = config
        self.session_setup = session_setup
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list[list] = []
        self.addresses: list[list[tuple[str, int]]] = []

    def start(self) -> "ShardFleet":
        """Spawn every replica and wait for each to report its port."""
        if self._procs:
            return self
        pending = []
        try:
            for index in range(self.config.shards):
                for replica in range(self.config.replicas):
                    parent, child = self._ctx.Pipe(duplex=False)
                    proc = self._ctx.Process(
                        target=_shard_main,
                        args=(index, replica, child,
                              self.config.shard_server_config(index,
                                                              replica),
                              self.session_setup),
                        daemon=True,
                        name=f"repro-shard-{index}r{replica}")
                    proc.start()
                    child.close()
                    pending.append((index, replica, proc, parent))
            procs: list[list] = [[] for _ in range(self.config.shards)]
            addresses: list[list[tuple[str, int]]] = [
                [] for _ in range(self.config.shards)]
            for index, replica, proc, parent in pending:
                if not parent.poll(_START_TIMEOUT):
                    raise RuntimeError(
                        f"shard {index} replica {replica} did not "
                        f"report a port within {_START_TIMEOUT:.0f}s")
                port = parent.recv()
                parent.close()
                addresses[index].append((self.config.host, port))
                procs[index].append(proc)
            self._procs = procs
            self.addresses = addresses
        except BaseException:
            for _index, _replica, proc, parent in pending:
                if proc.is_alive():
                    proc.kill()
                proc.join(timeout=5.0)
            self._procs = []
            self.addresses = []
            raise
        return self

    def kill(self, index: int, replica: int = 0) -> None:
        """SIGKILL one replica — fault injection for tests.  The fleet
        keeps running; with siblings left, the router fails reads over
        to them, and only a fully dead replica set surfaces as
        ``SHARD_UNAVAILABLE``."""
        proc = self._procs[index][replica]
        if proc.is_alive() and proc.pid is not None:
            os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=10.0)

    def kill_shard(self, index: int) -> None:
        """SIGKILL every replica of one shard (the whole-shard fault
        the ``SHARD_UNAVAILABLE`` tests inject)."""
        for replica in range(len(self._procs[index])):
            self.kill(index, replica)

    def alive(self) -> list[list[bool]]:
        """Liveness matrix: ``alive()[shard][replica]``."""
        return [[proc.is_alive() for proc in replicas]
                for replicas in self._procs]

    def stop(self) -> None:
        """Terminate every replica (idempotent)."""
        flat = [proc for replicas in self._procs for proc in replicas]
        for proc in flat:
            if proc.is_alive():
                proc.terminate()
        for proc in flat:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        self._procs = []
        self.addresses = []

    def __enter__(self) -> "ShardFleet":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
