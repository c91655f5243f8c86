"""Coordinator-to-shard links and the user-facing cluster client.

:class:`ShardLink` is the coordinator's half of one shard connection —
a lazy blocking socket speaking the ordinary wire protocol, split into
``send`` and ``recv`` so the router can fan a request out to every
target shard *before* blocking on the first reply (shards execute
concurrently; replies are gathered in shard order for deterministic
merges).

:class:`ShardClient` is what applications connect to the *coordinator*
with.  The coordinator speaks the unchanged wire protocol, so this is
just :class:`~repro.server.client.ArrayClient` plus cluster-awareness
in the stats snapshot.
"""

from __future__ import annotations

import socket
from typing import Sequence

from ..server import protocol
from ..server.columnar import Buffer
from ..server.client import ArrayClient

__all__ = ["ShardLink", "ShardClient"]


class ShardLink:
    """One lazily-(re)connected link from the coordinator to a shard.

    Not thread-safe by design: the router keeps one link per
    (connection thread, replica) pair, so the strict request/reply
    discipline of the wire protocol is preserved without locking.
    After any send/recv failure the caller must :meth:`close` — the
    next use reconnects.
    """

    def __init__(self, shard_id: int, host: str, port: int,
                 connect_timeout: float = 5.0,
                 request_timeout: float | None = 30.0,
                 max_frame: int = protocol.MAX_FRAME_BYTES):
        self.shard_id = shard_id
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.max_frame = max_frame
        self._sock: socket.socket | None = None
        self._frames: protocol.FrameBuffer | None = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def connect(self) -> socket.socket:
        """Connect and consume the hello frame (idempotent); the
        connected socket."""
        if self._sock is not None:
            return self._sock
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout)
        frames = protocol.FrameBuffer(self.max_frame)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.request_timeout)
            protocol.check_hello(frames.read(sock.recv))
        except BaseException:
            sock.close()
            raise
        self._sock, self._frames = sock, frames
        return sock

    def send(self, header: dict[str, object],
             blobs: Sequence[Buffer] = ()) -> None:
        """Ship one request frame (connecting first if needed)."""
        protocol.write_frame_sock(self.connect(), header, blobs,
                                  self.max_frame)

    def recv(self) -> tuple[dict[str, object], list[memoryview]]:
        """Read one reply frame; the request timeout bounds the wait
        (``socket.timeout`` is an ``OSError`` — a shard that stops
        answering surfaces as a link failure, never a hang)."""
        if self._sock is None or self._frames is None:
            raise protocol.ProtocolError(
                f"shard {self.shard_id} link is not connected")
        reply = self._frames.read(self._sock.recv)
        if reply is None:
            raise protocol.ProtocolError(
                f"shard {self.shard_id} closed the connection")
        return reply

    def close(self) -> None:
        """Drop the socket and whatever part of a reply it buffered;
        the next :meth:`send` reconnects."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = self._frames = None


class ShardClient(ArrayClient):
    """Client for a shard coordinator.

    The coordinator serves the unchanged wire protocol, so every
    :class:`~repro.server.client.ArrayClient` feature works as-is —
    queries, retry policies, ``query_array``.  The additions surface
    the cluster: :meth:`shard_count`, :meth:`replica_counts`,
    :meth:`failovers`, and the coordinator's stats frame carrying a
    ``"shards"`` section with the replica health gauges.
    """

    def shard_count(self) -> int:
        """Number of shards behind the coordinator (from stats)."""
        return int(self.stats().get("shards", {}).get("count", 0))

    def replica_counts(self) -> list[int]:
        """Replicas per shard (one entry per shard, shard order)."""
        counts = self.stats().get("shards", {}).get("replicas", [])
        return [int(count) for count in counts]

    def failovers(self) -> int:
        """Cumulative reads the coordinator replayed on a sibling
        replica after the first replica failed — the observable proof
        that a replica loss stayed client-invisible."""
        return int(self.stats().get("shards", {}).get("failovers", 0))
