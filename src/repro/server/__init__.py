"""The serving layer: a concurrent array-database server and client.

The paper's array library matters because it lives inside a *server*
that many scientific clients hit at once; this package is the
reproduction's equivalent of that hosting layer.  It multiplexes
per-connection :class:`~repro.engine.sqlfront.SqlSession` objects over
one shared :class:`~repro.engine.executor.Database`, speaks a
length-prefixed JSON + binary wire protocol
(:mod:`repro.server.protocol`), bounds concurrency with admission
control (:mod:`repro.server.admission`) so overload degrades into fast
``SERVER_BUSY`` rejections instead of collapse, and aggregates the
engine's per-query metrics into server-level observability
(:mod:`repro.server.stats`).

See ``docs/SERVER.md`` for the protocol spec and deployment knobs.
"""

from .admission import AdmissionController
from .client import (
    NO_TIMEOUT,
    ArrayClient,
    QueryResult,
    QueryTimeoutError,
    ResultTooLargeError,
    RetryPolicy,
    ServerBusyError,
    ServerError,
    ShardUnavailableError,
)
from .protocol import (
    BAD_FRAME,
    INTERNAL,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    QUERY_TIMEOUT,
    RESULT_TOO_LARGE,
    SERVER_BUSY,
    SHARD_UNAVAILABLE,
    SQL_ERROR,
    FrameTooLargeError,
    ProtocolError,
    WireError,
)
from .server import ArrayServer, ServerConfig, ServerThread
from .stats import LatencyWindow, ServerStats

__all__ = [
    "AdmissionController",
    "NO_TIMEOUT",
    "ArrayClient",
    "QueryResult",
    "RetryPolicy",
    "ServerError",
    "ServerBusyError",
    "QueryTimeoutError",
    "ResultTooLargeError",
    "ShardUnavailableError",
    "ProtocolError",
    "FrameTooLargeError",
    "WireError",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "SERVER_BUSY",
    "QUERY_TIMEOUT",
    "SQL_ERROR",
    "BAD_FRAME",
    "RESULT_TOO_LARGE",
    "SHARD_UNAVAILABLE",
    "INTERNAL",
    "ArrayServer",
    "ServerConfig",
    "ServerThread",
    "LatencyWindow",
    "ServerStats",
]
