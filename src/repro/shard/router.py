"""The shard coordinator: plan once, route, scatter-gather, merge.

:class:`ShardRouter` fronts N logical shards, each backed by one or
more replica :class:`~repro.server.server.ArrayServer` processes
holding the same partitioned key slice.  A statement is planned *once*
against the coordinator's catalog mirror
(:meth:`SqlSession.plan_select` — the same plan object local execution
uses) and then routed:

* point SELECT / point DELETE — the one shard owning the key;
* key-range SELECT / DELETE (``pk >= a AND pk < b``) — the shards
  whose slices intersect ``[a, b)`` (range partitioning);
* everything else — scatter to all shards, gather, merge.

Replication splits the two traffic classes:

* **Reads** (``pquery`` scatter, relayed ``bquery`` streams, prepared
  ``pexec`` SELECTs) go to *one* replica per target shard, chosen
  round-robin over the live ones for throughput.  A link failure or an
  exhausted ``SERVER_BUSY`` budget marks that replica **suspect** and
  replays the identical request on a sibling — client-invisibly,
  bit-identically (replicas hold the same rows, and the merge still
  folds in shard order).  ``SHARD_UNAVAILABLE`` surfaces only when an
  entire replica set is dead.  A background reprobe thread pings
  suspect replicas and returns the recovered ones to rotation.
* **Writes** (``insert`` frames, broadcast DDL and DELETE) fan out to
  *every* in-rotation replica of the owning shard, so siblings never
  diverge.  A replica that fails a write while a sibling commits it
  has missed data and is marked **stale** — permanently out of
  rotation (reprobe never revives it), because serving reads from it
  would be silently wrong.

Aggregation is distributed through the engine's aggregate protocol:
shards answer ``pquery`` frames with unreduced partial states, and the
coordinator folds them in shard order (:mod:`repro.shard.merge`), so
float SUM/AVG match single-node execution bit for bit under range
partitioning.

Fault handling is typed, never hanging: every exchange with a replica
— read, write or relay — goes through one send, one reply check and,
for reads, one failover walk.  A replica gets ``max_retries + 1``
attempts of at most the link's request timeout each (the scatter's
first send is attempt 0; a relay gets one attempt per replica).  A
replica set that stays dead or saturated surfaces as a
``WireError(SHARD_UNAVAILABLE)``, which :class:`ShardServer` answers
as an error frame with that code.  Cross-shard writes that die halfway
report their partial progress in the error frame's ``detail`` key, and
a partially-broadcast CREATE is rolled back (catalog mirror dropped,
compensating ``DROP TABLE`` sent to the shards that succeeded) so the
cluster never plans against a table some shards don't have.

The coordinator itself never touches storage — no ``BufferPool``, no
latched scans; it parses, routes and merges, and its failover paths
replay the planned request without re-planning against the catalog
mirror mid-statement (``tests/shard/test_replicas.py`` checks both).
Its catalog mirror holds schemas only.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

from ..engine import lockcheck
from ..engine.executor import Database
from ..engine.sqlfront import PlanCache, SelectPlan, SqlSession, \
    SqlSyntaxError, _statement_kind, _statement_table, _tokenize
from ..server import protocol
from ..server.client import RetryPolicy
from ..server.server import ArrayServer, ServerConfig, _statement_text
from .client import ShardLink
from .config import ShardConfig
from .merge import finalize_grouped, merge_grouped_states, merge_metrics
from .partitioner import Partitioner

__all__ = ["Replica", "ShardRouter", "ShardServer", "start_cluster"]

#: Replica health states.  ``live`` replicas serve reads and writes;
#: ``suspect`` replicas failed a read-side exchange and sit out the
#: read rotation until a reprobe revives them (they still receive
#: writes, so they never silently miss data); ``stale`` replicas
#: failed a write a sibling committed and are out for good.
LIVE = "live"
SUSPECT = "suspect"
STALE = "stale"


class Replica:
    """One addressable shard server process and its health state."""

    __slots__ = ("shard_id", "replica_id", "host", "port", "state")

    def __init__(self, shard_id: int, replica_id: int, host: str,
                 port: int):
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.host = host
        self.port = port
        self.state = LIVE

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def __repr__(self) -> str:
        return (f"Replica(shard={self.shard_id}, "
                f"replica={self.replica_id}, {self.address}, "
                f"{self.state})")


class _ReplicaUnavailable(Exception):
    """One replica stayed dead or saturated through its retry budget
    (internal to the router; the failover loop catches it)."""


def _normalize_addresses(addresses) -> list[list[tuple[str, int]]]:
    """Accept both address shapes: one ``(host, port)`` per shard
    (unreplicated, the pre-replica API) or one *list* of replica
    addresses per shard (what :class:`ShardFleet` produces)."""
    sets: list[list[tuple[str, int]]] = []
    for entry in addresses:
        entry = list(entry)
        if entry and isinstance(entry[0], (list, tuple)):
            replica_set = [(str(h), int(p)) for h, p in entry]
        else:
            host, port = entry
            replica_set = [(str(host), int(port))]
        if not replica_set:
            raise ValueError("a shard needs at least one replica "
                             "address")
        sets.append(replica_set)
    return sets


def _rowcount(what: str, replies, dead) -> int:
    """Rows a row write (``insert`` frames, DELETE) applied over the
    shards in ``replies``.  When ``dead`` names lost replica sets, the
    raised ``SHARD_UNAVAILABLE`` carries the partial progress in
    ``detail``: rows applied per shard (``applied``), the shard ids
    that applied (``applied_shards``), the dead ones
    (``failed_shards``) and the total ``partial_rowcount``."""
    applied = {str(shard_id): reply.get("rowcount", 0)
               for shard_id, (reply, _b) in sorted(replies.items())}
    partial = sum(applied.values())
    if dead:
        raise protocol.WireError(
            protocol.SHARD_UNAVAILABLE,
            f"{what} lost shard(s) {sorted(dead)} after {partial} "
            f"row(s) were applied on shard(s) {sorted(replies)}",
            detail={"applied": applied,
                    "applied_shards": sorted(replies),
                    "failed_shards": sorted(dead),
                    "partial_rowcount": partial})
    return partial


class ShardRouter:
    """Routes statements to a fleet of shard servers and merges replies.

    Thread-safe: statements may run concurrently on many coordinator
    connection threads; each thread keeps its own set of replica links
    (one per replica, so a coordinator holds client connections ×
    replicas links; :class:`ShardServer` closes a connection's set when
    it ends), while replica health (live/suspect/stale), the read
    round-robin and the failover counters are shared under one mutex.

    Args:
        addresses: Per shard, either one ``(host, port)`` or a list of
            replica ``(host, port)`` addresses, in shard order.
        partitioner: Key placement (must agree with how the data was
            loaded).
        retry: Per-replica bounded retry for link failures and
            ``SERVER_BUSY`` (the default allows 2 retries).
        connect_timeout / request_timeout: Socket budgets per replica
            call; the request timeout is the no-hang guarantee.
        reprobe_interval: Seconds between background liveness probes
            of suspect replicas (the thread starts lazily on the first
            suspect and stops with :meth:`shutdown`).
        session_setup: Applied to the catalog-mirror session (register
            the same UDFs here as on the shards so planning resolves
            them).
    """

    def __init__(self, addresses, partitioner: Partitioner,
                 retry: RetryPolicy | None = None,
                 connect_timeout: float = 5.0,
                 request_timeout: float | None = 30.0,
                 max_frame: int = protocol.MAX_FRAME_BYTES,
                 reprobe_interval: float = 0.25,
                 session_setup: Callable[[SqlSession], None] | None = None):
        address_sets = _normalize_addresses(addresses)
        if partitioner.shards != len(address_sets):
            raise ValueError(
                f"partitioner expects {partitioner.shards} shards, "
                f"got {len(address_sets)} address sets")
        self.addresses = address_sets
        self.replica_sets: list[list[Replica]] = [
            [Replica(shard_id, replica_id, host, port)
             for replica_id, (host, port) in enumerate(replica_set)]
            for shard_id, replica_set in enumerate(address_sets)]
        self.partitioner = partitioner
        self.retry = retry if retry is not None else \
            RetryPolicy(max_retries=2, backoff_base=0.05,
                        backoff_cap=1.0)
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.max_frame = max_frame
        self.reprobe_interval = reprobe_interval
        self.catalog = Database()
        self.session = SqlSession(self.catalog)
        if session_setup is not None:
            session_setup(self.session)
        self._local = threading.local()
        # Coordinator-side plan cache: SELECTs are planned once per
        # statement text against the catalog mirror and the plan
        # (routing key, pk range, aggregates) is reused by every
        # connection thread.  DDL invalidates it (see _create); data-only
        # writes leave plans valid — a plan captures structure, never
        # row contents.
        self._plan_cache = PlanCache()
        self._plan_lock = lockcheck.tracked_lock("mutex:ShardRouter")
        # Replica health: guards every Replica.state transition, the
        # per-shard read round-robin and the failover counters.  Leaf
        # lock — nothing else is ever acquired under it.
        self._health_lock = lockcheck.tracked_lock("mutex:ShardRouter")
        self._rr = [0] * partitioner.shards
        self._failovers = 0
        self._reprobed = 0
        self._reprobe_thread: threading.Thread | None = None
        self._reprobe_stop = threading.Event()

    # -- statement entry point ----------------------------------------------

    def execute(self, sql: str, cold: bool = True) -> dict:
        """Route and execute one statement; returns the normalized
        result dict (:meth:`ArrayServer._execute_sync` shape): keys
        ``kind``, ``rows``, ``rowcount``, ``metrics``.  The merged
        metrics of a SELECT report ``engine="sharded"``.
        """
        result = self.execute_columnar(sql, cold)
        if "columns" in result:
            result["rows"] = result.pop("columns").rows()
        return result

    def execute_columnar(self, sql: str, cold: bool = True) -> dict:
        """:meth:`execute` for a caller that puts the result on the
        wire (:class:`ShardServer`): a grouped SELECT's result set
        stays the merge's finished
        :class:`~repro.server.columnar.Columns` under ``columns``, in
        place of ``rows``, so no row tuple is built on the way to the
        reply frame."""
        kind = _statement_kind(sql)
        if kind == "SELECT":
            return self._select(sql, cold)
        if kind == "INSERT":
            return self._insert(sql)
        if kind == "DROP":
            return self._drop(sql)
        tokens = _tokenize(sql)
        if kind == "CREATE":
            return self._create(sql, tokens)
        if kind == "DELETE":
            return self._delete(sql, tokens)
        raise SqlSyntaxError(
            f"unsupported statement starting with {tokens[0][1]!r}")

    def insert_rows(self, table_name: str, rows) -> int:
        """Bulk-load rows: partition by primary key, ship one binary
        ``insert`` frame per owning shard to *every* replica of that
        shard (all sends first, then replies — replicas load
        concurrently), and land on each replica's
        :meth:`Table.insert_many` fast path.  Returns rows inserted.

        When a whole replica set is dead the raised
        ``WireError(SHARD_UNAVAILABLE)`` carries the rows each shard
        committed in ``detail`` (:func:`_rowcount`) — a failed bulk
        load never leaves the caller guessing which shards took their
        slice.
        """
        buckets: dict[int, list] = {}
        for row in rows:
            key = row[0]
            if isinstance(key, bool) or not isinstance(key, int):
                raise SqlSyntaxError(
                    "sharded tables need an integer primary key, got "
                    f"{key!r}")
            buckets.setdefault(self.partitioner.shard_of(key),
                               []).append(tuple(row))
        requests = []
        for shard_id in sorted(buckets):
            packed, blobs = protocol.pack_rows(buckets[shard_id])
            requests.append((shard_id,
                             {"type": "insert", "table": table_name,
                              "rows": packed,
                              "rowcount": len(buckets[shard_id]),
                              "timeout": protocol.NO_TIMEOUT},
                             blobs))
        return _rowcount(f"bulk insert into {table_name!r}",
                         *self._scatter_write(requests))

    def close(self) -> None:
        """Close the calling thread's replica links (each connection
        thread owns its own set; fleet shutdown severs the rest)."""
        links = getattr(self._local, "links", None)
        if links:
            for link in links.values():
                link.close()
            links.clear()

    def shutdown(self) -> None:
        """Stop the background reprobe thread and close this thread's
        links.  Idempotent; other threads' links die with their
        threads (or with the fleet)."""
        self._reprobe_stop.set()
        thread = self._reprobe_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=5.0)
        self.close()

    # -- replica health -------------------------------------------------------

    def health(self) -> dict:
        """Health gauges for the stats frame: per-shard replica
        counts, cumulative ``failovers`` (reads replayed on a sibling
        after a replica failure), current ``suspects``/``stale``
        replica counts, and cumulative ``reprobed`` revivals."""
        with self._health_lock:
            states = [replica.state
                      for replica_set in self.replica_sets
                      for replica in replica_set]
            return {
                "replicas": [len(replica_set)
                             for replica_set in self.replica_sets],
                "failovers": self._failovers,
                "suspects": states.count(SUSPECT),
                "stale": states.count(STALE),
                "reprobed": self._reprobed,
            }

    def _mark_suspect(self, replica: Replica) -> None:
        """Take a replica out of the read rotation after a failed
        exchange; the reprobe thread owns bringing it back."""
        with self._health_lock:
            if replica.state == LIVE:
                replica.state = SUSPECT
        self._ensure_reprobe_thread()

    def _mark_stale(self, replica: Replica) -> None:
        """A sibling committed a write this replica missed: it is now
        behind forever (no reprobe revival) — reads from it would be
        silently wrong."""
        with self._health_lock:
            replica.state = STALE

    def _read_candidates(self, shard_id: int) -> list[Replica]:
        """Replicas to try for one read, in preference order: the live
        ones starting at the round-robin cursor (load spreading), then
        the suspect ones (still consistent — they never miss a write —
        so they are worth a last attempt before declaring the shard
        unavailable).  Stale replicas are never candidates."""
        with self._health_lock:
            replica_set = self.replica_sets[shard_id]
            live = [r for r in replica_set if r.state == LIVE]
            suspects = [r for r in replica_set if r.state == SUSPECT]
            tick = self._rr[shard_id]
            self._rr[shard_id] += 1
        if live:
            cut = tick % len(live)
            live = live[cut:] + live[:cut]
        return live + suspects

    def _write_targets(self, shard_id: int) -> list[Replica]:
        """Replicas a write must reach: every non-stale one.  Suspect
        replicas are included on purpose — if one is actually alive it
        must see the write or it could never be revived consistently."""
        with self._health_lock:
            return [r for r in self.replica_sets[shard_id]
                    if r.state != STALE]

    def _record_failover(self) -> None:
        with self._health_lock:
            self._failovers += 1

    # -- background reprobe ---------------------------------------------------

    def _ensure_reprobe_thread(self) -> None:
        """Start the reprobe loop lazily on the first suspect (so
        routers over healthy clusters never spawn a thread)."""
        if self._reprobe_stop.is_set():
            return
        with self._health_lock:
            thread = self._reprobe_thread
            if thread is not None and thread.is_alive():
                return
            thread = threading.Thread(target=self._reprobe_loop,
                                      name="shard-reprobe",
                                      daemon=True)
            self._reprobe_thread = thread
        thread.start()

    def _reprobe_loop(self) -> None:
        """Background body: ping suspect replicas; a replica that
        answers returns to the read rotation (it received every write
        attempted while it was suspect, so it is not behind)."""
        while not self._reprobe_stop.wait(self.reprobe_interval):
            with self._health_lock:
                suspects = [r for replica_set in self.replica_sets
                            for r in replica_set
                            if r.state == SUSPECT]
            for replica in suspects:
                if not self._reprobe_once(replica):
                    continue
                with self._health_lock:
                    if replica.state == SUSPECT:
                        replica.state = LIVE
                        self._reprobed += 1

    def _reprobe_once(self, replica: Replica) -> bool:
        """One liveness probe on a throwaway link (the reprobe thread
        never shares the connection threads' links)."""
        link = ShardLink(replica.shard_id, replica.host, replica.port,
                         connect_timeout=min(1.0, self.connect_timeout),
                         request_timeout=self.request_timeout,
                         max_frame=self.max_frame)
        try:
            link.send({"type": "ping"})
            reply, _blobs = link.recv()
            return reply.get("type") == "pong"
        except (OSError, protocol.ProtocolError):
            return False
        finally:
            link.close()

    # -- SELECT: scatter pquery, merge partials ------------------------------

    def prepare(self, sql: str) -> SelectPlan:
        """Plan one SELECT through the coordinator's plan cache.

        Planning is not free at coordinator scale — every scatter pays
        it before a single shard is contacted — so hot statements
        (point SELECTs in a pipelined stream, mainly) hit the cache
        instead.  Thread-safe; a cache miss may plan the same text
        twice concurrently, which is merely redundant, never wrong.
        """
        with self._plan_lock:
            plan = self._plan_cache.lookup(sql)
        if plan is None:
            plan = self.session.plan_select(sql)
            with self._plan_lock:
                self._plan_cache.remember(sql, plan)
        return plan

    def _invalidate_plans(self) -> None:
        with self._plan_lock:
            self._plan_cache.clear()

    def _select(self, sql: str, cold: bool) -> dict:
        plan = self.prepare(sql)
        targets = self._route(plan)
        header = {"type": "pquery", "sql": sql, "cold": bool(cold),
                  "timeout": protocol.NO_TIMEOUT}
        replies = self._scatter_read(
            [(shard_id, header, ()) for shard_id in targets])
        rows_total = sum(reply.get("rows", 0)
                         for _sid, reply, _b in replies)
        metrics = merge_metrics(
            [reply.get("metrics") or {} for _sid, reply, _b in replies],
            plan.label, self.partitioner.shards).to_dict()
        # Column buffers in, result columns out: no per-cell step here.
        columns = finalize_grouped(plan.aggregates, merge_grouped_states(
            plan.aggregates, [
                protocol.Columns.decode(reply.get("groups"), blobs,
                                        reply.get("rowcount"))
                for _sid, reply, blobs in replies]), rows_total)
        if plan.kind == "grouped":
            return {"kind": "rows", "columns": columns,
                    "rowcount": columns.rowcount, "metrics": metrics}
        # A scalar SELECT is its one group (none: no shard was asked).
        rows = [row[1:] for row in columns.rows()] or [tuple(
            agg.finish(agg.start(), rows_total) for agg in plan.aggregates)]
        return {"kind": "rows", "rows": rows, "rowcount": 1,
                "metrics": metrics}

    def _route(self, plan: SelectPlan) -> list[int]:
        """Shards a SELECT must touch: the key's owner for a point
        seek, the owners of the pk interval for a key-range predicate,
        every shard otherwise."""
        if plan.key is not None:
            return [self.partitioner.shard_of(plan.key)]
        if plan.pk_range is not None:
            return self.partitioner.shards_for_range(*plan.pk_range)
        return list(range(self.partitioner.shards))

    # -- writes --------------------------------------------------------------

    def _create(self, sql: str, tokens) -> dict:
        """Atomic-or-rolled-back cross-shard CREATE.

        The catalog mirror is updated first — this both validates the
        DDL and lets later SELECTs plan against the schema — then the
        statement broadcasts so every replica of every shard owns an
        (empty) slice.  If any whole replica set fails the broadcast,
        the mirror entry is **rolled back** and compensating
        ``DROP TABLE`` statements are sent to the shards that already
        created the table, so the coordinator and every live shard end
        up agreeing the table does not exist; the typed
        ``SHARD_UNAVAILABLE`` carries which shards had to be
        compensated.  (Before this, a shard dying mid-CREATE left the
        coordinator planning against a table some shards didn't have.)
        """
        table_name = _statement_table(tokens, "TABLE")
        self.session.execute(sql)
        self._invalidate_plans()
        try:
            replies, dead = self._write_sql(
                sql, range(self.partitioner.shards))
        except BaseException:
            # A typed statement error (bad DDL reaching the shards
            # after passing the mirror, a shard's own SQL_ERROR):
            # nothing broadcast sticks — drop the mirror entry too.
            self._rollback_create(table_name, ())
            raise
        if dead:
            self._rollback_create(table_name, sorted(replies))
            raise protocol.WireError(
                protocol.SHARD_UNAVAILABLE,
                f"CREATE TABLE {table_name} lost shard(s) "
                f"{sorted(dead)}; rolled back on the coordinator and "
                f"on shard(s) {sorted(replies)}",
                detail={"rolled_back": table_name,
                        "applied_shards": sorted(replies),
                        "failed_shards": sorted(dead)})
        return {"kind": "ok", "rows": [], "rowcount": 0,
                "metrics": None}

    def _rollback_create(self, table_name: str,
                         applied: Sequence[int]) -> None:
        """Undo a partially-broadcast CREATE: drop the catalog-mirror
        entry, then send best-effort compensating DROPs to the shards
        that acknowledged (a shard that dies between its CREATE ack
        and the compensating DROP converges the same way: the table
        is gone everywhere that still answers)."""
        try:
            self.session.execute(f"DROP TABLE {table_name}")
        except SqlSyntaxError:
            pass  # mirror never had it (CREATE failed validation)
        self._invalidate_plans()
        if not applied:
            return
        try:
            self._write_sql(f"DROP TABLE {table_name}", applied)
        except (protocol.WireError, protocol.ProtocolError, OSError):
            pass  # compensation is best-effort; the mirror is clean

    def _drop(self, sql: str) -> dict:
        """Broadcast DROP TABLE: mirror first (validates the name),
        then every shard.  A dead replica set surfaces typed with the
        shards that did drop in ``detail`` — a DROP cannot be
        compensated (the data is gone), so partial progress is
        reported rather than rolled back."""
        self.session.execute(sql)
        self._invalidate_plans()
        replies, dead = self._write_sql(sql,
                                        range(self.partitioner.shards))
        if dead:
            raise protocol.WireError(
                protocol.SHARD_UNAVAILABLE,
                f"DROP TABLE lost shard(s) {sorted(dead)}; dropped on "
                f"shard(s) {sorted(replies)} and on the coordinator",
                detail={"applied_shards": sorted(replies),
                        "failed_shards": sorted(dead)})
        return {"kind": "ok", "rows": [], "rowcount": 0,
                "metrics": None}

    def _insert(self, sql: str) -> dict:
        table, rows = self.session.parse_insert(sql)
        inserted = self.insert_rows(table.name, rows)
        return {"kind": "ok", "rows": [], "rowcount": inserted,
                "metrics": None}

    def _delete(self, sql: str, tokens) -> dict:
        """Route a DELETE the way a SELECT with the same WHERE routes:
        to the shards owning the predicate's primary-key interval
        (:meth:`SqlSession._pk_range`) — the one owner for a point, the
        overlapped shards for a key range, every shard when the
        predicate does not bound the key.  Losing a whole replica set
        after other shards deleted rows surfaces their partial
        progress in the typed error's ``detail`` (:func:`_rowcount`)."""
        table, where = self.session._parse_delete(tokens)
        pk_range = self.session._pk_range(table, where)
        targets = self.partitioner.shards_for_range(
            *(pk_range if pk_range is not None else (None, None)))
        deleted = _rowcount("DELETE", *self._write_sql(sql, targets))
        return {"kind": "ok", "rows": [], "rowcount": deleted,
                "metrics": None}

    def _write_sql(self, sql: str, shard_ids):
        """:meth:`_scatter_write` of one statement to every replica of
        each shard in ``shard_ids``."""
        header = {"type": "query", "sql": sql, "cold": False,
                  "timeout": protocol.NO_TIMEOUT}
        return self._scatter_write([(shard_id, header, ())
                                    for shard_id in shard_ids])

    # -- the wire ------------------------------------------------------------

    def _link(self, replica: Replica) -> ShardLink:
        """This thread's link to ``replica`` (made on first use)."""
        links = getattr(self._local, "links", None)
        if links is None:
            links = self._local.links = {}
        key = (replica.shard_id, replica.replica_id)
        link = links.get(key)
        if link is None:
            link = ShardLink(replica.shard_id, replica.host,
                             replica.port,
                             connect_timeout=self.connect_timeout,
                             request_timeout=self.request_timeout,
                             max_frame=self.max_frame)
            links[key] = link
        return link

    # -- one exchange: send, check, bounded retry ---------------------------

    def _send(self, replica: Replica, header: dict, blobs=()) -> bool:
        """Ship one request on this thread's link to ``replica``.  A
        failed send closes the link (the next use reconnects) and
        returns False."""
        link = self._link(replica)
        try:
            link.send(header, blobs)
        except (OSError, protocol.ProtocolError):
            link.close()
            return False
        return True

    def _check(self, replica: Replica, reply: dict) -> str | None:
        """Sort one reply frame: None for an answer, the reason for a
        ``SERVER_BUSY`` rejection.  Any other error frame is the
        statement's own failure — deterministic on every replica — and
        raises typed."""
        if reply.get("type") != "error":
            return None
        code = reply.get("code")
        if code == protocol.SERVER_BUSY:
            return str(reply.get("message") or "replica busy")
        raise protocol.WireError(
            code or protocol.INTERNAL,
            f"shard {replica.shard_id}: {reply.get('message', '')}",
            detail=reply.get("detail"))

    def _exchange_on(self, replica: Replica, header: dict, blobs,
                     sent: bool | None = None
                     ) -> tuple[dict, list[bytes]]:
        """One request/reply against one replica: ``max_retries + 1``
        attempts, with exponential backoff between them.

        A failed send, a failed or timed-out receive and a
        ``SERVER_BUSY`` rejection each cost one attempt.  ``sent`` is
        the outcome of a split-phase send the caller already made on
        this replica; it is attempt 0, so a replica gets the same
        budget whichever path reached it.  After the last attempt the
        *replica* is declared unavailable (:class:`_ReplicaUnavailable`)
        — whether that fails the statement is the caller's call: reads
        fail over to a sibling, writes mark the replica stale.
        """
        last = "no attempt made"
        for attempt in range(self.retry.max_retries + 1):
            if attempt:
                time.sleep(self.retry.delay(attempt - 1))
            if attempt or sent is None:
                sent = self._send(replica, header, blobs)
            if not sent:
                last = "the request could not be sent"
                continue
            link = self._link(replica)
            try:
                reply, rblobs = link.recv()
            except (OSError, protocol.ProtocolError) as exc:
                link.close()
                last = f"{type(exc).__name__}: {exc}"
                continue
            busy = self._check(replica, reply)
            if busy is None:
                return reply, rblobs
            last = busy
        raise _ReplicaUnavailable(
            f"replica {replica.replica_id} ({replica.address}) of "
            f"shard {replica.shard_id} unavailable after "
            f"{self.retry.max_retries + 1} attempts: {last}")

    def _failover(self, shard_id: int, candidates: Sequence[Replica],
                  attempt: Callable[[Replica], object]):
        """Walk one shard's read candidates (:meth:`_read_candidates`,
        in order) until ``attempt`` on one of them returns.

        Each replica ``attempt`` declares unavailable is marked
        suspect; an answer from any but the first candidate counts a
        failover.  The request is replayed as planned — failover never
        re-plans.  Only when every candidate has failed does the shard
        surface as ``SHARD_UNAVAILABLE`` — bounded, typed, never a
        hang.
        """
        last = "no replica in rotation"
        for index, replica in enumerate(candidates):
            try:
                result = attempt(replica)
            except _ReplicaUnavailable as exc:
                self._mark_suspect(replica)
                last = str(exc)
                continue
            if index:
                self._record_failover()
            return result
        raise protocol.WireError(
            protocol.SHARD_UNAVAILABLE,
            f"shard {shard_id} unavailable: all "
            f"{len(self.replica_sets[shard_id])} replica(s) failed "
            f"(last: {last})")

    # -- reads: one replica per shard, failover on loss ----------------------

    def _scatter_read(self, requests
                      ) -> list[tuple[int, dict, list[bytes]]]:
        """Split-phase read fan-out: send every request to one chosen
        replica per target shard, then gather replies in shard order.

        Shards execute concurrently while the coordinator blocks on at
        most one reply at a time; gathering in shard order keeps the
        merge fold deterministic.  Each gather is the chosen replica's
        :meth:`_exchange_on`, with the fan-out's send as its attempt 0,
        inside :meth:`_failover`, which replays the identical request
        on a sibling; the statement only fails when a whole replica
        set is down.  If anything raises mid-gather, every link of
        this thread is closed so no connection is left holding an
        unread reply.
        """
        try:
            sends = []
            for shard_id, header, blobs in requests:
                candidates = self._read_candidates(shard_id)
                sent = self._send(candidates[0], header, blobs) \
                    if candidates else None
                sends.append((candidates, sent))
            replies = []
            for (shard_id, header, blobs), (candidates, sent) in \
                    zip(requests, sends):
                first = candidates[0] if candidates else None
                reply, rblobs = self._failover(
                    shard_id, candidates,
                    lambda replica: self._exchange_on(
                        replica, header, blobs,
                        sent if replica is first else None))
                replies.append((shard_id, reply, rblobs))
            return replies
        except BaseException:
            self.close()
            raise

    # -- writes: every in-rotation replica, fan-in ---------------------------

    def _scatter_write(self, requests
                       ) -> tuple[dict[int, tuple[dict, list[bytes]]],
                                  dict[int, str]]:
        """Write fan-out: ship each request to **every** non-stale
        replica of its target shard (all sends first, then each
        replica's :meth:`_exchange_on` in shard order), read every
        reply, and only then reconcile, shard by shard:

        - if any replica acknowledged, the shard committed: its first
          acknowledgement is the reply, and every replica that did not
          acknowledge (typed error or unavailable) missed the write and
          is marked **stale** (permanently out of rotation);
        - if none did and each returned the same typed error, the
          statement itself is wrong: every replica stays live;
        - if none did and they failed differently, the shard's first
          typed error is the outcome, and each replica that did not
          return it is marked suspect;
        - if every replica was unavailable, nothing committed there:
          the replicas are marked suspect (reprobe may revive them) and
          the shard is dead.

        Returns ``(replies, dead)``: ``replies[shard_id]`` per shard
        that committed, ``dead[shard_id]`` the failure summary per dead
        shard — unless a shard's outcome is a typed error, which is
        then raised (the first shard's, in request order).
        """
        outcomes: dict[int, dict[Replica, object]] = {
            shard_id: {} for shard_id, _h, _b in requests}
        try:
            sends = [(shard_id, header, blobs, replica,
                      self._send(replica, header, blobs))
                     for shard_id, header, blobs in requests
                     for replica in self._write_targets(shard_id)]
            for shard_id, header, blobs, replica, sent in sends:
                try:
                    outcome: object = self._exchange_on(
                        replica, header, blobs, sent)
                except (_ReplicaUnavailable, protocol.WireError) as exc:
                    outcome = exc
                outcomes[shard_id][replica] = outcome
        except BaseException:
            self.close()
            raise
        replies: dict[int, tuple[dict, list[bytes]]] = {}
        dead: dict[int, str] = {}
        errors = []
        for shard_id, shard in outcomes.items():
            acked = [o for o in shard.values() if isinstance(o, tuple)]
            typed = [o for o in shard.values()
                     if isinstance(o, protocol.WireError)]
            if acked:
                replies[shard_id] = acked[0]
            elif typed:
                errors.append(typed[0])
            else:
                dead[shard_id] = "; ".join(
                    map(str, shard.values())) or "no replica in rotation"
            # The error raised for the shard, as its replicas would
            # repeat it: class, code and message.
            raised = repr(typed[0]) if typed and not acked else None
            for replica, outcome in shard.items():
                if acked and not isinstance(outcome, tuple):
                    self._mark_stale(replica)  # missed a commit
                elif not acked and repr(outcome) != raised:
                    self._mark_suspect(replica)
        if errors:
            raise errors[0]
        return replies, dead

    # -- streamed blob relays (bquery) ---------------------------------------

    def relay_bquery(self, shard_id: int, header: dict,
                     emit: Callable[[dict, list[bytes]], None]) -> dict:
        """Relay one ``bquery`` stream from the owning shard, chunk by
        chunk, through ``emit`` (never re-buffering the slice whole).

        Each replica gets one try, through :meth:`_failover`.
        Failover is chunk-exact: if the serving replica dies
        mid-stream, the identical request replays on a sibling and the
        chunks the client already holds are *skipped* — chunking is
        deterministic (same blob bytes, same ``chunk_bytes`` clamp),
        so the resumed stream continues at the next ``seq`` with
        byte-identical frames.  A sibling chunk that disagrees in size
        with one already relayed means the replicas diverged, which is
        a hard ``INTERNAL`` error, never silent corruption.

        Returns ``{"chunks", "bytes", "metrics"}`` for the stats hooks.
        """
        relayed: list[int] = []  # payload size of each chunk emitted

        def stream(replica: Replica) -> dict:
            if not self._send(replica, header):
                raise _ReplicaUnavailable("the request could not be sent")
            link = self._link(replica)
            try:
                seen = 0
                while True:
                    reply, blobs = link.recv()
                    busy = self._check(replica, reply)
                    if busy is not None:
                        # Error frames only ever replace chunk 0, so
                        # nothing of this attempt is on the wire: the
                        # sibling can serve it whole.
                        raise _ReplicaUnavailable(busy)
                    size = len(blobs[0]) if blobs else 0
                    if seen < len(relayed):
                        # Replaying after a mid-stream loss: the
                        # client already holds this chunk.
                        if size != relayed[seen] or reply.get("eof"):
                            raise protocol.WireError(
                                protocol.INTERNAL,
                                f"shard {shard_id} replica "
                                f"{replica.replica_id} chunk stream "
                                f"diverged from its sibling at seq "
                                f"{seen}")
                    else:
                        emit(reply, blobs)
                        relayed.append(size)
                    seen += 1
                    if reply.get("eof"):
                        return {"chunks": len(relayed),
                                "bytes": sum(relayed),
                                "metrics": reply.get("metrics")}
            except (OSError, protocol.ProtocolError) as exc:
                link.close()
                raise _ReplicaUnavailable(
                    f"{type(exc).__name__}: {exc}") from None
            except BaseException:
                link.close()  # a stream cut short leaves chunks unread
                raise

        return self._failover(shard_id, self._read_candidates(shard_id),
                              stream)


class ShardServer(ArrayServer):
    """The coordinator process: an :class:`ArrayServer` whose
    statements execute through a :class:`ShardRouter` instead of local
    storage.

    Clients connect with the unchanged wire protocol
    (:class:`~repro.shard.client.ShardClient` or plain
    :class:`ArrayClient`); admission control, per-query timeouts and
    stats work exactly as on a single node.  A replica failure is
    invisible to clients — reads replay on a sibling — and only a
    fully dead replica set surfaces as a ``SHARD_UNAVAILABLE`` error
    frame — typed, bounded, never a hang — with the client connection
    surviving.
    """

    def __init__(self, router: ShardRouter,
                 config: ServerConfig | None = None,
                 session_setup: Callable[[SqlSession], None] | None = None):
        super().__init__(router.catalog, config, session_setup)
        self.router = router

    def _execute_sync(self, session: SqlSession, sql: str,
                      cold: bool) -> dict:
        # router.execute plans through the coordinator cache (see
        # ShardRouter.prepare), so no frame kind re-plans here.
        return self.router.execute_columnar(sql, cold=cold)

    def _execute_partial_sync(self, session: SqlSession, sql: str,
                              cold: bool) -> dict:
        raise protocol.WireError(
            protocol.BAD_FRAME,
            "the coordinator does not serve pquery frames; they are "
            "shard-internal")

    def _execute_insert_sync(self, session: SqlSession,
                             table_name: str, rows) -> int:
        # Partition by primary key and forward to the owning shards —
        # never into the coordinator's schema-only catalog mirror.
        return self.router.insert_rows(table_name, rows)

    def _prepare_sync(self, session: SqlSession,
                      sql: str) -> tuple[str, str]:
        # Prepare against the router's shared plan cache, not the
        # connection session: every coordinator connection thread
        # reuses the same plan for routing.
        plan = self.router.prepare(sql)
        return plan.kind, plan.table.name

    def _run_bquery(self, conn, session: SqlSession, session_id: int,
                    header: dict) -> bool:
        """Serve a ``bquery`` by *relaying*: route to the one shard
        owning the key and forward each ``bchunk`` frame to the client
        as it arrives — the slice is never re-buffered whole on the
        coordinator.  A replica dying mid-stream fails over
        chunk-exactly to a sibling (see
        :meth:`ShardRouter.relay_bquery`).

        Returns True (close the connection) only when the statement
        fails after chunk 0 is already on the wire: the framing
        contract promises a started stream runs to eof, so it cannot
        be answered with an error frame any more.  A timeout then is
        the watchdog's hang-up (``started=stream.stop``).
        """
        sql = _statement_text(header)
        timeout = self._resolve_timeout(header.get("timeout"))
        stream = _RelayStream(conn, self.config.max_frame)
        try:
            result, latency = self._admit_and_run(
                conn, session_id, timeout,
                lambda: self._relay_bquery(stream, header, sql),
                started=stream.stop)
        except protocol.WireError:
            if stream.close():
                return True  # stream already started: hang up
            raise
        self.stats.record_query(session_id, latency,
                                result["metrics"])
        self.stats.record_bquery(result["chunks"], result["bytes"])
        return False

    def _relay_bquery(self, stream: "_RelayStream", header: dict,
                      sql: str) -> dict:
        """Statement body of the coordinator ``bquery`` path:
        route to the owning shard and write each chunk frame it sends
        straight to the client socket."""
        plan = self.router.prepare(sql)
        if plan.key is None:
            raise protocol.WireError(
                protocol.BAD_FRAME,
                "a sharded bquery needs a point predicate on the "
                "primary key (exactly one owning shard)")
        shard_id = self.router.partitioner.shard_of(plan.key)
        forward = dict(header, timeout=protocol.NO_TIMEOUT)
        return self.router.relay_bquery(shard_id, forward, stream.emit)

    def _connection_ended(self) -> None:
        # This connection thread's replica links go with it.
        self.router.close()

    def _stats_frame(self) -> dict:
        frame = super()._stats_frame()
        frame["shards"] = {
            "count": self.router.partitioner.shards,
            "partitioning": self.router.partitioner.describe(),
            "addresses": [[f"{host}:{port}"
                           for host, port in replica_set]
                          for replica_set in self.router.addresses],
            **self.router.health(),
        }
        return frame


class _RelayStream:
    """Where a relayed ``bquery`` writes: the client socket, for as
    long as the statement is unanswered.

    The connection thread relaying the stream and the watchdog
    answering its timeout both want the socket, so both hold the
    connection's send lock (the watchdog only if it is free at once;
    else it hangs up).  :meth:`stop` — the watchdog's, before it
    answers — says how many chunks went out; a chunk arriving after
    that, or after the client hung up, is dropped, so the relay still
    reads the shard's stream to eof and its link stays framed.
    """

    def __init__(self, conn, max_frame: int):
        self._conn = conn
        self._max_frame = max_frame
        self._open = True
        self._sent = 0

    def emit(self, header: dict, blobs) -> None:
        with self._conn.send_lock:
            if self._open:
                try:
                    protocol.write_frame_sock(self._conn.sock, header,
                                              blobs, self._max_frame)
                    self._sent += 1
                except OSError:
                    # The *client* is gone — not a link failure of the
                    # replica being relayed.
                    self._open = False

    def stop(self) -> int:
        """Write no more chunks; returns how many went out.  The
        caller holds the connection's send lock."""
        self._open = False
        return self._sent

    def close(self) -> int:
        """:meth:`stop`, taking the send lock."""
        with self._conn.send_lock:
            return self.stop()


def start_cluster(config: ShardConfig,
                  retry: RetryPolicy | None = None,
                  session_setup: Callable[[SqlSession], None] | None = None):
    """Spawn a shard fleet and build the router fronting it.

    Returns ``(fleet, router)``; the caller owns the fleet's lifetime
    (``fleet.stop()`` or use it as a context manager).  ``session_setup``
    is applied on every replica's sessions *and* the router's catalog
    mirror, so UDF registrations agree cluster-wide.
    """
    from .process import ShardFleet

    fleet = ShardFleet(config, session_setup=session_setup)
    fleet.start()
    router = ShardRouter(fleet.addresses, config.make_partitioner(),
                         retry=retry, max_frame=config.max_frame,
                         session_setup=session_setup)
    return fleet, router
