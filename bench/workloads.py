"""The four benchmark workloads: seeded inputs, statement lists, oracles.

Each workload is a closed-loop stream of *ops*; an op is one pass over
the workload's fixed statement list, so op latencies are unimodal.
Everything here is derived from ``--seed`` — the server (through
``launch.py``), the in-process twin and the oracle all build from the
same :class:`Workload` object, never from each other's output.

Why these four (the layer each one works, and the one it idles):

``table1_scan``   the paper's Q1-Q5 verbatim, cold, on one node.  The
                  scan engine does ~97 % of the work; wire and plan do
                  almost none.
``blob_window``   one Section 2.1 interpolation request = 16 point
                  lookups + partial blob reads under a buffer pool a
                  quarter the size of the data.  Wire round trip,
                  parse/plan, B-tree seek, blob stream and LRU do the
                  work; the scan engine does none.
``shard_scatter`` scatter-gather over 2 shards behind a coordinator.
                  Router, merge and frame (re-)serialisation dominate.
``churn_rw``      INSERT/DELETE/read-your-writes on a sliding window
                  of rows: the storage layers of ``table1_scan`` used
                  the other way, so a read-path gain bought with write
                  cost or page-version bloat shows here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core import SqlArray
from repro.engine import Database, MaxBlobHandle, SqlSession
from repro.shard import ShardConfig
from repro.tsql import FloatArray

#: Hard per-statement budget, server side (``query_timeout``) and
#: client side (socket timeout): a wedged or dead server fails ops, it
#: never hangs a run.
STATEMENT_TIMEOUT = 60.0
#: Bytes of one ``FloatArray.Vector_5`` blob (header + 5 float64).
VECTOR5_BYTES = len(FloatArray.Vector_5(0.0, 0.0, 0.0, 0.0, 0.0))

#: Statement names, in the order metrics list them.  A name belongs to
#: exactly one workload; per-statement metrics read 0 elsewhere.
STATEMENTS = ("q1", "q2", "q3", "q4", "q5", "window", "narrow",
              "wide_scalar", "wide_blob", "insert", "delete", "point",
              "scan")


@dataclass(frozen=True)
class Stmt:
    """One statement of an op and the answer it must give.

    ``expect`` is a row fingerprint (SELECT), an ndarray (``window``
    set: a partial-blob read through ``query_array``) or an int
    rowcount (DML).
    """

    name: str
    sql: str
    cold: bool = False
    window: tuple | None = None
    expect: object = None


def fingerprint(rows) -> tuple:
    """Rows as a hashable value in which floats compare by bit pattern
    (``struct.pack('<d')``), so -0.0 != 0.0 and NaN == NaN."""
    def cell(value):
        if isinstance(value, float):
            return ("f8", struct.pack("<d", value))
        if isinstance(value, (bytes, bytearray, memoryview)):
            return bytes(value)
        return value
    return tuple(tuple(cell(v) for v in row) for row in rows)


def answer_matches(stmt: Stmt, answer) -> bool:
    """Compare a client answer (``QueryResult`` or ndarray) with the
    statement's oracle value."""
    if stmt.window is not None:
        return isinstance(answer, np.ndarray) and \
            answer.dtype == stmt.expect.dtype and \
            np.array_equal(answer, stmt.expect)
    if isinstance(stmt.expect, int):
        return answer.kind == "ok" and answer.rowcount == stmt.expect
    return answer.kind == "rows" and \
        fingerprint(answer.rows) == stmt.expect


def result_rows(values, pool) -> list[tuple]:
    """An engine SELECT result as the wire ships it: a row list with
    out-of-page blob handles read out (``_materialize_result``)."""
    rows = values if isinstance(values, list) else [tuple(values)]
    return [tuple(cell.read_all(pool) if isinstance(cell, MaxBlobHandle)
                  else cell for cell in row) for row in rows]


class Workload:
    """Base: sizes, schema, load plan, op stream.

    Attributes:
        kind: ``"node"`` (one ``ArrayServer``) or ``"cluster"``
            (``ShardServer`` coordinator + ``ShardFleet``).
        buffer_pages: Server (and twin) buffer-pool capacity.
        warmup_ops / counted_ops: Fixed op counts of the warm-up
            (sized so set-up is >= 4 s at default scale) and of the
            counted pass.
    """

    name = ""
    kind = "node"
    buffer_pages: int | None = None
    #: The twin replays the warm-up before its counted pass when its
    #: counts depend on state the warm-up builds (an LRU, here).
    twin_replays_warmup = False
    SIZES: dict = {}

    def __init__(self, seed: int, scale: str = "default"):
        self.seed = int(seed)
        self.scale = scale
        self.size = dict(self.SIZES[scale])
        self.warmup_ops = self.size["warmup_ops"]
        self.counted_ops = self.size["counted_ops"]

    # -- load plan -----------------------------------------------------------

    def ddl(self) -> list[str]:
        """CREATE TABLE statements (run on the server and the twin)."""
        raise NotImplementedError

    def bulk_rows(self) -> dict[str, list[tuple]]:
        """Rows the launcher loads server-side before it reports
        ready (binary ``insert_many`` / ``insert_rows`` path)."""
        return {}

    def wire_load(self) -> list[Stmt]:
        """Statements the client sends during set-up, after ready."""
        return []

    def build_twin(self) -> Database:
        """The in-process twin: same seed, same load plan, one node."""
        db = Database(buffer_pages=self.buffer_pages)
        load_database(db, self)
        session = SqlSession(db)
        for stmt in self.wire_load():
            session.execute(stmt.sql)
        return db

    def bind_oracle(self, twin: Database) -> None:
        """Compute twin-derived expectations (static-data workloads)."""

    # -- op stream -----------------------------------------------------------

    def ops(self):
        """Endless iterator of ops (lists of :class:`Stmt`).  Ops are
        consumed strictly in order; ``churn_rw`` ops are stateful."""
        raise NotImplementedError

    def user_bytes(self, ops_done: int) -> int:
        """Bytes of user data live in the store after ``ops_done``
        ops (column payloads only: no keys' slot overhead, no page
        headers)."""
        raise NotImplementedError


def load_database(db: Database, workload: Workload) -> None:
    """DDL + bulk rows into a local database (server node or twin)."""
    session = SqlSession(db)
    for sql in workload.ddl():
        session.execute(sql)
    for table_name, rows in workload.bulk_rows().items():
        db.tables[table_name].insert_many(rows)


def load_router(router, workload: Workload) -> None:
    """DDL + bulk rows through a ``ShardRouter`` (cluster)."""
    for sql in workload.ddl():
        router.execute(sql)
    for table_name, rows in workload.bulk_rows().items():
        router.insert_rows(table_name, rows)


class StaticWorkload(Workload):
    """Read-only data, one fixed statement list (``QUERIES``): every
    op is the same, and the twin's answers are the oracle."""

    QUERIES: tuple = ()
    COLD = False

    def __init__(self, seed, scale="default"):
        super().__init__(seed, scale)
        self._op = [Stmt(name, sql, cold=self.COLD)
                    for name, sql in self.QUERIES]

    def bind_oracle(self, twin):
        session = SqlSession(twin)
        self._op = [
            Stmt(s.name, s.sql, s.cold, expect=fingerprint(result_rows(
                session.query(s.sql, cold=s.cold)[0], twin.pool)))
            for s in self._op]

    def ops(self):
        while True:
            yield self._op


class Table1Scan(StaticWorkload):
    name = "table1_scan"
    COLD = True
    SIZES = {
        "default": {"rows": 20_000, "warmup_ops": 46, "counted_ops": 4},
        "smoke": {"rows": 1_000, "warmup_ops": 2, "counted_ops": 2},
        "probe": {"rows": 2_000, "warmup_ops": 0, "counted_ops": 1},
    }
    #: Section 6.3's five queries, verbatim.
    QUERIES = (
        ("q1", "SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)"),
        ("q2", "SELECT COUNT(*) FROM Tvector WITH (NOLOCK)"),
        ("q3", "SELECT SUM(v1) FROM Tscalar WITH (NOLOCK)"),
        ("q4", "SELECT SUM(floatarray.Item_1(v, 0)) FROM Tvector "
               "WITH (NOLOCK)"),
        ("q5", "SELECT SUM(dbo.EmptyFunction(v, 0)) FROM Tvector "
               "WITH (NOLOCK)"),
    )

    def ddl(self):
        return ["CREATE TABLE Tscalar (id BIGINT PRIMARY KEY, "
                "v1 FLOAT, v2 FLOAT, v3 FLOAT, v4 FLOAT, v5 FLOAT)",
                "CREATE TABLE Tvector (id BIGINT PRIMARY KEY, "
                "v VARBINARY(100))"]

    def bulk_rows(self):
        rows = self.size["rows"]
        values = np.random.default_rng(self.seed).standard_normal(
            (rows, 5))
        return {
            "Tscalar": [(i, *map(float, values[i]))
                        for i in range(rows)],
            "Tvector": [(i, FloatArray.Vector_5(*values[i]))
                        for i in range(rows)],
        }

    def user_bytes(self, ops_done):
        return self.size["rows"] * ((8 + 5 * 8) + (8 + VECTOR5_BYTES))


class BlobWindow(Workload):
    name = "blob_window"
    twin_replays_warmup = True  # hit rate and reads depend on the LRU
    #: 16 MB of pool under 64 MB of cubes at default scale.
    SIZES = {
        "default": {"cubes": 512, "hot": 48, "pool": 2048,
                    "warmup_ops": 165, "counted_ops": 16},
        "smoke": {"cubes": 24, "hot": 4, "pool": 96,
                  "warmup_ops": 4, "counted_ops": 2},
        "probe": {"cubes": 8, "hot": 2, "pool": 64,
                  "warmup_ops": 0, "counted_ops": 1},
    }
    EDGE = 32
    WINDOW = (8, 8, 8)
    POSITIONS = 16
    HOT_SHARE = 0.8

    def __init__(self, seed, scale="default"):
        super().__init__(seed, scale)
        self.buffer_pages = self.size["pool"]
        rng = np.random.default_rng(self.seed)
        n = self.size["cubes"]
        self.cubes = rng.standard_normal(
            (n, self.EDGE, self.EDGE, self.EDGE)).astype(np.float32)
        self.hot = rng.choice(n, size=self.size["hot"], replace=False)

    def ddl(self):
        return ["CREATE TABLE cubes (id BIGINT PRIMARY KEY, "
                "v VARBINARY(MAX))"]

    def bulk_rows(self):
        return {"cubes": [(i, SqlArray.from_numpy(cube).to_blob())
                          for i, cube in enumerate(self.cubes)]}

    def ops(self):
        rng = np.random.default_rng((self.seed, 1))
        n = self.size["cubes"]
        span = self.EDGE - self.WINDOW[0] + 1
        while True:
            from_hot = rng.random(self.POSITIONS) < self.HOT_SHARE
            hot_ids = self.hot[rng.integers(0, len(self.hot),
                                            self.POSITIONS)]
            any_ids = rng.integers(0, n, self.POSITIONS)
            offsets = rng.integers(0, span, (self.POSITIONS, 3))
            op = []
            for i in range(self.POSITIONS):
                cube_id = int(hot_ids[i] if from_hot[i] else any_ids[i])
                x, y, z = (int(o) for o in offsets[i])
                wx, wy, wz = self.WINDOW
                op.append(Stmt(
                    "window",
                    f"SELECT MAX(v) FROM cubes WHERE id = {cube_id}",
                    window=((x, y, z), self.WINDOW),
                    expect=self.cubes[cube_id, x:x + wx, y:y + wy,
                                      z:z + wz]))
            yield op

    def user_bytes(self, ops_done):
        blob = len(SqlArray.from_numpy(self.cubes[0]).to_blob())
        return self.size["cubes"] * (8 + blob)


class ShardScatter(StaticWorkload):
    name = "shard_scatter"
    kind = "cluster"
    SHARDS = 2
    SIZES = {
        "default": {"rows": 1_200, "warmup_ops": 60, "counted_ops": 6},
        "smoke": {"rows": 200, "warmup_ops": 2, "counted_ops": 2},
        "probe": {"rows": 1_000, "warmup_ops": 0, "counted_ops": 1},
    }
    QUERIES = (
        ("narrow", "SELECT SUM(FloatArray.Item_1(v, 0)), COUNT(*) "
                   "FROM tb"),
        ("wide_scalar", "SELECT id, SUM(v1), AVG(v2) FROM tb "
                        "GROUP BY id"),
        ("wide_blob", "SELECT id, MAX(v) FROM tb GROUP BY id"),
    )

    def ddl(self):
        return ["CREATE TABLE tb (id BIGINT PRIMARY KEY, v1 FLOAT, "
                "v2 FLOAT, v VARBINARY(100))"]

    def bulk_rows(self):
        rows = self.size["rows"]
        values = np.random.default_rng(self.seed).standard_normal(
            (rows, 7))
        return {"tb": [(i, float(values[i, 0]), float(values[i, 1]),
                        bytes(FloatArray.Vector_5(*values[i, 2:])))
                       for i in range(rows)]}

    def shard_config(self, **knobs) -> ShardConfig:
        """The cluster's shape; the launcher and the in-process router
        must partition alike."""
        return ShardConfig(shards=self.SHARDS, replicas=1,
                           partitioning="range", key_lo=0,
                           key_hi=self.size["rows"], **knobs)

    def user_bytes(self, ops_done):
        return self.size["rows"] * (8 + 8 + 8 + VECTOR5_BYTES)


class ChurnRw(Workload):
    name = "churn_rw"
    SIZES = {
        "default": {"rows": 8_192, "batch": 256, "warmup_ops": 60,
                    "counted_ops": 6},
        "smoke": {"rows": 512, "batch": 64, "warmup_ops": 2,
                  "counted_ops": 2},
        "probe": {"rows": 1_024, "batch": 128, "warmup_ops": 0,
                  "counted_ops": 1},
    }
    POINTS = 4
    K_MOD = 97

    def ddl(self):
        return []  # created over the wire: see wire_load

    def batch(self, index: int):
        """Rows of batch ``index``: ids, k values, 5-vectors."""
        size = self.size["batch"]
        ids = range(index * size, (index + 1) * size)
        values = np.random.default_rng(
            (self.seed, index)).standard_normal((size, 5))
        return ids, [i % self.K_MOD for i in ids], values

    def insert_stmt(self, index: int) -> Stmt:
        ids, ks, values = self.batch(index)
        tuples = ", ".join(
            "({}, {}, FloatArray.Vector_5({}))".format(
                i, k, ", ".join(repr(float(x)) for x in row))
            for i, k, row in zip(ids, ks, values))
        return Stmt("insert", f"INSERT INTO t VALUES {tuples}",
                    expect=self.size["batch"])

    def wire_load(self):
        load = [Stmt("create",
                     "CREATE TABLE t (id BIGINT PRIMARY KEY, k INT, "
                     "v VARBINARY(100))", expect=0)]
        batches = self.size["rows"] // self.size["batch"]
        return load + [self.insert_stmt(b) for b in range(batches)]

    def ops(self):
        size = self.size["batch"]
        batches = self.size["rows"] // size
        rng = np.random.default_rng((self.seed, 1 << 20))
        sum_k = sum(i % self.K_MOD for i in range(self.size["rows"]))
        done = 0
        while True:
            head, tail = batches + done, done
            ids, ks, values = self.batch(head)
            sum_k += sum(ks) - sum(
                i % self.K_MOD
                for i in range(tail * size, (tail + 1) * size))
            op = [self.insert_stmt(head),
                  Stmt("delete",
                       f"DELETE FROM t WHERE id >= {tail * size} "
                       f"AND id < {(tail + 1) * size}", expect=size)]
            for pick in rng.integers(0, size, self.POINTS):
                op.append(Stmt(
                    "point",
                    f"SELECT MAX(v) FROM t WHERE id = {ids[pick]}",
                    expect=fingerprint([(bytes(FloatArray.Vector_5(
                        *values[pick])),)])))
            op.append(Stmt("scan", "SELECT COUNT(*), SUM(k) FROM t",
                           expect=fingerprint(
                               [(self.size["rows"], sum_k)])))
            yield op
            done += 1

    def user_bytes(self, ops_done):
        return self.size["rows"] * (8 + 4 + VECTOR5_BYTES)


WORKLOADS: dict[str, type[Workload]] = {cls.name: cls
             for cls in (Table1Scan, BlobWindow, ShardScatter, ChurnRw)}
