"""The shard side of a ``pquery`` hands arrays to the frame.

``query_partial`` answers a vectorized grouped scan with the arrays
the scan built (``GroupArrays``) — a scalar statement with one group
under the key 0 — and ``_pack_presult`` wraps them in ``Columns`` as
they are.  The wire does not change: the type string
and every buffer are what ``Columns.from_groups`` makes of the same
partial as ``(key, [partials])`` pairs, and what the row oracle's
partial — its finished rows loaded into the same arrays — packs.
"""

import random
from unittest import mock

import numpy as np
import pytest

from repro.engine import Column, Database
from repro.engine.executor import Col, Executor, Max, PartialCapture
from repro.engine.sqlfront import SqlSession
from repro.engine.table import MaxBlobHandle
from repro.engine.vectorized import GroupArrays, ValuesColumn
from repro.server import ServerConfig, protocol
from repro.server.columnar import Column as WireColumn
from repro.server.server import ArrayServer
from repro.tsql import FloatArray, FloatArrayMax
from tests.engine import row_oracle

#: bench/workloads.py, ``ShardScatter.QUERIES``.
SCATTER = [
    "SELECT SUM(FloatArray.Item_1(v, 0)), COUNT(*) FROM tb",
    "SELECT id, SUM(v1), AVG(v2) FROM tb GROUP BY id",
    "SELECT id, MAX(v) FROM tb GROUP BY id",
]
#: Multi-value groups, a NULL key, NULL and ragged blobs, a float key
#: with a NULL group only, ints, an aggregate that saw nothing, a
#: shard that holds no qualifying row.
MIXED = [
    "SELECT k, SUM(x), AVG(x), COUNT(*), MAX(b) FROM m GROUP BY k",
    "SELECT k, MIN(b), SUM(id), MIN(x) FROM m WHERE x > 0 GROUP BY k",
    "SELECT x, COUNT(*), MAX(k) FROM m GROUP BY x",
    "SELECT k, SUM(x) FROM m WHERE x IS NULL GROUP BY k",
    "SELECT x, MAX(b) FROM m WHERE x IS NULL GROUP BY x",
    "SELECT k, SUM(x), COUNT(*) FROM m WHERE id < 0 GROUP BY k",
]


@pytest.fixture(scope="module")
def server():
    db = Database()
    rng = random.Random(5)
    tb = db.create_table("tb", [
        Column("id", "bigint"), Column("v1", "float"),
        Column("v2", "float"), Column("v", "varbinary", cap=100)])
    tb.insert_many([
        (i, rng.gauss(0, 1), rng.gauss(0, 1),
         FloatArray.Vector_5(*[rng.gauss(0, 1) for _ in range(5)]))
        for i in range(300)])
    m = db.create_table("m", [
        Column("id", "bigint"), Column("k", "int"), Column("x", "float"),
        Column("b", "varbinary", cap=100),
        Column("mb", "varbinary_max")])
    m.insert_many([
        (i, None if i % 11 == 0 else i % 5,
         None if i % 7 == 0 else (i % 13) * 0.25 - 1.0,
         None if i % 9 == 0 else bytes([i % 251]) * (i % 6),
         FloatArrayMax.Vector([float(i)] * (8 if i % 2 else 1100)))
        for i in range(200)])
    return ArrayServer(db, ServerConfig())


def frame(server, sql, oracle=False):
    session = SqlSession(server.db)
    if oracle:
        payload = row_oracle.query_partial(
            session, sql, cold=False, finalize=server._materialize_partials)
        result = dict(payload, kind="partial",
                      metrics=payload["metrics"].to_dict())
    else:
        result = server._execute_partial_sync(session, sql, cold=False)
    reply, buffers = server._pack_presult(result, 0.0)
    return result["groups"], reply, [bytes(b) for b in buffers]


@pytest.mark.parametrize("sql", SCATTER + MIXED)
def test_the_frame_is_what_the_pairs_packed_to(server, sql):
    groups, reply, buffers = frame(server, sql)
    assert isinstance(groups, GroupArrays)
    if "GROUP BY" not in sql:   # the scalar statement: one group, key 0
        assert [key for key, _partials in groups] == [0]
    types, want = protocol.Columns.from_groups(list(groups)).encode()
    assert reply["groups"] == types
    assert reply["rowcount"] == len(groups)
    assert buffers == [bytes(b) for b in want]
    # ... and what the row oracle's partial puts on the wire.
    _groups, row_reply, row_buffers = frame(server, sql, oracle=True)
    for key in ("groups", "rowcount", "rows"):
        assert reply[key] == row_reply[key], key
    assert buffers == row_buffers


def test_nothing_is_called_per_group_for_a_handle_free_partial(server):
    """Neither the finalize hook nor the packer materialises a pair, a
    per-group value list, or a cell-typed column of the float values:
    the scan's arrays are the frame's buffers."""
    def spy(owner, name):
        return mock.patch.object(owner, name, autospec=True,
                                 side_effect=getattr(owner, name))

    with spy(GroupArrays, "__getitem__") as pairs, \
            spy(ValuesColumn, "states") as value_lists, \
            spy(WireColumn, "from_cells") as typed_from_cells, \
            spy(MaxBlobHandle, "read_all") as blob_reads:
        groups, reply, buffers = frame(server, SCATTER[1])
    assert pairs.call_count == value_lists.call_count == 0
    assert blob_reads.call_count == 0
    # The key column is typed from its cells (one call for the whole
    # column); the two float value columns are wrapped as they are.
    assert typed_from_cells.call_count == 1
    assert reply["groups"] == "q*d*d" and len(groups) == 300
    _counts, values = groups.arrays()[2][0]
    assert buffers[2] == values.tobytes() and values.dtype == np.float64


def test_blob_handles_in_a_partial_are_read_under_the_latch(server):
    """SQL wraps a ``varbinary_max`` column of a grouped statement in
    ``ReadBlob``, so handles reach a grouped partial only through the
    executor API (a seek hands one through in a scalar state, see
    ``test_late_materialisation.py``); the finalize hook still
    resolves them — touching only the column that holds any."""
    table = server.db.tables["m"]
    partial, _metrics = Executor(server.db).run_partial(
        table, [PartialCapture(Max(Col("mb"))),
                PartialCapture(Max(Col("x")))], group_expr=Col("id"))
    assert isinstance(partial, GroupArrays)
    (_c, blobs), (_c, floats) = partial.arrays()[2]
    handles = [v for v in blobs.tolist() if isinstance(v, MaxBlobHandle)]
    assert len(handles) == 100
    payload = server._materialize_partials({"groups": partial})
    assert payload["groups"] is partial
    assert partial.arrays()[2][1][1] is floats
    want = [(row[0], [[row[4].read_all(server.db.pool)
                       if isinstance(row[4], MaxBlobHandle) else row[4]],
                      [] if row[2] is None else [row[2]]])
            for row in table.scan()]
    assert list(partial) == want
