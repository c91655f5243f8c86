"""Late materialisation over the wire.

A seek hands the server's hooks the blob cell's handle inside the
statement's read view: a ``bquery`` reads (and is charged) the pages
its window touches, ``query`` / ``pexec`` / ``pquery`` read the cell
out whole, and no frame ever carries the handle.  Every frame kind
plans through the session's bounded plan cache.
"""

import threading
from unittest import mock

import numpy as np
import pytest

from repro.core import SqlArray
from repro.core.partial import iter_byte_runs
from repro.engine import Column, Database, lockcheck
from repro.engine.constants import BLOB_CHUNK_SIZE, PAGE_SIZE
from repro.engine.sqlfront import PLAN_CACHE_SIZE, SqlSession
from repro.server import ArrayClient, ServerError, ServerThread, protocol

EDGE = 32
CUBE = np.random.default_rng(11).standard_normal((EDGE,) * 3)
CUBE_BLOB = SqlArray.from_numpy(CUBE).to_blob()     # 33 chunk pages
SMALL = np.arange(24.0).reshape(2, 3, 4)
SMALL_BLOB = SqlArray.from_numpy(SMALL).to_blob()   # stays in-row
ROWS = {1: CUBE_BLOB, 2: SMALL_BLOB, 3: None}
OFFSET, SIZE = (5, 6, 7), (8, 8, 8)


def make_db() -> Database:
    db = Database()
    table = db.create_table("cubes", [Column("id", "bigint"),
                                      Column("v", "varbinary_max")])
    table.insert_many(sorted(
        list(ROWS.items())
        + [(key, SMALL_BLOB) for key in range(10, 400)]))
    return db


@pytest.fixture(scope="module")
def server():
    sessions = []
    with ServerThread(make_db(),
                      session_setup=sessions.append) as handle:
        handle.sessions = sessions
        yield handle


@pytest.fixture
def client(server):
    with ArrayClient("127.0.0.1", server.port) as c:
        yield c


def point(select: str, key: int) -> str:
    return f"SELECT {select} FROM cubes WHERE id = {key}"


def window_frame(sql: str, cold: bool = True) -> dict:
    return {"type": "bquery", "sql": sql, "cold": cold,
            "window": {"offset": list(OFFSET), "size": list(SIZE)}}


def pages_of(runs) -> int:
    """Distinct chunk pages under ``(offset, length)`` byte runs."""
    return len({chunk for offset, length in runs
                for chunk in range(offset // BLOB_CHUNK_SIZE,
                                   (offset + length - 1)
                                   // BLOB_CHUNK_SIZE + 1)})


@pytest.mark.parametrize("key", [1, 2, 3, 9])  # 9: no such row
def test_no_frame_kind_shows_the_handle(client, key):
    want = ROWS.get(key)
    found = int(key in ROWS)
    for select, expect in [("MAX(v)", (want,)), ("MIN(v)", (want,)),
                           ("MAX(v), COUNT(*)", (want, found))]:
        sql = point(select, key)
        assert client.query(sql).rows == [expect]
        assert client.query_pipeline([sql, sql])[1].rows == [expect]
        reply, blobs = client._request_raw(
            {"type": "pquery", "sql": sql, "cold": True})
        assert reply["type"] == "presult" and reply["rows"] == found
        states = [protocol.unpack_partial(state, blobs)
                  for state in reply["states"]]
        folded = [[] if want is None else [want]]
        assert states == folded + [found] * (len(expect) - 1)


def test_a_cold_window_is_charged_the_pages_it_touches(server, client):
    table = server.server.db.tables["cubes"]
    header = SqlArray.from_blob(CUBE_BLOB).header
    # Chunk 0 holds the array header the window read starts with.
    touched = pages_of([(0, 28), *iter_byte_runs(header, OFFSET, SIZE)])
    assert touched < 12                  # of 33: the parent read them all
    pages = table.tree.height + 1 + touched
    stats = client.stats()
    got = client._read_bquery(window_frame(point("MAX(v)", 1)))
    np.testing.assert_array_equal(
        SqlArray.from_blob(got.data).to_numpy(), CUBE[5:13, 6:14, 7:15])
    assert got.metrics["physical_reads"] == pages
    assert got.metrics["io_bytes"] == pages * PAGE_SIZE
    assert got.metrics["sequential_reads"] \
        + got.metrics["random_reads"] == pages
    assert got.metrics["sim_io_seconds"] > 0
    assert got.metrics["stream_calls"] == 2   # header, then the runs
    warm = client._read_bquery(window_frame(point("MAX(v)", 1),
                                            cold=False))
    assert warm.data == got.data
    assert warm.metrics["physical_reads"] == 0
    assert warm.metrics["io_bytes"] == 0
    # The server's totals are the sum of what its statements reported.
    after = client.stats()
    for name in ("physical_reads", "io_bytes", "stream_calls"):
        assert after["io_totals"][name] - stats["io_totals"][name] == \
            got.metrics[name] + warm.metrics[name]
    assert after["pool_counters"]["physical_reads"] \
        - stats["pool_counters"]["physical_reads"] == pages


def test_a_byte_range_is_charged_its_chunks(server, client):
    table = server.server.db.tables["cubes"]
    offset, length = 3 * BLOB_CHUNK_SIZE - 10, BLOB_CHUNK_SIZE + 20
    got = client.query_blob(point("MAX(v)", 1), offset=offset,
                            length=length)
    assert got.data == CUBE_BLOB[offset:offset + length]
    assert got.metrics["physical_reads"] == table.tree.height + 1 + 3
    assert got.metrics["stream_calls"] == 1
    whole = client.query(point("MAX(v)", 1))
    assert whole.metrics["physical_reads"] == \
        table.tree.height + 1 + pages_of([(0, len(CUBE_BLOB))])


def test_an_in_row_cell_and_a_scan_answer_windows_too(client):
    got = client.query_array(point("MAX(v)", 2),
                             slice=((0, 1, 1), (2, 2, 2)))
    np.testing.assert_array_equal(got, SMALL[:, 1:3, 1:3])
    got = client.query_array(
        "SELECT MAX(v) FROM cubes WHERE id >= 1 AND id < 2",
        slice=(OFFSET, SIZE))
    np.testing.assert_array_equal(got, CUBE[5:13, 6:14, 7:15])
    with pytest.raises(ServerError) as err:
        client.query_array(point("MAX(v)", 3), slice=(OFFSET, SIZE))
    assert err.value.code == protocol.SQL_ERROR


def test_query_and_bquery_frames_plan_through_the_bounded_cache(server):
    """A hot statement is planned once whatever frame kind carries it,
    and a flood of distinct texts leaves at most the bound behind."""
    hot = {"query": point("COUNT(*)", 1), "bquery": point("MAX(v)", 2)}
    flood = PLAN_CACHE_SIZE + 40
    real = SqlSession.plan_select
    with ArrayClient("127.0.0.1", server.port) as c, \
            mock.patch.object(SqlSession, "plan_select", autospec=True,
                              side_effect=real) as planned:
        for key in range(1000, 1000 + flood):
            assert c.query(point("COUNT(*)", key)).scalar() == 0
            assert c.query(hot["query"]).scalar() == 1
            with pytest.raises(ServerError):     # no row, no blob cell
                c.query_blob(point("MAX(v)", key))
            assert c.query_blob(hot["bquery"]).data == SMALL_BLOB
        session = server.sessions[-1]
    texts = [call.args[1] for call in planned.call_args_list]
    assert len(texts) == 2 * flood + 2
    assert texts.count(hot["query"]) == texts.count(hot["bquery"]) == 1
    assert len(session._plan_cache) == PLAN_CACHE_SIZE


def test_a_table_replaced_by_another_session_is_planned_afresh(server):
    with ArrayClient("127.0.0.1", server.port) as a, \
            ArrayClient("127.0.0.1", server.port) as b:
        a.query("CREATE TABLE swap (id BIGINT PRIMARY KEY, x FLOAT)")
        a.query("INSERT INTO swap VALUES (1, 1.0), (2, 2.0)")
        assert b.query("SELECT COUNT(*) FROM swap").scalar() == 2
        assert b.query_pipeline(
            ["SELECT COUNT(*) FROM swap"])[0].scalar() == 2
        a.query("DROP TABLE swap")
        a.query("CREATE TABLE swap (id BIGINT PRIMARY KEY, x FLOAT)")
        a.query("INSERT INTO swap VALUES (7, 7.0)")
        # b's cached plan points at the dropped table.
        assert b.query("SELECT COUNT(*) FROM swap").scalar() == 1
        assert b.query_pipeline(
            ["SELECT COUNT(*) FROM swap"])[0].scalar() == 1
        a.query("DROP TABLE swap")


@pytest.fixture
def sentinel():
    was = lockcheck.is_active()
    lockcheck.set_active(True)
    yield
    lockcheck.set_active(was)


def test_a_window_racing_its_rows_delete_is_whole_or_absent(sentinel):
    """The reader sees the row's window or the no-row error, never torn
    bytes or a lock-order violation (an ``INTERNAL`` error here), and
    no pin outlives its statement."""
    db = make_db()
    want = SqlArray.from_numpy(CUBE[5:13, 6:14, 7:15]).to_blob()
    types, buffers = protocol.pack_rows([(1, CUBE_BLOB)])
    insert = {"type": "insert", "table": "cubes", "rows": types,
              "rowcount": 1}
    windows, absent, failures = [], [], []
    stop = threading.Event()

    def reader(port):
        with ArrayClient("127.0.0.1", port) as c:
            while not stop.is_set():
                try:
                    got = c._read_bquery(
                        window_frame(point("MAX(v)", 1), cold=False))
                except ServerError as exc:
                    (absent if exc.code == protocol.SQL_ERROR
                     else failures).append(exc)
                else:
                    (windows if got.data == want
                     else failures).append(got)

    with ServerThread(db) as handle:
        thread = threading.Thread(target=reader, args=(handle.port,))
        thread.start()
        try:
            with ArrayClient("127.0.0.1", handle.port) as writer:
                for _ in range(40):
                    assert writer.query(
                        "DELETE FROM cubes WHERE id = 1").rowcount == 1
                    reply, _ = writer._request_raw(insert, buffers)
                    assert reply["rowcount"] == 1
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
    assert failures == []
    assert windows
    assert db.tables["cubes"].pinned_versions() == {}
