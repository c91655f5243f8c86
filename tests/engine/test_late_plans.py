"""Late materialisation on seek plans.

``MIN``/``MAX`` directly over a ``VARBINARY(MAX)`` column of a point
plan hands the cell's handle through instead of reading the blob; the
statement's consumer dereferences what it needs inside the read view
and pays for it in the statement's metrics.  The in-process API never
shows the handle, and no other plan changes.
"""

import numpy as np
import pytest

from repro.core import SqlArray
from repro.core.partial import iter_byte_runs, read_subarray
from repro.engine import Column, Database, MaxBlobHandle, SqlSession
from repro.engine.constants import BLOB_CHUNK_SIZE, PAGE_SIZE
from repro.engine.executor import Max, ReadBlob
from tests.engine import row_oracle

EDGE = 32
BIG = np.random.default_rng(7).standard_normal((EDGE,) * 3)
BIG_BLOB = SqlArray.from_numpy(BIG).to_blob()       # 33 chunks
SMALL_BLOB = SqlArray.from_numpy(np.arange(6.0)).to_blob()  # in-row
ROWS = {1: BIG_BLOB, 2: SMALL_BLOB, 3: None}


@pytest.fixture
def session():
    db = Database()
    table = db.create_table("cubes", [Column("id", "bigint"),
                                      Column("v", "varbinary_max")])
    # Rows around the ones under test, so the tree has a root to
    # descend from.
    table.insert_many(sorted(
        list(ROWS.items())
        + [(key, SMALL_BLOB) for key in range(10, 400)]))
    return SqlSession(db)


def point(select: str, key: int) -> str:
    return f"SELECT {select} FROM cubes WHERE id = {key}"


class TestTheHandleNeverShows:
    @pytest.mark.parametrize("key", [1, 2, 3, 9])  # 9: no such row
    @pytest.mark.parametrize("side", ["engine", "oracle"])
    def test_point_selects_answer_bytes(self, session, key, side):
        query = row_oracle.query if side == "oracle" else SqlSession.query
        want = ROWS.get(key)
        for select, expect in [("MAX(v)", (want,)), ("MIN(v)", (want,)),
                               ("MAX(v), COUNT(*)",
                                (want, int(key in ROWS))),
                               ("COUNT(*), MIN(v), MAX(v)",
                                (int(key in ROWS), want, want))]:
            values, metrics = query(session, point(select, key))
            assert values == expect
            assert all(v is None or type(v) is bytes
                       for v in values if not isinstance(v, int))
            assert metrics.rows == int(key in ROWS)
        assert session.db.tables["cubes"].pinned_versions() == {}

    def test_a_partial_state_holds_bytes_too(self, session):
        payload = session.query_partial(point("MAX(v), COUNT(*)", 1))
        assert list(payload["groups"]) == [(0, [[BIG_BLOB], 1])]
        payload = session.query_partial(point("MIN(v)", 3))
        assert list(payload["groups"]) == [(0, [[]])]

    def test_a_hook_is_handed_the_handle_inside_the_pin(self, session):
        table = session.db.tables["cubes"]
        seen = []

        def hook(result):
            (cell,), _metrics = result
            seen.append((cell, table.pinned_versions()))
            return "consumed"

        assert session.query(point("MAX(v)", 1),
                             finalize=hook) == "consumed"
        assert session.query(point("MAX(v)", 2),
                             finalize=hook) == "consumed"
        (big, pins), (small, _pins) = seen
        assert isinstance(big, MaxBlobHandle)
        assert big.length == len(BIG_BLOB)
        assert small == SMALL_BLOB         # an in-row cell is its bytes
        assert sum(pins.values()) == 1     # the statement's own pin
        assert table.pinned_versions() == {}

    def test_a_failing_hook_releases_pin_and_cold_view(self, session):
        def hook(result):
            raise RuntimeError("consumer failed")

        pool = session.db.pool
        with pytest.raises(RuntimeError, match="consumer failed"):
            session.query(point("MAX(v)", 1), finalize=hook)
        assert session.db.tables["cubes"].pinned_versions() == {}
        # Warm again: a leaked cold view would charge these reads.
        _values, metrics = session.query(point("MAX(v)", 1), cold=False)
        _values, metrics = session.query(point("MAX(v)", 1), cold=False)
        assert metrics.physical_reads == 0
        assert pool._thread_state().cold_seen is None


class TestOnlySeeksOfABareBlobColumnChange:
    def test_which_plans_are_late(self, session):
        def plan(sql):
            return session.plan_select(sql)

        for select in ("MAX(v)", "MIN(v)", "COUNT(*), MAX(v)"):
            late = plan(point(select, 1))
            assert late.kind == "point" and late.late
            assert not any(isinstance(agg.expr, ReadBlob)
                           for agg in late.aggregates)
        for sql in (point("COUNT(*)", 1),
                    point("MAX(FloatArrayMax.Item_3(v, 1, 2, 3))", 1),
                    point("SUM(FloatArrayMax.Item_3(v, 1, 2, 3))", 1),
                    "SELECT MAX(v) FROM cubes",
                    "SELECT MAX(v) FROM cubes WHERE id >= 1 AND id < 3",
                    "SELECT MAX(v) FROM cubes WHERE id = 1 OR id = 2",
                    "SELECT id, MAX(v) FROM cubes GROUP BY id",
                    "SELECT id, MAX(v) FROM cubes WHERE id = 1 "
                    "GROUP BY id"):
            assert not plan(sql).late, sql
        scan = plan("SELECT MAX(v) FROM cubes WHERE id >= 1 AND id < 3")
        assert type(scan.aggregates[0]) is Max
        assert isinstance(scan.aggregates[0].expr, ReadBlob)

    def test_explain_reads_as_before(self, session):
        assert session.explain(point("MAX(v)", 1)) == \
            "clustered index seek on cubes (id = 1)"
        assert session.explain(
            "SELECT MAX(v) FROM cubes WHERE id >= 1 AND id < 3") == \
            "clustered index scan on cubes with residual predicate"
        assert session.explain(
            "SELECT id, MAX(v) FROM cubes GROUP BY id") == \
            "hash aggregate (clustered scan) on cubes grouped by id"
        assert session.explain("SELECT MAX(v) FROM cubes") == \
            "clustered index scan on cubes"

    def test_the_other_plans_still_answer_bytes(self, session):
        (got,), _m = session.query(
            "SELECT MAX(v) FROM cubes WHERE id >= 1 AND id < 2")
        assert got == BIG_BLOB
        rows, _m = session.query(
            "SELECT id, MAX(v) FROM cubes WHERE id < 4 GROUP BY id")
        assert rows == [(1, BIG_BLOB), (2, SMALL_BLOB), (3, None)]


class TestTheHookPaysInTheStatementsMetrics:
    OFFSET, SIZE = (5, 6, 7), (8, 8, 8)

    def window(self, session, cold):
        streams = []

        def hook(result):
            (cell,), metrics = result
            streams.append(cell.open_stream(session.db.pool))
            return read_subarray(streams[0], self.OFFSET,
                                 self.SIZE), metrics

        window, metrics = session.query(point("MAX(v)", 1), cold=cold,
                                        finalize=hook)
        return window, metrics, streams[0]

    def test_a_cold_window_reads_the_pages_it_touches(self, session):
        table = session.db.tables["cubes"]
        pool = session.db.pool
        before = pool.snapshot_counters()
        window, metrics, stream = self.window(session, cold=True)
        np.testing.assert_array_equal(
            window.to_numpy(), BIG[5:13, 6:14, 7:15])
        header = SqlArray.from_blob(BIG_BLOB).header
        touched = {0} | {      # chunk 0: the header read
            chunk for offset, length in iter_byte_runs(
                header, self.OFFSET, self.SIZE)
            for chunk in range(offset // BLOB_CHUNK_SIZE,
                               (offset + length - 1) // BLOB_CHUNK_SIZE
                               + 1)}
        assert 1 < len(touched) < 12       # of the blob's 33 chunks
        pages = table.tree.height + 1 + len(touched)
        assert metrics.physical_reads == pages
        assert metrics.io_bytes == pages * PAGE_SIZE
        assert metrics.sequential_reads + metrics.random_reads == pages
        assert metrics.sim_io_seconds > 0
        assert metrics.sim_exec_seconds >= metrics.sim_io_seconds
        # The stream's own count: its bytes are header + window only.
        assert stream.bytes_read == 28 + 8 ** 3 * 8
        assert stream.stream_calls == 2
        # What the statement reports is what the pool served.
        delta = pool.snapshot_counters().delta_since(before)
        assert delta.physical_reads == pages

    def test_a_warm_repeat_reads_nothing(self, session):
        self.window(session, cold=True)
        _window, metrics, _stream = self.window(session, cold=False)
        assert metrics.physical_reads == 0 and metrics.io_bytes == 0
        assert metrics.sim_io_seconds == 0.0

    def test_reading_the_cell_out_whole_is_charged_too(self, session):
        table = session.db.tables["cubes"]
        chunks = -(-len(BIG_BLOB) // BLOB_CHUNK_SIZE)
        _values, metrics = session.query(point("MAX(v)", 1), cold=True)
        assert metrics.physical_reads == table.tree.height + 1 + chunks
