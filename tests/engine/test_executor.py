"""Executor tests: query correctness and Table 1 metric shape."""

import numpy as np
import pytest

from repro.engine import (
    Avg,
    Col,
    Const,
    Count,
    Database,
    Executor,
    Column,
    Max,
    Min,
    ReadBlob,
    ScalarUdf,
    Sum,
)
from repro.tsql import FloatArray

N_ROWS = 4000


@pytest.fixture(scope="module")
def loaded():
    """The two evaluation tables of Section 6.2, scaled down."""
    db = Database()
    ts = db.create_table("Tscalar",
                         [Column("id", "bigint")] +
                         [Column(f"v{i}", "float") for i in range(1, 6)])
    tv = db.create_table("Tvector", [Column("id", "bigint"),
                                     Column("v", "varbinary", cap=100)])
    rng = np.random.default_rng(0)
    values = rng.standard_normal((N_ROWS, 5))
    for i in range(N_ROWS):
        ts.insert((i, *values[i]))
        tv.insert((i, FloatArray.Vector_5(*values[i])))
    return db, ts, tv, values


def _item_udf(blob, i):
    return FloatArray.Item_1(blob, i)


def _empty_udf(blob, i):
    return 0.0


class TestCorrectness:
    def test_count(self, loaded):
        db, ts, tv, _values = loaded
        ex = Executor(db)
        (n,), _m = ex.run(ts, [Count()])
        assert n == N_ROWS
        (n,), _m = ex.run(tv, [Count()])
        assert n == N_ROWS

    def test_sum_scalar_column(self, loaded):
        db, ts, _tv, values = loaded
        (total,), _m = Executor(db).run(ts, [Sum(Col("v1"))])
        assert total == pytest.approx(values[:, 0].sum())

    def test_sum_via_udf_matches_scalar_sum(self, loaded):
        db, _ts, tv, values = loaded
        expr = ScalarUdf(_item_udf, Col("v"), Const(0), body_cost="item")
        (total,), _m = Executor(db).run(tv, [Sum(expr)])
        assert total == pytest.approx(values[:, 0].sum())

    def test_multiple_aggregates_one_pass(self, loaded):
        db, ts, _tv, values = loaded
        (n, total, lo, hi, avg), _m = Executor(db).run(
            ts, [Count(), Sum(Col("v2")), Min(Col("v2")),
                 Max(Col("v2")), Avg(Col("v2"))])
        assert n == N_ROWS
        assert total == pytest.approx(values[:, 1].sum())
        assert lo == pytest.approx(values[:, 1].min())
        assert hi == pytest.approx(values[:, 1].max())
        assert avg == pytest.approx(values[:, 1].mean())

    def test_where_filter(self, loaded):
        db, ts, _tv, values = loaded

        class Positive:
            def columns(self):
                return {"v1"}

            def static_cpu_cost(self, table, model):
                return model.cpu_decode_fixed

            def eval_batch(self, ctx):
                values, mask = ctx.batch.column("v1")
                return values > 0, mask

        (n,), _m = Executor(db).run(ts, [Count()], where=Positive())
        assert n == (values[:, 0] > 0).sum()

    def test_sum_skips_nulls(self):
        db = Database()
        t = db.create_table("t", [Column("id", "bigint"),
                                  Column("x", "float")])
        t.insert((1, 1.5))
        t.insert((2, None))
        t.insert((3, 2.5))
        (total, avg), _m = Executor(db).run(t, [Sum(Col("x")),
                                                Avg(Col("x"))])
        assert total == 4.0
        assert avg == 2.0


class TestTable1Shape:
    """The relational facts of Table 1, at reduced scale.

    Absolute numbers need the 357 M row projection (see the benchmark
    harness); the *orderings* hold at any scale.
    """

    @pytest.fixture(scope="class")
    def metrics(self, loaded):
        db, ts, tv, _values = loaded
        ex = Executor(db)
        out = {}
        (_,), out["q1"] = ex.run(ts, [Count()], label="Query 1")
        (_,), out["q2"] = ex.run(tv, [Count()], label="Query 2")
        (_,), out["q3"] = ex.run(ts, [Sum(Col("v1"))], label="Query 3")
        (_,), out["q4"] = ex.run(tv, [Sum(ScalarUdf(
            _item_udf, Col("v"), Const(0), body_cost="item"))],
            label="Query 4")
        (_,), out["q5"] = ex.run(tv, [Sum(ScalarUdf(
            _empty_udf, Col("v"), Const(0), body_cost="empty"))],
            label="Query 5")
        return out

    def test_q1_q3_io_bound(self, metrics):
        # Queries 1 and 3 read the same table and are both IO-bound:
        # identical execution time at full IO rate.
        assert metrics["q1"].sim_exec_seconds == pytest.approx(
            metrics["q3"].sim_exec_seconds)
        assert metrics["q1"].cpu_percent < 60
        assert metrics["q3"].cpu_percent > metrics["q1"].cpu_percent

    def test_q2_reads_bigger_table(self, metrics):
        ratio = metrics["q2"].io_bytes / metrics["q1"].io_bytes
        assert 1.3 < ratio < 1.6  # the 43 % size overhead
        assert metrics["q2"].sim_exec_seconds > \
            metrics["q1"].sim_exec_seconds

    def test_q4_q5_cpu_bound(self, metrics):
        for q in ("q4", "q5"):
            assert metrics[q].cpu_percent > 90
            assert metrics[q].sim_exec_seconds > \
                3 * metrics["q2"].sim_exec_seconds
            # IO rate collapses when CPU-bound.
            assert metrics[q].io_mb_per_s < \
                metrics["q2"].io_mb_per_s / 2

    def test_q4_costs_more_than_q5(self, metrics):
        # Real item extraction adds ~22 % over the empty call
        # (Section 7.1).
        ratio = metrics["q4"].sim_cpu_core_seconds / \
            metrics["q5"].sim_cpu_core_seconds
        assert 1.1 < ratio < 1.4

    def test_udf_calls_counted(self, metrics):
        assert metrics["q4"].udf_calls == N_ROWS
        assert metrics["q5"].udf_calls == N_ROWS
        assert metrics["q1"].udf_calls == 0

    def test_scaled_projection_preserves_cpu_percent(self, metrics):
        m = metrics["q4"]
        big = m.scaled(1000.0)
        assert big.rows == m.rows * 1000
        assert big.cpu_percent == pytest.approx(m.cpu_percent, abs=1.0)
        assert big.sim_exec_seconds == pytest.approx(
            m.sim_exec_seconds * 1000, rel=0.01)


class TestBlobExpressions:
    def test_read_blob_materializes_out_of_page(self):
        db = Database()
        t = db.create_table("cubes", [Column("id", "bigint"),
                                      Column("data", "varbinary_max")])
        payload = np.random.default_rng(0).bytes(40_000)
        t.insert((1, payload))

        def length_udf(blob):
            return len(blob)

        (total,), m = Executor(db).run(
            t, [Sum(ScalarUdf(length_udf, ReadBlob(Col("data")),
                              body_cost=1e-6))])
        assert total == 40_000
        assert m.stream_calls >= 1


class TestGroupedExecution:
    def test_run_grouped_directly(self):
        db = Database()
        t = db.create_table("g", [Column("id", "bigint"),
                                  Column("bucket", "int"),
                                  Column("x", "float")])
        rng = np.random.default_rng(0)
        data = []
        for i in range(300):
            b = int(rng.integers(0, 5))
            x = float(rng.standard_normal())
            data.append((b, x))
            t.insert((i, b, x))
        rows, m = Executor(db).run_grouped(
            t, Col("bucket"), [Count(), Sum(Col("x"))])
        assert [r[0] for r in rows] == [0, 1, 2, 3, 4]
        for b, count, total in rows:
            members = [x for bb, x in data if bb == b]
            assert count == len(members)
            assert total == pytest.approx(sum(members))
        assert m.rows == 300

    def test_grouped_metrics_cost_more_than_plain(self):
        db = Database()
        t = db.create_table("g2", [Column("id", "bigint"),
                                   Column("bucket", "int")])
        for i in range(500):
            t.insert((i, i % 3))
        ex = Executor(db)
        _rows, grouped = ex.run_grouped(t, Col("bucket"), [Count()])
        (_n,), plain = ex.run(t, [Count()])
        # The hash probe and group-column decode are charged.
        assert grouped.sim_cpu_core_seconds > plain.sim_cpu_core_seconds

    def test_null_group_sorts_last(self):
        db = Database()
        t = db.create_table("g3", [Column("id", "bigint"),
                                   Column("bucket", "int")])
        t.insert((1, 0))
        t.insert((2, None))
        t.insert((3, 0))
        rows, _m = Executor(db).run_grouped(t, Col("bucket"), [Count()])
        assert rows == [(0, 2), (None, 1)]
