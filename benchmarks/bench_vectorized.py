"""Benchmark: the batch engine vs the row-at-a-time oracle.

Runs the five Table 1 query shapes (paper Section 6.3) through the SQL
front-end — the one engine, a batch at a time — and through the row
oracle of the tests (``tests/engine/row_oracle.py``: one decoded tuple
at a time through the same expression tree), and checks that the engine
returns bit-identical values with identical simulated IO accounting
while being substantially faster in wall time.

``pytest benchmarks/bench_vectorized.py --benchmark-only`` times the
engine per query and records the row/vector speedup under each
benchmark's ``extra_info``; the plain (non-benchmark) test asserts the
headline claim — at least 5x on the Q3-shape scan
``SUM(Item_1(blob, i))``, the query the batch engine was built for.
"""

import os
import struct
import sys
import time

import pytest

from repro.engine import SqlSession

from table1_harness import SQL_TEXT

# The row side lives with the tests, one directory up from here.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
from tests.engine import row_oracle  # noqa: E402

#: The ``SUM(Item_1(blob, i))`` full-table scan ("Query 4" in the
#: harness's Table 1 numbering): one UDF call per row on the oracle,
#: one NumPy gather per batch on the engine.
ITEM_SCAN_SQL = SQL_TEXT["Query 4"]


@pytest.fixture(scope="module")
def session(table1_db):
    db, _ts, _tv, _values = table1_db
    return SqlSession(db)


def _bits(values):
    """Bit-exact comparison key (floats by IEEE-754 pattern)."""
    return tuple(
        ("f", struct.pack("<d", v)) if isinstance(v, float) else v
        for v in values)


def _run(session, sql, query=SqlSession.query):
    """``(wall seconds, values, metrics)`` of ``sql`` on the engine or,
    with ``query=row_oracle.query``, on the oracle."""
    t0 = time.perf_counter()
    values, metrics = query(session, sql)
    return time.perf_counter() - t0, values, metrics


def _strip_volatile(metrics):
    d = metrics.to_dict()
    for key in ("wall_seconds", "engine"):
        d.pop(key, None)
    return d


@pytest.mark.parametrize("label", list(SQL_TEXT))
def test_table1_shape_row_vs_vector(benchmark, session, label):
    """Each Table 1 shape: identical values + IO on both sides; the
    benchmark clock runs on the engine."""
    sql = SQL_TEXT[label]
    t_row, row_vals, row_m = _run(session, sql, row_oracle.query)
    vec_vals, vec_m = benchmark(session.query, sql)
    assert _bits(row_vals) == _bits(vec_vals), label
    assert _strip_volatile(row_m) == _strip_volatile(vec_m), label
    assert vec_m.engine == "vector"
    benchmark.extra_info["row_wall_seconds"] = t_row
    benchmark.extra_info["speedup_vs_row"] = \
        t_row / max(vec_m.wall_seconds, 1e-9)


def test_item_scan_speedup_at_least_5x(session):
    """The acceptance bar: >= 5x on the Q3-shape ``SUM(Item_1(v, 0))``
    scan, with bit-identical results and identical IO counters."""
    t_row, row_vals, row_m = _run(session, ITEM_SCAN_SQL,
                                  row_oracle.query)
    t_vec = min(_run(session, ITEM_SCAN_SQL)[0] for _ in range(3))
    _t, vec_vals, vec_m = _run(session, ITEM_SCAN_SQL)
    assert _bits(row_vals) == _bits(vec_vals)
    assert _strip_volatile(row_m) == _strip_volatile(vec_m)
    assert row_m.engine == "row" and vec_m.engine == "vector"
    assert t_row / t_vec >= 5.0, \
        f"row {t_row:.3f}s / vector {t_vec:.3f}s = {t_row / t_vec:.1f}x"


def vector_speedups(session) -> dict:
    """Oracle/engine wall-time ratios for the five Table 1 shapes (used
    by ``collect_results.py`` to record speedups into the results
    JSON)."""
    speedups = {}
    for label, sql in SQL_TEXT.items():
        t_row, row_vals, _m = _run(session, sql, row_oracle.query)
        t_vec = min(_run(session, sql)[0] for _ in range(3))
        _t, vec_vals, _m = _run(session, sql)
        assert _bits(row_vals) == _bits(vec_vals), label
        speedups[label] = t_row / max(t_vec, 1e-9)
    return speedups
