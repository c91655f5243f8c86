"""Grouped scans as arrays: one stable partition and one segment fold
per batch, against the row oracle and against plain Python.

The differential half generates grouped statements over two tables —
one whose batches decode as a record matrix, one whose records are
ragged — and holds the engine to the oracle's bits *and* metrics
(``assert_parity``).  Both tables span several 64-page
batches, so a group meets its own running state as a seed.
The kernel half pins :func:`fold_segments_kernel` to
``functools.reduce(op, ...)`` bit for bit, and the state half a
many-batch ``GROUP BY pk`` to appended chunks.
"""

import functools
import operator
import random
import struct
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, vectorized
from repro.engine.executor import (
    Col, Count, Executor, Max, Min, PartialCapture)
from repro.engine.sqlfront import SqlSession
from repro.engine.table import MaxBlobHandle
from repro.tsql import FloatArray, FloatArrayMax

from . import row_oracle
from .test_parity import NEG_NAN, POS_NAN, _bits, assert_parity

INF = float("inf")
SPECIALS = [INF, -INF, NEG_NAN, POS_NAN, -0.0, 0.0, 1e308, -1e308,
            5e-324]
#: Float group keys: both zeros (one group, the first seen reported).
FLOAT_KEYS = [0.0, -0.0, 1.0, -1.5, 2.5, 1e300]

U_ROWS = 2600   # ~17 rows a page: three batches
G_ROWS = 1500   # ~20 rows a page: two batches


def _x(rng):
    roll = rng.random()
    if roll < 0.10:
        return None
    if roll < 0.25:
        return rng.choice(SPECIALS)
    return rng.uniform(-5.0, 5.0) * 10.0 ** rng.randrange(-3, 4)


def _vector5(rng):
    return FloatArray.Vector_5(*[rng.uniform(-1.0, 1.0)
                                 for _ in range(5)])


@pytest.fixture(scope="module")
def session():
    db = Database(buffer_pages=4096)
    rng = random.Random(19)
    # u: every record the same length (NULLs only in fixed columns), so
    # each batch is one record matrix and every column a strided view.
    u = db.create_table("u", [
        Column("id", "bigint"), Column("lo", "int"), Column("nk", "int"),
        Column("fk", "float"), Column("nf", "float"), Column("x", "float"),
        Column("r", "real"), Column("big", "bigint"),
        Column("b", "varbinary", cap=100),
        Column("pad", "varbinary", cap=400)])
    u.insert_many([
        (i, rng.randrange(7),
         None if rng.random() < 0.1 else rng.randrange(5),
         rng.choice(FLOAT_KEYS),
         # NaN keys only late in the scan: the array state built over
         # the first batches must turn into the per-lane dict.
         POS_NAN if i > 1900 and rng.random() < 0.05
         else rng.choice(FLOAT_KEYS[2:]),
         _x(rng), None if rng.random() < 0.1 else rng.uniform(-9, 9),
         rng.choice([1, -1]) * (2 ** 62 - rng.randrange(1000)),
         _vector5(rng), bytes(400))
        for i in range(U_ROWS)])
    # g: NULL and ragged variable columns — the per-record decode.
    g = db.create_table("g", [
        Column("id", "bigint"), Column("lo", "int"), Column("nk", "int"),
        Column("fk", "float"), Column("x", "float"),
        Column("rb", "varbinary", cap=600),
        Column("mb", "varbinary_max")])
    g.insert_many([
        (i, rng.randrange(7),
         None if rng.random() < 0.1 else rng.randrange(5),
         rng.choice(FLOAT_KEYS), _x(rng),
         None if rng.random() < 0.1
         else bytes([rng.randrange(256)]) * rng.randrange(200, 600),
         rng.choice([None, FloatArrayMax.Vector([float(i)] * 8)]))
        for i in range(G_ROWS)])
    # h: out-of-page cells.  One leaf page, because a batch reads its
    # leaves before its blobs and the row oracle interleaves them,
    # which the sequential/random split of the IO metrics tells apart
    # as soon as there is a second leaf (at the parent too).
    h = db.create_table("h", [Column("id", "bigint"), Column("lo", "int"),
                              Column("mb", "varbinary_max")])
    h.insert_many([
        (i, rng.randrange(3),
         rng.choice([None, FloatArrayMax.Vector([float(i)] * 8),   # in row
                     FloatArrayMax.Vector([float(i)] * 1100)]))    # out
        for i in range(40)])
    assert len(list(u.scan_batches())) == 3
    assert len(list(g.scan_batches())) >= 2
    assert len(h.data_page_ids()) == 1
    return SqlSession(db)


KEYS = {"u": ["id", "lo", "nk", "fk", "nf"],
        "g": ["id", "lo", "nk", "fk"], "h": ["id", "lo"]}
SUMMED = {"u": ["x", "r", "big", "lo", "x * 2.5", "r + x",
                "FloatArray.Item_1(b, 2)"],
          "g": ["x", "lo", "x - 1"], "h": ["lo", "id"]}
COMPARED = {"u": SUMMED["u"] + ["b"], "g": SUMMED["g"] + ["rb", "mb"],
            "h": ["mb"]}
WHERES = [None, None, "lo <> 3", "x > 0", "nk IS NOT NULL",
          "id >= 1200",   # empties the first batch of u and of g
          "id < 0"]       # empties the table


@st.composite
def grouped_statements(draw):
    table = draw(st.sampled_from(["u", "u", "g", "g", "h"]))
    key = draw(st.sampled_from(KEYS[table]))
    items = []
    for _ in range(draw(st.integers(1, 3))):
        func = draw(st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]))
        if func == "COUNT":
            items.append("COUNT(*)")
        else:
            exprs = SUMMED if func in ("SUM", "AVG") else COMPARED
            items.append(f"{func}({draw(st.sampled_from(exprs[table]))})")
    sql = f"SELECT {key}, {', '.join(items)} FROM {table}"
    where = draw(st.sampled_from(WHERES[:3 if table == "h" else None]))
    if where is not None:
        sql += f" WHERE {where}"
    return f"{sql} GROUP BY {key}"


@settings(max_examples=70, deadline=None)
@given(grouped_statements())
def test_generated_grouped_statements_agree(session, sql):
    assert_parity(session, sql)


def test_the_segment_paths_each_ran(session):
    """The generated statements are only worth their name if the fixed
    tables drive every path: a seeded fold, the NaN group, the
    array-to-spilled walk and the all-objects column."""
    def groups_of(sql):
        plan = session.plan_select(sql)
        ctx = vectorized.BatchContext(session.db.pool)
        return vectorized.scan_grouped(
            plan.table.scan_batches(session.db.pool), plan.group_expr,
            plan.aggregates, plan.where, ctx)[0]

    groups = groups_of("SELECT lo, SUM(x) FROM u GROUP BY lo")
    assert isinstance(groups, vectorized.GroupArrays)
    assert isinstance(groups.columns[0], vectorized.FoldColumn)
    assert len(groups) == 7
    # Object keys (int arithmetic runs on Python ints): spilled.
    groups = groups_of("SELECT lo * 2, SUM(x) FROM u GROUP BY lo * 2")
    assert isinstance(groups, vectorized.SpilledGroups)
    assert sorted(groups) == [0, 2, 4, 6, 8, 10, 12]
    # NaN keys, met late in the scan: one group in the arrays, last.
    groups = groups_of("SELECT nf, COUNT(*) FROM u GROUP BY nf")
    assert isinstance(groups, vectorized.GroupArrays)
    keys = groups.group_keys
    assert np.isnan(keys[-1]) and not np.isnan(keys[:-1]).any()
    assert groups.columns[0].counts[-1] > 5


def test_blob_handles_under_min_and_max(session):
    """``varbinary_max`` cells reach MIN/MAX as handles only through
    the executor API (SQL wraps the column in ``ReadBlob``): one per
    group passes through as the handle it is."""
    executor = Executor(session.db)
    table = session.db.tables["h"]
    aggregates = [Max(Col("mb")), Min(Col("mb")), Count()]
    results = [row_oracle.run(executor, table, aggregates, None,
                              Col("id"))[0],
               executor.run_grouped(table, Col("id"), aggregates)[0]]
    assert results[0] == results[1]
    assert any(isinstance(row[1], MaxBlobHandle) for row in results[0])
    assert any(row[1] is None for row in results[0])


def test_grouped_partial_reads_as_the_pairs_it_replaced(session):
    """``query_partial(...)["groups"]`` is arrays — the scan's own, or
    loaded from the rows its per-lane walk (or the oracle) finished; as
    a sequence it is still the ordered ``(key, [partials])`` pairs."""
    for sql in ["SELECT nk, SUM(x), COUNT(*), MAX(b) FROM u GROUP BY nk",
                "SELECT id, AVG(r), MIN(big) FROM u GROUP BY id",
                "SELECT nf, SUM(x), COUNT(*) FROM u GROUP BY nf",  # NaN
                "SELECT lo * 2, MIN(x) FROM u GROUP BY lo * 2",  # spills
                "SELECT fk, SUM(x) FROM g WHERE id < 0 GROUP BY fk"]:
        rows, _metrics = row_oracle.query(session, sql)
        plan = session.plan_select(sql)
        partials, _metrics = row_oracle.run(
            Executor(session.db), plan.table,
            [PartialCapture(agg) for agg in plan.aggregates],
            plan.where, plan.group_expr)
        want = [(row[0], list(row[1:])) for row in partials]
        assert len(want) == len(rows)
        for query_partial in (row_oracle.query_partial,
                              SqlSession.query_partial):
            got = query_partial(session, sql)["groups"]
            assert isinstance(got, vectorized.GroupArrays)
            half = len(want) // 2
            assert len(got) == len(want)
            assert _bits(got[:half]) == _bits(want[:half])
            assert _bits(got[half:]) == _bits(want[half:])
            assert _bits([(key, partials) for key, partials in got]) == \
                _bits(want)


# -- the kernel -----------------------------------------------------------


def reduce_segments(op, values, counts, seeds, seeded):
    """``fold_segments_kernel`` as plain Python: reduce a segment."""
    out, pos = [], 0
    for count, seed, has_seed in zip(counts, seeds, seeded):
        items = ([seed] if has_seed else []) + values[pos:pos + count]
        pos += count
        out.append(functools.reduce(op, items) if items else None)
    return out


def segment_shapes(rng, n):
    yield "all of length 1", np.ones(n, np.int64)
    yield "a few long ones", np.array([n // 3, n // 2, n - n // 3 - n // 2])
    mixed = np.concatenate((rng.geometric(0.3, n // 8) - 1,   # with empties
                            [n // 4, 0, n // 8]))
    rng.shuffle(mixed)
    mixed = mixed[np.cumsum(mixed) <= n]
    yield "mixed, with empty segments", np.append(mixed, n - mixed.sum())


@pytest.mark.parametrize("op", [operator.add, min])
@pytest.mark.parametrize("with_seeds", [False, True])
def test_segment_folds_are_the_sequential_fold_bit_for_bit(with_seeds, op):
    n = 20_000
    for trial in range(20):
        rng = np.random.default_rng(trial)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
        for shape, counts in segment_shapes(rng, n):
            assert counts.sum() == n
            seeds = rng.standard_normal(len(counts)) * 1e3
            seeded = (rng.random(len(counts)) < 0.5) if with_seeds \
                else np.zeros(len(counts), np.bool_)
            before = values.copy(), seeds.copy()
            got = vectorized.fold_segments_kernel(op, values, counts,
                                                  seeds, seeded)
            want = reduce_segments(op, values.tolist(), counts.tolist(),
                                   seeds.tolist(), seeded.tolist())
            held = [i for i, total in enumerate(want) if total is not None]
            assert got[held].tobytes() == \
                np.array([want[i] for i in held]).tobytes(), (trial, shape)
            # A kernel never writes into what it was handed.
            assert (values == before[0]).all() and (seeds == before[1]).all()


def test_a_lone_value_passes_through_untouched():
    payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_DEAD_BEEF))[0]
    values = np.array([-0.0, payload, 1.5, 2.5])
    got = vectorized.fold_segments_kernel(
        operator.add, values, np.array([1, 1, 2, 0]), np.zeros(4),
        np.zeros(4, np.bool_))
    assert got[:3].tobytes() == np.array([-0.0, payload, 4.0]).tobytes()


# -- the running state ----------------------------------------------------


def test_a_finished_scan_retains_no_array_longer_than_its_groups():
    db = Database()
    table = db.create_table("t", [Column("id", "bigint"),
                                  Column("k", "int"), Column("x", "float")])
    table.insert_many([(i, i % 7, i * 0.5) for i in range(200_000)])
    session = SqlSession(db)
    plan = session.plan_select(
        "SELECT k, SUM(x), AVG(x), COUNT(*), MIN(x) FROM t GROUP BY k")
    ctx = vectorized.BatchContext(db.pool)
    groups, rows, _bytes = vectorized.scan_grouped(
        table.scan_batches(db.pool), plan.group_expr, plan.aggregates,
        None, ctx)
    assert rows == 200_000 and len(groups) == 7
    keys, null, columns = groups.arrays()
    assert not null
    arrays = [keys] + [array for pair in columns for array in pair
                       if array is not None]
    assert len(arrays) == 8
    for array in arrays:
        # O(groups), and its own memory: not a view that pins a batch.
        assert len(array) == 7 and array.base is None
    assert groups.rows(plan.aggregates, rows)[3] == (
        3, sum(i * 0.5 for i in range(3, 200_000, 7)),
        sum(i * 0.5 for i in range(3, 200_000, 7)) / 28571, 28571, 1.5)


@pytest.fixture(scope="module")
def clustered():
    """Rows whose ``band`` ascends with the pk in runs of 30, NULL for
    the last rows: a ``GROUP BY band`` batch either appends or meets
    only the one group its first rows continue."""
    db = Database()
    table = db.create_table("c", [
        Column("id", "bigint"), Column("band", "int"),
        Column("x", "float"), Column("pad", "varbinary", cap=300)])
    rng = random.Random(3)
    table.insert_many([
        (i, None if i >= 5800 else i // 30,
         None if i % 17 == 0 else rng.uniform(-1, 1), bytes(300))
        for i in range(6000)])
    return SqlSession(db)


def scan(session, sql, aggregates=None, batch_pages=2):
    plan = session.plan_select(sql)
    aggregates = aggregates or plan.aggregates
    ctx = vectorized.BatchContext(session.db.pool)
    groups, rows, _bytes = vectorized.scan_grouped(
        plan.table.scan_batches(session.db.pool, batch_pages=batch_pages),
        plan.group_expr, aggregates, plan.where, ctx)
    return groups, rows, aggregates


def test_a_clustered_group_by_pk_appends_a_chunk_per_batch(clustered):
    """Every batch of a ``GROUP BY pk`` lies beyond the running keys:
    the scan keeps one chunk a batch and lays nothing out again — no
    state array is read (so none is concatenated) before the end."""
    sql = "SELECT id, SUM(x), AVG(x), COUNT(*), MIN(x) FROM c GROUP BY id"
    batches = len(list(clustered.db.tables["c"].scan_batches(
        batch_pages=2)))
    assert batches > 100
    want, _metrics = row_oracle.query(clustered, sql)
    for capture in (False, True):
        aggregates = [PartialCapture(agg) for agg in
                      clustered.plan_select(sql).aggregates] \
            if capture else None
        with mock.patch.object(
                vectorized._Chunks, "array", autospec=True,
                side_effect=vectorized._Chunks.array) as reads:
            groups, rows, aggregates = scan(clustered, sql, aggregates)
            assert reads.call_count == 0
        assert len(groups._keys.parts) == batches
        assert len(groups) == rows == 6000
        if capture:
            partials, _metrics = row_oracle.run(
                Executor(clustered.db), clustered.db.tables["c"],
                aggregates, None, Col("id"))
            assert _bits(list(groups)) == _bits(
                [(row[0], list(row[1:])) for row in partials])
        else:
            assert _bits(groups.rows(aggregates, rows)) == _bits(want)


@pytest.mark.parametrize("batch_pages", [1, 2, 5])
def test_appending_and_merging_batches_mix(clustered, batch_pages):
    """Groups that span a batch boundary are merged with their seed,
    the batches between append, and once the NULL group exists (it
    stays last) every batch merges: same bits as the row oracle."""
    for sql in [
            "SELECT band, SUM(x), AVG(x), COUNT(*), MAX(x) FROM c "
            "GROUP BY band",
            "SELECT band, MIN(x), SUM(id) FROM c WHERE id > 100 "
            "GROUP BY band"]:
        want, _metrics = row_oracle.query(clustered, sql)
        groups, rows, aggregates = scan(clustered, sql,
                                        batch_pages=batch_pages)
        assert isinstance(groups, vectorized.GroupArrays) and groups.null
        assert _bits(groups.rows(aggregates, rows)) == _bits(want)
        plan = clustered.plan_select(sql)
        captured = [PartialCapture(agg) for agg in plan.aggregates]
        partials, _metrics = row_oracle.run(
            Executor(clustered.db), plan.table, captured, plan.where,
            plan.group_expr)
        groups, _rows, _aggs = scan(clustered, sql, captured, batch_pages)
        assert _bits(list(groups)) == _bits(
            [(row[0], list(row[1:])) for row in partials])


def test_no_numpy_warning_escapes_a_fold():
    """Overflow to inf and inf - inf are results — Python's ``+``
    raises nothing for them — so neither may surface as a NumPy
    RuntimeWarning from inside a kernel."""
    db = Database()
    table = db.create_table("t", [Column("id", "bigint"),
                                  Column("k", "int"), Column("x", "float")])
    table.insert_many(
        [(i, i % 2, 1e308) for i in range(40)]
        + [(40 + i, 2 + i % 2, (INF, -INF)[i // 2 % 2]) for i in range(40)])
    session = SqlSession(db)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in (row_oracle.query, SqlSession.query):
            totals, _m = query(
                session, "SELECT SUM(x), AVG(x) FROM t WHERE k < 2")
            assert totals == (INF, INF)
            totals, _m = query(
                session, "SELECT SUM(x), AVG(x) FROM t WHERE k >= 2")
            assert all(total != total for total in totals)
            rows, _m = query(
                session, "SELECT k, SUM(x), AVG(x) FROM t GROUP BY k")
            assert rows[:2] == [(0, INF, INF), (1, INF, INF)]
            assert all(cell != cell for row in rows[2:] for cell in row[1:])
