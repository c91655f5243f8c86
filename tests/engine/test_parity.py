"""The engine against the row-at-a-time oracle.

Every query here runs on the engine (a batch at a time) and on
:mod:`tests.engine.row_oracle` (a decoded tuple at a time) and must
return bit-identical values *and* identical metrics (same
logical/physical/sequential/random reads, same UDF/stream counters,
same simulated cost).  Only ``wall_seconds`` and the ``engine`` tag
may differ.
"""

import random
import struct

import pytest

from repro.engine import Column, Database
from repro.engine.sqlfront import SqlSession
from repro.tsql import FloatArray, FloatArrayMax
from tests.engine import row_oracle
from tests.mutation import mutated

ROWS = 600

NEG_NAN, POS_NAN = struct.unpack("<2d", struct.pack(
    "<2Q", 0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_0000))


def _bits(value):
    """Bit-exact comparison key: floats by their IEEE-754 pattern."""
    if isinstance(value, float):
        return ("f", struct.pack("<d", value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    return value


@pytest.fixture(scope="module")
def session():
    # Large enough to cache the whole table: warm-run IO is then
    # deterministic (zero misses) instead of depending on LRU state
    # left behind by whichever side ran last.
    db = Database(buffer_pages=2048)
    table = db.create_table(
        "t", [Column("id", "bigint"), Column("x", "float"),
              Column("y", "float"), Column("k", "int"),
              Column("b", "varbinary", cap=400),
              Column("mb", "varbinary_max")])
    rng = random.Random(42)
    rows = []
    for i in range(ROWS):
        x = None if rng.random() < 0.15 else rng.uniform(-5.0, 5.0)
        y = None if rng.random() < 0.15 else rng.uniform(0.5, 9.5)
        k = None if rng.random() < 0.10 else rng.randrange(0, 6)
        b = None if rng.random() < 0.10 else FloatArray.Vector_5(
            *[rng.uniform(-1.0, 1.0) for _ in range(5)])
        mb = None if rng.random() < 0.10 else FloatArrayMax.Vector(
            [rng.uniform(-1.0, 1.0) for _ in range(400)])
        rows.append((i, x, y, k, b, mb))
    table.insert_many(rows)
    return SqlSession(db)


def _engine(session, sql, cold=True):
    return session.query(sql, cold=cold)


def strip(metrics):
    """A metrics dict without what may differ between the sides."""
    d = metrics.to_dict()
    for key in ("wall_seconds", "engine"):
        d.pop(key)
    return d


def assert_parity(session, sql, cold=True):
    """Run ``sql`` on the engine and on the oracle and compare values
    and metrics.

    A query that raises (NULL blob handed to a UDF, division by zero)
    must raise the *same* exception on both.
    """
    def run(query):
        if not cold:
            # Prime the cache so each side's measured warm run sees
            # the same (fully cached) pool state.
            query(session, sql, cold=False)
        return query(session, sql, cold=cold)

    try:
        row_vals, row_m = run(row_oracle.query)
    except Exception as exc:
        with pytest.raises(type(exc)) as caught:
            run(_engine)
        assert str(caught.value) == str(exc), sql
        return
    vec_vals, vec_m = run(_engine)
    assert _bits(row_vals) == _bits(vec_vals), sql
    assert (row_m.engine, vec_m.engine) == ("row", "vector")
    d_row, d_vec = strip(row_m), strip(vec_m)
    assert d_row == d_vec, (sql, {k: (d_row[k], d_vec[k])
                                  for k in d_row
                                  if d_row[k] != d_vec[k]})


AGG_EXPRS = [
    "x", "y", "x + y", "x - y", "x * 2.5", "x / 4.0", "x * y + 1",
    "-x", "k", "k + 1", "k * k",
    "FloatArray.Item_1(b, 2)",
    "FloatArray.Item_1(b, 4) * x",
    "dbo.EmptyFunction(x)",
    "FloatArray.Item_1(FloatArray.Vector_3(x, y, 1.5), 1)",
]

PREDICATES = [
    None, "x > 0", "x > 0 AND y < 5", "x > 0 OR k = 2", "NOT x > 0",
    "x IS NULL", "x IS NOT NULL", "k = 3", "k <> 3", "x <= y",
    "x IS NOT NULL AND k IS NOT NULL", "y >= 2 AND y <= 8",
]

AGG_FUNCS = ["COUNT(*)", "SUM({e})", "AVG({e})", "MIN({e})", "MAX({e})"]


def check_randomized_aggregates(session):
    rng = random.Random(7)
    for _ in range(40):
        items = []
        for _ in range(rng.randrange(1, 4)):
            agg = rng.choice(AGG_FUNCS)
            items.append(agg.format(e=rng.choice(AGG_EXPRS)))
        sql = f"SELECT {', '.join(items)} FROM t"
        pred = rng.choice(PREDICATES)
        if pred is not None:
            sql += f" WHERE {pred}"
        assert_parity(session, sql, cold=rng.random() < 0.5)


def check_blob_stream_reads(session):
    # varbinary_max goes through ReadBlob: stream calls and bytes
    # must be charged identically by both sides.
    assert_parity(
        session,
        "SELECT SUM(FloatArrayMax.Item_1(mb, 7)), COUNT(*) FROM t")
    assert_parity(
        session,
        "SELECT MAX(FloatArrayMax.Item_1(mb, 0)) FROM t "
        "WHERE x > 0")


def check_grouped(session):
    for sql in [
        "SELECT k, COUNT(*), SUM(x) FROM t GROUP BY k",
        "SELECT k, AVG(x), MIN(y), MAX(y) FROM t GROUP BY k",
        "SELECT k, SUM(FloatArray.Item_1(b, 1)) FROM t "
        "WHERE x IS NOT NULL GROUP BY k",
    ]:
        assert_parity(session, sql)


def churned_session():
    """A table written to after its bulk load (see
    :class:`TestParityOnChurnedTables`)."""
    db = Database(buffer_pages=4096)
    table = db.create_table(
        "t", [Column("id", "bigint"), Column("x", "float"),
              Column("y", "float"), Column("k", "int"),
              Column("b", "varbinary", cap=400),
              Column("mb", "varbinary_max")])
    rng = random.Random(99)

    def vector(n):
        return FloatArrayMax.Vector(
            [rng.uniform(-1.0, 1.0) for _ in range(n)])

    def make_row(key, ragged=False):
        b = FloatArray.Vector_5(
            *[rng.uniform(-1.0, 1.0) for _ in range(5)])
        mb = vector(400)  # in row, like the bulk fixture's
        if ragged:
            b = None if rng.random() < 0.3 else b
            mb = rng.choice([None, mb, vector(1100)])  # out of page
        return (
            key,
            None if rng.random() < 0.15 else rng.uniform(-5.0, 5.0),
            None if rng.random() < 0.15 else rng.uniform(0.5, 9.5),
            None if rng.random() < 0.10 else rng.randrange(0, 6),
            b, mb)

    # Even keys: every odd key is a later mid-page insert.
    table.insert_many([make_row(2 * i) for i in range(ROWS)])
    for key in rng.sample(range(0, 2 * ROWS, 2), ROWS // 5):
        table.delete(key)
    for key in rng.sample(range(1, 2 * ROWS, 2), ROWS // 5):
        table.insert(make_row(key))
    live = [row[0] for row in table.scan()]
    for key in rng.sample(live, ROWS // 6):
        table.update(make_row(key))
    # NULLs and out-of-page cells only at the tail: the leading
    # runs keep equal-length records.
    for key in live[-25:]:
        table.update(make_row(key, ragged=True))
    dense = [table._pagefile.get(pid)._dense > 0
             for pid in table.data_page_ids()]
    assert True in dense and False in dense
    shapes = [batch._records is not None
              for batch in table.scan_batches()]
    assert len(shapes) > 2 and shapes[0] and not shapes[-1]
    return SqlSession(db)


class TestRandomizedParity:
    def test_randomized_aggregate_queries(self, session):
        check_randomized_aggregates(session)

    def test_blob_stream_reads_match(self, session):
        check_blob_stream_reads(session)

    def test_grouped_queries(self, session):
        check_grouped(session)

    def test_point_and_range_plans(self, session):
        # A seek is a one-record batch, here under a UDF, a blob read
        # and arithmetic too; a missing key folds no batch.
        for sql in [
            "SELECT SUM(x) FROM t WHERE id = 37",
            "SELECT SUM(x), MAX(FloatArray.Item_1(b, 2) * y), COUNT(*), "
            "AVG(k), MIN(FloatArrayMax.Item_1(mb, 3)) FROM t WHERE id = 38",
            "SELECT SUM(x), COUNT(*) FROM t WHERE id = -1",
            "SELECT MAX(mb), MIN(b) FROM t WHERE id = 39",
        ]:
            assert_parity(session, sql)
            assert_parity(session, sql, cold=False)
        # A pk range is a clustered scan with a residual predicate.
        assert_parity(session,
                      "SELECT COUNT(*) FROM t WHERE id >= 10 AND id < 40")

    def test_a_seek_over_a_null_row(self, session):
        table = session.db.tables["t"]
        key = next(row[0] for row in table.scan()
                   if row[1] is None and row[4] is None)
        assert_parity(session, "SELECT SUM(x), MAX(b), COUNT(*), "
                      f"AVG(x + 1) FROM t WHERE id = {key}")

    def test_division_by_zero_raises_on_both_sides(self, session):
        sql = ("SELECT SUM(x / (k - k)) FROM t "
               "WHERE k IS NOT NULL AND x IS NOT NULL")
        for query in (row_oracle.query, _engine):
            with pytest.raises(ZeroDivisionError):
                query(session, sql)
        assert_parity(session, sql)

    def test_aggregate_empty_result_set(self, session):
        assert_parity(session,
                      "SELECT SUM(x), AVG(x), MIN(x), MAX(x), COUNT(*) "
                      "FROM t WHERE x > 1000")


class TestParityOnChurnedTables:
    """The same checks over tables that were written to after the bulk
    load.  A bulk-loaded table has only dense pages; here deletes leave
    holes, mid-page inserts put the body out of slot order, updates
    rewrite pages and a NULL-shortened tail makes the last run
    mixed-length — so one scan crosses the reshape, the gather and the
    per-record decode paths."""

    # One value: the ids keep the ``[on]`` suffix they had while this
    # also ran with MVCC off, so they stay comparable across the
    # removal of that mode.
    @pytest.fixture(scope="class", params=["on"], name="churned_session")
    def churned(self):
        return churned_session()

    def test_randomized_aggregate_queries(self, churned_session):
        check_randomized_aggregates(churned_session)

    def test_blob_stream_reads_match(self, churned_session):
        check_blob_stream_reads(churned_session)

    def test_grouped_queries(self, churned_session):
        check_grouped(churned_session)


class TestParityUnderTableLatches:
    """Parity on a database with a second, idle table: the latch
    planning (the shared catalog latch every scan and seek holds) must
    not perturb values or metrics."""

    @pytest.fixture(scope="class")
    def latched_session(self):
        db = Database(buffer_pages=2048)
        table = db.create_table(
            "t", [Column("id", "bigint"), Column("x", "float"),
                  Column("k", "int"),
                  Column("b", "varbinary", cap=400)])
        rng = random.Random(11)
        table.insert_many([
            (i,
             None if rng.random() < 0.1 else rng.uniform(-5.0, 5.0),
             rng.randrange(0, 4),
             FloatArray.Vector_5(*[rng.uniform(-1.0, 1.0)
                                   for _ in range(5)]))
            for i in range(300)])
        # A second table proves single-table latch sets still plan
        # correctly when the catalog holds more than one table.
        db.create_table("u", [Column("id", "bigint")])
        return SqlSession(db)

    def test_row_vector_parity(self, latched_session):
        for sql in [
            "SELECT COUNT(*), SUM(x) FROM t",
            "SELECT AVG(FloatArray.Item_1(b, 2)) FROM t WHERE x > 0",
            "SELECT k, COUNT(*), MAX(x) FROM t GROUP BY k",
            "SELECT MIN(x), MAX(x) FROM t WHERE x IS NOT NULL",
        ]:
            assert_parity(latched_session, sql)

    def test_seek_plan_parity(self, latched_session):
        assert_parity(latched_session,
                      "SELECT SUM(x) FROM t WHERE id = 42")


class TestFloatKeysAndNanTotals:
    """Two places where the engines used to part ways on float bits:
    which of ``0.0`` / ``-0.0`` names their common group, and the sign
    of a NaN total."""

    @staticmethod
    def float_session(rows):
        db = Database(buffer_pages=2048)
        table = db.create_table(
            "f", [Column("id", "bigint"), Column("k", "float"),
                  Column("x", "float"),
                  Column("pad", "varbinary", cap=400)])
        table.insert_many([(i, k, x, bytes(400))
                           for i, (k, x) in enumerate(rows)])
        return SqlSession(db), table

    def test_the_zero_group_is_named_by_its_first_row(self):
        # np.unique picked -0.0 whatever the row order; the dict the
        # row oracle keeps names the group by the first key it met.
        session, _table = self.float_session(
            [(1.0, 1.0), (1.0, 2.0), (0.0, 3.0), (-0.0, 4.0)])
        sql = "SELECT k, SUM(x), COUNT(*) FROM f GROUP BY k"
        assert_parity(session, sql)
        rows, _m = session.query(sql)
        assert _bits(rows) == _bits([(0.0, 7.0, 2), (1.0, 3.0, 2)])

    @pytest.mark.parametrize("first,second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_also_when_the_zeros_meet_across_batches(self, first, second):
        # ~17 rows a page: the first 64-page batch ends before row 1200.
        session, table = self.float_session(
            [(first if i < 1000 else second, 1.0) for i in range(1400)])
        assert len(list(table.scan_batches())) == 2
        sql = "SELECT k, COUNT(*) FROM f GROUP BY k"
        assert_parity(session, sql)
        rows, _m = session.query(sql)
        assert _bits(rows) == _bits([(first, 1400)])

    def test_a_nan_total_has_one_sign_on_every_engine(self):
        # Which NaN an add keeps depends on the operand order the C
        # compiler chose — differently in the interpreter's inlined
        # float add (once it has specialised: hence 200 rows), in
        # float_add and in NumPy — so SUM/AVG report the canonical nan.
        pair = (NEG_NAN, POS_NAN)
        session, _table = self.float_session(
            [(float(i // 2), pair[(i + i // 40) % 2]) for i in range(200)])
        for sql in ["SELECT k, SUM(x), AVG(x) FROM f GROUP BY k",
                    "SELECT SUM(x), AVG(x) FROM f"]:
            assert_parity(session, sql)
            values, _m = session.query(sql)
            rows = values if isinstance(values, list) else [(0.0, *values)]
            assert {_bits(row[1:]) for row in rows} == \
                {_bits((POS_NAN, POS_NAN))}
        # MIN/MAX return an operand: sign (and payload) survive.
        assert_parity(session, "SELECT k, MIN(x), MAX(x) FROM f GROUP BY k")
        rows, _m = session.query("SELECT k, MIN(x) FROM f GROUP BY k")
        assert {_bits(row[1]) for row in rows} == \
            {_bits(NEG_NAN), _bits(POS_NAN)}


class TestParityOverFixedLengthBinary:
    """Fixed-length ``varbinary`` columns, which the vector engine
    holds as one ``V{size}`` byte matrix per batch: ``b`` same-header
    arrays, ``z`` non-empty all-zero cells — true as a predicate,
    though ``np.void``'s own truth would say false — and NULLs in ``z``
    in the last batch only, which sends that batch down the per-record
    path."""

    ZROWS = 1300

    @pytest.fixture(scope="class")
    def binary_session(self):
        db = Database(buffer_pages=2048)
        table = db.create_table(
            "t", [Column("id", "bigint"), Column("x", "float"),
                  Column("k", "int"), Column("b", "varbinary", cap=80),
                  Column("z", "varbinary", cap=16),
                  Column("pad", "varbinary", cap=400)])
        rng = random.Random(27)
        rows = self.ZROWS
        table.insert_many([
            (i, rng.uniform(-5.0, 5.0), rng.randrange(0, 5),
             FloatArray.Vector_5(*[rng.uniform(-1.0, 1.0)
                                   for _ in range(5)]),
             None if i > rows - 200 and rng.random() < 0.2 else bytes(16),
             bytes(400))
            for i in range(rows)])
        kinds = [batch.column("z")[0].dtype.kind
                 for batch in table.scan_batches()]
        assert len(kinds) >= 2 and kinds[0] == "V" and kinds[-1] == "O"
        return SqlSession(db)

    EXPRS = ["x", "FloatArray.Item_1(b, 2)", "FloatArray.Item_1(b, k)",
             "FloatArray.Item_1(b, 4) * x", "dbo.EmptyFunction(z)"]
    BLOB_AGGS = ["MIN(b)", "MAX(b)", "MIN(z)", "MAX(z)", "COUNT(*)"]
    PREDICATES = [None, "z", "NOT z", "z AND x > 0", "z AND id > 3",
                  "NOT z OR k = 2", "z IS NULL", "z IS NOT NULL",
                  "x > 0", "k = 3"]

    def test_randomized_aggregate_queries(self, binary_session):
        rng = random.Random(31)
        for _ in range(30):
            items = [rng.choice(AGG_FUNCS).format(e=rng.choice(self.EXPRS))
                     if rng.random() < 0.6 else rng.choice(self.BLOB_AGGS)
                     for _ in range(rng.randrange(1, 4))]
            sql = f"SELECT {', '.join(items)} FROM t"
            pred = rng.choice(self.PREDICATES)
            if pred is not None:
                sql += f" WHERE {pred}"
            assert_parity(binary_session, sql, cold=rng.random() < 0.5)

    def test_grouped_queries(self, binary_session):
        for sql in ["SELECT k, MAX(b), MIN(z), COUNT(*) FROM t "
                    "WHERE z GROUP BY k",
                    "SELECT z, COUNT(*), SUM(x) FROM t GROUP BY z",
                    "SELECT k, SUM(FloatArray.Item_1(b, k)) FROM t "
                    "WHERE NOT z OR x > 0 GROUP BY k"]:
            assert_parity(binary_session, sql)


def real_session():
    """``REAL`` cells (float32 as stored, widened to float64 when read)
    beside ``FLOAT`` ones, with an index on each."""
    db = Database(buffer_pages=2048)
    table = db.create_table(
        "r", [Column("id", "bigint"), Column("x", "real"),
              Column("y", "float"), Column("k", "int")])
    rng = random.Random(5)
    table.insert_many([
        (i, None if i % 13 == 0 else rng.choice(
            [0.1, 0.5, 1.0 / 3.0, -0.0, rng.uniform(-2.0, 2.0)]),
         rng.uniform(-2.0, 2.0), i % 4)
        for i in range(ROWS)])
    table.create_index("x")
    table.create_index("y")
    return SqlSession(db)


REAL_STATEMENTS = [
    "SELECT COUNT(*), SUM(y) FROM r WHERE x = 0.1",
    "SELECT COUNT(*) FROM r WHERE x < 0.1 AND x > -0.1",
    "SELECT SUM(x * 1.5), AVG(x + y), MIN(x), MAX(x / 3.0) FROM r",
    "SELECT k, SUM(x), MAX(x * y) FROM r GROUP BY k",
    "SELECT x, COUNT(*) FROM r WHERE k = 1 GROUP BY x",
    "SELECT SUM(x * 1.5), COUNT(*) FROM r WHERE id = 7",
    "SELECT SUM(y), COUNT(*) FROM r WHERE x >= 0.1 AND x < 0.5",
    "SELECT SUM(x + y), MIN(x) FROM r WHERE y >= -1.0 AND y < 1.5",
]


def check_real(session):
    for sql in REAL_STATEMENTS:
        assert_parity(session, sql)


class TestParityOverReal:
    """``REAL`` compares and arithmetic on every plan kind: the engine
    widens float32 lanes before it mixes them with a float constant,
    as reading one value widens it."""

    def test_real_statements(self):
        session = real_session()
        kinds = {session.prepare(sql).kind for sql in REAL_STATEMENTS}
        assert kinds == {"scan", "grouped", "point", "index"}
        check_real(session)


#: What an out-of-page cell under a UDF charges alike on both sides.
SAME_READS = ("rows", "physical_reads", "io_bytes", "stream_calls",
              "udf_calls", "sim_cpu_core_seconds")


def assert_same_reads(session, sql):
    """The engine's values and :data:`SAME_READS` are the oracle's."""
    row_vals, row_m = row_oracle.query(session, sql)
    vec_vals, vec_m = session.query(sql)
    assert _bits(row_vals) == _bits(vec_vals), sql
    for key in SAME_READS:
        assert getattr(row_m, key) == getattr(vec_m, key), (sql, key)
    return row_m, vec_m


class TestAnOutOfPageCellUnderAUdf:
    """A UDF over an out-of-page ``varbinary(max)`` cell in a scan: 40
    rows, one of them (``test_word_compare``'s ``mv-prefix0`` table)
    out of page.  The oracle streams the blob while it walks the row,
    between two leaf reads; the engine streams it once the batch's
    leaves are read.  Same reads, counted alike — only their
    sequential/random split tells the two orders apart."""

    SQL = "SELECT SUM(dbo.EmptyFunction(mv, 0)) FROM t"

    @pytest.fixture(scope="class")
    def session(self):
        from tests.engine.test_word_compare import make_session
        return make_session("mv", "prefix", 0, 0)

    def test_values_reads_and_calls_match_the_oracle(self, session):
        _row_m, vec_m = assert_same_reads(session, self.SQL)
        assert vec_m.stream_calls > 0 and vec_m.udf_calls == 40
        assert vec_m.physical_reads == 6

    def test_the_engine_reads_the_blob_after_its_leaves(self, session):
        row_m = row_oracle.query(session, self.SQL)[1]
        vec_m = session.query(self.SQL)[1]
        assert (row_m.sequential_reads, row_m.random_reads) == (2, 4)
        assert (vec_m.sequential_reads, vec_m.random_reads) == (3, 3)


class TestTheOracleCatchesMutants:
    """Parity with the oracle fails on a seeded bug in real ``src/``
    (:func:`tests.mutation.mutated`): a batch kernel that is wrong in
    a way the engine's own tests could take for right."""

    def test_a_real_compare_without_widening(self, monkeypatch):
        from repro.engine import vectorized
        copy = mutated(vectorized, "lv, rv = _widen(lv), _widen(rv)",
                       "lv, rv = lv, rv")
        monkeypatch.setattr(vectorized, "binop_batch", copy.binop_batch)
        with pytest.raises(AssertionError):
            check_real(real_session())

    def test_a_pairwise_float_sum(self, session, monkeypatch):
        from repro.engine import vectorized
        copy = mutated(vectorized, "total = np.add.accumulate(vals)[-1]",
                       "total = np.sum(vals)")
        monkeypatch.setattr(vectorized, "fold_batch", copy.fold_batch)
        with pytest.raises(AssertionError):
            assert_parity(session, "SELECT SUM(x), AVG(y) FROM t")

    def test_a_blob_read_into_the_cached_column(self, monkeypatch):
        from repro.engine import executor
        copy = mutated(executor, "out = values.copy()", "out = values")
        # The first of two reads of one column must not leave bytes
        # where the second finds its handles.
        sql = ("SELECT SUM(FloatArrayMax.Item_1(mb, 7)), "
               "MIN(FloatArrayMax.Item_1(mb, 0)) FROM t "
               "WHERE mb IS NOT NULL")
        session = churned_session()
        assert_same_reads(session, sql)
        monkeypatch.setattr(executor.ReadBlob, "eval_batch",
                            copy.ReadBlob.eval_batch)
        with pytest.raises(AssertionError):
            assert_same_reads(session, sql)
