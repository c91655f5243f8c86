"""The ``VALUES`` reader (by row shape) against the token walk it replaced.

``TokenWalkInsert`` below is ``_Ddl.parse_insert``/``_Ddl._value`` as
they stood in ``repro.engine.sqlfront`` before ``SqlSession.parse_insert``
stopped tokenising bulk statements into ``(kind, value)`` tuples; it is
kept here, unchanged, as the differential oracle.  Over generated
statements the reader must return the same rows — by type and bit
pattern — or fail with the same exception type and message.
"""

import gc
import math
import random
import struct
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, SqlSession, SqlSyntaxError
from repro.engine import values
from repro.engine.sqlfront import PLAN_CACHE_SIZE, _tokenize
from repro.engine.table import SchemaError
from repro.tsql import FloatArray


class TokenWalkInsert:
    """The retired parser: a cursor over ``_tokenize``'s tuples."""

    def __init__(self, session, tokens):
        self.session = session
        self.tokens = tokens
        self.i = 0

    def _peek(self):
        return self.tokens[self.i]

    def _next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, kind, value=None):
        tok = self._next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise SqlSyntaxError(
                f"expected {value or kind}, got {tok[1]!r}")
        return tok

    def parse_insert(self):
        self._expect("kw", "INSERT")
        self._expect("kw", "INTO")
        name_tok = self._next()
        if name_tok[0] != "name":
            raise SqlSyntaxError("expected a table name")
        table = self.session._resolve_table(name_tok[1])
        self._expect("kw", "VALUES")
        rows = []
        while True:
            self._expect("op", "(")
            values = [self._value()]
            while self._peek() == ("op", ","):
                self._next()
                values.append(self._value())
            self._expect("op", ")")
            rows.append(tuple(values))
            if self._peek() == ("op", ","):
                self._next()
                continue
            break
        if self._peek()[0] != "eof":
            raise SqlSyntaxError(
                f"unexpected trailing input {self._peek()[1]!r}")
        return table, rows

    def _value(self):
        kind, text = self._next()
        if kind == "number":
            return float(text) if "." in text or "e" in text.lower() \
                else int(text)
        if kind == "string":
            return text[1:-1].encode()
        if kind == "kw" and text == "NULL":
            return None
        if kind == "op" and text == "-":
            inner = self._value()
            return -inner
        if kind == "name" and self._peek() == ("op", "."):
            self._next()
            func_tok = self._next()
            func_name = (func_tok[1].capitalize()
                         if func_tok[0] == "kw" else func_tok[1])
            self._expect("op", "(")
            args = []
            if self._peek() != ("op", ")"):
                args.append(self._value())
                while self._peek() == ("op", ","):
                    self._next()
                    args.append(self._value())
            self._expect("op", ")")
            callable_, _cost = self.session._resolve_function(
                text, func_name)
            return callable_(*args)
        raise SqlSyntaxError(f"unexpected value token {text!r}")


def _pack(*values):
    """A registered function that shows its arguments: nested calls
    and empty argument lists have something to return."""
    return repr(values).encode()


def _picky(*values):
    """A registered function some arguments upset: a run of one shape
    can raise at a row of the test's choosing."""
    for value in values:
        if value == 13:
            raise ValueError(f"picky about {value!r} in {values!r}")
    return repr(values).encode()


@pytest.fixture(scope="module")
def session():
    db = Database()
    db.create_table("t", [Column("id", "bigint"),
                          Column("x", "float"),
                          Column("v", "varbinary", cap=200)])
    db.create_table("Mixed_Case9", [Column("id", "bigint")])
    session = SqlSession(db)
    session.register_function("dbo.Pack", _pack)
    session.register_function("dbo.Picky", _picky)
    return session


def outcome(parse):
    """What a parse produced, comparable across the two parsers: rows
    with every value's type and bits, or the failure."""
    try:
        table, rows = parse()
    except Exception as exc:
        return ("error", type(exc), str(exc))
    return ("rows", table.name,
            [tuple((type(v), bits(v)) for v in row) for row in rows])


def bits(value):
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, complex):
        return struct.pack("<dd", value.real, value.imag)
    return value


def both(session, sql):
    got = outcome(lambda: session.parse_insert(sql))
    want = outcome(
        lambda: TokenWalkInsert(session, _tokenize(sql)).parse_insert())
    return got, want


# -- generated statements ---------------------------------------------------

def mostly(good, bad, odds=12):
    """``good`` about ``odds`` times in ``odds + 1``: most statements
    must stay well formed, or nothing past the first mistake is ever
    compared."""
    # (Not pick 0: hypothesis zeroes stretches of its choices.)
    return st.sampled_from(range(odds + 1)).flatmap(
        lambda pick: bad if pick == 1 else good)


def words(*choices):
    return st.sampled_from(choices)


WS = st.text(" \t\n\r", max_size=2)
NUMBERS = st.one_of(
    st.integers(0, 2 ** 70).map(str),
    words("1.", ".5", "1e5", "1E-3", "0.25e+2", "007", "1.5", "9e999",
          "3.", "12.e1"),
    st.floats(min_value=0, allow_nan=False, allow_infinity=False)
    .map(repr))
SIGNED = st.tuples(words("", "", "-", "--", "- -", "---"), NUMBERS) \
    .map("".join)
STRINGS = st.text(
    st.characters(blacklist_characters="'",
                  blacklist_categories=["Cs"]), max_size=6
).map(lambda s: f"'{s}'")
NULLS = words("NULL", "null", "Null", "nULL")
JUNK = words(
    "$", "é", "ß", "ı", "'", "'open", "!", "!=", "<=", "(", ")", ",",
    ".", "-", "*", ";", "[1]", "\"q\"", "@v", "abc", "nan", "inf",
    "SELECT", "x'y", "١", "", "-NULL", "-'s'", "t.", "dbo.Pack",
    "dbo.Pack(", "dbo.Pack(1", "dbo.Pack(1,)", "dbo . Pack ( )")


def call(schema, func, args, ws):
    return f"{schema}{ws}.{ws}{func}{ws}({ws}" \
        + f"{ws},{ws}".join(args) + f"{ws})"


def vector(schemas):
    """``Schema.Vector_n`` over n signed numbers — n right or, rarely,
    wrong — as it is or folded by a keyword-named function."""
    def of(schema):
        made = st.integers(1, 3).flatmap(lambda n: st.builds(
            call, st.just(schema),
            mostly(st.just(f"Vector_{n}"),
                   words("Vector_2", f"vector_{n}", "Vector")),
            st.lists(SIGNED, min_size=n, max_size=n), WS))
        return st.one_of(made, st.builds(
            call, mostly(st.just(schema), schemas),
            words("Sum", "sum", "SUM", "Max", "min", "Count", "Mean"),
            made.map(lambda v: [v]), WS))
    return schemas.flatmap(of)


def calls(inner):
    return mostly(
        st.one_of(
            # Takes anything, any number of them: nesting, empty lists.
            st.builds(call, words("dbo", "DBO", "Dbo"),
                      words("Pack", "pack", "PACK"),
                      st.lists(inner, max_size=3), WS),
            vector(words("FloatArray", "floatarray", "FLOATARRAY")),
            vector(words("IntArray", "RealArray", "ComplexArray",
                         "BigIntArrayMax"))),
        st.builds(call,
                  words("FloatArray", "dbo", "Nope", "t", "Sum", "select",
                        "NULL", "values", "_x1", "é"),
                  words("Vector_2", "Sum", "Pack", "EmptyFunction",
                        "Missing", "Item_1", "into", "é", "5", "'s'"),
                  st.lists(inner, max_size=2), WS),
        odds=8)


VALUES = st.recursive(
    mostly(st.one_of(SIGNED, SIGNED, STRINGS, NULLS), JUNK, odds=60),
    calls, max_leaves=5)

HEADS = st.tuples(
    mostly(words("INSERT", "insert", "Insert", "iNsErT"),
           words("INSERTS", "SELECT", "", "'INSERT'", "1"), odds=99),
    mostly(words("INTO", "into", "InTo"), words("IN", "", "t"), odds=99),
    mostly(words("t", "T", "Mixed_Case9", "mixed_case9"),
           words("nope", "select", "Sum", "values", "5", "'t'", "é", ""),
           odds=50),
    mostly(words("VALUES", "values", "Values"),
           words("VALUE", "", "(", "t"), odds=99))


@st.composite
def statements(draw):
    """An INSERT, or something close to one: any whitespace at every
    token boundary, and now and then a wrong separator, parenthesis,
    head word or tail."""
    def ws(at_least_one=False):
        text = draw(WS)
        return text or (" " if at_least_one else "")

    def punct(good, *bad):
        return draw(mostly(st.just(good), words(*bad), odds=99))

    parts = [ws()]
    for word in draw(HEADS):
        parts += [word, ws(at_least_one=True)]
    rows = draw(mostly(
        st.lists(st.lists(VALUES, min_size=1, max_size=4), min_size=1,
                 max_size=4),
        st.lists(st.lists(VALUES, max_size=2), max_size=2), odds=40))
    for n, row in enumerate(rows):
        parts += [punct("(", "", "(("), ws()]
        for m, value in enumerate(row):
            parts += [value, ws()]
            if m < len(row) - 1:
                parts += [punct(",", "", ";", ",,", "."), ws()]
        parts += [punct(")", "", "))"), ws()]
        if n < len(rows) - 1:
            parts += [punct(",", "", ",,"), ws()]
    parts += [punct("", ",", "x", ")", "$", "(1)", "'s'", "VALUES"),
              ws()]
    return "".join(parts)


# (float32 constructors overflow to inf on purpose.)
@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
@settings(max_examples=300, deadline=None)
@given(sql=statements())
@example(sql="INSERT INTO t VALUES (1, 2.5, FloatArray.Vector_2(1, -2))")
@example(sql="insert  into\nT\tvalues(1,.5,NULL),(2,1E-3,'')")
@example(sql="INSERT INTO t VALUES (1, FloatArray.Sum(dbo.Pack()))")
@example(sql="INSERT INTO t VALUES (1, dbo.Pack(dbo.Pack(1, 'a'), --2))")
@example(sql="INSERT INTO t VALUES ()")
@example(sql="INSERT INTO t VALUES (1), (2, 3), (4, 5, 6, 7)")
@example(sql="INSERT INTO t VALUES (1 2)")
@example(sql="INSERT INTO t VALUES (1, 2")
@example(sql="INSERT INTO t VALUES (1) (2)")
@example(sql="INSERT INTO t VALUES (1), ")
@example(sql="INSERT INTO t VALUES (1, 'open)")
@example(sql="INSERT INTO t VALUES (1, Nope.F(1), $)")
@example(sql="INSERT INTO t VALUES (1, -NULL)")
@example(sql="INSERT INTO t VALUES (1, -'s')")
@example(sql="INSERT INTO t VALUES (1, select.F(1))")
@example(sql="INSERT INTO t VALUES (1, FloatArray.Missing(1))")
@example(sql="INSERT INTO t VALUES (1, FloatArray.Vector_2(1))")
@example(sql="INSERT INTO t VALUES (1, FloatArray.é(1))")
@example(sql="INSERT INTO t VALUES (nan, inf)")
@example(sql="INSERT INTO select VALUES (1)")
@example(sql="INSERT INTO t")
@example(sql="INSERT")
@example(sql="")
def test_reader_agrees_with_the_token_walk(session, sql):
    got, want = both(session, sql)
    assert got == want


# -- runs of one row shape ----------------------------------------------------

#: Literals per kind: everyday ones, and the ones at an edge — of a
#: type, of the tokenizer, of what ``dbo.Picky`` and ``IntArray`` take.
INTS = (["0", "1", "7", "42", "007", "1000000"],
        ["13", "2147483647", "2147483648", "99999999999",
         str(2 ** 53 + 1), str(2 ** 60 + 2 ** 36 + 1), str(2 ** 63 - 1),
         str(2 ** 63), str(2 ** 70)])
FLOATS = (["0.0", "1.5", ".5", "12.e1", "1E-3", "3.", "0.1", "2.5e+2",
           "1e5"],
          ["1e999", "13.0", "16777217.0", "3.4e38", "1e39"])
SIGNS = (["", "", "-"], ["--", "- -", "- ", "---"])
TEXTS = ["''", "'a'", "'13'", "' ), ( '", "'é ß'", "'x\ny'"]


def pick(rnd, pools, odds=25):
    common, rare = pools
    return rnd.choice(rare if rnd.randrange(odds) == 0 else common)


def slots(*kinds):
    return st.sampled_from(kinds)


def run_calls(inner):
    def vector(schema):
        return st.integers(1, 3).flatmap(lambda n: st.tuples(
            st.just(schema), st.just(f"Vector_{n}"),
            st.lists(slots("int", "float", "number"), min_size=n,
                     max_size=n)))
    return st.one_of(
        st.sampled_from(["FloatArray", "IntArray", "RealArray",
                         "ComplexArray", "BigIntArrayMax"]).flatmap(vector),
        st.tuples(st.just("dbo"), slots("Picky", "Pack", "EmptyFunction"),
                  st.lists(inner, max_size=3)),
        st.tuples(st.just("FloatArray"), slots("Sum", "Max"),
                  vector("FloatArray").map(lambda call: [call])))


#: A row shape: per value a kind of literal, ``NULL`` as spelled, or
#: ``(schema, func, [argument shapes])``.
ROW_SHAPES = st.lists(
    st.recursive(slots("int", "float", "number", "number", "text", "NULL",
                       "null"), run_calls, max_leaves=6),
    min_size=1, max_size=4)


def render(shape, rnd, ws):
    """One value of ``shape`` with fresh literals, ``ws`` at every
    token boundary."""
    if isinstance(shape, tuple):
        schema, func, args = shape
        return call(schema, func, [render(a, rnd, ws) for a in args], ws)
    if shape == "text":
        return rnd.choice(TEXTS)
    if shape.upper() == "NULL":
        return shape
    if shape == "number":
        shape = rnd.choice(["int", "float"])
    return pick(rnd, SIGNS, odds=60) + pick(
        rnd, INTS if shape == "int" else FLOATS)


def broken(shape, rnd, ws):
    """A row that is not one more of the run: another shape, another
    spelling of the same one, or no row at all."""
    how = rnd.randrange(8)
    values = [render(part, rnd, ws) for part in shape]
    at = rnd.randrange(len(values))
    if how == 0:
        values[at] = "NULL"
    elif how == 1:
        values = values[:-1] if rnd.random() < 0.5 else values + ["1"]
    elif how == 2:
        ws = ws + " " if rnd.random() < 0.5 else "\n\t"
        values = [render(part, rnd, ws) for part in shape]
    elif how == 3:
        values = [v.swapcase() if rnd.random() < 0.5 else v.lower()
                  for v in values]
    elif how == 4:
        values[at] = rnd.choice(
            ["$", "é", "'open", "(", ")", ",", "abc", "dbo.Pack(", "--",
             "1 2", "", "x'y"])
    elif how == 5:
        values[at] = rnd.choice(TEXTS)
    elif how == 6:
        values[at] = "-" + values[at]
    else:
        values[at] = "dbo.Picky(13)"
    return f"({ws}" + f"{ws},{ws}".join(values) + f"{ws})"


@st.composite
def run_statements(draw):
    """A long statement of few shapes: each drawn row shape is repeated
    2-150 times with fresh literals, and now and then a row breaks the
    run."""
    rnd = random.Random(draw(st.integers(0, 2 ** 32)))
    ws = draw(WS)
    rows = []
    for shape in draw(st.lists(ROW_SHAPES, min_size=1, max_size=3)):
        breaks = draw(st.lists(st.integers(0, 160), max_size=3))
        for n in range(draw(st.integers(2, 150))):
            if n in breaks:
                rows.append(broken(shape, rnd, ws))
            rows.append(f"({ws}" + f"{ws},{ws}".join(
                render(part, rnd, ws) for part in shape) + f"{ws})")
    tail = draw(mostly(st.just(""), words(",", "x", ")", "$", "(1)")))
    return f"INSERT INTO t VALUES{ws}" + f"{ws},{ws}".join(rows) + tail


@pytest.fixture(params=["sized", "eager"])
def thresholds(request):
    """The reader as it ships, and with every threshold at its floor:
    every shape compiled on sight, every run through the kernels."""
    if request.param == "sized":
        yield
    else:
        with mock.patch.object(values, "_BREAK_EVEN_ROWS", 1), \
                mock.patch.object(values, "_KERNEL_ROWS", 1):
            yield


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(sql=run_statements())
def test_runs_agree_with_the_token_walk(session, thresholds, sql):
    got, want = both(session, sql)
    assert got == want


def churn(rows, first=0):
    return "INSERT INTO t VALUES " + ", ".join(
        f"({i}, {i % 97}, FloatArray.Vector_5({i}.25, -{i}e-3, .5, 1e3, -0.0))"
        for i in range(first, first + rows))


def fresh_session():
    """A session whose pattern cache has seen nothing."""
    session = SqlSession(Database())
    session.db.create_table("t", [Column("id", "bigint"),
                                  Column("k", "int"),
                                  Column("v", "varbinary", cap=100)])
    return session


def test_a_run_is_walked_once_and_its_constructor_called_once():
    session = fresh_session()
    sql = churn(256)
    kernel = FloatArray.Vector_5.vectorized
    with mock.patch.object(values, "_FLAT_TOKEN_RE",
                           wraps=values._FLAT_TOKEN_RE) as tokens, \
            mock.patch.object(FloatArray.Vector_5, "vectorized",
                              wraps=kernel) as batch, \
            mock.patch.object(FloatArray, "Vector",
                              wraps=FloatArray.Vector) as per_row:
        _table, rows = session.parse_insert(sql)
    assert [row[0] for row in rows] == list(range(256))
    assert rows[255][2] == FloatArray.Vector_5(255.25, -0.255, .5, 1e3, -0.0)
    # Tokenised: the head and the first row, then nothing but the end.
    first_row_end = sql.index(")), (") + 2
    assert [call.args[1:] for call in tokens.findall.call_args_list] == [
        (0, first_row_end), (len(sql), len(sql))]
    assert per_row.call_count == 1
    (arrays,), _ = batch.call_args
    assert batch.call_count == 1 and [len(a) for a in arrays] == [255] * 5


def test_a_one_row_statement_compiles_nothing():
    session = fresh_session()
    with mock.patch.object(values, "_source",
                           wraps=values._source) as source, \
            mock.patch.object(values, "_BREAK_EVEN_ROWS", 1):
        for _ in range(3):
            assert len(session.parse_insert(churn(1))[1]) == 1
        assert not source.called and not session._row_patterns
        # ... and one more row is cheaper walked than lifted.
        assert len(session.parse_insert(churn(2))[1]) == 2
        assert not source.called
        assert len(session.parse_insert(churn(4))[1]) == 4
        assert source.call_count == 1


def test_a_shape_met_often_enough_is_compiled():
    """Small statements never reach the unread-text threshold; the
    cache counts how often the walker met their shape instead."""
    session = fresh_session()
    sql = ("INSERT INTO t VALUES (1, 2.5, 'shape'), (2, 3.5, 'met'), "
           "(3, 4.5, 'often'), (4, 5.5, 'enough')")
    want = session.parse_insert(sql)[1]
    with mock.patch.object(values, "_source",
                           wraps=values._source) as source:
        for _ in range(values._BREAK_EVEN_ROWS):
            assert session.parse_insert(sql)[1] == want
    assert source.call_count == 1
    with mock.patch.object(values._Reader, "value", autospec=True,
                           side_effect=values._Reader.value) as walked:
        assert session.parse_insert(sql)[1] == want
    assert walked.call_count == 3  # the first row's three values


def test_the_pattern_cache_is_bounded():
    session = fresh_session()
    with mock.patch.object(values, "_BREAK_EVEN_ROWS", 1):
        for shape in range(1000):
            row = ", ".join("'s'" if shape >> bit & 1 else "1"
                            for bit in range(10))
            _table, rows = session.parse_insert(
                "INSERT INTO t VALUES " + ", ".join([f"({row})"] * 4))
            assert len(rows) == 4
            assert len(session._row_patterns) <= PLAN_CACHE_SIZE
    assert len(session._row_patterns) == PLAN_CACHE_SIZE


@pytest.mark.parametrize("rows, message", [
    # A call that raises at row 40 comes before the syntax error at 90.
    ([(i, 13 if i == 40 else 1, "2 2" if i == 90 else 2) for i in range(120)],
     "picky about 13 in (13,)"),
    # Two raising calls in one run: the earlier row wins, not the
    # earlier column ...
    ([(i, 13 if i == 70 else 1, 13.0 if i == 30 else 2) for i in range(120)],
     "picky about 13.0 in (13.0,)"),
    # ... and within one row, the earlier call.
    ([(i, 13 if i == 50 else 1, 13.0 if i == 50 else 2) for i in range(120)],
     "picky about 13 in (13,)"),
])
def test_the_first_error_in_row_major_order_is_raised(session, rows,
                                                      message, thresholds):
    sql = "INSERT INTO t VALUES " + ", ".join(
        f"({i}, dbo.Picky({a}), dbo.Picky({b}))" for i, a, b in rows)
    got, want = both(session, sql)
    assert got == want == ("error", ValueError, message)


def test_signs_big_integers_and_zeroes_survive_a_lifted_run(session,
                                                            thresholds):
    literals = ["-0.0", "0.0", "--7", "- -7", "- 7", "-007", "-.5",
                str(2 ** 70), f"-{2 ** 63}", "1e999", "-1e999", "12.e1"]
    sql = "INSERT INTO t VALUES " + ", ".join(
        f"({n}, {literal}, NULL)" for n, literal in enumerate(literals * 20))
    got, want = both(session, sql)
    assert got == want and got[0] == "rows"
    assert got[2][0][1] == (float, struct.pack("<d", -0.0))
    assert got[2][7][1] == (int, 2 ** 70)


def test_an_integer_a_kernel_would_round_twice_goes_to_the_callable(
        session, thresholds):
    """``float(v)`` and then float32 is not int64 straight to float32
    past 2**53: such a column is not the batch kernel's."""
    odd = 2 ** 60 + 2 ** 36 + 1
    sql = "INSERT INTO t VALUES " + ", ".join(
        f"({n}, 1.0, RealArray.Vector_2({n}, {odd}))" for n in range(40))
    got, want = both(session, sql)
    assert got == want and got[0] == "rows"


def test_a_call_cut_off_after_the_dot_is_a_syntax_error(session):
    """The one divergence: the token walk ran off the end of its list
    (``IndexError``) where the reader reports what it wanted."""
    got, want = both(session, "INSERT INTO t VALUES (1, dbo.")
    assert want[1] is IndexError
    assert got[1:] == (SqlSyntaxError, "expected (, got ''")


def test_an_illegal_character_keeps_its_offset(session):
    sql = "INSERT INTO t VALUES (1, 2.0, 'ok'), (2, $, NULL)"
    with pytest.raises(SqlSyntaxError) as err:
        session.parse_insert(sql)
    assert str(err.value) == \
        f"unexpected character '$' at offset {sql.index('$')}"
    # ... and outranks an earlier error of any other kind, as when the
    # whole text was tokenised before anything was parsed.
    with pytest.raises(SqlSyntaxError, match="unexpected character 'é'"):
        session.parse_insert("INSERT INTO nope VALUES (1, é)")
    with pytest.raises(SqlSyntaxError, match="unexpected character '\\['"):
        session.execute("INSERT INTO t VALUES (1, FloatArray.Vector_2(1)) [")


def test_ragged_rows_reach_the_schema_check(session):
    table, rows = session.parse_insert(
        "INSERT INTO t VALUES (1, 2.0, 'a'), (2, 3.0)")
    assert [len(row) for row in rows] == [3, 2]
    with pytest.raises(SchemaError):
        table.prepare_insert(rows)


def test_each_function_is_resolved_once_per_statement(session):
    rows = ", ".join(
        f"({i}, FloatArray.Sum(FloatArray.Vector_2({i}, 1)), NULL)"
        for i in range(50))
    with mock.patch.object(session, "_resolve_function",
                           wraps=session._resolve_function) as resolve:
        _table, parsed = session.parse_insert(
            f"INSERT INTO t VALUES {rows}")
    assert [row[1] for row in parsed] == [i + 1.0 for i in range(50)]
    assert sorted(call.args for call in resolve.call_args_list) == [
        ("FloatArray", "Sum"), ("FloatArray", "Vector_2")]


def test_the_token_list_is_freed_without_the_cycle_collector(session):
    """A reader built as a recursive closure over the token list is a
    reference cycle: every statement's thousands of token strings would
    wait for a generation-2 collection (measured: +15 % peak RSS on the
    write benchmark)."""
    rows = ", ".join(
        f"({i}, {i}.5, FloatArray.Vector_3({i}, -1e-3, 2.))"
        for i in range(300))
    sql = f"INSERT INTO t VALUES {rows}"
    gc.collect()
    gc.disable()
    try:
        session.parse_insert(sql)
        before = len(gc.get_objects())
        for _ in range(20):
            session.parse_insert(sql)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert grown < 50, f"{grown} tracked objects outlived their statement"


def test_values_round_trip_through_storage(session):
    """End to end: what the reader produced is what the table holds."""
    db = Database()
    s = SqlSession(db)
    s.execute("CREATE TABLE w (id BIGINT, x FLOAT, v VARBINARY(100))")
    assert s.execute(
        "INSERT INTO w VALUES (1, -2.5e0, FloatArray.Vector_2(1, -2)),"
        "\n(2, NULL, 'txt'), (-3, .5, NULL)") == 3
    assert list(db.tables["w"].scan()) == [
        (-3, 0.5, None), (1, -2.5, FloatArray.Vector_2(1.0, -2.0)),
        (2, None, b"txt")]
    assert math.copysign(1, db.tables["w"].get(1)[1]) == -1
