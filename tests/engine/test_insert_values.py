"""The one-pass ``VALUES`` reader against the token walk it replaced.

``TokenWalkInsert`` below is ``_Ddl.parse_insert``/``_Ddl._value`` as
they stood in ``repro.engine.sqlfront`` before ``SqlSession.parse_insert``
stopped tokenising bulk statements into ``(kind, value)`` tuples; it is
kept here, unchanged, as the differential oracle.  Over generated
statements the reader must return the same rows — by type and bit
pattern — or fail with the same exception type and message.
"""

import gc
import math
import struct
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import Column, Database, SqlSession, SqlSyntaxError
from repro.engine.sqlfront import _tokenize
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
            callable_, _cost, _psafe = self.session._resolve_function(
                text, func_name)
            return callable_(*args)
        raise SqlSyntaxError(f"unexpected value token {text!r}")


def _pack(*values):
    """A registered function that shows its arguments: nested calls
    and empty argument lists have something to return."""
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
