"""The lexical atoms of the SQL front-end, and the ``VALUES`` reader
built directly on them.

A bulk ``INSERT`` is mostly data, so its ``VALUES`` list is read by
**row shape**.  The token walker reads a row, evaluates it, and notes
its shape: the row's values in postfix order with the literals lifted
out into slots — ``"#"`` a number, ``"'"`` a string, ``NULL`` as it is
spelled, ``(schema, func, argc)`` a call over the ``argc`` entries
before it.  A shape compiles to a row pattern (:func:`_source`: the
structure tokens with ``\\s*`` between them, one capture per slot made
of the tokenizer's own number / string alternatives) that lifts the
slots out of every following row of that shape, match after adjoining
match, with no token, tuple or Python frame per value; the first row
that does not match goes back to the walker, which starts the next run
or raises.  The lifted slot columns are converted by the walker's
literal rule, and each call of the shape is evaluated once per column —
by the function's batch ``vectorized`` kernel where its argument
columns allow, per row by the callable otherwise — before the next row
is walked, so a statement's first error is the one a row-at-a-time
reader would meet.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Iterator

import numpy as np


class SqlSyntaxError(Exception):
    """Raised for SQL the front-end cannot parse or resolve."""


_NUMBER = r"\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+|\d+(?:[eE][+-]?\d+)?"
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_OP = r"<=|>=|<>|!=|[=<>().,*+\-/]"
_STRING = r"'[^']*'"

#: One flat string per token, whitespace skipped by the search itself.
#: The trailing ``\S`` makes a token of any character the others refuse
#: — it can only fail the walker, never be skipped.
_FLAT_TOKEN_RE = re.compile(rf"{_NUMBER}|{_NAME}|{_OP}|{_STRING}|\S")

_KEYWORDS = {"SELECT", "FROM", "WHERE", "WITH", "NOLOCK", "AND", "OR",
             "NOT", "COUNT", "SUM", "AVG", "MIN", "MAX", "AS", "NULL",
             "IS", "GROUP", "BY", "CREATE", "TABLE", "INSERT", "INTO",
             "VALUES", "PRIMARY", "KEY", "DELETE", "DROP"}

_NAME_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")

#: Between two rows, and nowhere inside one (see :meth:`_Reader.row_end`).
_ROW_END = re.compile(r"\)\s*,\s*\(")

#: What lifts a slot out of a row.  A number keeps its sign in the text
#: (``int("-7")`` is the walker's ``-int("7")``, and ``-0.0`` survives);
#: any other way to write a sign (``- 7``, ``--7``) is left to the walker.
_SLOTS = {"#": rf"(-?(?:{_NUMBER}))", "'": rf"({_STRING})"}

#: Rows of one shape that pay for compiling its pattern: ~0.95 ms for
#: the compile (seven slots) against ~11 us a row walked and ~4.7 us a
#: row lifted.
_BREAK_EVEN_ROWS = 150

#: Rows that pay for a batch kernel: ~10 us before its first row
#: (``Vector_5``) against ~1.6 us a row through the callable.
_KERNEL_ROWS = 8


def _shown(token: str) -> str:
    """A flat token as error messages quote it: keywords upper-cased,
    as the tokenizer reports them."""
    upper = token.upper()
    return upper if upper in _KEYWORDS else token


def _expected(wanted: str, token: str) -> SqlSyntaxError:
    return SqlSyntaxError(f"expected {wanted}, got {_shown(token)!r}")


def _numbers(texts: tuple[str, ...]) -> list:
    """A lifted slot column by the walker's literal rule: ``int``
    unless the text has a point or an exponent."""
    text = texts[0]
    if not ("." in text or "e" in text or "E" in text):
        try:
            return list(map(int, texts))
        except ValueError:
            pass  # a float further down
    return [float(text) if "." in text or "e" in text or "E" in text
            else int(text) for text in texts]


def _source(shape: tuple) -> str:
    """The pattern of one more row of ``shape``, the comma that
    separates it from the row before included.  Names need no escape."""
    stack: list[str] = []
    for step in shape:
        if isinstance(step, tuple):
            schema, func, argc = step
            at = len(stack) - argc
            stack[at:] = [rf"{schema}\s*\.\s*{re.escape(func)}\s*\(\s*"
                          + r"\s*,\s*".join(stack[at:]) + r"\s*\)"]
        else:
            stack.append(_SLOTS.get(step, step))
    return r"\s*,\s*\(\s*" + r"\s*,\s*".join(stack) + r"\s*\)"


def _kernel_column(column: list) -> np.ndarray | None:
    """A call's argument column as the array its batch kernel takes —
    all ``float``, or all ``int`` within int64 — or None."""
    kinds = set(map(type, column))
    if kinds == {float}:
        return np.array(column)
    if kinds == {int} and -2 ** 63 <= min(column) and max(column) < 2 ** 63:
        return np.array(column, dtype=np.int64)
    return None


class _Reader:
    """One statement being read: its table, the functions it has
    resolved and the rows so far."""

    def __init__(self, sql: str, resolve_table: Callable,
                 resolve_function: Callable, patterns: Any):
        self.sql = sql
        self.resolve_table = resolve_table
        self.resolve_function = resolve_function
        self.patterns = patterns
        self.funcs: dict[tuple[str, str], Callable] = {}
        self.rows: list[tuple] = []

    def read(self) -> None:
        """The statement, a stretch at a time: walk the tokens of a
        row, lift the rows of that shape that follow.  While nothing is
        lifted the stretches double, so a statement no pattern serves
        is tokenised in a handful of pieces, not row by row."""
        sql, rows = self.sql, self.rows
        pos = skip = 0
        while True:
            cut = self.row_end(pos, skip)
            mark = len(rows)
            try:
                shape = self.walk(pos, cut)
            except Exception:
                if cut == len(sql):
                    raise
                # The stretch did not end with a row after all (``) , (``
                # inside one: a statement about to fail).  The whole
                # rest at once raises what a one-pass reader would.
                del rows[mark:]
                cut = len(sql)
                shape = self.walk(pos, cut)
            if cut == len(sql):
                return
            # (The first stretch holds the statement's head too.)
            walked = len(rows) - mark
            row_chars = (cut - (pos or sql.find("("))) // walked
            pattern = self.pattern(shape, walked, row_chars, len(sql) - cut)
            if pattern is None:
                pos, skip = cut, 2 * (cut - pos)
            else:
                pos, skip = self.lift(pattern, shape, cut), 0

    def row_end(self, pos: int, skip: int) -> int:
        """Where the first row to end ``skip`` or more characters past
        ``pos`` ends, if the text is well formed: after a ``)`` outside
        a string literal that ``, (`` follows — nothing inside a row
        reads that way — else the end of the text.  No token straddles
        it: the quotes before it pair up, and ``)`` is a token of its
        own."""
        sql = self.sql
        quotes = 0
        at = pos + skip
        while True:
            match = _ROW_END.search(sql, at)
            if match is None:
                return len(sql)
            quotes += sql.count("'", pos, match.start())
            pos = at = match.start() + 1
            if not quotes % 2:
                return pos

    def walk(self, pos: int, cut: int) -> list:
        """Read ``sql[pos:cut]`` token by token — the statement's head
        if it starts there, then ``, (value, ...)`` over and over — and
        return the shape of the last row.  Only what the walker reads
        is ever tokenised."""
        tokens = _FLAT_TOKEN_RE.findall(self.sql, pos, cut)
        # End of the stretch; twice, so the look-ahead past ``Schema.``
        # stays inside the list.
        tokens += ("", "")
        i = 0
        if pos == 0:
            if tokens[0].upper() != "INSERT":
                raise _expected("INSERT", tokens[0])
            if tokens[1].upper() != "INTO":
                raise _expected("INTO", tokens[1])
            name = tokens[2]
            if name[:1] not in _NAME_START or name.upper() in _KEYWORDS:
                raise SqlSyntaxError("expected a table name")
            self.table = self.resolve_table(name)
            if tokens[3].upper() != "VALUES":
                raise _expected("VALUES", tokens[3])
            # From here on VALUES is what a comma is to every other
            # row: the token before its ``(``.
            i = 3
            tokens[3] = ","
        shape: list = []
        while tokens[i] == ",":
            if tokens[i + 1] != "(":
                raise _expected("(", tokens[i + 1])
            i += 1
            shape = []
            values = []
            while True:
                value, i = self.value(tokens, i + 1, shape)
                values.append(value)
                if tokens[i] != ",":
                    break
            if tokens[i] != ")":
                raise _expected(")", tokens[i])
            self.rows.append(tuple(values))
            i += 1
        if tokens[i]:
            raise SqlSyntaxError(
                f"unexpected trailing input {_shown(tokens[i])!r}")
        return shape

    def value(self, tokens: list[str], i: int, shape: list
              ) -> tuple[Any, int]:
        """The value starting at ``tokens[i]``, evaluated, and the
        index of the token after it; its shape is appended to
        ``shape``.  (A method, not a closure over ``tokens``: a
        recursive closure is a reference cycle that would keep the
        token list alive until a full collection.)"""
        token = tokens[i]
        first = token[:1]
        if first.isdecimal() or first == "." and len(token) > 1:
            shape.append("#")
            if "." in token or "e" in token or "E" in token:
                return float(token), i + 1
            return int(token), i + 1
        if token == "-":
            value, i = self.value(tokens, i + 1, shape)
            if shape[-1] != "#":
                shape.append(None)  # no slot takes this sign: no pattern
            return -value, i
        if first == "'" and len(token) > 1:
            shape.append("'")
            return token[1:-1].encode(), i + 1
        if first in _NAME_START:
            upper = token.upper()
            if upper == "NULL":
                shape.append(token)
                return None, i + 1
            if upper not in _KEYWORDS and tokens[i + 1] == ".":
                return self.call(tokens, i, shape)
        raise SqlSyntaxError(
            f"unexpected value token {_shown(token)!r}")

    def call(self, tokens: list[str], i: int, shape: list
             ) -> tuple[Any, int]:
        """``Schema.Func(value, ...)`` starting at ``tokens[i]``, as
        :meth:`value` returns it."""
        schema, func = tokens[i], tokens[i + 2]
        if tokens[i + 3] != "(":
            raise _expected("(", tokens[i + 3])
        i += 4
        args = []
        if tokens[i] != ")":
            while True:
                value, i = self.value(tokens, i, shape)
                args.append(value)
                if tokens[i] != ",":
                    break
                i += 1
            if tokens[i] != ")":
                raise _expected(")", tokens[i])
        callable_ = self.funcs.get((schema, func))
        if callable_ is None:
            # Function names may collide with SQL keywords
            # (FloatArray.Sum, .Min, .Max, .Count ...).
            name = func.upper()
            callable_, _cost = self.resolve_function(
                schema, name.capitalize() if name in _KEYWORDS else func)
            self.funcs[schema, func] = callable_
        shape.append((schema, func, len(args)))
        return callable_(*args), i + 1

    def pattern(self, shape: list, walked: int, row_chars: int,
                unread: int) -> re.Pattern | None:
        """The compiled pattern of ``shape`` — the last of ``walked``
        rows just read — if it will pay: it is in the cache already, or
        the unread text is :data:`_BREAK_EVEN_ROWS` rows like this one
        long, or that many rows have been walked before rows of this
        shape, in this statement and earlier ones (the cache counts
        until then).  Never for one more row: lifting a single row
        costs more than walking it."""
        if None in shape or unread < 2 * row_chars:
            return None
        key = tuple(shape)
        seen = self.patterns.lookup(key)
        if not isinstance(seen, re.Pattern):
            walked += seen or 0
            if walked < _BREAK_EVEN_ROWS \
                    and unread < _BREAK_EVEN_ROWS * row_chars:
                self.patterns.remember(key, walked)
                return None
            seen = re.compile(_source(key))
            self.patterns.remember(key, seen)
        return seen

    def lift(self, pattern: Any, shape: list, pos: int) -> int:
        """Read the rows of ``shape`` that follow ``pos`` without a gap
        — their slot texts lifted by ``pattern``, their values computed
        a column at a time — and return where they end.  (``pattern``
        is a ``re.Pattern``; the stubs do not know its scanner, whose
        ``match`` goes on where the last one ended.)"""
        matches = list(iter(pattern.scanner(self.sql, pos).match, None))
        if not matches:
            return pos
        n = len(matches)
        texts: Iterator[tuple[str, ...]] = zip(
            *map(re.Match.groups, matches))
        failed: list[tuple[int, Exception]] = []
        stack: list[list] = []
        for step in shape:
            if step == "#":
                stack.append(_numbers(next(texts)))
            elif step == "'":
                stack.append([text[1:-1].encode() for text in next(texts)])
            elif isinstance(step, str):
                stack.append([None] * n)
            else:
                schema, func, argc = step
                at = len(stack) - argc
                stack[at:] = [_call_column(
                    self.funcs[schema, func], stack[at:], n, failed)]
        if failed:
            # The first in row-major order, as a row-at-a-time reader
            # meets them (min keeps the earlier call of one row).
            raise min(failed, key=lambda failure: failure[0])[1]
        self.rows.extend(zip(*stack))
        return matches[-1].end()


def _call_column(func: Callable, args: list[list], n: int,
                 failed: list[tuple[int, Exception]]) -> list:
    """``func`` over ``n`` rows of argument columns: one call of its
    batch kernel when it has one and every column suits it, one call a
    row otherwise.  A call that raises ends the column at that row and
    is noted in ``failed``; whatever uses the column stops there too."""
    column: list = []
    kernel = getattr(func, "vectorized", None)
    if kernel is not None and args and n >= _KERNEL_ROWS:
        arrays = [_kernel_column(arg) for arg in args]
        if not any(array is None for array in arrays):
            try:
                out = kernel(arrays)
            except Exception:
                out = None  # the callable raises it, at its row
            if out is not None:
                column = out.tolist()
                return column
    try:
        for row in zip(*args) if args else [()] * n:
            column.append(func(*row))
    except Exception as exc:
        failed.append((len(column), exc))
    return column


def read_insert(sql: str, resolve_table: Callable,
                resolve_function: Callable, patterns: Any
                ) -> tuple[Any, list[tuple]]:
    """``INSERT INTO name VALUES (v, ...), ...`` as ``(table, rows)``.

    ``resolve_table(name)`` and ``resolve_function(schema, name)`` are
    the session's; ``patterns`` is its bounded cache of compiled row
    patterns (``lookup`` / ``remember``)."""
    reader = _Reader(sql, resolve_table, resolve_function, patterns)
    reader.read()
    return reader.table, reader.rows
