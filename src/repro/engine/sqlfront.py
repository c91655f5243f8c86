"""A T-SQL front-end for the storage engine.

Parses the slice of T-SQL the paper's evaluation uses — aggregate
selects over one table with optional ``WITH (NOLOCK)`` and ``WHERE`` —
and compiles it onto the executor, so the five Table 1 queries run
*verbatim*::

    from repro.engine import Database
    from repro.engine.sqlfront import SqlSession

    session = SqlSession(db)
    (n,), metrics = session.query(
        "SELECT COUNT(*) FROM Tscalar WITH (NOLOCK)")
    (s,), metrics = session.query(
        "SELECT SUM(FloatArray.Item_1(v, 0)) FROM Tvector WITH (NOLOCK)")

Grammar::

    stmt    := query | create | drop | insert | delete
    query   := SELECT item (',' item)* FROM name [WITH '(' NOLOCK ')']
               [WHERE pred] [GROUP BY expr]
    item    := agg | expr            (plain exprs only with GROUP BY)
    create  := CREATE TABLE name '(' col type [PRIMARY KEY] ... ')'
    drop    := DROP TABLE name
    insert  := INSERT INTO name VALUES '(' value, ... ')' [, ...]
    delete  := DELETE FROM name [WHERE pred]
    agg     := COUNT '(' '*' ')' | (SUM|AVG|MIN|MAX) '(' expr ')'
    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := number | string | column | func | '(' expr ')' | '-' factor
    func    := name '.' name '(' [expr (',' expr)*] ')'
    pred    := conj (OR conj)* ; conj := unit (AND unit)*
    unit    := NOT unit | expr cmp expr | '(' pred ')'
    cmp     := = | <> | != | < | <= | > | >=

Schema-qualified function calls (``FloatArray.Item_1``) resolve against
the generated T-SQL namespaces; additional scalar functions (the
paper's ``dbo.EmptyFunction``) can be registered per session.  UDF
calls are charged the CLR call cost from the cost model; ``Item_*`` and
other array functions get the "item" body cost, registered functions
declare their own.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..tsql.namespaces import NAMESPACES
from . import lockcheck, vectorized
from .costmodel import CostModel
from .executor import (
    Avg,
    Col,
    Const,
    Count,
    Database,
    Executor,
    Expression,
    Max,
    Min,
    PartialCapture,
    ReadBlob,
    ScalarUdf,
    Sum,
)
from .table import MaxBlobHandle, Table
from .values import _KEYWORDS, _NAME, _NUMBER, _OP, _STRING, \
    SqlSyntaxError, read_insert

__all__ = ["PlanCache", "SelectPlan", "SqlSession", "SqlSyntaxError"]

_TOKEN_RE = re.compile(
    rf"(?P<number>{_NUMBER})|(?P<name>{_NAME})|(?P<op>{_OP})"
    rf"|(?P<string>{_STRING})|(?P<ws>\s+)")

_HEAD_RE = re.compile(rf"\s*({_NAME})")

_SCHEMAS = {name.lower(): ns for name, ns in NAMESPACES.items()}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SqlSyntaxError(
                f"unexpected character {text[pos]!r} at offset {pos}")
        kind = m.lastgroup
        if kind != "ws":
            value = m.group()
            if kind == "name" and value.upper() in _KEYWORDS:
                tokens.append(("kw", value.upper()))
            else:
                tokens.append((kind, value))
        pos = m.end()
    tokens.append(("eof", ""))
    return tokens


def _statement_kind(sql: str) -> str:
    """The statement's leading keyword, upper-cased (``""`` when the
    text does not start with a name) — what the session, the shard
    coordinator and the server's prepared path route on, so a bulk
    ``INSERT`` is never tokenised just to be told apart from a
    ``SELECT``."""
    match = _HEAD_RE.match(sql)
    return match.group(1).upper() if match else ""


def _statement_table(tokens, keyword: str) -> str:
    """Name of the table a statement targets: the name token following
    the first top-level ``keyword`` (``FROM``, ``INTO`` or ``TABLE``;
    the grammar is single-table).  The shard coordinator reads it off
    DDL it only forwards."""
    depth = 0
    for i, (kind, value) in enumerate(tokens):
        if kind == "op" and value == "(":
            depth += 1
        elif kind == "op" and value == ")":
            depth -= 1
        elif kind == "kw" and value == keyword and depth == 0:
            name_tok = tokens[i + 1]
            if name_tok[0] != "name":
                raise SqlSyntaxError(
                    f"expected a table name after {keyword}")
            return name_tok[1]
    raise SqlSyntaxError(f"missing {keyword} clause")


@dataclass
class SelectPlan:
    """A parsed, routable aggregate SELECT.

    Produced once by :meth:`SqlSession.plan_select` and executable
    anywhere: locally (``SqlSession`` feeds it straight to the
    executor) or remotely (the shard coordinator inspects ``key`` /
    ``pk_range`` to route, then ships the statement text to the owning
    shards).  ``kind`` selects the executor entry point:

    * ``"scan"``    — full clustered scan (:meth:`Executor.run`)
    * ``"point"``   — clustered index seek (:meth:`Executor.run_point`)
    * ``"index"``   — secondary index seek/range
      (:meth:`Executor.run_index`)
    * ``"grouped"`` — hash aggregation (:meth:`Executor.run_grouped`)

    ``pk_range`` is the half-open primary-key interval ``[lo, hi)``
    implied by the WHERE clause (either bound ``None`` when open);
    it never widens the predicate, so a router may prune shards whose
    key slices fall outside it without changing results.

    ``partial`` marks the plan :meth:`SqlSession.query_partial` runs:
    the aggregates are captures and a serial scan goes through
    :meth:`Executor.run_partial`, which hands a grouped state on
    unreduced.

    ``late`` marks a ``point`` plan that materialises late: a ``MIN`` /
    ``MAX`` directly over a ``VARBINARY(MAX)`` column (the identity on
    at most one row) hands the cell's
    :class:`~repro.engine.table.MaxBlobHandle` through instead of
    reading the blob, and the statement's consumer dereferences what
    it needs inside the read view (see :meth:`SqlSession.query`).
    """

    table: Table
    label: str
    kind: str
    aggregates: list
    where: Expression | None = None
    group_expr: Expression | None = None
    group_text: str | None = None
    key: int | None = None
    index_column: str | None = None
    index_equals: object = None
    index_lo: object = None
    index_hi: object = None
    pk_range: tuple[int | None, int | None] | None = None
    partial: bool = False
    late: bool = False


#: Plans one prepared-statement cache keeps — a session's and the shard
#: coordinator's alike.  Statement texts that differ in a literal are
#: different keys, so an unbounded cache grows by a plan for every key a
#: client loops ``... WHERE id = <k>`` over.
PLAN_CACHE_SIZE = 256


class PlanCache(OrderedDict):
    """What a session keeps of the statements it has seen — statement
    text -> :class:`SelectPlan`, ``VALUES`` row shape -> compiled row
    pattern — least recently used out first; ``clear()`` on DDL as for
    any dict."""

    def lookup(self, key):
        try:
            self.move_to_end(key)
        except KeyError:
            return None
        return self.get(key)

    def remember(self, key, value) -> None:
        self[key] = value
        if len(self) > PLAN_CACHE_SIZE:
            self.popitem(last=False)


class _BinOp(Expression):
    """Arithmetic/comparison/boolean operator over two expressions."""

    _FUNCS: dict[str, Callable] = {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "/": lambda a, b: a / b,
        "=": lambda a, b: a == b,
        "<>": lambda a, b: a != b,
        "!=": lambda a, b: a != b,
        "<": lambda a, b: a < b,
        "<=": lambda a, b: a <= b,
        ">": lambda a, b: a > b,
        ">=": lambda a, b: a >= b,
        "AND": lambda a, b: bool(a) and bool(b),
        "OR": lambda a, b: bool(a) or bool(b),
    }

    def __init__(self, op: str, left: Expression, right: Expression):
        self.op = op
        self.left = left
        self.right = right

    def columns(self):
        return self.left.columns() | self.right.columns()

    def static_cpu_cost(self, table: Table, model: CostModel) -> float:
        # A native operator costs about one aggregate step's worth of
        # per-row work on top of its operands.
        return (self.left.static_cpu_cost(table, model)
                + self.right.static_cpu_cost(table, model)
                + model.cpu_count_step)

    def eval_batch(self, ctx):
        lv, lm = self.left.eval_batch(ctx)
        rv, rm = self.right.eval_batch(ctx)
        return vectorized.binop_batch(self.op, self._FUNCS[self.op],
                                      lv, lm, rv, rm, ctx.batch.n)


class _Not(Expression):
    def __init__(self, inner: Expression):
        self.inner = inner

    def columns(self):
        return self.inner.columns()

    def static_cpu_cost(self, table, model):
        return self.inner.static_cpu_cost(table, model)

    def eval_batch(self, ctx):
        values, mask = self.inner.eval_batch(ctx)
        return vectorized.not_batch(values, mask, ctx.batch.n)


class _IsNull(Expression):
    def __init__(self, inner: Expression, negate: bool):
        self.inner = inner
        self.negate = negate

    def columns(self):
        return self.inner.columns()

    def static_cpu_cost(self, table, model):
        return self.inner.static_cpu_cost(table, model)

    def eval_batch(self, ctx):
        values, mask = self.inner.eval_batch(ctx)
        return vectorized.isnull_batch(values, mask, ctx.batch.n,
                                       self.negate)


def _is_finite_number(value) -> bool:
    """A constant that can be compared against integer keys."""
    return isinstance(value, (int, float)) \
        and not isinstance(value, bool) and math.isfinite(value)


def _empty_function(*args):
    """The paper's ``dbo.EmptyFunction``: takes anything, does
    nothing."""
    return 0.0


def _empty_function_kernel(args):
    return np.zeros(len(args[0])) if args else None


_empty_function.vectorized = _empty_function_kernel


class SqlSession:
    """Parses and executes T-SQL aggregate queries against a database.

    Args:
        db: The database whose tables the queries reference.
        model: Cost model (defaults to the paper-calibrated one).
    """

    def __init__(self, db: Database, model: CostModel | None = None):
        self.db = db
        self.executor = Executor(db, model) if model else Executor(db)
        self._functions: dict[str, tuple[Callable, object]] = {}
        # Prepared-statement plan cache, keyed by exact SQL text.
        # Invalidated wholesale on DDL (a plan holds a Table
        # reference, and new tables can change how a name resolves).
        self._plan_cache = PlanCache()
        # Row shape -> compiled ``VALUES`` row pattern (or the rows of
        # that shape walked so far); bounded like the plans.
        self._row_patterns = PlanCache()
        # The paper's cross-check UDF ships registered, with a trivial
        # batch kernel so a batch never calls it once per row.
        self.register_function(
            "dbo.EmptyFunction", _empty_function, body_cost="empty")

    def register_function(self, qualified_name: str, func: Callable,
                          body_cost="item",
                          vectorized: Callable | None = None) -> None:
        """Register a scalar UDF callable as ``Schema.Name(...)``.

        ``body_cost`` is the managed-body cost class charged per call
        ("item", "empty", or seconds as float).  ``vectorized``, if
        given, is a batch kernel with the
        :class:`~repro.engine.executor.ScalarUdf` kernel contract: it
        receives a list of equal-length arrays (one per argument, no
        NULLs) and returns a length-n array, or ``None`` to decline the
        batch.  It is attached to ``func`` as its ``vectorized``
        attribute, which :class:`ScalarUdf` picks up automatically.
        """
        if vectorized is not None:
            try:
                func.vectorized = vectorized
            except AttributeError:
                # Builtins/bound methods reject attributes; wrap them.
                plain = func
                def func(*args, _f=plain):  # noqa: E306
                    return _f(*args)
                func.vectorized = vectorized
        self._functions[qualified_name.lower()] = (func, body_cost)

    # -- public API --------------------------------------------------------

    @lockcheck.statement
    def execute(self, sql: str, cold: bool = True, finalize=None):
        """Execute any supported statement.

        ``SELECT`` returns ``(values, metrics)`` (or ``(rows, metrics)``
        with GROUP BY); ``CREATE TABLE`` returns the new
        :class:`~repro.engine.table.Table`; ``DROP TABLE`` returns 0;
        ``INSERT`` and ``DELETE`` return the number of rows affected.
        ``finalize`` (SELECT only) is applied to the result before the
        statement ends — see :meth:`query`.

        Latching: CREATE/DROP take the exclusive catalog latch; INSERT
        and DELETE take the exclusive latch of the one table they
        target, so a writer here overlaps readers and writers of
        *other* tables — and only for the copy-on-write mutate +
        publish step: rows are parsed and encoded (or victims chosen on
        a pinned snapshot) first, a key-range write intent is declared
        (so disjoint-range writers of the *same* table overlap too),
        and only then is the table latched exclusively.  Concurrent
        snapshot readers never block on any of it.
        """
        kind = _statement_kind(sql)
        if kind == "SELECT":
            return self.query(sql, cold=cold, finalize=finalize)
        if kind == "INSERT":
            return self.insert_rows(*self.parse_insert(sql))
        tokens = _tokenize(sql)
        if kind == "CREATE":
            with self.db.latches.ddl_latch():
                result = _Ddl(self, tokens).create_table()
            self._plan_cache.clear()
            return result
        if kind == "DROP":
            with self.db.latches.ddl_latch():
                _Ddl(self, tokens).drop_table()
            self._plan_cache.clear()
            return 0
        if kind == "DELETE":
            return self._delete(tokens)
        raise SqlSyntaxError(
            f"unsupported statement starting with {tokens[0][1]!r}")

    @lockcheck.statement
    def insert_rows(self, table: Table, rows) -> int:
        """Insert already-parsed rows — the one bulk-insert path behind
        SQL ``INSERT`` and the server's binary ``insert`` frame.

        Every row is encoded (blob writes included) before any latch,
        a write intent is declared over the batch's key range, and the
        table is latched only for the copy-on-write apply + publish
        step.  Returns the number of rows inserted."""
        prep = table.prepare_insert(rows)
        if not prep.keys:
            return 0
        token = table.acquire_intent(min(prep.keys),
                                     max(prep.keys) + 1)
        try:
            with self.db.latches.write_latch(table.name):
                return table.apply_insert(prep)
        finally:
            table.release_intent(token)

    def _parse_delete(self, tokens) -> tuple[Table, object]:
        """``DELETE FROM t [WHERE pred]`` → ``(table, predicate)``."""
        parser = _Parser(self, tokens)
        parser._expect("kw", "DELETE")
        parser._expect("kw", "FROM")
        name_tok = parser._next()
        if name_tok[0] != "name":
            raise SqlSyntaxError("expected a table name")
        table = self._resolve_table(name_tok[1])
        parser.table = table
        where = None
        if parser._peek() == ("kw", "WHERE"):
            parser._next()
            where = parser._predicate()
        if parser._peek()[0] != "eof":
            raise SqlSyntaxError(
                f"unexpected trailing input {parser._peek()[1]!r}")
        return table, where

    def _victim_keys(self, snap, where, pk_range) -> list[int]:
        """Keys of the rows of ``snap`` (a pinned snapshot of the
        target table) that a DELETE's predicate selects, ascending.

        Only the run of leaves overlapping ``pk_range`` —
        :meth:`_pk_range` of the predicate, a superset of the matching
        keys by construction — is decoded, a batch at a time, and the
        whole predicate is still evaluated, a batch at a time, on every
        row of that interval.  Nothing is charged to the buffer
        pool.
        """
        key = self._seek_key(snap.table, where)
        if key is not None:
            return [key] if snap.get(key) is not None else []
        lo, hi = pk_range if pk_range is not None else (None, None)
        if lo is not None and hi is not None and lo >= hi:
            return []
        ctx = vectorized.BatchContext(None)
        keys: list[int] = []
        for pages in snap.tree.scan_leaf_batches(start=lo, stop=hi):
            batch = vectorized.RowBatch.from_pages(snap.table, pages)
            # The edge leaves also hold rows outside the interval.
            inside = np.ones(batch.n, dtype=bool)
            if lo is not None:
                inside &= batch.keys >= lo
            if hi is not None:
                inside &= batch.keys < hi
            if not inside.all():
                batch = batch.compact(inside)
            ctx.batch = batch
            if batch.n and where is not None:
                batch = vectorized._apply_where(where, ctx)
            if batch is not None:
                keys.extend(batch.keys.tolist())
        return keys

    def _delete(self, tokens) -> int:
        """``DELETE FROM t [WHERE pred]``; returns rows deleted.

        Picks the victim keys on a pinned snapshot (consistent, and
        concurrent with disjoint writers), then latches the table only
        for the copy-on-write delete + publish step.
        The write intent spans the WHERE clause's primary-key range —
        the whole key space when the predicate does not bound it — so
        the victim set cannot change between selection and deletion.
        """
        table, where = self._parse_delete(tokens)
        pk_range = self._pk_range(table, where)
        lo, hi = pk_range if pk_range is not None else (None, None)
        token = table.acquire_intent(lo, hi)
        try:
            # Victim selection scans a pinned snapshot under the shared
            # catalog latch only (no table latch): writers of this and
            # other tables proceed; the latch just pins the catalog so
            # a concurrent DROP cannot free pages (incl. blob pages the
            # predicate reads) mid-scan.
            with self.db.latches.catalog_latch():
                snap = table.pin_snapshot()
                try:
                    keys = self._victim_keys(snap, where, pk_range)
                finally:
                    snap.unpin(self.db.pool)
            if not keys:
                return 0
            with self.db.latches.write_latch(table.name):
                return table.delete_many(keys)
        finally:
            table.release_intent(token)

    @lockcheck.statement
    def query(self, sql: str, cold: bool = True, finalize=None):
        """Execute one aggregate SELECT; returns (values, metrics).

        The statement is planned through :meth:`prepare`, so a repeated
        text skips tokenizing, parsing and plan construction.

        A ``WHERE <pk> = <constant>`` predicate is planned as a
        clustered index *seek* (B-tree descent) instead of a full scan;
        ``GROUP BY`` runs the hash-aggregation plan and returns
        ``(rows, metrics)`` with one ``(group, agg...)`` row per group.

        Every plan — scan, seek, index or grouped — holds no table
        latch at all, only the shared catalog latch while it runs on a
        pinned snapshot (rows and secondary indexes of one version), so
        any number of sessions read concurrently and this SELECT
        proceeds alongside INSERT/DELETE on the *same* table.

        ``finalize``, if given, is called on the raw result before the
        statement ends and its return value is returned instead.  A
        late-materialised seek (:attr:`SelectPlan.late`) hands it a
        :class:`~repro.engine.table.MaxBlobHandle` cell *inside* the
        statement's read view — snapshot still pinned, a cold
        statement's cold view still open — where the hook dereferences
        what it needs (a window, a byte range, the whole blob) and the
        page reads it makes are charged to the statement's metrics; a
        handle is never dereferenced once its statement's pin is gone.
        Without a hook the session reads such a cell out whole, so this
        method only ever returns bytes.  For every other plan the hook
        runs after the scan, under the shared catalog latch.
        ``finalize`` must not execute further statements (the latches
        are not reentrant).
        """
        return self._select(self.prepare(sql), cold, finalize)

    def _select(self, plan: SelectPlan, cold: bool, finalize):
        """Catalog latch -> execute -> ``finalize`` for one planned
        SELECT: the body shared by :meth:`query` and
        :meth:`query_partial`."""
        with self.db.latches.catalog_latch():
            if plan.late:
                return self.executor.run_point(
                    plan.table, plan.key, plan.aggregates, cold,
                    plan.label, finalize=finalize or self._read_out)
            result = self._execute_plan(plan, cold)
            return result if finalize is None else finalize(result)

    def _read_out(self, result):
        """The consumer of a late plan nobody else consumes: every
        handle — a cell, or a cell of a captured value list — read
        whole."""
        pool = self.db.pool

        def read(value):
            if isinstance(value, list):
                return [read(cell) for cell in value]
            return value.read_all(pool) \
                if isinstance(value, MaxBlobHandle) else value

        return tuple(read(value) for value in result[0]), result[1]

    def prepare(self, sql: str) -> SelectPlan:
        """Parse and plan an aggregate SELECT once, caching the plan
        by exact SQL text — the server side of a ``prepare`` frame.

        Repeated :meth:`query` calls for the same text skip
        tokenizing, parsing and plan construction entirely.  The cache
        is cleared on this session's DDL (see :meth:`execute`), and a
        plan whose table another session has dropped since is planned
        afresh; data-only writes leave plans valid — a plan captures
        *structure* (expressions, seek keys parsed from constants),
        never row contents.
        """
        plan = self._plan_cache.lookup(sql)
        if plan is None or \
                self.db.tables.get(plan.table.name) is not plan.table:
            plan = self.plan_select(sql)
            self._plan_cache.remember(sql, plan)
        return plan

    def plan_select(self, sql: str) -> SelectPlan:
        """Parse one aggregate SELECT into a routable
        :class:`SelectPlan` without executing it (and without taking
        any latch — planning only touches the catalog).

        The same plan object drives local execution (:meth:`query`)
        and remote routing (the shard coordinator reads ``key`` and
        ``pk_range`` to decide which shards must run the statement).
        """
        return self._plan_tokens(_tokenize(sql), sql)

    def _plan_tokens(self, tokens, sql: str) -> SelectPlan:
        parser = _Parser(self, tokens)
        table, items, where, group = parser.parse()
        label = sql.strip()
        if group is not None:
            group_expr, group_text = group
            plain = [it for it in items if it[0] == "expr"]
            aggs = [it[1] for it in items if it[0] == "agg"]
            if len(plain) != 1 or items[0][0] != "expr":
                raise SqlSyntaxError(
                    "GROUP BY queries must select the group expression "
                    "first, then aggregates")
            if plain[0][2] != group_text:
                raise SqlSyntaxError(
                    f"selected expression {plain[0][2]!r} does not "
                    f"match GROUP BY {group_text!r}")
            if not aggs:
                raise SqlSyntaxError(
                    "GROUP BY queries need at least one aggregate")
            return SelectPlan(
                table=table, label=label, kind="grouped",
                aggregates=aggs, where=where, group_expr=group_expr,
                group_text=group_text,
                pk_range=self._pk_range(table, where))
        aggregates = []
        for item in items:
            if item[0] != "agg":
                raise SqlSyntaxError(
                    "non-aggregate select items need a GROUP BY")
            aggregates.append(item[1])
        key = self._seek_key(table, where)
        if key is not None:
            # At most one row: MIN/MAX of a blob column *is* that row's
            # cell, so its handle goes through unread (SelectPlan.late).
            handed = [type(agg)(agg.expr.inner)
                      if type(agg) in (Min, Max)
                      and isinstance(agg.expr, ReadBlob) else agg
                      for agg in aggregates]
            return SelectPlan(table=table, label=label, kind="point",
                              aggregates=handed, where=where, key=key,
                              pk_range=(key, key + 1),
                              late=handed != aggregates)
        index = self._index_plan(table, where)
        if index is not None:
            column, equals, lo, hi = index
            return SelectPlan(table=table, label=label, kind="index",
                              aggregates=aggregates, where=where,
                              index_column=column, index_equals=equals,
                              index_lo=lo, index_hi=hi,
                              pk_range=self._pk_range(table, where))
        return SelectPlan(table=table, label=label, kind="scan",
                          aggregates=aggregates, where=where,
                          pk_range=self._pk_range(table, where))

    def _execute_plan(self, plan: SelectPlan, cold: bool):
        """Run a :class:`SelectPlan` serially on this session's
        executor.

        The caller holds the shared catalog latch.
        """
        if plan.kind == "point":
            return self.executor.run_point(
                plan.table, plan.key, plan.aggregates, cold=cold,
                label=plan.label)
        if plan.kind == "index":
            return self.executor.run_index(
                plan.table, plan.index_column, plan.aggregates,
                equals=plan.index_equals, lo=plan.index_lo,
                hi=plan.index_hi, cold=cold, label=plan.label)
        run = self.executor.run_partial if plan.partial \
            else self.executor.run_serial
        return run(plan.table, plan.aggregates, plan.where,
                   plan.group_expr, cold, plan.label)

    @lockcheck.statement
    def query_partial(self, sql: str, cold: bool = True, finalize=None):
        """Execute one aggregate SELECT with every aggregate a
        :func:`~repro.engine.executor.PartialCapture`: the shard half
        of distributed aggregation, whose *unreduced* partials (counts,
        ordered non-NULL inputs) the coordinator folds in shard order.

        Returns a dict with ``rows`` (rows scanned), ``metrics`` and
        ``groups``, a :class:`~repro.engine.vectorized.GroupArrays` —
        the arrays a ``presult`` frame carries, read as ordered
        ``(group_value, [partials...])`` pairs on demand: the scan's
        own, or loaded from the rows its per-lane walk finished.  A
        scalar SELECT is one group under the key 0.  ``finalize`` has
        :meth:`query` semantics: blob handles inside MIN/MAX partials
        are dereferenced there, before the statement ends.
        """
        plan = self.prepare(sql)
        wrapped = replace(plan, partial=True, aggregates=[
            PartialCapture(agg) for agg in plan.aggregates])

        def shape(result):
            if plan.late and finalize is None:
                result = self._read_out(result)
            groups, metrics = result
            if plan.kind != "grouped":
                groups = [(0, *groups)]
            if isinstance(groups, list):  # rows: the per-lane walk
                groups = vectorized.GroupArrays.from_rows(
                    wrapped.aggregates, groups)
            payload = {"rows": metrics.rows, "groups": groups,
                       "metrics": metrics}
            return payload if finalize is None else finalize(payload)

        return self._select(wrapped, cold, shape)

    def parse_insert(self, sql: str) -> tuple[Table, list[tuple]]:
        """Parse ``INSERT INTO name VALUES (v, ...), ...`` into
        ``(table, rows)`` without touching storage.

        Values are literals, NULL, or schema-qualified function calls
        over values (``FloatArray.Vector_3(1, 2, 3)``), evaluated here
        — the returned rows are plain tuples ready for
        :meth:`insert_rows` (which is what :meth:`execute` does with
        them) or for shipping to the shard that owns them, as the
        shard coordinator does.

        The list is read by row shape (:mod:`repro.engine.values`):
        one row of a run is walked token by token, the rest are lifted
        by the shape's compiled pattern and evaluated as columns.
        """
        try:
            return read_insert(sql, self._resolve_table,
                               self._resolve_function, self._row_patterns)
        except Exception:
            # The reader fails on a character no token admits, but
            # maybe later than on something else; such a character is
            # reported first, with its offset, wherever it stands.
            _tokenize(sql)
            raise

    def _pk_range(self, table: Table, where
                  ) -> tuple[int | None, int | None] | None:
        """Half-open integer primary-key interval ``[lo, hi)`` implied
        by the WHERE clause, or None when the predicate does not bound
        the key.

        Conservative by construction: bounds are read only off simple
        ``pk <op> const`` conjuncts of a top-level AND chain (any other
        conjunct merely narrows the result further, so ignoring it
        keeps the interval a superset of the matching keys).  A
        top-level OR yields None — either branch could match anywhere.
        """
        if where is None:
            return None
        pk = table.columns[0].name
        conjuncts = [where]
        leaves = []
        while conjuncts:
            node = conjuncts.pop()
            if isinstance(node, _BinOp) and node.op == "AND":
                conjuncts.append(node.left)
                conjuncts.append(node.right)
            else:
                leaves.append(node)
        if isinstance(where, _BinOp) and where.op == "OR":
            return None
        lo: int | None = None
        hi: int | None = None
        for leaf in leaves:
            parts = self._cmp_parts(leaf)
            if parts is None or parts[0] != pk:
                continue
            _col, op, value = parts
            if not _is_finite_number(value):
                continue
            # Keys are integers: snap each bound to the tightest
            # integer interval containing the predicate's solutions.
            if op == "=":
                if value != int(value):
                    return (0, 0)  # pk = 1.5 matches nothing
                lo = max(lo, int(value)) if lo is not None \
                    else int(value)
                hi = min(hi, int(value) + 1) if hi is not None \
                    else int(value) + 1
            elif op == ">=":
                bound = math.ceil(value)
                lo = bound if lo is None else max(lo, bound)
            elif op == ">":
                bound = math.floor(value) + 1
                lo = bound if lo is None else max(lo, bound)
            elif op == "<":
                bound = math.ceil(value)
                hi = bound if hi is None else min(hi, bound)
            elif op == "<=":
                bound = math.floor(value) + 1
                hi = bound if hi is None else min(hi, bound)
        if lo is None and hi is None:
            return None
        return (lo, hi)

    def explain(self, sql: str) -> str:
        """Describe the plan a SELECT would use without executing it.

        Returns one of ``clustered index seek``, ``index seek``,
        ``index range scan``, ``hash aggregate (clustered scan)``, or
        ``clustered index scan``, with the table and predicate column.
        """
        parser = _Parser(self, _tokenize(sql))
        table, _items, where, group = parser.parse()
        if group is not None:
            return (f"hash aggregate (clustered scan) on {table.name} "
                    f"grouped by {group[1]}")
        key = self._seek_key(table, where)
        if key is not None:
            return f"clustered index seek on {table.name} (id = {key})"
        plan = self._index_plan(table, where)
        if plan is not None:
            column, equals, lo, hi = plan
            if equals is not None:
                return (f"index seek on {table.name}.{column} "
                        f"(= {equals})")
            return (f"index range scan on {table.name}.{column} "
                    f"([{lo}, {hi}))")
        suffix = " with residual predicate" if where is not None else ""
        return f"clustered index scan on {table.name}{suffix}"

    @staticmethod
    def _cmp_parts(node):
        """Decompose ``col <op> const`` (either side order) into
        ``(column, op, const)``; None if the node is not that shape."""
        if not isinstance(node, _BinOp) or node.op not in (
                "=", "<", "<=", ">", ">="):
            return None
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
        if isinstance(node.left, Col) and isinstance(node.right, Const):
            return node.left.name, node.op, node.right.value
        if isinstance(node.left, Const) and isinstance(node.right, Col):
            return node.right.name, flip[node.op], node.left.value
        return None

    def _index_plan(self, table: Table, where):
        """Choose an index seek/range plan for simple predicates on an
        indexed column: ``col = c`` (``c`` not NULL, which matches
        nothing) or ``col >= a AND col < b``."""
        single = self._cmp_parts(where)
        if single is not None:
            column, op, value = single
            if op == "=" and value is not None and \
                    table.index_on(column) is not None:
                return column, value, None, None
            return None
        if isinstance(where, _BinOp) and where.op == "AND":
            left = self._cmp_parts(where.left)
            right = self._cmp_parts(where.right)
            if left and right and left[0] == right[0] and \
                    table.index_on(left[0]) is not None:
                lo = hi = None
                for _col, op, value in (left, right):
                    if op == ">=":
                        lo = value
                    elif op == "<":
                        hi = value
                    else:
                        return None
                if lo is not None and hi is not None:
                    return left[0], None, lo, hi
        return None

    @staticmethod
    def _seek_key(table: Table, where) -> int | None:
        """Extract the key of a ``pk = const`` predicate, if that is
        the whole WHERE clause and the constant *is* a key: a finite
        integral number.  ``id = 1.5`` or ``id = 1e999`` matches no
        row, so it plans a scan (bounded by :meth:`_pk_range`) rather
        than a seek on the truncated value."""
        if not isinstance(where, _BinOp) or where.op != "=":
            return None
        pk = table.columns[0].name
        sides = (where.left, where.right)
        for col, const in (sides, sides[::-1]):
            if isinstance(col, Col) and col.name == pk and \
                    isinstance(const, Const):
                value = const.value
                if _is_finite_number(value) and value == int(value):
                    return int(value)
        return None

    # -- resolution helpers ---------------------------------------------------

    def _resolve_table(self, name: str) -> Table:
        for table_name, table in self.db.tables.items():
            if table_name.lower() == name.lower():
                return table
        raise SqlSyntaxError(f"unknown table {name!r}")

    def _resolve_function(self, schema: str, func: str
                          ) -> tuple[Callable, object]:
        registered = self._functions.get(f"{schema}.{func}".lower())
        if registered is not None:
            return registered
        ns = _SCHEMAS.get(schema.lower())
        if ns is None:
            raise SqlSyntaxError(f"unknown function {schema}.{func}")
        method = getattr(ns, func, None)
        if method is None:
            for attr in dir(ns):
                if attr.lower() == func.lower():
                    method = getattr(ns, attr)
                    break
        if method is None:
            raise SqlSyntaxError(
                f"schema {ns.name} has no function {func!r}")
        return method, "item"


class _Parser:
    """Recursive-descent parser producing executor plans."""

    def __init__(self, session: SqlSession, tokens):
        self.session = session
        self.tokens = tokens
        self.i = 0
        self.table: Table | None = None

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

    def parse(self):
        self._expect("kw", "SELECT")
        # The FROM table must be known before expressions referencing
        # columns are built; scan ahead for it first.
        depth = 0
        j = self.i
        while self.tokens[j][0] != "eof":
            kind, value = self.tokens[j]
            if kind == "op" and value == "(":
                depth += 1
            elif kind == "op" and value == ")":
                depth -= 1
            elif kind == "kw" and value == "FROM" and depth == 0:
                break
            j += 1
        if self.tokens[j][0] == "eof":
            raise SqlSyntaxError("missing FROM clause")
        table_tok = self.tokens[j + 1]
        if table_tok[0] != "name":
            raise SqlSyntaxError("expected a table name after FROM")
        self.table = self.session._resolve_table(table_tok[1])

        items = [self._select_item()]
        while self._peek() == ("op", ","):
            self._next()
            items.append(self._select_item())
        self._expect("kw", "FROM")
        self._next()  # table name, already resolved
        if self._peek() == ("kw", "WITH"):
            self._next()
            self._expect("op", "(")
            self._expect("kw", "NOLOCK")
            self._expect("op", ")")
        where = None
        if self._peek() == ("kw", "WHERE"):
            self._next()
            where = self._predicate()
        group = None
        if self._peek() == ("kw", "GROUP"):
            self._next()
            self._expect("kw", "BY")
            start = self.i
            expr = self._expr()
            group = (expr, self._span_text(start, self.i))
        if self._peek()[0] != "eof":
            raise SqlSyntaxError(
                f"unexpected trailing input {self._peek()[1]!r}")
        return self.table, items, where, group

    def _span_text(self, start: int, stop: int) -> str:
        """Normalized text of a token span (for GROUP BY matching)."""
        return " ".join(t[1] for t in self.tokens[start:stop])

    def _select_item(self):
        """One select-list item: an aggregate or a plain expression
        (the latter only legal with GROUP BY)."""
        tok = self._peek()
        if tok[0] == "kw" and tok[1] in ("COUNT", "SUM", "AVG", "MIN",
                                         "MAX"):
            return ("agg", self._aggregate())
        start = self.i
        expr = self._expr()
        return ("expr", expr, self._span_text(start, self.i))

    # -- aggregates -----------------------------------------------------------

    def _aggregate(self):
        tok = self._next()
        if tok[0] != "kw" or tok[1] not in ("COUNT", "SUM", "AVG",
                                            "MIN", "MAX"):
            raise SqlSyntaxError(
                f"expected an aggregate function, got {tok[1]!r}")
        self._expect("op", "(")
        if tok[1] == "COUNT":
            self._expect("op", "*")
            self._expect("op", ")")
            return Count()
        expr = self._expr()
        self._expect("op", ")")
        return {"SUM": Sum, "AVG": Avg, "MIN": Min, "MAX": Max}[tok[1]](
            expr)

    # -- expressions -------------------------------------------------------------

    def _expr(self) -> Expression:
        node = self._term()
        while self._peek() in (("op", "+"), ("op", "-")):
            op = self._next()[1]
            node = _BinOp(op, node, self._term())
        return node

    def _term(self) -> Expression:
        node = self._factor()
        while self._peek() in (("op", "*"), ("op", "/")):
            op = self._next()[1]
            node = _BinOp(op, node, self._factor())
        return node

    def _factor(self) -> Expression:
        kind, value = self._next()
        if kind == "number":
            return Const(float(value) if "." in value or "e" in
                         value.lower() else int(value))
        if kind == "string":
            return Const(value[1:-1])
        if kind == "kw" and value == "NULL":
            return Const(None)
        if kind == "op" and value == "-":
            node = self._factor()
            if isinstance(node, Const) and _is_finite_number(node.value):
                return Const(0 - node.value)  # a negative literal
            return _BinOp("-", Const(0), node)
        if kind == "op" and value == "(":
            node = self._expr()
            self._expect("op", ")")
            return node
        if kind == "name":
            if self._peek() == ("op", "."):
                self._next()
                func_tok = self._next()
                # Function names may collide with SQL keywords
                # (FloatArray.Sum, .Min, .Max, .Count ...).
                if func_tok[0] not in ("name", "kw"):
                    raise SqlSyntaxError("expected a function name "
                                         "after '.'")
                func_name = func_tok[1]
                if func_tok[0] == "kw":
                    func_name = func_name.capitalize()
                return self._call(value, func_name)
            return self._column(value)
        raise SqlSyntaxError(f"unexpected token {value!r}")

    def _column(self, name: str) -> Expression:
        table = self.table
        try:
            index = table.column_index(name)
        except Exception:
            # Case-insensitive fallback, like T-SQL.
            matches = [c.name for c in table.columns
                       if c.name.lower() == name.lower()]
            if not matches:
                raise SqlSyntaxError(
                    f"table {table.name} has no column {name!r}")
            name = matches[0]
            index = table.column_index(name)
        col = Col(name)
        if table.columns[index].type == "varbinary_max":
            return ReadBlob(col)
        return col

    def _call(self, schema: str, func: str) -> Expression:
        self._expect("op", "(")
        args = []
        if self._peek() != ("op", ")"):
            args.append(self._expr())
            while self._peek() == ("op", ","):
                self._next()
                args.append(self._expr())
        self._expect("op", ")")
        callable_, body_cost = self.session._resolve_function(schema, func)
        return ScalarUdf(callable_, *args, body_cost=body_cost,
                         name=f"{schema}.{func}")

    # -- predicates ---------------------------------------------------------------

    def _predicate(self) -> Expression:
        node = self._conjunction()
        while self._peek() == ("kw", "OR"):
            self._next()
            node = _BinOp("OR", node, self._conjunction())
        return node

    def _conjunction(self) -> Expression:
        node = self._pred_unit()
        while self._peek() == ("kw", "AND"):
            self._next()
            node = _BinOp("AND", node, self._pred_unit())
        return node

    def _pred_unit(self) -> Expression:
        if self._peek() == ("kw", "NOT"):
            self._next()
            return _Not(self._pred_unit())
        # '(' could open a nested predicate or a scalar expression; try
        # the predicate reading first and backtrack if it fails or the
        # parenthesized unit turns out to be an operand.
        if self._peek() == ("op", "("):
            save = self.i
            try:
                self._next()
                node = self._predicate()
                self._expect("op", ")")
                follow = self._peek()
                if not (follow[0] == "op"
                        and follow[1] in ("+", "-", "*", "/", "=", "<>",
                                          "!=", "<", "<=", ">", ">=")):
                    return node
            except SqlSyntaxError:
                pass
            self.i = save
        left = self._expr()
        if self._peek() == ("kw", "IS"):
            self._next()
            negate = False
            if self._peek() == ("kw", "NOT"):
                self._next()
                negate = True
            self._expect("kw", "NULL")
            return _IsNull(left, negate)
        kind, value = self._peek()
        if kind == "op" and value in ("=", "<>", "!=", "<", "<=", ">",
                                      ">="):
            self._next()
            right = self._expr()
            return _BinOp(value, left, right)
        return left


class _Ddl:
    """Parser/executor for CREATE TABLE and DROP TABLE statements."""

    _TYPES = {"BIGINT": "bigint", "INT": "int", "SMALLINT": "smallint",
              "TINYINT": "tinyint", "FLOAT": "float", "REAL": "real"}

    def __init__(self, session: SqlSession, tokens):
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

    def create_table(self) -> Table:
        """``CREATE TABLE name (col TYPE [PRIMARY KEY], ...)``.

        Supported types: BIGINT, INT, SMALLINT, TINYINT, FLOAT, REAL,
        VARBINARY(n), VARBINARY(MAX).  The first column is the
        clustered primary key (a trailing PRIMARY KEY marker on it is
        accepted and ignored, any other placement is an error).
        """
        from .table import Column

        self._expect("kw", "CREATE")
        self._expect("kw", "TABLE")
        name_tok = self._next()
        if name_tok[0] != "name":
            raise SqlSyntaxError("expected a table name")
        self._expect("op", "(")
        columns = []
        while True:
            col_tok = self._next()
            if col_tok[0] != "name":
                raise SqlSyntaxError("expected a column name")
            columns.append(self._column_def(col_tok[1],
                                            first=not columns))
            tok = self._next()
            if tok == ("op", ")"):
                break
            if tok != ("op", ","):
                raise SqlSyntaxError(
                    f"expected ',' or ')', got {tok[1]!r}")
        if self._peek()[0] != "eof":
            raise SqlSyntaxError(
                f"unexpected trailing input {self._peek()[1]!r}")
        return self.session.db.create_table(name_tok[1], columns)

    def _column_def(self, col_name: str, first: bool):
        from .table import Column

        type_tok = self._next()
        type_name = type_tok[1].upper()
        if type_name in self._TYPES:
            column = Column(col_name, self._TYPES[type_name])
        elif type_name == "VARBINARY":
            self._expect("op", "(")
            size_tok = self._next()
            if size_tok[0] == "number":
                column = Column(col_name, "varbinary",
                                cap=int(size_tok[1]))
            elif size_tok[1].upper() == "MAX":
                column = Column(col_name, "varbinary_max")
            else:
                raise SqlSyntaxError(
                    "VARBINARY needs a size or MAX")
            self._expect("op", ")")
        else:
            raise SqlSyntaxError(f"unknown column type {type_tok[1]!r}")
        if self._peek() == ("kw", "PRIMARY"):
            self._next()
            self._expect("kw", "KEY")
            if not first:
                raise SqlSyntaxError(
                    "only the first column can be the primary key")
        return column

    def drop_table(self) -> None:
        """``DROP TABLE name`` — unregister the table from the catalog
        (the caller holds the exclusive catalog latch)."""
        self._expect("kw", "DROP")
        self._expect("kw", "TABLE")
        name_tok = self._next()
        if name_tok[0] != "name":
            raise SqlSyntaxError("expected a table name")
        if self._peek()[0] != "eof":
            raise SqlSyntaxError(
                f"unexpected trailing input {self._peek()[1]!r}")
        try:
            self.session.db.drop_table(name_tok[1])
        except ValueError as exc:
            raise SqlSyntaxError(str(exc)) from exc
