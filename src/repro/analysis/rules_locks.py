"""RL001 lock discipline and RL002 lock ordering.

RL001 — every path from a public ``SqlSession`` entry point to a page- or
tree-mutating sink (``BufferPool.fetch``/``fetch_many`` and the MVCC read
path's ``fetch_page``/``fetch_pages``, ``Table.insert``/
``insert_many``/``delete``/``delete_many``, ``BTree.insert``/``insert_many``/
``delete``/``delete_many``/``bulk_load``, ``Page.add_records``, and
the ``Executor.run*`` family, which assumes the caller holds the lock) must
pass through a statement guard — a ``db.latches.read_latch(...)`` /
``write_latch(...)`` / ``ddl_latch()`` context (the per-table latch
hierarchy, see ``repro.engine.latches``; a bare RWLock's
``read_lock()`` / ``write_lock()`` counts too) — the way
``SqlSession.insert_rows`` and ``SqlSession.query`` do.  Edges taken
*inside* a guard are satisfied and not traversed further; any unguarded
path that reaches a sink is reported at the first call edge of that path.

RL002 — the lock hierarchy is ``catalog latch > table latches > pool/page
``_lock`` mutexes``, acquired strictly downward, and neither the RWLock nor
the latch set is re-entrant.  The rule flags, lexically and through calls:

- acquiring an RWLock guard while a pool guard is held (inverse order);
- acquiring an RWLock guard while an RWLock guard is already held
  (re-entrancy — a read holder taking ``write_lock`` deadlocks by design,
  see ``repro.engine.locks``);
- acquiring a latch guard while a pool guard is held (a leaf mutex is
  *below* the latch level; taking a latch under it inverts the hierarchy);
- acquiring a latch guard while a latch guard is already held (unordered
  multi-table acquisition — a statement's whole latch set must be taken in
  one sorted ``read_latch``/``write_latch`` call, never incrementally).
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .callgraph import (
    LATCH_GUARD,
    POOL_GUARD,
    RWLOCK_GUARD,
    CallGraph,
    CallSite,
    FunctionInfo,
)
from .framework import Finding, LintContext, Rule, SourceFile

#: Classes whose public methods are statement entry points.
ENTRY_CLASSES = ("SqlSession",)

#: (class name, method name) pairs that require a statement latch.
LOCK_SINKS = frozenset(
    {
        ("BufferPool", "fetch"),
        ("BufferPool", "fetch_many"),
        ("BufferPool", "fetch_page"),
        ("BufferPool", "fetch_pages"),
        ("Table", "insert"),
        ("Table", "insert_many"),
        ("Table", "delete"),
        ("Table", "delete_many"),
        ("BTree", "insert"),
        ("BTree", "insert_many"),
        ("BTree", "delete"),
        ("BTree", "delete_many"),
        ("BTree", "bulk_load"),
        ("Page", "add_records"),
        ("Executor", "run"),
        ("Executor", "run_serial"),
        ("Executor", "run_point"),
        ("Executor", "run_index"),
        ("Executor", "run_grouped"),
    }
)


def _is_sink(info: FunctionInfo) -> bool:
    return (info.class_name or "", info.name) in LOCK_SINKS


class LockDisciplineRule(Rule):
    code = "RL001"
    name = "lock-discipline"
    description = (
        "public SqlSession entry points must hold a statement latch "
        "before reaching BufferPool/Table/BTree/Executor sinks"
    )

    def check(self, files: Sequence[SourceFile], ctx: LintContext) -> list[Finding]:
        graph = ctx.callgraph(files)
        findings: list[Finding] = []
        reported: set[tuple[str, str]] = set()
        for entry_class in ENTRY_CLASSES:
            for entry in graph.iter_methods(entry_class):
                if entry.name.startswith("_"):
                    continue
                findings.extend(self._scan_entry(graph, entry, reported))
        return findings

    def _scan_entry(
        self,
        graph: CallGraph,
        entry: FunctionInfo,
        reported: set[tuple[str, str]],
    ) -> list[Finding]:
        findings: list[Finding] = []
        # BFS over unguarded call edges; each queue item carries the call
        # path so the report can show how the sink is reached.
        queue: deque[tuple[FunctionInfo, tuple[str, ...], CallSite | None]] = deque(
            [(entry, (entry.qualname,), None)]
        )
        visited: set[int] = {id(entry)}
        while queue:
            func, path, first_edge = queue.popleft()
            for call in func.calls:
                if call.guarded:
                    continue  # satisfied: edge under a statement latch
                for target in graph.resolve(call, func):
                    edge = first_edge or call
                    if _is_sink(target):
                        key = (entry.qualname, target.qualname)
                        if key in reported:
                            continue
                        reported.add(key)
                        chain = " -> ".join(path + (target.qualname,))
                        findings.append(
                            Finding(
                                rule=self.code,
                                path=func.display_path,
                                line=call.line,
                                col=call.col,
                                message=(
                                    f"{entry.qualname} reaches "
                                    f"{target.qualname} without holding "
                                    f"a statement latch (path: {chain})"
                                ),
                            )
                        )
                        continue
                    if id(target) in visited:
                        continue
                    visited.add(id(target))
                    queue.append((target, path + (target.qualname,), edge))
        return findings


class LockOrderRule(Rule):
    code = "RL002"
    name = "lock-order"
    description = (
        "never acquire an RWLock or a table latch while holding a pool "
        "_lock, never re-acquire the non-reentrant RWLock, and never "
        "nest latch acquisitions (multi-table latch sets are taken in "
        "one sorted call)"
    )

    def check(self, files: Sequence[SourceFile], ctx: LintContext) -> list[Finding]:
        graph = ctx.callgraph(files)
        findings: list[Finding] = []
        for func in graph.functions:
            findings.extend(self._lexical(func))
            findings.extend(self._through_calls(graph, func))
        return findings

    def _lexical(self, func: FunctionInfo) -> list[Finding]:
        findings: list[Finding] = []
        for event in func.lock_events:
            if event.kind == RWLOCK_GUARD:
                if RWLOCK_GUARD in event.held_before:
                    findings.append(
                        Finding(
                            rule=self.code,
                            path=func.display_path,
                            line=event.line,
                            col=event.col,
                            message=(
                                f"{func.qualname} re-acquires the RWLock "
                                "while already holding it (RWLock is not "
                                "re-entrant)"
                            ),
                        )
                    )
                if POOL_GUARD in event.held_before:
                    findings.append(
                        Finding(
                            rule=self.code,
                            path=func.display_path,
                            line=event.line,
                            col=event.col,
                            message=(
                                f"{func.qualname} acquires the RWLock while "
                                "holding a pool _lock (inverse lock order)"
                            ),
                        )
                    )
            elif event.kind == LATCH_GUARD:
                if LATCH_GUARD in event.held_before:
                    findings.append(
                        Finding(
                            rule=self.code,
                            path=func.display_path,
                            line=event.line,
                            col=event.col,
                            message=(
                                f"{func.qualname} acquires a table latch "
                                "while already holding one (unordered "
                                "multi-table acquisition; take the whole "
                                "latch set in one sorted "
                                "read_latch/write_latch call)"
                            ),
                        )
                    )
                if POOL_GUARD in event.held_before:
                    findings.append(
                        Finding(
                            rule=self.code,
                            path=func.display_path,
                            line=event.line,
                            col=event.col,
                            message=(
                                f"{func.qualname} acquires a table latch "
                                "while holding a pool _lock (the pool lock "
                                "is a leaf below the latch level)"
                            ),
                        )
                    )
        return findings

    def _through_calls(self, graph: CallGraph, func: FunctionInfo) -> list[Finding]:
        findings: list[Finding] = []
        for call in func.calls:
            if not call.held:
                continue
            holds_rw = RWLOCK_GUARD in call.held
            holds_latch = LATCH_GUARD in call.held
            holds_pool = POOL_GUARD in call.held
            if not (holds_rw or holds_latch or holds_pool):
                continue
            rw_offender = self._reaches(
                graph, call, func, lambda f: f.acquires_rwlock)
            if rw_offender is not None:
                if holds_rw:
                    findings.append(
                        Finding(
                            rule=self.code,
                            path=func.display_path,
                            line=call.line,
                            col=call.col,
                            message=(
                                f"{func.qualname} holds the RWLock and "
                                f"calls into {rw_offender.label}, which "
                                "re-acquires it (RWLock is not re-entrant)"
                            ),
                        )
                    )
                elif holds_pool:
                    findings.append(
                        Finding(
                            rule=self.code,
                            path=func.display_path,
                            line=call.line,
                            col=call.col,
                            message=(
                                f"{func.qualname} holds a pool _lock and "
                                f"calls into {rw_offender.label}, which "
                                "acquires the RWLock (inverse lock order)"
                            ),
                        )
                    )
            if not (holds_latch or holds_pool):
                continue
            latch_offender = self._reaches(
                graph, call, func, lambda f: f.acquires_latch)
            if latch_offender is None:
                continue
            if holds_latch:
                findings.append(
                    Finding(
                        rule=self.code,
                        path=func.display_path,
                        line=call.line,
                        col=call.col,
                        message=(
                            f"{func.qualname} holds a table latch and calls "
                            f"into {latch_offender.label}, which acquires "
                            "another latch (unordered multi-table "
                            "acquisition)"
                        ),
                    )
                )
            elif holds_pool:
                findings.append(
                    Finding(
                        rule=self.code,
                        path=func.display_path,
                        line=call.line,
                        col=call.col,
                        message=(
                            f"{func.qualname} holds a pool _lock and calls "
                            f"into {latch_offender.label}, which acquires a "
                            "table latch (the pool lock is a leaf below "
                            "the latch level)"
                        ),
                    )
                )
        return findings

    def _reaches(
        self,
        graph: CallGraph,
        call: CallSite,
        caller: FunctionInfo,
        predicate,
    ) -> FunctionInfo | None:
        """First function reachable from ``call`` satisfying
        ``predicate`` (BFS over resolved call edges), or ``None``."""
        queue: deque[FunctionInfo] = deque(graph.resolve(call, caller))
        visited: set[int] = set()
        while queue:
            func = queue.popleft()
            if id(func) in visited:
                continue
            visited.add(id(func))
            if predicate(func):
                return func
            for inner in func.calls:
                queue.extend(graph.resolve(inner, func))
        return None
