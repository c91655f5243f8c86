"""The lock rules: RL001, RL004 and RL005.

All three read one model of who holds what — the flow layer's
held-sets (:class:`~repro.analysis.flow.lockgraph.ProgramLockAnalysis`,
memoised per lint run on the :class:`LintContext`): per call site and
per acquisition, every lock state some path reaches it with.

RL001 — every path from a public ``SqlSession`` entry point to a page- or
tree-mutating sink (``BufferPool.fetch``/``fetch_many`` and the MVCC read
path's ``fetch_page``/``fetch_pages``, ``Table.insert``/
``insert_many``/``delete``/``delete_many``, ``BTree.insert``/``insert_many``/
``delete``/``delete_many``/``bulk_load``, ``Page.add_records``, and
the ``Executor.run*`` family, which assumes the caller holds the lock) must
pass through a statement latch (the ``catalog`` or ``table`` class of the
per-table latch hierarchy, see ``repro.engine.latches``) — the way
``SqlSession.insert_rows`` and ``SqlSession.query`` do.  A call edge is
satisfied when every held-set the flow layer saw at it holds a latch;
those edges are not traversed further.  A call site the flow layer did
not record (unreachable code, a ``with`` header) counts as unguarded.
Any unguarded path that reaches a sink is reported at the first call
edge of that path.

RL004 — the whole-program lock-order graph (nodes = lock classes such
as ``catalog``, ``table``, ``pool``, ``pagefile``, ``intent``,
``mutex:<Class>``; edges = *acquired-while-held* pairs) must be
acyclic.  A cycle is a potential deadlock: two threads each holding one
class and waiting for the other.  Each cycle is reported once, with the
witness call paths for every edge on it.  RL004 also checks that the
checked-in ``lock_graph.json`` (the runtime sentinel's rank table, see
:mod:`repro.engine.lockcheck`) matches the graph computed from the tree;
regenerate it with ``repro lint --write-lock-graph`` after intentional
locking changes.  The drift check only runs when the linted set
includes the engine's latch module — fixture and test-tree lints never
compare against it.

RL005 — a statement holding an *exclusive* latch (``table`` write,
``catalog`` DDL) stalls every reader of that table for as long as it
runs; calling into a blocking sink (``time.sleep``, subprocess spawns,
``socket`` accept/recv/connect, ``select.select``, ``input``) under one
turns a latency hiccup into a whole-table outage.  Shared-mode
acquisitions (plain ``read_latch``) never trip it.
"""

from __future__ import annotations

import os
import re
from collections import deque
from typing import Sequence

from .callgraph import FunctionInfo
from .flow.dataflow import LATCH_CLASSES, State
from .flow.lockgraph import (
    LockGraph,
    ProgramLockAnalysis,
    default_lock_graph_path,
    load_lock_graph,
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


def _latched(states: Sequence[State]) -> bool:
    """Whether every held-set seen at a site holds a statement latch
    (no recorded set: not latched)."""
    return bool(states) and all(
        any(cls in LATCH_CLASSES for cls, _excl in state) for state in states)


class LockDisciplineRule(Rule):
    code = "RL001"
    name = "lock-discipline"
    description = (
        "public SqlSession entry points must hold a statement latch "
        "before reaching BufferPool/Table/BTree/Executor sinks"
    )

    def check(self, files: Sequence[SourceFile], ctx: LintContext) -> list[Finding]:
        analysis = ctx.flow(files)
        findings: list[Finding] = []
        reported: set[tuple[str, str]] = set()
        for entry_class in ENTRY_CLASSES:
            for entry in analysis.graph.iter_methods(entry_class):
                if entry.name.startswith("_"):
                    continue
                findings.extend(self._scan_entry(analysis, entry, reported))
        return findings

    def _scan_entry(
        self,
        analysis: ProgramLockAnalysis,
        entry: FunctionInfo,
        reported: set[tuple[str, str]],
    ) -> list[Finding]:
        graph = analysis.graph
        findings: list[Finding] = []
        # BFS over unguarded call edges; each queue item carries the call
        # path so the report can show how the sink is reached.
        queue: deque[tuple[FunctionInfo, tuple[str, ...]]] = deque(
            [(entry, (entry.qualname,))]
        )
        visited: set[int] = {id(entry)}
        while queue:
            func, path = queue.popleft()
            held = analysis.held_at_calls(func)
            for call in func.calls:
                if _latched(held.get((call.name, call.line, call.col), ())):
                    continue  # satisfied: edge under a statement latch
                for target in graph.resolve(call, func):
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
                    queue.append((target, path + (target.qualname,)))
        return findings


#: ``qualname (path:line)`` hop format used in witness strings.
_SITE_RE = re.compile(r"\(([^()]+):(\d+)\)")

#: The drift check runs only when this engine module is in the linted
#: set — i.e. a real-tree lint, not a fixture or test-tree lint.
_DRIFT_MARKER = ("engine", "latches.py")


def _witness_site(witness: str) -> tuple[str, int]:
    """(path, line) of the first hop of a witness chain."""
    match = _SITE_RE.search(witness)
    if match is None:  # pragma: no cover - witnesses always carry sites
        return ("<unknown>", 1)
    return (match.group(1), int(match.group(2)))


def _has_drift_marker(files: Sequence[SourceFile]) -> bool:
    for source in files:
        parts = source.path.replace("\\", "/").split("/")
        if tuple(parts[-2:]) == _DRIFT_MARKER:
            return True
    return False


class LockCycleRule(Rule):
    code = "RL004"
    name = "lock-order-cycle"
    description = (
        "the whole-program lock-order graph (acquired-while-held edges "
        "over lock classes) must be acyclic, and must match the "
        "checked-in lock_graph.json used by the runtime sentinel"
    )

    def check(self, files: Sequence[SourceFile], ctx: LintContext) -> list[Finding]:
        graph = ctx.flow(files).lock_graph
        findings: list[Finding] = []
        for cycle in graph.cycles():
            arrows = " -> ".join(cycle)
            parts: list[str] = []
            first_site: tuple[str, int] | None = None
            for src, dst in zip(cycle, cycle[1:]):
                witnesses = graph.edges.get((src, dst), [])
                for witness in witnesses:
                    parts.append(f"[{src} -> {dst}] {witness}")
                if first_site is None and witnesses:
                    first_site = _witness_site(witnesses[0])
            path, line = first_site or ("<unknown>", 1)
            detail = "; ".join(parts)
            findings.append(
                Finding(
                    rule=self.code,
                    path=path,
                    line=line,
                    message=(
                        f"lock-order cycle {arrows}: two threads "
                        "taking these classes in opposite orders can "
                        f"deadlock; witness paths: {detail}"
                    ),
                )
            )
        if _has_drift_marker(files):
            findings.extend(self._check_drift(graph, ctx))
        return findings

    def _check_drift(self, graph: LockGraph,
                     ctx: LintContext) -> list[Finding]:
        path = default_lock_graph_path()
        display = os.path.relpath(path, ctx.root)
        if display.startswith(".."):
            display = path
        checked_in = load_lock_graph(path)
        computed = graph.to_json_dict()
        if checked_in is None:
            return [
                Finding(
                    rule=self.code,
                    path=display,
                    line=1,
                    message=(
                        "lock_graph.json is missing or unreadable; the "
                        "runtime sentinel has no acquisition order to "
                        "enforce — run `repro lint --write-lock-graph`"
                    ),
                )
            ]
        if checked_in != computed:
            stale_keys = sorted(
                key for key in set(checked_in) | set(computed)
                if checked_in.get(key) != computed.get(key)
            )
            return [
                Finding(
                    rule=self.code,
                    path=display,
                    line=1,
                    message=(
                        "lock_graph.json is stale (differs from the "
                        f"tree in: {', '.join(stale_keys)}); run "
                        "`repro lint --write-lock-graph` and review "
                        "the ordering change"
                    ),
                )
            ]
        return []


class BlockingUnderLatchRule(Rule):
    code = "RL005"
    name = "blocking-under-exclusive-latch"
    description = (
        "never call a blocking sink (sleep, subprocess, socket I/O, "
        "select, input) while holding an exclusive latch — every "
        "reader of the table stalls for the duration"
    )

    def check(self, files: Sequence[SourceFile], ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for info, name, line, col, cls, chain in (
                ctx.flow(files).blocking_under_exclusive()):
            if chain:
                hops = " -> ".join(chain)
                message = (
                    f"{info.qualname} holds the exclusive {cls!r} "
                    f"latch and calls {name}(), which may block "
                    f"(via {hops})"
                )
            else:
                message = (
                    f"{info.qualname} calls blocking {name}() while "
                    f"holding the exclusive {cls!r} latch; readers of "
                    "the latched table stall for the duration"
                )
            findings.append(
                Finding(
                    rule=self.code,
                    path=info.display_path,
                    line=line,
                    col=col,
                    message=message,
                )
            )
        return findings
