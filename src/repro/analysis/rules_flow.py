"""RL004 lock-order cycles and RL005 blocking under an exclusive latch.

Both rules run on the flow-sensitive layer (:mod:`repro.analysis.flow`)
rather than the lexical callgraph heuristics:

RL004 — the whole-program lock-order graph (nodes = lock classes such
as ``catalog``, ``table``, ``pool``, ``pagefile``, ``intent``,
``mutex:<Class>``; edges = *acquired-while-held* pairs
discovered by the intraprocedural lock dataflow propagated over the
typed call graph) must be acyclic.  A cycle is a potential deadlock:
two threads each holding one class and waiting for the other.  Each
cycle is reported once, with the witness call paths for every edge on
it so the offending acquisition sites can be found directly.  No
class is exempt.

RL004 also checks that the checked-in ``lock_graph.json`` (consumed by
the runtime sentinel :mod:`repro.engine.lockcheck` as its rank table)
matches the graph computed from the tree; regenerate it with
``repro lint --write-lock-graph`` after intentional locking changes.
The drift check only runs when the linted set includes the engine's
latch module — fixture and test-tree lints never compare against it.

RL005 (warn) — a statement holding an *exclusive* latch (``table``
write, ``catalog`` DDL) stalls every reader of that table for as long
as it runs; calling into a blocking sink
(``time.sleep``, subprocess spawns, ``socket`` accept/recv/connect,
``select.select``, ``input``) under one turns a latency hiccup into a
whole-table outage.  The dataflow knows the held-set per call site, so
shared-mode acquisitions (plain ``read_latch``) never trip this — the
blind spot of the old lexical approach.
"""

from __future__ import annotations

import re
from typing import Sequence

from .flow.lockgraph import (
    LockGraph,
    default_lock_graph_path,
    load_lock_graph,
)
from .framework import Finding, LintContext, Rule, SourceFile

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
        analysis = ctx.flow(files)
        graph = analysis.lock_graph
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
        import os

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
    severity = "warn"

    def check(self, files: Sequence[SourceFile], ctx: LintContext) -> list[Finding]:
        analysis = ctx.flow(files)
        findings: list[Finding] = []
        for info, name, line, col, cls, chain in (
                analysis.blocking_under_exclusive()):
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
