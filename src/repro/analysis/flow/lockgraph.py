"""Whole-program lock-order graph over the typed call graph.

:class:`ProgramLockAnalysis` runs the intraprocedural lock dataflow
(:func:`.dataflow.analyze_locks`) over every function in the linted
tree, then propagates two transitive facts over
:class:`~repro.analysis.callgraph.CallGraph` edges:

- **TRANS_ACQ** — the lock classes a function may acquire, directly or
  through any callee, with one witness hop per (function, class) so a
  full call path can be reconstructed for diagnostics;
- **TRANS_BLOCK** — whether a function may reach a blocking call
  (``time.sleep``, subprocess spawns, socket ops, ...), again with a
  witness chain (consumed by RL005).

Edges of the :class:`LockGraph` are *acquired-while-held* pairs of
lock classes: for every acquisition site, every lock class in any
possible held-set before it contributes an edge ``held -> acquired``;
for every call site, every class the callee may transitively acquire
contributes ``held -> acquired-in-callee``.  Self-edges are excluded —
intra-class ordering (the sorted per-table latch set, the re-entrant
buffer-pool lock) is the runtime sentinel's name-order check, not a
graph cycle.

The same facts answer the per-call-site questions of the other lock
rules: RL001's "is a statement latch held here" and RL005's blocking
reach.

The acyclic graph is exported to ``lock_graph.json`` (nodes, ordered
edges, and a deterministic topological order) which the runtime
sentinel :mod:`repro.engine.lockcheck` loads as its rank table; RL004
detects drift between the tree and the checked-in file.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
from typing import Mapping, Sequence, Union

from ..callgraph import CallGraph, FunctionInfo
from ..framework import SourceFile
from .dataflow import (
    _LATCH_WITH,
    LATCH_CLASSES,
    FunctionLockFacts,
    LockClassifier,
    State,
    analyze_locks,
)

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Default JSON file name, checked in next to the analysis package.
LOCK_GRAPH_BASENAME = "lock_graph.json"


def default_lock_graph_path() -> str:
    return os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), LOCK_GRAPH_BASENAME)


def _is_contextmanager(func: FuncDef) -> bool:
    for dec in func.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else (
            dec.id if isinstance(dec, ast.Name) else None)
        if name in ("contextmanager", "asynccontextmanager"):
            return True
    return False


def _iter_defs(
    files: Sequence[SourceFile],
) -> list[tuple[SourceFile, str | None, FuncDef]]:
    """Module-level functions and direct class methods, mirroring
    ``CallGraph.build``'s collection order."""
    out: list[tuple[SourceFile, str | None, FuncDef]] = []
    for source in files:
        if source.tree is None:
            continue
        for node in source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((source, None, node))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        out.append((source, node.name, item))
    return out


@dataclasses.dataclass
class LockGraph:
    """Class-level acquired-while-held graph with witnesses."""

    nodes: set[str] = dataclasses.field(default_factory=set)
    #: (src, dst) -> up to a few witness path strings.
    edges: dict[tuple[str, str], list[str]] = dataclasses.field(
        default_factory=dict)

    _WITNESS_CAP = 3

    def add_node(self, cls: str) -> None:
        self.nodes.add(cls)

    def add_edge(self, src: str, dst: str, witness: str) -> None:
        if src == dst:
            return
        self.nodes.add(src)
        self.nodes.add(dst)
        paths = self.edges.setdefault((src, dst), [])
        if len(paths) < self._WITNESS_CAP and witness not in paths:
            paths.append(witness)

    # -- ordering ----------------------------------------------------------

    def cycles(self) -> list[list[str]]:
        """One representative elementary cycle per strongly connected
        component, deterministic."""
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, dst in sorted(self.edges):
            adj[src].append(dst)

        index: dict[str, int] = {}
        low: dict[str, int] = {}
        stack: list[str] = []
        on_stack: set[str] = set()
        sccs: list[list[str]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in adj[v]:
                if w not in index:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                comp: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1:
                    sccs.append(sorted(comp))

        for node in sorted(self.nodes):
            if node not in index:
                strongconnect(node)

        out: list[list[str]] = []
        for comp in sorted(sccs):
            comp_set = set(comp)
            start = comp[0]
            # Shortest cycle through `start` inside the component.
            parent: dict[str, str] = {}
            frontier = [start]
            found: str | None = None
            while frontier and found is None:
                nxt: list[str] = []
                for v in frontier:
                    for w in adj[v]:
                        if w == start:
                            found = v
                            break
                        if w in comp_set and w not in parent:
                            parent[w] = v
                            nxt.append(w)
                    if found is not None:
                        break
                frontier = nxt
            if found is None:  # pragma: no cover - SCC guarantees a cycle
                continue
            path = [found]
            while path[-1] != start and path[-1] in parent:
                path.append(parent[path[-1]])
            path.reverse()
            if path[0] != start:
                path.insert(0, start)
            out.append(path + [start])
        return out

    def topo_order(self) -> list[str] | None:
        """Deterministic (lexicographic Kahn) topological order;
        ``None`` when cyclic."""
        indeg: dict[str, int] = {n: 0 for n in self.nodes}
        adj: dict[str, list[str]] = {n: [] for n in self.nodes}
        for src, dst in self.edges:
            adj[src].append(dst)
            indeg[dst] += 1
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for dst in sorted(adj[node]):
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    ready.append(dst)
            ready.sort()
        if len(order) != len(self.nodes):
            return None
        return order

    # -- serialisation -----------------------------------------------------

    def to_json_dict(self) -> dict[str, object]:
        """Stable export: nodes, edges, topological order.
        Witness paths are deliberately *not* exported — they carry line
        numbers that would churn on every engine edit."""
        order = self.topo_order()
        return {
            "version": 1,
            "nodes": sorted(self.nodes),
            "edges": sorted([src, dst] for (src, dst) in self.edges),
            "order": order if order is not None else [],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2,
                          sort_keys=True) + "\n"


@dataclasses.dataclass
class _Trans:
    """A transitively reachable fact with one witness hop."""

    line: int  # call/acquisition line in the owning function
    via: int | None  # index of the callee continuing the chain


class ProgramLockAnalysis:
    """Per-lint-run whole-program lock facts (memoised on the
    :class:`~repro.analysis.framework.LintContext`)."""

    def __init__(self, files: Sequence[SourceFile],
                 graph: CallGraph) -> None:
        self.graph = graph
        self.infos: list[FunctionInfo] = []
        self.defs: list[FuncDef] = []
        self.facts: list[FunctionLockFacts] = []
        self._info_index: dict[int, int] = {}
        self.classifier = self._solve_cm_summaries(files)
        self._analyze_all(files)
        self.trans_acq: list[dict[str, _Trans]] = []
        self.trans_block: list[_Trans | None] = []
        self._propagate()
        self.lock_graph = self._build_graph()

    # -- setup -------------------------------------------------------------

    def _solve_cm_summaries(
            self, files: Sequence[SourceFile]) -> LockClassifier:
        """Fixpoint over ``@contextmanager`` guards: the held-set at a
        guard's ``yield`` is what callers hold inside ``with guard():``.
        Nested guards converge in a couple of rounds."""
        cms: list[tuple[str | None, FuncDef]] = [
            (cls, func) for _, cls, func in _iter_defs(files)
            if _is_contextmanager(func)
            # The built-in guards' token sets are never overridden.
            and func.name not in _LATCH_WITH
        ]
        summaries: dict[str, tuple[State, ...]] = {}
        for _ in range(4):
            classifier = LockClassifier(summaries)
            nxt: dict[str, tuple[State, ...]] = {}
            for cls, func in cms:
                facts = analyze_locks(func, cls, classifier)
                states = tuple(s for s in facts.yield_states if s)
                if states:
                    prev = nxt.get(func.name, ())
                    nxt[func.name] = tuple(sorted(
                        set(prev) | set(states), key=sorted))
            if nxt == summaries:
                break
            summaries = nxt
        return LockClassifier(summaries)

    def _analyze_all(self, files: Sequence[SourceFile]) -> None:
        by_identity = {
            (info.path, info.class_name, info.name, info.line): idx
            for idx, info in enumerate(self.graph.functions)
        }
        for source, class_name, func in _iter_defs(files):
            graph_idx = by_identity.get(
                (source.path, class_name, func.name, func.lineno))
            if graph_idx is None:
                continue
            info = self.graph.functions[graph_idx]
            self._info_index[id(info)] = len(self.infos)
            self.infos.append(info)
            self.defs.append(func)
            self.facts.append(analyze_locks(func, class_name,
                                            self.classifier))

    # -- interprocedural propagation ---------------------------------------

    def held_at_calls(self, info: FunctionInfo
                      ) -> dict[tuple[str, int, int], tuple[State, ...]]:
        """Held-sets per call site ``(name, line, col)`` of a call-graph
        function; empty when the flow layer did not analyse it."""
        idx = self._info_index.get(id(info))
        if idx is None:
            return {}
        return {(ch.name, ch.line, ch.col): ch.held
                for ch in self.facts[idx].calls}

    def _callees(self, idx: int) -> list[tuple[int, int]]:
        """(callee index, call line) pairs for the function at idx."""
        info = self.infos[idx]
        out: list[tuple[int, int]] = []
        for call in info.calls:
            for callee in self.graph.resolve(call, info):
                callee_idx = self._info_index.get(id(callee))
                if callee_idx is not None:
                    out.append((callee_idx, call.line))
        return out

    def _propagate(self) -> None:
        n = len(self.infos)
        self.trans_acq = [{} for _ in range(n)]
        self.trans_block = [None] * n
        for idx, facts in enumerate(self.facts):
            for acq in facts.acquisitions:
                cls = acq.token[0]
                if cls not in self.trans_acq[idx]:
                    self.trans_acq[idx][cls] = _Trans(acq.line, None)
            if facts.blocking:
                self.trans_block[idx] = _Trans(
                    facts.blocking[0].line, None)
        callee_lists = [self._callees(idx) for idx in range(n)]
        changed = True
        while changed:
            changed = False
            for idx in range(n):
                acq = self.trans_acq[idx]
                for callee_idx, line in callee_lists[idx]:
                    if callee_idx == idx:
                        continue
                    for cls in self.trans_acq[callee_idx]:
                        if cls not in acq:
                            acq[cls] = _Trans(line, callee_idx)
                            changed = True
                    if (self.trans_block[idx] is None
                            and self.trans_block[callee_idx]
                            is not None):
                        self.trans_block[idx] = _Trans(line, callee_idx)
                        changed = True

    def acq_chain(self, idx: int, cls: str) -> list[str]:
        """Witness call path (``qualname (path:line)`` hops) from the
        function at idx down to the direct acquisition of cls."""
        hops: list[str] = []
        seen: set[int] = set()
        cur: int | None = idx
        while cur is not None and cur not in seen:
            seen.add(cur)
            info = self.infos[cur]
            trans = self.trans_acq[cur].get(cls)
            if trans is None:
                break
            hops.append(f"{info.qualname} "
                        f"({info.display_path}:{trans.line})")
            cur = trans.via
        return hops

    def block_chain(self, idx: int) -> list[str]:
        hops: list[str] = []
        seen: set[int] = set()
        cur: int | None = idx
        while cur is not None and cur not in seen:
            seen.add(cur)
            info = self.infos[cur]
            trans = self.trans_block[cur]
            if trans is None:
                break
            hops.append(f"{info.qualname} "
                        f"({info.display_path}:{trans.line})")
            cur = trans.via
        return hops

    # -- the graph ---------------------------------------------------------

    def _build_graph(self) -> LockGraph:
        graph = LockGraph()
        for idx, facts in enumerate(self.facts):
            info = self.infos[idx]
            for acq in facts.acquisitions:
                dst = acq.token[0]
                graph.add_node(dst)
                witness = (f"{info.qualname} "
                           f"({info.display_path}:{acq.line}) "
                           f"acquires {dst}")
                for state in acq.held:
                    held = {token[0] for token in state}
                    if dst in held:
                        # Re-acquisition of an already-held class is a
                        # re-entrancy question (the sentinel's
                        # same-class check), not an ordering edge.
                        continue
                    for src in held:
                        graph.add_edge(
                            src, dst,
                            f"{witness} while holding {src}")
            held_by_site = self.held_at_calls(info)
            for call in info.calls:
                held_states = [state for state in held_by_site.get(
                    (call.name, call.line, call.col), ()) if state]
                if not held_states:
                    continue
                for callee in self.graph.resolve(call, info):
                    callee_idx = self._info_index.get(id(callee))
                    if callee_idx is None:
                        continue
                    for cls in self.trans_acq[callee_idx]:
                        chain = " -> ".join(
                            [f"{info.qualname} "
                             f"({info.display_path}:{call.line})"]
                            + self.acq_chain(callee_idx, cls))
                        for state in held_states:
                            held = {token[0] for token in state}
                            if cls in held:
                                continue
                            for src in held:
                                graph.add_edge(
                                    src, cls,
                                    f"{chain} acquires {cls} while "
                                    f"holding {src}")
        return graph

    # -- RL005 support -----------------------------------------------------

    def blocking_under_exclusive(
            self) -> list[tuple[FunctionInfo, str, int, int, str,
                                list[str]]]:
        """(function, blocked-call name, line, col, held class, chain)
        for every site where a blocking call is reachable while an
        exclusive latch is held."""
        out: list[tuple[FunctionInfo, str, int, int, str, list[str]]] = []

        def exclusive_cls(states: Sequence[State]) -> str | None:
            for state in states:
                for cls, excl in sorted(state):
                    if excl and cls in LATCH_CLASSES:
                        return cls
            return None

        for idx, facts in enumerate(self.facts):
            info = self.infos[idx]
            reported: set[int] = set()
            for blk in facts.blocking:
                cls = exclusive_cls(blk.held)
                if cls is not None and blk.line not in reported:
                    reported.add(blk.line)
                    out.append((info, blk.name, blk.line, blk.col,
                                cls, []))
            held_by_site = self.held_at_calls(info)
            for call in info.calls:
                cls = exclusive_cls(held_by_site.get(
                    (call.name, call.line, call.col), ()))
                if cls is None or call.line in reported:
                    continue
                for callee in self.graph.resolve(call, info):
                    callee_idx = self._info_index.get(id(callee))
                    if callee_idx is None:
                        continue
                    if self.trans_block[callee_idx] is not None:
                        chain = self.block_chain(callee_idx)
                        reported.add(call.line)
                        out.append((info, call.name, call.line,
                                    call.col, cls, chain))
                        break
        return out


def load_lock_graph(path: str) -> Mapping[str, object] | None:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    return data
