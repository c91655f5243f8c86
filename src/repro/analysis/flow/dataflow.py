"""Worklist dataflow over the flow CFG: lock states and resource states.

Two independent abstract domains:

**Lock domain** — a state is a ``frozenset`` of ``(lock_class,
exclusive)`` tokens; the analysis keeps a *set of possible states* per
node (collecting semantics) so the branches of a conditional guard
stay separate instead of merging into one impossible held-set.
Outputs per function:
every acquisition site with the held-sets observed before it, the
held-sets at every call site (for interprocedural propagation and
RL001), direct blocking-call sites, and the held-sets at ``yield``
points (the context-manager summary of a ``@contextmanager``
helper).

**Resource domain** — a state is a ``frozenset`` of live resource
tokens: MVCC snapshot pins (``snap = table.pin_snapshot()``) and open
clone sets (``tree.begin_write(...)``).  The join is set union
(may-leak); kills are applied by release calls (``unpin`` /
``end_write``), by ownership
transfer (the name is returned or stored into an attribute /
container), by ``with name:`` management, and by assume-edges (the
``if snap is not None: snap.unpin()`` idiom — on the ``None`` branch
the resource provably does not exist).  Tokens still live at the
function's normal or exceptional exit are leaks.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Callable, Mapping, Sequence, Union

from .cfg import CFG, Edge, build_cfg

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: One abstract held lock: (lock class, acquired exclusively).
Token = tuple[str, bool]
State = frozenset[Token]

#: The statement latch classes: what RL001 requires on the way to a
#: sink, and, held exclusively, RL005's "don't block" scope.
LATCH_CLASSES = frozenset({"catalog", "table"})

#: Cap on distinct states tracked per CFG node before collapsing to
#: their union (keeps pathological branch fans linear).
_MAX_STATES = 24

#: ``with``-context latch methods and the token-set alternatives they
#: acquire (see ``repro.engine.latches``) — the one table of guard
#: method names in the analyzer.
_LATCH_WITH: Mapping[str, tuple[tuple[Token, ...], ...]] = {
    "read_latch": ((("catalog", False), ("table", False)),),
    "write_latch": ((("catalog", False), ("table", True)),),
    "ddl_latch": ((("catalog", True),),),
    "catalog_latch": ((("catalog", False),),),
    # SELECT statement guard: the catalog latch, plus the table latch
    # for an index plan — over-approximated as the shared
    # catalog+table set.
    "_mvcc_select_guard": ((("catalog", False), ("table", False)),),
}

#: Owner classes whose internal ``_lock`` / ``_mutex`` has a named lock
#: class in the order graph; other owners get ``mutex:<Class>``.
_MUTEX_OWNER_CLASS: Mapping[str, str] = {
    "BufferPool": "pool",
    "PageFile": "pagefile",
}

_BLOCKING_BARE = frozenset({"sleep", "input"})
_BLOCKING_ATTR = frozenset({
    ("time", "sleep"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_call"),
    ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("os", "system"),
    ("select", "select"),
})
_SOCKET_METHODS = frozenset({
    "accept", "connect", "recv", "recv_into", "recvfrom", "sendall",
})


def _receiver_name(func: ast.Attribute) -> str | None:
    """Best-effort receiver name for ``recv.meth(...)``: the last
    attribute segment (``self._catalog`` -> ``_catalog``) or the bare
    name."""
    value = func.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return None


def _is_mutex_attr(attr: str) -> bool:
    return attr == "_lock" or attr.endswith("_lock") or attr.endswith("_mutex")


def rwlock_class(receiver: str | None) -> str:
    """Lock class of an RWLock named ``receiver`` (``_catalog`` is the
    catalog RWLock, per-table latches conventionally carry ``latch`` in
    the name, anything else is a free-standing ``rwlock``)."""
    name = (receiver or "").lower()
    if "catalog" in name:
        return "catalog"
    if "latch" in name:
        return "table"
    return "rwlock"


def mutex_class(owner_class: str | None) -> str:
    if owner_class is None:
        return "mutex"
    return _MUTEX_OWNER_CLASS.get(owner_class, f"mutex:{owner_class}")


def is_blocking_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in _BLOCKING_BARE
    if isinstance(func, ast.Attribute):
        recv = _receiver_name(func)
        if recv is not None and (recv, func.attr) in _BLOCKING_ATTR:
            return True
        return func.attr in _SOCKET_METHODS
    return False


class LockClassifier:
    """Maps ``with`` items and explicit acquire/release calls to lock
    tokens.  ``cm_summaries`` adds held-set alternatives for
    user-defined ``@contextmanager`` guards (keyed by bare method
    name), solved by fixpoint in :mod:`.lockgraph`."""

    def __init__(
        self,
        cm_summaries: Mapping[str, tuple[State, ...]] | None = None,
    ) -> None:
        self.cm_summaries: dict[str, tuple[State, ...]] = dict(cm_summaries or {})

    def with_alternatives(
        self, expr: ast.expr, owner_class: str | None
    ) -> tuple[tuple[Token, ...], ...] | None:
        """Possible token-sets acquired by ``with expr:``; ``None`` when
        the context expression is not a lock guard."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            attr = expr.func.attr
            if attr in _LATCH_WITH:
                return _LATCH_WITH[attr]
            summary = self.cm_summaries.get(attr)
            if summary is not None:
                return tuple(tuple(sorted(state)) for state in summary)
            return None
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            summary = self.cm_summaries.get(expr.func.id)
            if summary is not None:
                return tuple(tuple(sorted(state)) for state in summary)
            return None
        if isinstance(expr, ast.Attribute) and _is_mutex_attr(expr.attr):
            if expr.attr.endswith("_cond"):
                return None
            return (((mutex_class(owner_class), True),),)
        return None


@dataclasses.dataclass(frozen=True)
class _Acq:
    token: Token
    line: int
    col: int
    detail: str


@dataclasses.dataclass(frozen=True)
class _Rel:
    token: Token


@dataclasses.dataclass(frozen=True)
class _CallEff:
    name: str
    line: int
    col: int
    blocking: bool


_Effect = Union[_Acq, _Rel, _CallEff]


def _iter_calls(expr: ast.expr) -> list[ast.Call]:
    """Call expressions in source order (outer before inner args)."""
    out: list[ast.Call] = []

    def visit(node: ast.expr) -> None:
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Call):
            out.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                visit(child)

    visit(expr)
    return out


def _own_exprs(stmt: ast.stmt) -> list[ast.expr]:
    """The statement's own expressions (nested block statements are
    their own CFG nodes)."""
    return [child for child in ast.iter_child_nodes(stmt)
            if isinstance(child, ast.expr)]


def _lock_effects(stmt: ast.stmt) -> list[_Effect]:
    """Explicit lock and call effects of one statement, in AST order."""
    effects: list[_Effect] = []
    exprs = _own_exprs(stmt)
    # A with-statement's context expressions are handled as edge
    # actions, not statement effects; its header node has none.
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        exprs = []
    for expr in exprs:
        for call in _iter_calls(expr):
            line = call.lineno
            col = call.col_offset + 1
            func = call.func
            if isinstance(func, ast.Attribute):
                attr = func.attr
                recv = _receiver_name(func)
                if attr in ("acquire_read", "acquire_write"):
                    cls = rwlock_class(recv)
                    effects.append(_Acq((cls, attr == "acquire_write"),
                                        line, col, attr))
                    continue
                if attr in ("release_read", "release_write"):
                    cls = rwlock_class(recv)
                    effects.append(_Rel((cls, attr == "release_write")))
                    continue
                if attr == "acquire_intent":
                    effects.append(_Acq(("intent", True), line, col, attr))
                    continue
                if attr == "release_intent":
                    effects.append(_Rel(("intent", True)))
                    continue
                effects.append(_CallEff(attr, line, col,
                                        is_blocking_call(call)))
            elif isinstance(func, ast.Name):
                effects.append(_CallEff(func.id, line, col,
                                        is_blocking_call(call)))
    return effects


def _has_yield(stmt: ast.stmt) -> bool:
    for expr in _own_exprs(stmt):
        for node in ast.walk(expr):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
    return False


@dataclasses.dataclass
class Acquisition:
    """One lock acquisition site with every held-set seen before it."""

    token: Token
    line: int
    col: int
    detail: str
    held: tuple[State, ...]


@dataclasses.dataclass
class CallHeld:
    """A call site with every held-set seen at it."""

    name: str
    line: int
    col: int
    held: tuple[State, ...]


@dataclasses.dataclass
class FunctionLockFacts:
    acquisitions: list[Acquisition]
    calls: list[CallHeld]
    blocking: list[CallHeld]
    yield_states: tuple[State, ...]


def _fold_lock(state: State, effects: Sequence[_Effect],
               record: Callable[[_Effect, State], None] | None = None) -> State:
    held = set(state)
    for eff in effects:
        if record is not None:
            record(eff, frozenset(held))
        if isinstance(eff, _Acq):
            held.add(eff.token)
        elif isinstance(eff, _Rel):
            held.discard(eff.token)
    return frozenset(held)


def _apply_lock_edge(
    state: State,
    edge: Edge,
    classifier: LockClassifier,
    owner_class: str | None,
    record: Callable[[Token, State, ast.withitem], None] | None = None,
) -> list[State]:
    states = [state]
    for action in edge.actions:
        kind = action[0]
        if kind == "with_enter":
            item: ast.withitem = action[1]
            alts = classifier.with_alternatives(item.context_expr, owner_class)
            if not alts:
                continue
            nxt: list[State] = []
            for st in states:
                for alt in alts:
                    if record is not None:
                        for token in alt:
                            record(token, st, item)
                    nxt.append(st | frozenset(alt))
            states = nxt
        elif kind == "with_exit":
            item = action[1]
            alts = classifier.with_alternatives(item.context_expr, owner_class)
            if not alts:
                continue
            released = frozenset(tok for alt in alts for tok in alt)
            states = [st - released for st in states]
    return states


def _solve(
    cfg: CFG,
    out_fn: Callable[[int, State], State],
    edge_fn: Callable[[State, Edge], list[State]],
) -> list[set[State]]:
    """Generic collecting-semantics forward fixpoint: in-state sets per
    node.  Exceptional edges propagate the pre-statement state."""
    states: list[set[State]] = [set() for _ in range(len(cfg))]
    states[cfg.entry] = {frozenset()}
    work = [cfg.entry]
    while work:
        node = work.pop()
        in_states = list(states[node])
        outs = [out_fn(node, st) for st in in_states]
        for edge in cfg.succ[node]:
            base = in_states if edge.exceptional else outs
            moved: set[State] = set()
            for st in base:
                moved.update(edge_fn(st, edge))
            dst = states[edge.dst]
            added = moved - dst
            if added:
                dst.update(added)
                if len(dst) > _MAX_STATES:
                    merged = frozenset(
                        tok for st in dst for tok in st)
                    dst.clear()
                    dst.add(merged)
                work.append(edge.dst)
    return states


def analyze_locks(
    func: FuncDef,
    owner_class: str | None,
    classifier: LockClassifier,
) -> FunctionLockFacts:
    cfg = build_cfg(func)
    effects = [
        _lock_effects(stmt) if stmt is not None else []
        for stmt in cfg.stmts
    ]

    def out_fn(node: int, st: State) -> State:
        return _fold_lock(st, effects[node])

    def edge_fn(st: State, edge: Edge) -> list[State]:
        return _apply_lock_edge(st, edge, classifier, owner_class)

    states = _solve(cfg, out_fn, edge_fn)

    acq: dict[tuple[Token, int, int, str], set[State]] = {}
    calls: dict[tuple[str, int, int], set[State]] = {}
    blocking: dict[tuple[str, int, int], set[State]] = {}
    yields: set[State] = set()

    for node in range(len(cfg)):
        if not states[node]:
            continue
        in_states = list(states[node])
        stmt = cfg.stmts[node]
        if stmt is not None and _has_yield(stmt):
            yields.update(in_states)
        if effects[node]:
            def record_eff(eff: _Effect, st: State) -> None:
                if isinstance(eff, _Acq):
                    acq.setdefault(
                        (eff.token, eff.line, eff.col, eff.detail),
                        set()).add(st)
                elif isinstance(eff, _CallEff):
                    calls.setdefault(
                        (eff.name, eff.line, eff.col), set()).add(st)
                    if eff.blocking:
                        blocking.setdefault(
                            (eff.name, eff.line, eff.col), set()).add(st)

            for st in in_states:
                _fold_lock(st, effects[node], record_eff)
        outs = [out_fn(node, st) for st in in_states]
        for edge in cfg.succ[node]:
            base = in_states if edge.exceptional else outs

            def record_with(token: Token, st: State,
                            item: ast.withitem) -> None:
                expr = item.context_expr
                detail = (expr.func.attr
                          if isinstance(expr, ast.Call)
                          and isinstance(expr.func, ast.Attribute)
                          else expr.attr
                          if isinstance(expr, ast.Attribute)
                          else "with")
                acq.setdefault(
                    (token, expr.lineno, expr.col_offset + 1, detail),
                    set()).add(st)

            for st in base:
                _apply_lock_edge(st, edge, classifier, owner_class,
                                 record_with)

    return FunctionLockFacts(
        acquisitions=[
            Acquisition(token=k[0], line=k[1], col=k[2], detail=k[3],
                        held=tuple(sorted(v, key=sorted)))
            for k, v in sorted(acq.items(),
                               key=lambda kv: (kv[0][1], kv[0][2]))
        ],
        calls=[
            CallHeld(name=k[0], line=k[1], col=k[2],
                     held=tuple(sorted(v, key=sorted)))
            for k, v in sorted(calls.items(),
                               key=lambda kv: (kv[0][1], kv[0][2]))
        ],
        blocking=[
            CallHeld(name=k[0], line=k[1], col=k[2],
                     held=tuple(sorted(v, key=sorted)))
            for k, v in sorted(blocking.items(),
                               key=lambda kv: (kv[0][1], kv[0][2]))
        ],
        yield_states=tuple(sorted(yields, key=sorted)),
    )


# ---------------------------------------------------------------------------
# Resource domain
# ---------------------------------------------------------------------------

#: (kind, bound name, gen line); kinds: "pin", "write".
ResourceToken = tuple[str, str, int]
ResState = frozenset[ResourceToken]


@dataclasses.dataclass
class ResourceLeak:
    kind: str
    name: str
    line: int
    col: int
    #: Path kinds the token leaks on: "exception" and/or "normal".
    paths: tuple[str, ...]


@dataclasses.dataclass
class FunctionResources:
    leaks: list[ResourceLeak]


def _call_attr(call: ast.Call) -> tuple[str, str | None] | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr, _receiver_name(call.func)
    return None


def _contains_call_attr(expr: ast.expr, attr: str) -> bool:
    for call in _iter_calls(expr):
        info = _call_attr(call)
        if info is not None and info[0] == attr:
            return True
    return False


def _transfer_names(expr: ast.expr) -> set[str]:
    """Names whose resource ownership is *transferred* by handing this
    expression to someone else (returning or storing it): the bare
    name, tuple/list elements, and direct call arguments (``return
    Cursor(snap)`` builds an owner).  A name that is merely *used*
    (``return list(snap.scan())`` — ``snap`` is a receiver, not an
    argument) is not transferred and still leaks."""
    out: set[str] = set()
    if isinstance(expr, ast.Name):
        out.add(expr.id)
    elif isinstance(expr, (ast.Tuple, ast.List)):
        for elt in expr.elts:
            out.update(_transfer_names(elt))
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            if isinstance(arg, ast.Name):
                out.add(arg.id)
        for kw in expr.keywords:
            if isinstance(kw.value, ast.Name):
                out.add(kw.value.id)
    elif isinstance(expr, ast.IfExp):
        out.update(_transfer_names(expr.body))
        out.update(_transfer_names(expr.orelse))
    return out


@dataclasses.dataclass
class _ResEffects:
    gens: list[tuple[ResourceToken, int]]  # (token, col)
    kill_names: set[str]
    kill_tokens: set[tuple[str, str]]  # (kind, name)


def _res_effects(stmt: ast.stmt) -> _ResEffects:
    eff = _ResEffects(gens=[], kill_names=set(), kill_tokens=set())
    exprs = _own_exprs(stmt)
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        # ``with snap:`` — the context manager owns the resource now;
        # a pin used as its own guard is managed on every path.
        for item in stmt.items:
            if isinstance(item.context_expr, ast.Name):
                eff.kill_names.add(item.context_expr.id)
        exprs = []
    # Release / handoff calls anywhere in the statement.
    for expr in exprs:
        for call in _iter_calls(expr):
            info = _call_attr(call)
            if info is None:
                continue
            attr, recv = info
            if recv is None:
                continue
            if attr == "unpin":
                eff.kill_tokens.add(("pin", recv))
            elif attr == "end_write":
                eff.kill_tokens.add(("write", recv))
            elif attr == "begin_write":
                eff.gens.append((("write", recv, call.lineno),
                                 call.col_offset + 1))
    if isinstance(stmt, ast.Assign) and stmt.value is not None:
        targets = stmt.targets
        value = stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
        value = stmt.value
    else:
        return eff
    name_targets = [t.id for t in targets if isinstance(t, ast.Name)]
    stored = any(isinstance(t, (ast.Attribute, ast.Subscript))
                 for t in targets)
    if name_targets:
        if _contains_call_attr(value, "pin_snapshot"):
            for name in name_targets:
                eff.gens.append((("pin", name, stmt.lineno),
                                 stmt.col_offset + 1))
    if stored:
        # Ownership transfer: the resource now lives in an object /
        # container whose lifetime someone else manages.
        eff.kill_names.update(_transfer_names(value))
    return eff


def _apply_res_edge(state: ResState, edge: Edge) -> ResState:
    live = set(state)
    for action in edge.actions:
        kind = action[0]
        if kind == "return":
            stmt: ast.Return | None = action[1]
            if stmt is not None and stmt.value is not None:
                returned = _transfer_names(stmt.value)
                live = {t for t in live if t[1] not in returned}
        elif kind == "assume":
            name, bound = action[1], action[2]
            if not bound:
                # The name is falsy/None on this branch: no resource
                # can be bound to it.
                live = {t for t in live if t[1] != name}
    return frozenset(live)


def analyze_resources(func: FuncDef) -> FunctionResources:
    cfg = build_cfg(func)
    effects = [
        _res_effects(stmt) if stmt is not None else None
        for stmt in cfg.stmts
    ]
    cols: dict[ResourceToken, int] = {}
    for eff in effects:
        if eff is not None:
            for token, col in eff.gens:
                cols.setdefault(token, col)

    states: list[ResState] = [frozenset() for _ in range(len(cfg))]
    reached = [False] * len(cfg)
    reached[cfg.entry] = True
    work = [cfg.entry]
    while work:
        node = work.pop()
        in_state = states[node]
        eff = effects[node]
        if eff is None:
            out_state = exc_state = in_state
        else:
            live = {
                t for t in in_state
                if t[1] not in eff.kill_names
                and (t[0], t[1]) not in eff.kill_tokens
            }
            # On the exception edge the statement's acquisitions did
            # not happen, but its releases are assumed atomic (a
            # raising ``unpin``/``close`` is the release's bug, not a
            # leak at this site).
            exc_state = frozenset(live)
            live.update(token for token, _ in eff.gens)
            out_state = frozenset(live)
        for edge in cfg.succ[node]:
            base = exc_state if edge.exceptional else out_state
            moved = _apply_res_edge(base, edge)
            merged = states[edge.dst] | moved
            if merged != states[edge.dst] or not reached[edge.dst]:
                states[edge.dst] = merged
                reached[edge.dst] = True
                work.append(edge.dst)

    leaks: dict[ResourceToken, set[str]] = {}
    for token in states[cfg.exit]:
        leaks.setdefault(token, set()).add("normal")
    for token in states[cfg.raise_exit]:
        leaks.setdefault(token, set()).add("exception")
    return FunctionResources(leaks=[
        ResourceLeak(kind=token[0], name=token[1], line=token[2],
                     col=cols.get(token, 1),
                     paths=tuple(sorted(paths)))
        for token, paths in sorted(leaks.items(),
                                   key=lambda kv: (kv[0][2], kv[0][0]))
    ])
