"""A deliberately simple name-based call graph: name resolution only.

The graph is built once per lint run and shared by the flow layer
(:mod:`repro.analysis.flow.lockgraph`), which owns every lock fact; the
graph only knows which function a call may reach.  Edges are resolved
by name with three precision aids that match how the engine is
written (unique class names, conventional ``self`` receivers, locals
constructed in place):

- constructor calls (``_Parser(...)``) link to the class ``__init__``;
- ``self.method()`` links into the enclosing class;
- locals assigned from a constructor (``parser = _Parser(...)``) carry the
  class type, so ``parser.parse()`` resolves precisely;
- bare names prefer a same-module function before falling back globally;
- attribute calls on unknown receivers fall back to every known def of that
  name, except for method names shared with builtin containers (``get``,
  ``items``, ``append``...) which would drown the graph in false edges.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Sequence

from .framework import SourceFile

#: Method names that collide with builtin container/str/regex APIs; an
#: attribute call on an *unknown* receiver with one of these names is far more
#: likely a dict/list/str operation than an engine method, so no edge is made.
AMBIGUOUS_METHOD_NAMES = frozenset(
    {
        "add",
        "append",
        "clear",
        "close",
        "copy",
        "count",
        "decode",
        "discard",
        "encode",
        "endswith",
        "execute",
        "extend",
        "format",
        "get",
        "group",
        "index",
        "items",
        "join",
        "keys",
        "lower",
        "lstrip",
        "match",
        "open",
        "pop",
        "popleft",
        "put",
        "read",
        "remove",
        "replace",
        "rstrip",
        "search",
        "sort",
        "split",
        "splitlines",
        "startswith",
        "strip",
        "update",
        "upper",
        "values",
        "wait",
        "write",
    }
)


@dataclasses.dataclass
class CallSite:
    """One call expression inside a function body."""

    name: str
    line: int
    col: int  # 1-based column of the call expression
    is_attr: bool
    receiver: str | None  # "self", a local variable name, or None
    receiver_class: str | None  # resolved class for typed receivers
    is_ctor: bool


@dataclasses.dataclass
class FunctionInfo:
    """A module-level function or a direct class method."""

    path: str
    display_path: str
    module: str
    class_name: str | None
    name: str
    line: int
    calls: list[CallSite] = dataclasses.field(default_factory=list)

    @property
    def qualname(self) -> str:
        if self.class_name:
            return f"{self.class_name}.{self.name}"
        return self.name

    @property
    def label(self) -> str:
        return f"{self.qualname} ({self.display_path}:{self.line})"


class _BodyWalker:
    """Walk a function body in statement order, recording call sites."""

    def __init__(self, info: FunctionInfo, class_names: frozenset[str]) -> None:
        self.info = info
        self.class_names = class_names
        self.local_types: dict[str, str] = {}

    def walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested definitions are analysed on their own terms
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._record_local_type(stmt)
        for expr in ast.iter_child_nodes(stmt):
            if isinstance(expr, ast.expr):
                self._expr(expr)
            elif isinstance(expr, ast.stmt):
                self._stmt(expr)
            elif isinstance(expr, (ast.excepthandler, ast.match_case,
                                   ast.withitem)):
                for sub in ast.iter_child_nodes(expr):
                    if isinstance(sub, ast.stmt):
                        self._stmt(sub)
                    elif isinstance(sub, ast.expr):
                        self._expr(sub)

    def _record_local_type(self, stmt: ast.Assign | ast.AnnAssign) -> None:
        value = stmt.value
        if not (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in self.class_names
        ):
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                self.local_types[target.id] = value.func.id

    def _expr(self, expr: ast.expr) -> None:
        if isinstance(expr, ast.Call):
            self._call(expr)
            for arg in expr.args:
                self._expr(arg)
            for kw in expr.keywords:
                self._expr(kw.value)
            return
        if isinstance(expr, ast.Lambda):
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expr(child)

    def _call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            self.info.calls.append(
                CallSite(
                    name=func.id,
                    line=call.lineno,
                    col=call.col_offset + 1,
                    is_attr=False,
                    receiver=None,
                    receiver_class=None,
                    is_ctor=func.id in self.class_names,
                )
            )
        elif isinstance(func, ast.Attribute):
            receiver: str | None = None
            receiver_class: str | None = None
            value = func.value
            if isinstance(value, ast.Name):
                receiver = value.id
                receiver_class = self.local_types.get(value.id)
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in self.class_names
            ):
                receiver_class = value.func.id
            self._expr(value)
            self.info.calls.append(
                CallSite(
                    name=func.attr,
                    line=call.lineno,
                    col=call.col_offset + 1,
                    is_attr=True,
                    receiver=receiver,
                    receiver_class=receiver_class,
                    is_ctor=False,
                )
            )


class CallGraph:
    """All module-level functions and direct class methods, with call edges."""

    def __init__(self) -> None:
        self.functions: list[FunctionInfo] = []
        self.classes: dict[str, dict[str, FunctionInfo]] = {}
        self.by_name: dict[str, list[FunctionInfo]] = {}
        self.module_functions: dict[tuple[str, str], FunctionInfo] = {}

    @classmethod
    def build(cls, files: Sequence[SourceFile]) -> "CallGraph":
        graph = cls()
        collected: list[tuple[FunctionInfo, ast.FunctionDef | ast.AsyncFunctionDef]] = []
        for source in files:
            if source.tree is None:
                continue
            module = source.display_path
            for node in source.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info = FunctionInfo(
                        path=source.path,
                        display_path=source.display_path,
                        module=module,
                        class_name=None,
                        name=node.name,
                        line=node.lineno,
                    )
                    graph._register(info)
                    collected.append((info, node))
                elif isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            info = FunctionInfo(
                                path=source.path,
                                display_path=source.display_path,
                                module=module,
                                class_name=node.name,
                                name=item.name,
                                line=item.lineno,
                            )
                            graph._register(info)
                            collected.append((info, item))
        class_names = frozenset(graph.classes)
        for info, node in collected:
            walker = _BodyWalker(info, class_names)
            walker.walk(node.body)
        return graph

    def _register(self, info: FunctionInfo) -> None:
        self.functions.append(info)
        self.by_name.setdefault(info.name, []).append(info)
        if info.class_name is not None:
            self.classes.setdefault(info.class_name, {})[info.name] = info
        else:
            self.module_functions[(info.module, info.name)] = info

    def resolve(self, call: CallSite, caller: FunctionInfo) -> list[FunctionInfo]:
        """Candidate callees for a call site; empty when unresolvable."""

        if call.is_ctor:
            methods = self.classes.get(call.name, {})
            init = methods.get("__init__")
            return [init] if init is not None else []
        if not call.is_attr:
            local = self.module_functions.get((caller.module, call.name))
            if local is not None:
                return [local]
            return [
                info
                for info in self.by_name.get(call.name, [])
                if info.class_name is None
            ]
        if call.receiver == "self" and caller.class_name is not None:
            method = self.classes.get(caller.class_name, {}).get(call.name)
            if method is not None:
                return [method]
            # self.<name>() with no such method: the attribute is a stored
            # callable or a subclass hook; fall through to global matching.
        if call.receiver_class is not None:
            method = self.classes.get(call.receiver_class, {}).get(call.name)
            return [method] if method is not None else []
        if call.name in AMBIGUOUS_METHOD_NAMES:
            return []
        return list(self.by_name.get(call.name, []))

    def iter_methods(self, class_name: str) -> Iterator[FunctionInfo]:
        yield from self.classes.get(class_name, {}).values()
