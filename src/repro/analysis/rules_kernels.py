"""RV201 — vectorized batch kernels must not mutate their inputs.

The batch contract (see ``docs/EXECUTOR.md``) is that every kernel —
``eval_batch`` / ``step_batch`` methods and ``*_kernel`` / ``*_batch``
functions — receives column arrays it does not own and returns a *fresh*
``(values, mask)`` pair.  The row engine and the parity suite both assume a
batch can be re-evaluated; a kernel that writes into an input array
(directly, through an alias, or via an ``out=`` argument) silently corrupts
the shared buffer pool pages backing it.

The rule tracks simple aliases (``x = args[0]`` taints ``x``; rebinding to a
call result clears the taint) and flags:

- subscript stores into a parameter or alias (``args[0][:] = ...``),
- augmented assignment to a parameter name (``values += 1``),
- ``out=`` keyword arguments referencing a parameter or alias,
- for ``kernel``-named functions, returning a parameter (or a tuple/
  subscript of one) instead of a fresh array.

Attribute writes (``ctx.udf_calls += n``) are deliberately not flagged: the
evaluation context is mutable state, only the column arrays are frozen.
"""

from __future__ import annotations

import ast
from typing import Sequence

from .framework import Finding, LintContext, Rule, SourceFile

KERNEL_EXACT_NAMES = frozenset({"eval_batch", "step_batch", "kernel"})
KERNEL_SUFFIXES = ("_batch", "_kernel")


def _is_kernel_name(name: str) -> bool:
    return name in KERNEL_EXACT_NAMES or name.endswith(KERNEL_SUFFIXES)


def _returns_fresh_required(name: str) -> bool:
    # Only plain kernels have the "return a fresh array" obligation;
    # eval_batch/step_batch return (values, mask) tuples built internally.
    return name == "kernel" or name.endswith("_kernel")


class _KernelChecker:
    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef, path: str) -> None:
        self.func = func
        self.path = path
        args = func.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        self.params = frozenset(n for n in names if n not in ("self", "cls"))
        self.tainted: set[str] = set()
        self.findings: list[Finding] = []

    # -- taint helpers ----------------------------------------------------

    def _subscript_base(self, node: ast.expr) -> str | None:
        while isinstance(node, ast.Subscript):
            node = node.value
        if isinstance(node, ast.Name):
            return node.id
        return None

    def _is_input(self, name: str | None) -> bool:
        return name is not None and (name in self.params or name in self.tainted)

    def _value_taints(self, value: ast.expr) -> bool:
        """Does assigning this expression create an alias of an input?"""

        if isinstance(value, ast.Name):
            return self._is_input(value.id)
        if isinstance(value, ast.Subscript):
            return self._is_input(self._subscript_base(value))
        if isinstance(value, ast.Starred):
            return self._value_taints(value.value)
        return False

    # -- statement walk (in order, so rebinding clears taint) -------------

    def run(self) -> list[Finding]:
        self._walk(self.func.body)
        return self.findings

    def _walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are checked as their own kernels if named so
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            self._assign(stmt)
            return
        if isinstance(stmt, ast.Return):
            self._return(stmt)
            if stmt.value is not None:
                self._expr(stmt.value)
            return
        if isinstance(stmt, ast.For):
            self._expr(stmt.iter)
            if isinstance(stmt.target, ast.Name) and self._value_taints(stmt.iter):
                self.tainted.add(stmt.target.id)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
            return
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, (ast.excepthandler, ast.match_case, ast.withitem)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.stmt):
                        self._stmt(sub)
                    elif isinstance(sub, ast.expr):
                        self._expr(sub)

    def _assign(self, stmt: ast.Assign | ast.AugAssign | ast.AnnAssign) -> None:
        value = stmt.value
        if value is not None:
            self._expr(value)
        if isinstance(stmt, ast.AugAssign):
            target: ast.expr = stmt.target
            if isinstance(target, ast.Name) and self._is_input(target.id):
                self._report(
                    stmt.lineno, stmt.col_offset + 1,
                    f"augmented assignment mutates input '{target.id}' in place",
                )
            elif isinstance(target, ast.Subscript):
                base = self._subscript_base(target)
                if self._is_input(base):
                    self._report(
                        stmt.lineno, stmt.col_offset + 1,
                        f"subscript store writes into input array '{base}'",
                    )
            return
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            if isinstance(target, ast.Subscript):
                base = self._subscript_base(target)
                if self._is_input(base):
                    self._report(
                        stmt.lineno, stmt.col_offset + 1,
                        f"subscript store writes into input array '{base}'",
                    )
            elif isinstance(target, ast.Name):
                if value is not None and self._value_taints(value):
                    self.tainted.add(target.id)
                else:
                    self.tainted.discard(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for element in target.elts:
                    if isinstance(element, ast.Name):
                        self.tainted.discard(element.id)

    def _return(self, stmt: ast.Return) -> None:
        if not _returns_fresh_required(self.func.name) or stmt.value is None:
            return
        value = stmt.value
        offenders: list[str] = []
        candidates: list[ast.expr]
        if isinstance(value, ast.Tuple):
            candidates = list(value.elts)
        else:
            candidates = [value]
        for expr in candidates:
            if isinstance(expr, ast.Name) and self._is_input(expr.id):
                offenders.append(expr.id)
            elif isinstance(expr, ast.Subscript):
                base = self._subscript_base(expr)
                if self._is_input(base) and base is not None:
                    offenders.append(base)
        for name in offenders:
            self._report(
                stmt.lineno, stmt.col_offset + 1,
                f"kernel returns input array '{name}' instead of a fresh "
                "(values, mask) result",
            )

    def _expr(self, expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != "out":
                    continue
                for name_node in ast.walk(kw.value):
                    if isinstance(name_node, ast.Name) and self._is_input(
                        name_node.id
                    ):
                        self._report(
                            node.lineno, node.col_offset + 1,
                            f"out= argument aliases input array "
                            f"'{name_node.id}'",
                        )

    def _report(self, line: int, col: int, message: str) -> None:
        self.findings.append(
            Finding(rule="RV201", path=self.path, line=line, col=col,
                    message=message)
        )


class KernelPurityRule(Rule):
    code = "RV201"
    name = "kernel-purity"
    description = (
        "batch kernels must not mutate or return their input arrays; "
        "results are fresh (values, mask) pairs"
    )

    def check(self, files: Sequence[SourceFile], ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for source in files:
            if source.tree is None:
                continue
            for node in ast.walk(source.tree):
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and _is_kernel_name(node.name):
                    checker = _KernelChecker(node, source.display_path)
                    findings.extend(checker.run())
        return findings
