"""RL003 latch-yield hygiene and RC601 version lifetime (MVCC rules).

RL003 (warn) — a generator must not ``yield`` while lexically inside a
latch or RWLock guard: the consumer decides when the next batch is
pulled, so the latch is held across an unbounded suspension (the exact
anti-pattern MVCC snapshots exist to remove — a scan parked on a held
table latch starves every writer of that table).  Functions decorated
with ``@contextmanager`` are exempt: their single ``yield`` under the
guard *is* the guard protocol.  This rule is a warning tier.

RC601 (error) — copy-on-write version objects have bracketed
lifetimes, enforced *path-sensitively* by the resource dataflow
(:func:`repro.analysis.flow.dataflow.analyze_resources`) over the
function's CFG:

- every ``<x>.pin_snapshot()`` result that is bound to a name must be
  released on **all** exit paths — normal fall-through, every early
  ``return``, and every exception unwind.  A pin released by a
  ``finally`` block, managed by a ``with`` statement, returned to the
  caller, or stored into a container/attribute (ownership transfer)
  is clean; a pin whose unpin can be skipped by an early return or a
  raise between pin and unpin is a leak on exactly those paths, and
  the finding says which;
- every ``<x>.begin_write(...)`` must reach a matching ``end_write()``
  on all exit paths, so the clone set a writer opened is always closed
  out (published or reconciled) even when the statement fails
  mid-flight — otherwise the next writer would re-clone pages that
  were never accounted for and the pool would leak dead versions.

Ownership transfer is deliberately shallow: ``return snap`` (or a
tuple/list of names, or passing the pin directly to a call) hands the
pin to the caller, but ``return list(snap.scan())`` returns *derived*
data — the pin's lifetime stays in this function and an unbracketed
exit path is still a leak.
"""

from __future__ import annotations

import ast
from typing import Iterator, Sequence

from .flow.dataflow import ResourceLeak, analyze_resources
from .framework import Finding, LintContext, Rule, SourceFile


def _iter_functions(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_contextmanager(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in func.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else (
            dec.id if isinstance(dec, ast.Name) else None)
        if name in ("contextmanager", "asynccontextmanager"):
            return True
    return False


#: ``with``-context method names whose guard must not span a ``yield``.
#: Kept in sync with ``callgraph.LATCH_METHODS`` plus the bare RWLock.
_GUARD_METHODS = frozenset({
    "read_latch", "write_latch", "ddl_latch", "catalog_latch",
    "_mvcc_select_guard", "read_lock", "write_lock",
})


def _guard_line(item: ast.withitem) -> int | None:
    expr = item.context_expr
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute) \
            and expr.func.attr in _GUARD_METHODS:
        return expr.lineno
    return None


class _YieldScan(ast.NodeVisitor):
    """Collect yields lexically under a guard, not crossing into nested
    function definitions."""

    def __init__(self) -> None:
        self.guard_stack: list[int] = []
        #: (yield line, yield col, guard line)
        self.hits: list[tuple[int, int, int]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested defs are scanned on their own terms

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        pushed = 0
        for item in node.items:
            line = _guard_line(item)
            if line is not None:
                self.guard_stack.append(line)
                pushed += 1
        for stmt in node.body:
            self.visit(stmt)
        for _ in range(pushed):
            self.guard_stack.pop()

    visit_With = _visit_with  # type: ignore[assignment]
    visit_AsyncWith = _visit_with  # type: ignore[assignment]

    def visit_Yield(self, node: ast.Yield) -> None:
        if self.guard_stack:
            self.hits.append((node.lineno, node.col_offset + 1,
                              self.guard_stack[-1]))

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        if self.guard_stack:
            self.hits.append((node.lineno, node.col_offset + 1,
                              self.guard_stack[-1]))


class LatchYieldRule(Rule):
    code = "RL003"
    name = "latch-yield"
    description = (
        "generators must not yield while a latch or RWLock guard is "
        "held (the consumer controls how long the suspension lasts); "
        "@contextmanager functions are exempt"
    )
    severity = "warn"

    def check(self, files: Sequence[SourceFile],
              ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for source in files:
            assert source.tree is not None
            for func in _iter_functions(source.tree):
                if _is_contextmanager(func):
                    continue
                scan = _YieldScan()
                for stmt in func.body:
                    scan.visit(stmt)
                for yline, ycol, gline in scan.hits:
                    findings.append(Finding(
                        rule=self.code,
                        path=source.path,
                        line=yline,
                        col=ycol,
                        message=(
                            f"{func.name} yields while holding the "
                            f"latch acquired at line {gline}; the "
                            "guard spans an unbounded consumer-driven "
                            "suspension (scan a pinned snapshot "
                            "instead, or materialize before yielding)"
                        ),
                    ))
        return findings


def _path_detail(leak: ResourceLeak) -> str:
    """Which exit paths the resource escapes on, for the message."""
    if leak.paths == ("exception",):
        return "when an exception unwinds past it"
    if leak.paths == ("normal",):
        return "on an exit path"
    return "on all exit paths"


class VersionLifetimeRule(Rule):
    code = "RC601"
    name = "version-lifetime"
    description = (
        "pinned snapshots must be unpinned on every exit path — "
        "normal, early-return and exception — and begin_write must "
        "reach end_write on every exit path (use a finally)"
    )
    severity = "error"

    def check(self, files: Sequence[SourceFile],
              ctx: LintContext) -> list[Finding]:
        findings: list[Finding] = []
        for source in files:
            assert source.tree is not None
            for func in _iter_functions(source.tree):
                for leak in analyze_resources(func).leaks:
                    if leak.kind == "pin":
                        findings.append(Finding(
                            rule=self.code,
                            path=source.path,
                            line=leak.line,
                            col=leak.col,
                            message=(
                                f"{func.name} pins a snapshot into "
                                f"{leak.name!r} but never unpins it "
                                f"{_path_detail(leak)} (call unpin in "
                                "a finally, use it as a context "
                                "manager, or return it)"
                            ),
                        ))
                    elif leak.kind == "write":
                        findings.append(Finding(
                            rule=self.code,
                            path=source.path,
                            line=leak.line,
                            col=leak.col,
                            message=(
                                f"{func.name} calls begin_write "
                                "without reaching end_write "
                                f"{_path_detail(leak)}; the writer's "
                                "clone set must be closed out even "
                                "when the statement fails (put "
                                "end_write in a finally)"
                            ),
                        ))
        return findings
