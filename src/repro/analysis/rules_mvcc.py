"""RC601 version lifetime (the MVCC rule).

RC601 — copy-on-write version objects have bracketed
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
