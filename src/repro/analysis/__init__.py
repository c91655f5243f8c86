"""replint — AST-based invariant checks for the repro engine and server.

Run as ``repro lint`` or ``python -m repro.analysis``.  The rules encode the
concurrency and serialization invariants introduced by the server,
vectorized engine, MVCC and sharding work:

==========  ===========================================================
RL001       lock discipline: SqlSession entry points hold a statement
            latch before touching BufferPool/Table/BTree/Executor sinks
RL004       lock-order cycles: the whole-program acquired-while-held
            graph over lock classes is acyclic and matches the
            checked-in ``lock_graph.json``
RL005       blocking under latch: no sleep/subprocess/socket/select
            call is reachable while an exclusive latch is held
RW301       wire-schema freeze: ``protocol.py`` matches
            ``protocol_schema.json`` and ``docs/SERVER.md``
RS401       shard hygiene: ``merge_*`` functions in shard modules are
            pure; coordinator code never touches BufferPool storage
RC601       version lifetime: pinned MVCC snapshots are unpinned on
            all exit paths; begin_write pairs with end_write/finally
==========  ===========================================================

The three lock rules read one model, the flow layer's held-sets
(:mod:`repro.analysis.flow`).  Any finding exits 1.

See ``docs/ANALYSIS.md`` for the full catalogue and suppression syntax.
"""

from __future__ import annotations

import os
from typing import Sequence

from .framework import (
    Finding,
    LintContext,
    Rule,
    SourceFile,
    collect_files,
    render_human,
    render_json,
    run_rules,
)
from .rules_locks import (
    BlockingUnderLatchRule,
    LockCycleRule,
    LockDisciplineRule,
)
from .rules_mvcc import VersionLifetimeRule
from .rules_shard import ShardHygieneRule
from .rules_wire import WireSchemaRule

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintContext",
    "Rule",
    "SourceFile",
    "collect_files",
    "lint_paths",
    "render_human",
    "render_json",
    "run_rules",
]

ALL_RULES: tuple[Rule, ...] = (
    LockDisciplineRule(),
    LockCycleRule(),
    BlockingUnderLatchRule(),
    WireSchemaRule(),
    ShardHygieneRule(),
    VersionLifetimeRule(),
)


def lint_paths(
    paths: Sequence[str],
    rules: Sequence[Rule] | None = None,
    root: str | None = None,
) -> list[Finding]:
    """Lint files/directories and return the (suppression-filtered) findings."""

    base = root or os.getcwd()
    files = collect_files(paths, root=base)
    ctx = LintContext(base)
    return run_rules(files, tuple(rules) if rules is not None else ALL_RULES, ctx)
