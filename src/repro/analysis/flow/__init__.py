"""Flow-sensitive analysis layer under replint.

Three modules, layered bottom-up:

- :mod:`repro.analysis.flow.cfg` — an intraprocedural control-flow
  graph per function body: statements become nodes, branches / loops /
  ``try``/``except``/``finally`` / ``with`` blocks / early returns
  become edges, and ``with`` enter/exit plus return-value transfer are
  explicit edge *actions* so an abstract interpreter can apply lock and
  resource effects exactly where the runtime would.
- :mod:`repro.analysis.flow.dataflow` — worklist fixpoint engines over
  the CFG: a **lock domain** tracking the abstract held-lock-set (lock
  classes such as ``catalog``, ``table``, ``pool``, ``pagefile``,
  ``intent``) through every path, and a **resource domain** tracking
  pinned MVCC snapshots and open ``begin_write`` clone sets to their
  releases, with escape analysis for ownership transfer (returned or
  stored pins).
- :mod:`repro.analysis.flow.lockgraph` — the whole-program lock-order
  graph: per-function lock facts are propagated interprocedurally over
  the typed call graph, context-manager summaries are solved by
  fixpoint (``with latches.read_latch(t):`` knows it holds the
  catalog and table latches), and the resulting acquired-while-held
  edges feed RL004 cycle detection, ``lock_graph.json`` export, and
  the runtime sentinel's acquisition order
  (:mod:`repro.engine.lockcheck`).
"""

from .cfg import CFG, build_cfg
from .dataflow import (
    FunctionLockFacts,
    FunctionResources,
    LockClassifier,
    analyze_locks,
    analyze_resources,
)
from .lockgraph import LockGraph, ProgramLockAnalysis

__all__ = [
    "CFG",
    "build_cfg",
    "FunctionLockFacts",
    "FunctionResources",
    "LockClassifier",
    "analyze_locks",
    "analyze_resources",
    "LockGraph",
    "ProgramLockAnalysis",
]
