"""Flow-layer tests: CFG construction, the held-lock-set and resource
dataflows, the whole-program lock-order graph, and the CLI surfaces
built on them (``--baseline``, ``--write-lock-graph``)."""

import ast
import json
import os
import subprocess
import sys
import textwrap

from repro.analysis import lint_paths
from repro.analysis.callgraph import CallGraph
from repro.analysis.flow.cfg import build_cfg
from repro.analysis.flow.dataflow import (
    LockClassifier,
    analyze_locks,
    analyze_resources,
)
from repro.analysis.flow.lockgraph import (
    LockGraph,
    ProgramLockAnalysis,
    default_lock_graph_path,
    load_lock_graph,
)
from repro.analysis.framework import SourceFile, collect_files

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_TREE = os.path.join(REPO_ROOT, "src", "repro")


def _func(src, name=None):
    tree = ast.parse(textwrap.dedent(src))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if name is None or node.name == name:
                return node
    raise AssertionError(f"no function {name!r} in source")


def _program(*texts):
    files = [
        SourceFile(f"/virtual/m{idx}.py", textwrap.dedent(text),
                   display_path=f"m{idx}.py")
        for idx, text in enumerate(texts)
    ]
    return ProgramLockAnalysis(files, CallGraph.build(files))


# -- CFG --------------------------------------------------------------------

def test_cfg_linear_reaches_exit():
    cfg = build_cfg(_func("def f():\n    x = 1\n    return x\n"))
    seen, work = set(), [cfg.entry]
    while work:
        node = work.pop()
        if node in seen:
            continue
        seen.add(node)
        work.extend(edge.dst for edge in cfg.succ[node])
    assert cfg.exit in seen


def test_cfg_calls_get_exceptional_edges():
    cfg = build_cfg(_func("def f(x):\n    x.risky()\n    return 1\n"))
    exceptional = [edge for succ in cfg.succ for edge in succ
                   if edge.exceptional]
    assert exceptional
    assert any(edge.dst == cfg.raise_exit for edge in exceptional)


def test_cfg_branches_keep_both_arms():
    cfg = build_cfg(_func(
        "def f(c):\n"
        "    if c:\n"
        "        a = 1\n"
        "    else:\n"
        "        a = 2\n"
        "    return a\n"))
    real = [stmt for stmt in cfg.stmts if stmt is not None]
    assert len(real) == 4  # if, both assigns, return


# -- lock dataflow ----------------------------------------------------------

def test_blocking_call_records_exclusive_held_set():
    facts = analyze_locks(_func(
        "def f(db):\n"
        "    with db.latches.write_latch('t'):\n"
        "        time.sleep(1)\n"), None, LockClassifier({}))
    assert [blk.name for blk in facts.blocking] == ["sleep"]
    for state in facts.blocking[0].held:
        assert any(exclusive for _cls, exclusive in state)


def test_with_exit_releases_held_set():
    facts = analyze_locks(_func(
        "def f(db):\n"
        "    with db.latches.write_latch('t'):\n"
        "        pass\n"
        "    time.sleep(1)\n"), None, LockClassifier({}))
    assert facts.blocking[0].held == (frozenset(),)


def test_yield_states_capture_held_latch():
    facts = analyze_locks(_func(
        "def gen(db):\n"
        "    with db.latches.read_latch('t'):\n"
        "        yield 1\n"), None, LockClassifier({}))
    assert facts.yield_states
    assert all(state for state in facts.yield_states)


# -- resource dataflow ------------------------------------------------------

def test_pin_leaks_on_early_return():
    res = analyze_resources(_func(
        "def first(table, pool):\n"
        "    snap = table.pin_snapshot()\n"
        "    for row in snap.scan():\n"
        "        return row\n"
        "    snap.unpin(pool)\n"
        "    return None\n"))
    assert [(leak.kind, leak.name) for leak in res.leaks] == [("pin", "snap")]


def test_pin_leaks_only_on_exception_path():
    res = analyze_resources(_func(
        "def export(table, pool, codec):\n"
        "    snap = table.pin_snapshot()\n"
        "    header = codec.header()\n"
        "    try:\n"
        "        return header + codec.encode(snap.scan())\n"
        "    finally:\n"
        "        snap.unpin(pool)\n"))
    assert [leak.paths for leak in res.leaks] == [("exception",)]


def test_returned_pin_transfers_ownership():
    res = analyze_resources(_func(
        "def pin(table):\n"
        "    snap = table.pin_snapshot()\n"
        "    return snap\n"))
    assert res.leaks == []


def test_finally_unpin_is_leak_free():
    res = analyze_resources(_func(
        "def scan(table, pool):\n"
        "    snap = table.pin_snapshot()\n"
        "    try:\n"
        "        return list(snap.scan())\n"
        "    finally:\n"
        "        snap.unpin(pool)\n"))
    assert res.leaks == []


# -- lock graph mechanics ---------------------------------------------------

def test_lockgraph_cycle_detection_and_topo():
    graph = LockGraph()
    graph.add_edge("a", "b", "w1")
    graph.add_edge("b", "a", "w2")
    assert graph.cycles() == [["a", "b", "a"]]
    assert graph.topo_order() is None


def test_lockgraph_acyclic_topo_is_deterministic():
    graph = LockGraph()
    graph.add_edge("a", "b", "w1")
    graph.add_edge("a", "c", "w2")
    graph.add_edge("b", "c", "w3")
    assert graph.topo_order() == ["a", "b", "c"]
    assert graph.cycles() == []


def test_lockgraph_witness_cap():
    graph = LockGraph()
    for idx in range(5):
        graph.add_edge("a", "b", f"w{idx}")
    assert len(graph.edges[("a", "b")]) == 3


# -- whole-program analysis -------------------------------------------------

_CYCLE_SRC = """
import threading


class PagePoolA:
    def ship(self, peer):
        with self._lock:
            peer.pull()

    def stash(self):
        with self._lock:
            self._items.append(1)


class PagePoolB:
    def pull(self):
        with self._lock:
            self._items.append(2)

    def drain(self, peer):
        with self._lock:
            peer.stash()
"""


def test_program_analysis_finds_cycle_with_both_edges():
    analysis = _program(_CYCLE_SRC)
    graph = analysis.lock_graph
    assert ("mutex:PagePoolA", "mutex:PagePoolB") in graph.edges
    assert ("mutex:PagePoolB", "mutex:PagePoolA") in graph.edges
    assert graph.cycles() == [
        ["mutex:PagePoolA", "mutex:PagePoolB", "mutex:PagePoolA"]]


_COORDINATOR_SRC = """
from contextlib import contextmanager


class Dispatcher:
    @contextmanager
    def guard(self):
        with self._mutex:
            yield self


def coordinator(db, pool):
    with pool.guard():
        with db.latches.read_latch('t'):
            pass
"""


def test_guarded_mutex_under_a_latch_is_a_cycle():
    # No class is exempt: the coordinator takes the dispatcher mutex
    # through a guard, then latches, so calling it with a latch held
    # closes a cycle.
    graph = _program(_COORDINATOR_SRC).lock_graph
    assert graph.cycles() == []
    assert graph.topo_order().index("mutex:Dispatcher") \
        < graph.topo_order().index("catalog")
    graph = _program(
        _COORDINATOR_SRC,
        "def select(db, pool):\n"
        "    with db.latches.catalog_latch():\n"
        "        coordinator(db, pool)\n").lock_graph
    assert ("catalog", "mutex:Dispatcher") in graph.edges
    assert graph.cycles() == [
        ["catalog", "mutex:Dispatcher", "catalog"]]
    assert graph.topo_order() is None


def test_program_analysis_blocking_chain_through_helper():
    analysis = _program(
        "import time\n"
        "def slow_write(db):\n"
        "    with db.latches.write_latch('t'):\n"
        "        helper()\n"
        "def helper():\n"
        "    time.sleep(0.1)\n")
    sites = analysis.blocking_under_exclusive()
    assert len(sites) == 1
    info, name, _line, _col, cls, chain = sites[0]
    assert info.qualname == "slow_write"
    assert name == "helper"
    assert cls == "table"
    assert any("helper" in hop for hop in chain)


def test_program_analysis_skips_reacquisition_edges():
    # helper re-takes latch classes the caller already holds: that is a
    # re-entrancy question (the sentinel's), not an ordering edge — no
    # table -> catalog back-edge, no cycle.
    analysis = _program(
        "def outer(db):\n"
        "    with db.latches.write_latch('t'):\n"
        "        helper(db)\n"
        "def helper(db):\n"
        "    with db.latches.write_latch('t'):\n"
        "        pass\n")
    graph = analysis.lock_graph
    assert ("table", "catalog") not in graph.edges
    assert graph.cycles() == []


def test_checked_in_lock_graph_matches_tree():
    files = collect_files([SRC_TREE], root=REPO_ROOT)
    analysis = ProgramLockAnalysis(files, CallGraph.build(files))
    computed = analysis.lock_graph.to_json_dict()
    assert computed["order"], "the real tree's lock graph must be acyclic"
    assert load_lock_graph(default_lock_graph_path()) == computed


def test_rl004_reports_stale_graph_for_divergent_engine(tmp_path):
    # A tree containing engine/latches.py triggers the drift check; its
    # (empty) computed graph cannot match the checked-in one.
    engine = tmp_path / "engine"
    engine.mkdir()
    (engine / "latches.py").write_text("def noop():\n    return None\n")
    findings = lint_paths([str(tmp_path)], root=str(tmp_path))
    assert [finding.rule for finding in findings] == ["RL004"]
    assert "stale" in findings[0].message
    assert "--write-lock-graph" in findings[0].message


# -- CLI: baseline, lock graph ----------------------------------------------

def _run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_cli_baseline_round_trip(tmp_path):
    baseline = str(tmp_path / "baseline.json")
    proc = _run_cli(FIXTURES, "--write-baseline", baseline)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    recorded = json.loads(open(baseline, encoding="utf-8").read())
    assert recorded["entries"]
    proc = _run_cli(FIXTURES, "--baseline", baseline, "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["count"] == 0


def test_cli_malformed_baseline_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    proc = _run_cli(FIXTURES, "--baseline", str(bad))
    assert proc.returncode == 2
    assert "cannot load baseline" in proc.stderr


def test_cli_write_lock_graph_refuses_cycle():
    before = open(default_lock_graph_path(), encoding="utf-8").read()
    proc = _run_cli(
        "--write-lock-graph",
        os.path.join("tests", "analysis", "fixtures",
                     "rl004_lock_cycle.py"))
    assert proc.returncode == 1
    assert "cycle" in proc.stderr
    assert open(default_lock_graph_path(), encoding="utf-8").read() == before


def test_cli_write_lock_graph_is_fresh():
    # Regenerating over the real tree must reproduce the checked-in
    # file byte-for-byte — i.e. lock_graph.json is not stale.
    before = open(default_lock_graph_path(), encoding="utf-8").read()
    proc = _run_cli("--write-lock-graph", os.path.join("src", "repro"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert open(default_lock_graph_path(), encoding="utf-8").read() == before
