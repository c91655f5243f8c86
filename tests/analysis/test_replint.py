"""replint self-tests: framework behavior, fixtures, and the real tree."""

import json
import os
import re
import subprocess
import sys

import pytest

from repro.analysis import ALL_RULES, lint_paths, render_human, render_json
from repro.analysis.framework import (
    Finding,
    LintContext,
    SourceFile,
    collect_files,
    run_rules,
)
from repro.analysis.rules_wire import extract_schema

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_TREE = os.path.join(REPO_ROOT, "src", "repro")

_RULE_PREFIX = re.compile(r"^(r[a-z]\d{3})")


def _discover_expected():
    """Auto-discover the fixture matrix: every ``.py`` under fixtures/
    is one seeded violation whose rule code is the ``rXNNN`` prefix of
    its filename (or, for fixtures that need a package layout such as
    ``rw301/`` and ``rs401/``, of the nearest named ancestor
    directory).  New fixtures join the matrix just by being named
    right — no hand-maintained table to forget to update."""
    expected = {}
    for dirpath, dirnames, filenames in os.walk(FIXTURES):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, filename), FIXTURES)
            parts = rel.split(os.sep)
            for part in (filename, *reversed(parts[:-1])):
                match = _RULE_PREFIX.match(part)
                if match:
                    expected[rel] = match.group(1).upper()
                    break
            else:
                raise AssertionError(
                    f"fixture {rel} has no rXNNN rule prefix in its "
                    "filename or directory path")
    return expected


EXPECTED = _discover_expected()


def test_fixture_matrix_discovered():
    # The matrix is derived from the tree; make a silent discovery
    # regression (empty dir, renamed fixtures) loud.
    assert len(EXPECTED) >= 10
    assert set(EXPECTED.values()) == {rule.code for rule in ALL_RULES}


def lint_fixture(relpath):
    return lint_paths([os.path.join(FIXTURES, relpath)], root=FIXTURES)


# -- fixtures: one seeded violation each, exactly its own rule -------------

@pytest.mark.parametrize("relpath,rule", sorted(EXPECTED.items()))
def test_fixture_triggers_exactly_its_rule(relpath, rule):
    findings = lint_fixture(relpath)
    assert len(findings) == 1, findings
    assert findings[0].rule == rule


@pytest.mark.parametrize("relpath,rule", sorted(EXPECTED.items()))
def test_fixture_triggers_no_other_rule(relpath, rule):
    other_rules = [r for r in ALL_RULES if r.code != rule]
    findings = lint_paths(
        [os.path.join(FIXTURES, relpath)], rules=other_rules, root=FIXTURES
    )
    assert findings == []


def test_fixture_directory_as_a_whole():
    findings = lint_paths([FIXTURES], root=FIXTURES)
    assert sorted(f.rule for f in findings) == sorted(EXPECTED.values())


def test_rl004_fixture_reports_both_witness_paths():
    findings = lint_fixture("rl004_lock_cycle.py")
    message = findings[0].message
    assert "[mutex:PagePoolA -> mutex:PagePoolB] PagePoolA.ship" in message
    assert "[mutex:PagePoolB -> mutex:PagePoolA] PagePoolB.drain" in message


def test_rl005_fixture_names_call_and_latch():
    findings = lint_fixture("rl005_sleep_under_latch.py")
    assert "sleep()" in findings[0].message
    assert "exclusive 'table' latch" in findings[0].message


def test_rc601_exception_path_fixture():
    # The unpin is in a finally — a lexical balance scan is satisfied —
    # but the leak on the pre-try exception path is still caught.
    findings = lint_fixture("rc601_exception_leak.py")
    assert "when an exception unwinds past it" in findings[0].message


# -- the real tree lints clean ---------------------------------------------

def test_real_tree_is_clean():
    findings = lint_paths([SRC_TREE], root=REPO_ROOT)
    assert findings == [], render_human(findings)


# -- suppressions ----------------------------------------------------------

def _lint_texts(tmp_path, texts):
    paths = []
    for name, text in texts.items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return lint_paths(paths, root=str(tmp_path))


#: One RC601 violation (a snapshot pin never unpinned) on the line a
#: suppression comment is appended to.
_PIN_HEAD = "def rows(table):\n"
_PIN = "    snap = table.pin_snapshot()"
_PIN_TAIL = "\n    return list(snap.scan())\n"


def test_line_suppression(tmp_path):
    text = (_PIN_HEAD + _PIN + "  # replint: disable=RC601"
            + _PIN_TAIL)
    assert _lint_texts(tmp_path, {"sup.py": text}) == []


def test_line_suppression_all(tmp_path):
    text = (_PIN_HEAD + _PIN + "  # replint: disable=all"
            + _PIN_TAIL)
    assert _lint_texts(tmp_path, {"sup.py": text}) == []


def test_file_suppression(tmp_path):
    text = ("# replint: disable-file=RC601\n" + _PIN_HEAD
            + _PIN + _PIN_TAIL)
    assert _lint_texts(tmp_path, {"sup.py": text}) == []


def test_wrong_rule_suppression_does_not_hide(tmp_path):
    text = (_PIN_HEAD + _PIN + "  # replint: disable=RW301"
            + _PIN_TAIL)
    findings = _lint_texts(tmp_path, {"sup.py": text})
    assert [f.rule for f in findings] == ["RC601"]


# -- framework mechanics ---------------------------------------------------

def test_parse_error_reports_finding(tmp_path):
    findings = _lint_texts(tmp_path, {"bad.py": "def broken(:\n"})
    assert [f.rule for f in findings] == ["PARSE"]


def test_json_output_roundtrips():
    findings = [
        Finding(rule="RL001", path="a.py", line=3, message="m"),
    ]
    payload = json.loads(render_json(findings))
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "RL001"


def test_findings_sorted_and_deduped_paths(tmp_path):
    texts = {
        "b.py": _PIN_HEAD + _PIN + _PIN_TAIL,
        "a.py": _PIN_HEAD + _PIN + _PIN_TAIL,
    }
    findings = _lint_texts(tmp_path, texts)
    assert [os.path.basename(f.path) for f in findings] == ["a.py", "b.py"]


def test_rl001_latch_guarded_entry_clean(tmp_path):
    # A SqlSession entry point reaching a sink through a table-latch
    # guard satisfies RL001.
    text = (
        "class BufferPool:\n"
        "    def fetch(self, page_id):\n"
        "        return page_id\n"
        "class SqlSession:\n"
        "    def __init__(self, db):\n"
        "        self.db = db\n"
        "    def peek_page(self, page_id):\n"
        "        with self.db.latches.read_latch('t'):\n"
        "            return self.db.pool.fetch(page_id)\n"
    )
    assert _lint_texts(tmp_path, {"s.py": text}) == []


def test_rl001_unlatched_entry_flagged(tmp_path):
    # Same shape without the guard: RL001 fires.
    text = (
        "class BufferPool:\n"
        "    def fetch(self, page_id):\n"
        "        return page_id\n"
        "class SqlSession:\n"
        "    def __init__(self, db):\n"
        "        self.db = db\n"
        "    def peek_page(self, page_id):\n"
        "        return self.db.pool.fetch(page_id)\n"
    )
    findings = _lint_texts(tmp_path, {"s.py": text})
    assert [f.rule for f in findings] == ["RL001"]


def test_rl001_guarded_entry_clean(tmp_path):
    # An explicit acquire of the catalog latch, released in a finally,
    # guards the call between them just as a ``with`` guard does.
    text = (
        "class BufferPool:\n"
        "    def fetch(self, page_id):\n"
        "        return page_id\n"
        "class SqlSession:\n"
        "    def __init__(self, db):\n"
        "        self.db = db\n"
        "    def peek_page(self, page_id):\n"
        "        self.db.latches._catalog.acquire_read()\n"
        "        try:\n"
        "            return self.db.pool.fetch(page_id)\n"
        "        finally:\n"
        "            self.db.latches._catalog.release_read()\n"
    )
    assert _lint_texts(tmp_path, {"s.py": text}) == []


def test_rl001_latch_on_one_branch_only_flagged(tmp_path):
    # The flow layer keeps the branches apart: a sink reached on a path
    # that skipped the latch is unguarded even though another path to
    # the same call holds it.
    text = (
        "class BufferPool:\n"
        "    def fetch(self, page_id):\n"
        "        return page_id\n"
        "class SqlSession:\n"
        "    def __init__(self, db):\n"
        "        self.db = db\n"
        "    def peek_page(self, page_id, latched):\n"
        "        if latched:\n"
        "            self.db.latches._catalog.acquire_read()\n"
        "        return self.db.pool.fetch(page_id)\n"
    )
    findings = _lint_texts(tmp_path, {"s.py": text})
    assert [f.rule for f in findings] == ["RL001"]


def test_rl001_call_in_a_with_header_is_unguarded(tmp_path):
    # The guard's own arguments are evaluated before it is entered: a
    # sink reached there holds nothing.
    text = (
        "class BufferPool:\n"
        "    def fetch(self, page_id):\n"
        "        return page_id\n"
        "class SqlSession:\n"
        "    def __init__(self, db):\n"
        "        self.db = db\n"
        "    def peek_page(self, page_id):\n"
        "        with self.db.latches.read_latch(\n"
        "                self.db.pool.fetch(page_id)):\n"
        "            return page_id\n"
    )
    findings = _lint_texts(tmp_path, {"s.py": text})
    assert [f.rule for f in findings] == ["RL001"]


def test_cli_error_fixture_exit_one():
    proc = _run_cli(
        os.path.join(FIXTURES, "rc601_unbalanced_pin.py"))
    assert proc.returncode == 1


# -- RC601 mechanics -------------------------------------------------------

def test_rc601_finally_unpin_clean(tmp_path):
    text = (
        "def scan(table, pool):\n"
        "    snap = table.pin_snapshot()\n"
        "    try:\n"
        "        return list(snap.scan())\n"
        "    finally:\n"
        "        snap.unpin(pool)\n"
    )
    assert _lint_texts(tmp_path, {"s.py": text}) == []


def test_rc601_context_manager_clean(tmp_path):
    text = (
        "def scan(table):\n"
        "    with table.pin_snapshot() as snap:\n"
        "        return list(snap.scan())\n"
        "def scan2(table):\n"
        "    snap = table.pin_snapshot()\n"
        "    with snap:\n"
        "        return list(snap.scan())\n"
    )
    assert _lint_texts(tmp_path, {"s.py": text}) == []


def test_rc601_ownership_transfer_clean(tmp_path):
    text = (
        "def pin(table):\n"
        "    snap = table.pin_snapshot()\n"
        "    return snap\n"
    )
    assert _lint_texts(tmp_path, {"s.py": text}) == []


def test_rc601_derived_return_still_flagged(tmp_path):
    text = (
        "def rows(table):\n"
        "    snap = table.pin_snapshot()\n"
        "    return list(snap.scan())\n"
    )
    findings = _lint_texts(tmp_path, {"s.py": text})
    assert [f.rule for f in findings] == ["RC601"]


def test_rc601_begin_write_unpaired_flagged(tmp_path):
    text = (
        "def mutate(tree, key, payload):\n"
        "    tree.begin_write(2)\n"
        "    tree.insert(key, payload)\n"
        "    tree.end_write()\n"
    )
    findings = _lint_texts(tmp_path, {"w.py": text})
    assert [f.rule for f in findings] == ["RC601"]
    assert "end_write" in findings[0].message


def test_rc601_begin_write_finally_clean(tmp_path):
    text = (
        "def mutate(tree, key, payload):\n"
        "    tree.begin_write(2)\n"
        "    try:\n"
        "        tree.insert(key, payload)\n"
        "    finally:\n"
        "        cow = tree.end_write()\n"
        "    return cow\n"
    )
    assert _lint_texts(tmp_path, {"w.py": text}) == []


# -- schema extraction -----------------------------------------------------

def test_extract_schema_matches_checked_in_file():
    import ast

    protocol_path = os.path.join(SRC_TREE, "server", "protocol.py")
    schema_path = os.path.join(SRC_TREE, "server", "protocol_schema.json")
    with open(protocol_path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    with open(schema_path, encoding="utf-8") as handle:
        frozen = json.load(handle)
    assert extract_schema(tree) == frozen


# -- CLI -------------------------------------------------------------------

def _run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_cli_clean_tree_exit_zero():
    proc = _run_cli(os.path.join("src", "repro"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_cli_fixture_exit_one_json():
    proc = _run_cli(FIXTURES, "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["count"] == len(EXPECTED)


def test_cli_list_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule in ALL_RULES:
        assert rule.code in proc.stdout


def test_cli_unknown_rule_exit_two():
    proc = _run_cli("--rules", "NOPE")
    assert proc.returncode == 2


def test_cli_rule_filter():
    proc = _run_cli(FIXTURES, "--rules", "RL004", "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert [f["rule"] for f in payload["findings"]] == ["RL004"]


def test_repro_lint_subcommand():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", os.path.join("src", "repro")],
        capture_output=True, text=True, cwd=REPO_ROOT, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_collect_files_skips_pycache(tmp_path):
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "junk.py").write_text(
        _PIN_HEAD + _PIN + _PIN_TAIL)
    (tmp_path / "ok.py").write_text("x = 1\n")
    files = collect_files([str(tmp_path)], root=str(tmp_path))
    assert [f.basename for f in files] == ["ok.py"]


def test_run_rules_with_explicit_context(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\n")
    files = collect_files([str(tmp_path)], root=str(tmp_path))
    ctx = LintContext(str(tmp_path))
    assert run_rules(files, ALL_RULES, ctx) == []


def test_source_file_suppression_table():
    source = SourceFile(
        "/virtual/x.py",
        "a = 1  # replint: disable=RL001,RL004\n"
        "# replint: disable-file=RW301\n",
    )
    assert source.is_suppressed("RL001", 1)
    assert source.is_suppressed("RL004", 1)
    assert not source.is_suppressed("RL001", 2)
    assert source.is_suppressed("RW301", 99)
