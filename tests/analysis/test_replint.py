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
    assert len(EXPECTED) >= 16
    assert set(EXPECTED.values()) >= {
        "RC601", "RL001", "RL002", "RL003", "RL004", "RL005",
        "RS401", "RV201", "RW301",
    }


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
    assert findings[0].severity == "warn"
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


#: One RV201 violation (a batch kernel storing into its input) on the
#: line a suppression comment is appended to.
_KERNEL_HEAD = "def scale_kernel(args):\n"
_KERNEL_STORE = "    args[0][:] = 0"
_KERNEL_TAIL = "\n    return [0], None\n"


def test_line_suppression(tmp_path):
    text = (_KERNEL_HEAD + _KERNEL_STORE + "  # replint: disable=RV201"
            + _KERNEL_TAIL)
    assert _lint_texts(tmp_path, {"sup.py": text}) == []


def test_line_suppression_all(tmp_path):
    text = (_KERNEL_HEAD + _KERNEL_STORE + "  # replint: disable=all"
            + _KERNEL_TAIL)
    assert _lint_texts(tmp_path, {"sup.py": text}) == []


def test_file_suppression(tmp_path):
    text = ("# replint: disable-file=RV201\n" + _KERNEL_HEAD
            + _KERNEL_STORE + _KERNEL_TAIL)
    assert _lint_texts(tmp_path, {"sup.py": text}) == []


def test_wrong_rule_suppression_does_not_hide(tmp_path):
    text = (_KERNEL_HEAD + _KERNEL_STORE + "  # replint: disable=RW301"
            + _KERNEL_TAIL)
    findings = _lint_texts(tmp_path, {"sup.py": text})
    assert [f.rule for f in findings] == ["RV201"]


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
        "b.py": _KERNEL_HEAD + _KERNEL_STORE + _KERNEL_TAIL,
        "a.py": _KERNEL_HEAD + _KERNEL_STORE + _KERNEL_TAIL,
    }
    findings = _lint_texts(tmp_path, texts)
    assert [os.path.basename(f.path) for f in findings] == ["a.py", "b.py"]


def test_rv201_out_kwarg_flagged(tmp_path):
    text = (
        "import numpy as np\n"
        "def add_kernel(args):\n"
        "    return np.add(args[0], args[1], out=args[0]), None\n"
    )
    findings = _lint_texts(tmp_path, {"k.py": text})
    assert [f.rule for f in findings] == ["RV201"]


def test_rv201_returning_input_flagged(tmp_path):
    text = (
        "def passthrough_kernel(args):\n"
        "    return args[0]\n"
    )
    findings = _lint_texts(tmp_path, {"k.py": text})
    assert [f.rule for f in findings] == ["RV201"]


def test_rv201_fresh_kernel_clean(tmp_path):
    text = (
        "import numpy as np\n"
        "def scale_kernel(args):\n"
        "    out = np.empty(len(args[0]))\n"
        "    np.multiply(args[0], 2.0, out=out)\n"
        "    return out\n"
    )
    assert _lint_texts(tmp_path, {"k.py": text}) == []


def test_rl002_reentrant_flagged(tmp_path):
    text = (
        "def statement(db):\n"
        "    with db.lock.write_lock():\n"
        "        with db.lock.read_lock():\n"
        "            return 1\n"
    )
    findings = _lint_texts(tmp_path, {"l.py": text})
    assert [f.rule for f in findings] == ["RL002"]


def test_rl002_latch_through_call_flagged(tmp_path):
    # A helper that takes its own latch, called while one is held:
    # the nested acquisition is reached through the call graph, not
    # lexically.
    text = (
        "from contextlib import contextmanager\n"
        "class LatchStub:\n"
        "    @contextmanager\n"
        "    def write_latch(self, *tables):\n"
        "        yield self\n"
        "def refresh(latches):\n"
        "    with latches.write_latch('aux'):\n"
        "        return 1\n"
        "def statement(latches):\n"
        "    with latches.write_latch('main'):\n"
        "        return refresh(latches)\n"
    )
    findings = _lint_texts(tmp_path, {"l.py": text})
    assert [f.rule for f in findings] == ["RL002"]
    assert "another latch" in findings[0].message


def test_rl001_latch_guarded_entry_clean(tmp_path):
    # A SqlSession entry point reaching a sink through a table-latch
    # guard satisfies RL001 just like the legacy db.lock guard does.
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
    text = (
        "class BufferPool:\n"
        "    def fetch(self, page_id):\n"
        "        return page_id\n"
        "class SqlSession:\n"
        "    def __init__(self, db):\n"
        "        self.db = db\n"
        "    def peek_page(self, page_id):\n"
        "        with self.db.lock.read_lock():\n"
        "            return self.db.pool.fetch(page_id)\n"
    )
    assert _lint_texts(tmp_path, {"s.py": text}) == []


# -- severity tiers --------------------------------------------------------

def test_rule_severities():
    by_code = {rule.code: rule.severity for rule in ALL_RULES}
    assert by_code["RL003"] == "warn"
    assert by_code["RC601"] == "error"
    assert all(sev in ("error", "warn") for sev in by_code.values())


def test_findings_stamped_with_rule_severity():
    findings = lint_fixture("rl003_yield_under_latch.py")
    assert [f.severity for f in findings] == ["warn"]
    findings = lint_fixture("rc601_unbalanced_pin.py")
    assert [f.severity for f in findings] == ["error"]


def test_render_human_severity_summary():
    findings = lint_paths(
        [os.path.join(FIXTURES, "rl003_yield_under_latch.py"),
         os.path.join(FIXTURES, "rc601_unbalanced_pin.py")],
        root=FIXTURES,
    )
    text = render_human(findings)
    assert "[warn]" in text
    assert "(1 error(s), 1 warning(s))" in text


def test_json_includes_severity():
    findings = lint_fixture("rl003_yield_under_latch.py")
    payload = json.loads(render_json(findings))
    assert payload["errors"] == 0
    assert payload["findings"][0]["severity"] == "warn"


def test_cli_warning_only_exit_zero():
    proc = _run_cli(
        os.path.join(FIXTURES, "rl003_yield_under_latch.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "RL003" in proc.stdout


def test_cli_error_fixture_exit_one():
    proc = _run_cli(
        os.path.join(FIXTURES, "rc601_unbalanced_pin.py"))
    assert proc.returncode == 1


# -- RL003 / RC601 mechanics ------------------------------------------------

def test_rl003_contextmanager_exempt(tmp_path):
    text = (
        "from contextlib import contextmanager\n"
        "@contextmanager\n"
        "def guard(db):\n"
        "    with db.latches.read_latch('t'):\n"
        "        yield db\n"
    )
    assert _lint_texts(tmp_path, {"g.py": text}) == []


def test_rl003_yield_outside_guard_clean(tmp_path):
    text = (
        "def scan(db, table):\n"
        "    with db.latches.read_latch(table):\n"
        "        rows = list(range(3))\n"
        "    for row in rows:\n"
        "        yield row\n"
    )
    assert _lint_texts(tmp_path, {"g.py": text}) == []


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
        _KERNEL_HEAD + _KERNEL_STORE + _KERNEL_TAIL)
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
        "a = 1  # replint: disable=RL001,RL002\n"
        "# replint: disable-file=RW301\n",
    )
    assert source.is_suppressed("RL001", 1)
    assert source.is_suppressed("RL002", 1)
    assert not source.is_suppressed("RL001", 2)
    assert source.is_suppressed("RW301", 99)
