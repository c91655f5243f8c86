"""Each replint rule, caught in the act on the real tree.

Every test below takes one file of ``src/repro``, applies one seeded
mutation to its text — the shape of bug its rule exists for — and lints
the result in memory (a :class:`SourceFile` over the mutated text; the
checkout is never written).  The unmutated tree lints clean
(``test_replint.test_real_tree_is_clean``), and each mutation must draw
a finding from its own rule: a test fails if that rule is dropped from
``ALL_RULES``.

These are the mutations of the rule audit recorded in
``docs/ANALYSIS.md``: tier-1 and the ``REPRO_LOCK_CHECK=1`` suites pass
with each of them applied, so the rule is what catches it.
"""

import os

import pytest

from repro.analysis import ALL_RULES
from repro.analysis.framework import (
    LintContext,
    SourceFile,
    collect_files,
    run_rules,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_TREE = os.path.join(REPO_ROOT, "src", "repro")

#: rule -> (file under src/repro, text, replacement).  Rules in
#: ``WHOLE_PROGRAM`` are linted with the whole tree (the lock rules are
#: interprocedural); the others with the mutated file alone.
MUTATIONS = {
    "RL001": ("engine/sqlfront.py",
              "            with self.db.latches.write_latch(table.name):\n"
              "                return table.apply_insert(prep)\n",
              "            return table.apply_insert(prep)\n"),
    "RL004": ("server/server.py",
              "            self.stats.session_closed(session_id)\n"
              "            with self._connections_lock:\n"
              "                self._connections.discard(conn)\n",
              "            with self._connections_lock:\n"
              "                self.stats.session_closed(session_id)\n"
              "                self._connections.discard(conn)\n"),
    "RL005": ("engine/sqlfront.py",
              "            with self.db.latches.write_latch(table.name):\n"
              "                return table.apply_insert(prep)\n",
              "            with self.db.latches.write_latch(table.name):\n"
              "                time.sleep(0)\n"
              "                return table.apply_insert(prep)\n"),
    "RW301": ("server/protocol.py",
              "PROTOCOL_VERSION = 2\n",
              "PROTOCOL_VERSION = 3\n"),
    "RS401": ("shard/merge.py",
              "        merged.append(state)\n"
              "    return merged\n",
              "        merged.append(state)\n"
              "    shard_states.clear()\n"
              "    return merged\n"),
    "RC601": ("engine/sqlfront.py",
              "                snap = table.pin_snapshot()\n"
              "                try:\n"
              "                    keys = self._victim_keys(snap, where, "
              "pk_range)\n"
              "                finally:\n"
              "                    snap.unpin(self.db.pool)\n",
              "                snap = table.pin_snapshot()\n"
              "                keys = self._victim_keys(snap, where, "
              "pk_range)\n"
              "                snap.unpin(self.db.pool)\n"),
}

WHOLE_PROGRAM = {"RL001", "RL004", "RL005"}


def _mutated(source, old, new):
    assert source.text.count(old) == 1, \
        f"mutation anchor drifted in {source.display_path}"
    return SourceFile(source.path, source.text.replace(old, new),
                      display_path=source.display_path)


@pytest.fixture(scope="module")
def real_tree():
    return collect_files([SRC_TREE], root=REPO_ROOT)


def test_every_rule_has_a_mutation():
    assert sorted(MUTATIONS) == sorted(rule.code for rule in ALL_RULES)


@pytest.mark.parametrize("code", sorted(MUTATIONS))
def test_rule_catches_its_mutation_of_src(code, real_tree):
    relpath, old, new = MUTATIONS[code]
    target = os.path.join(SRC_TREE, *relpath.split("/"))
    files = [_mutated(source, old, new) if source.path == target
             else source for source in real_tree]
    if code not in WHOLE_PROGRAM:
        files = [source for source in files if source.path == target]
    findings = run_rules(files, ALL_RULES, LintContext(REPO_ROOT))
    assert code in {finding.rule for finding in findings}, findings
