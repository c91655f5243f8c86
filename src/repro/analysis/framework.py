"""replint framework: file walking, rule registry, suppressions, reporting.

The checker is pure stdlib (``ast`` + ``tokenize``-free line scanning) so it
can run in any environment the engine runs in, including CI images without
third-party linters installed.

Suppression syntax (mirrors the usual linter conventions):

- ``# replint: disable=RL001`` on a line suppresses the named rule(s) for
  findings reported on that exact line.  Multiple rules may be given,
  comma-separated; ``all`` suppresses every rule.
- ``# replint: disable-file=RL001`` anywhere in a file suppresses the rule(s)
  for the whole file.

Exit codes: 0 = clean, 1 = findings (or unparsable source), 2 = usage
error.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import re
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .callgraph import CallGraph
    from .flow.lockgraph import ProgramLockAnalysis

PARSE_RULE = "PARSE"

_SUPPRESS_RE = re.compile(
    r"#\s*replint:\s*disable(?P<scope>-file)?\s*=\s*(?P<rules>[A-Za-z0-9_,\s*]+)"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """A single rule violation anchored to a file, line and column.

    ``col`` is 1-based (0 = not known); ``end_line`` optionally closes a
    multi-line span — both make the human output editor-clickable
    (``path:line:col:``).
    """

    rule: str
    path: str
    line: int
    message: str
    col: int = 0
    end_line: int | None = None

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.end_line is not None:
            out["end_line"] = self.end_line
        return out

    def baseline_key(self) -> tuple[str, str, str]:
        """Identity used by ``--baseline`` suppression.  Line and
        column are deliberately excluded so unrelated edits above a
        known finding don't un-suppress it."""
        return (self.rule, self.path, self.message)

    def render(self) -> str:
        pos = f"{self.line}:{self.col}" if self.col else f"{self.line}"
        return f"{self.path}:{pos}: {self.rule} {self.message}"


class SourceFile:
    """A parsed source file plus its suppression table."""

    def __init__(self, path: str, text: str, display_path: str | None = None) -> None:
        self.path = path
        self.display_path = display_path or path
        self.text = text
        self.lines = text.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: str | None = None
        self.line_suppressions: dict[int, frozenset[str]] = {}
        self.file_suppressions: frozenset[str] = frozenset()
        try:
            self.tree = ast.parse(text, filename=path)
        except SyntaxError as exc:  # pragma: no cover - exercised via tests
            self.parse_error = f"{exc.msg} (line {exc.lineno})"
        self._scan_suppressions()

    @property
    def basename(self) -> str:
        return os.path.basename(self.path)

    def _scan_suppressions(self) -> None:
        file_rules: set[str] = set()
        for lineno, line in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(line)
            if match is None:
                continue
            rules = frozenset(
                token.strip()
                for token in match.group("rules").split(",")
                if token.strip()
            )
            if not rules:
                continue
            if match.group("scope"):
                file_rules.update(rules)
            else:
                self.line_suppressions[lineno] = rules
        self.file_suppressions = frozenset(file_rules)

    def is_suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions or "all" in self.file_suppressions:
            return True
        rules = self.line_suppressions.get(line)
        if rules is None:
            return False
        return rule in rules or "all" in rules


class LintContext:
    """Shared state for a lint run (memoises the call graph and the
    whole-program flow analysis across rules)."""

    def __init__(self, root: str) -> None:
        self.root = root
        self._graph: CallGraph | None = None
        self._flow: ProgramLockAnalysis | None = None

    def callgraph(self, files: Sequence[SourceFile]) -> CallGraph:
        if self._graph is None:
            from .callgraph import CallGraph

            self._graph = CallGraph.build(files)
        return self._graph

    def flow(self, files: Sequence[SourceFile]) -> "ProgramLockAnalysis":
        if self._flow is None:
            from .flow.lockgraph import ProgramLockAnalysis

            self._flow = ProgramLockAnalysis(files, self.callgraph(files))
        return self._flow


class Rule:
    """Base class for replint rules."""

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, files: Sequence[SourceFile], ctx: LintContext) -> list[Finding]:
        raise NotImplementedError


def collect_files(paths: Iterable[str], root: str | None = None) -> list[SourceFile]:
    """Expand files/directories into parsed :class:`SourceFile` objects."""

    seen: set[str] = set()
    out: list[SourceFile] = []
    base = os.path.abspath(root) if root else os.getcwd()

    def add(path: str) -> None:
        abspath = os.path.abspath(path)
        if abspath in seen:
            return
        seen.add(abspath)
        try:
            with open(abspath, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError:
            return
        display = os.path.relpath(abspath, base)
        if display.startswith(".."):
            display = abspath
        out.append(SourceFile(abspath, text, display_path=display))

    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in {"__pycache__", ".git"}
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        add(os.path.join(dirpath, filename))
        elif path.endswith(".py"):
            add(path)
    return out


def run_rules(
    files: Sequence[SourceFile],
    rules: Sequence[Rule],
    ctx: LintContext | None = None,
) -> list[Finding]:
    """Run rules over parsed files, applying suppressions, sorted output."""

    if ctx is None:
        ctx = LintContext(os.getcwd())
    by_path = {f.path: f for f in files}
    by_display = {f.display_path: f for f in files}
    findings: list[Finding] = []
    for source in files:
        if source.parse_error is not None:
            findings.append(
                Finding(
                    rule=PARSE_RULE,
                    path=source.display_path,
                    line=1,
                    message=f"could not parse: {source.parse_error}",
                )
            )
    parsed = [f for f in files if f.tree is not None]
    for rule in rules:
        for finding in rule.check(parsed, ctx):
            source = by_path.get(finding.path) or by_display.get(finding.path)
            if source is not None:
                if source.is_suppressed(finding.rule, finding.line):
                    continue
                if finding.path != source.display_path:
                    finding = dataclasses.replace(finding, path=source.display_path)
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def render_human(findings: Sequence[Finding]) -> str:
    if not findings:
        return "replint: clean"
    lines = [finding.render() for finding in findings]
    lines.append(f"replint: {len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        {
            "findings": [finding.to_dict() for finding in findings],
            "count": len(findings),
        },
        indent=2,
        sort_keys=True,
    )


# -- baselines ---------------------------------------------------------------

def write_baseline(findings: Sequence[Finding], path: str) -> None:
    """Snapshot current findings so ``--baseline`` can suppress them.
    Entries are (rule, path, message) — line/column free, so the
    baseline survives unrelated edits."""
    entries = sorted({finding.baseline_key() for finding in findings})
    payload = {
        "version": 1,
        "entries": [
            {"rule": rule, "path": fpath, "message": message}
            for rule, fpath, message in entries
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_baseline(path: str) -> set[tuple[str, str, str]]:
    """Baseline keys from a snapshot file; raises ``ValueError`` on a
    malformed file (a silently ignored baseline would unsuppress
    everything)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or not isinstance(
            payload.get("entries"), list):
        raise ValueError(f"{path}: not a replint baseline file")
    keys: set[tuple[str, str, str]] = set()
    for entry in payload["entries"]:
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: malformed baseline entry")
        keys.add((str(entry.get("rule", "")), str(entry.get("path", "")),
                  str(entry.get("message", ""))))
    return keys


def apply_baseline(
    findings: Sequence[Finding],
    baseline: set[tuple[str, str, str]],
) -> list[Finding]:
    """Drop findings whose (rule, path, message) is in the baseline."""
    return [f for f in findings if f.baseline_key() not in baseline]
