"""AST lint engine: file discovery, parsing, rule dispatch, filtering.

The engine is deliberately execution-free — it parses every ``*.py``
file with :mod:`ast` and never imports the code under analysis, so it is
safe to run over worker entry points, chaos-injection modules and
scenario definitions without side effects.

Pipeline per file: parse → build a :class:`FileContext` (source lines,
import-alias map, parent links) → run every selected rule → drop what
``# repro: noqa[REP###]`` pragmas suppress → collect the survivors into
a :class:`LintReport`.  Every rule sees one file at a time.

Diagnostics are stable: findings are sorted by (path, line, col, rule),
so diffs of lint output are meaningful.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.analysis.lint.registry import (
    LintRule,
    get_rule,
    iter_rules,
    path_is_exempt,
)
from repro.analysis.lint.suppress import Pragmas

__all__ = [
    "Finding",
    "FileContext",
    "LintReport",
    "run_lint",
    "repo_root",
]

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[4]


def repo_root() -> pathlib.Path:
    """The repository root (``src/``'s parent)."""
    return _REPO_ROOT


@dataclass(frozen=True)
class Finding:
    """One diagnostic: where, which rule, what, and how to fix it."""

    path: str  # repo-relative posix path
    line: int
    col: int  # 1-based, matching editors and compiler convention
    rule: str
    message: str
    hint: str = ""

    def format_text(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_json(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


class FileContext:
    """Everything a rule needs to inspect one parsed file."""

    def __init__(self, path: pathlib.Path, relpath: str, source: str):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self._parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        self.imports = _import_aliases(self.tree)

    # -- navigation ----------------------------------------------------- #

    def walk(self, *types: type) -> Iterator[ast.AST]:
        """All nodes in the tree, optionally filtered by node type."""
        for node in ast.walk(self.tree):
            if not types or isinstance(node, types):
                yield node

    def parent(self, node: ast.AST) -> ast.AST | None:
        """The syntactic parent of ``node`` (None for the module)."""
        return self._parents.get(node)

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        """The nearest enclosing function/method definition, if any."""
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = self._parents.get(current)
        return None

    # -- name resolution ------------------------------------------------ #

    def qualname(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted import-qualified name.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when the file holds ``import numpy
        as np``; a head that is not an import alias returns None (it is a
        local object, not a module path — rules must not guess).
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        resolved = self.imports.get(current.id)
        if resolved is None:
            return None
        parts.append(resolved)
        return ".".join(reversed(parts))


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name → dotted origin, from every import in the file.

    ``import numpy as np`` → ``{"np": "numpy"}``;
    ``from os import environ`` → ``{"environ": "os.environ"}``.
    Star imports are ignored (nothing to resolve deterministically).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                target = name.name if name.asname else name.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports: origin is ambiguous per-file
            for name in node.names:
                if name.name == "*":
                    continue
                local = name.asname or name.name
                aliases[local] = f"{node.module}.{name.name}"
    return aliases


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    parse_errors: list[str] = field(default_factory=list)
    dead_suppressions: list[dict] = field(default_factory=list)

    def stats(self) -> dict:
        by_rule: dict[str, int] = {}
        by_package: dict[str, int] = {}
        for finding in self.findings:
            by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
            package = _package_of(finding.path)
            by_package[package] = by_package.get(package, 0) + 1
        return {
            "total": len(self.findings),
            "by_rule": dict(sorted(by_rule.items())),
            "by_package": dict(sorted(by_package.items())),
            "suppressed": self.suppressed,
            "files_checked": self.files_checked,
            "dead_suppressions": len(self.dead_suppressions),
        }

    def to_json(self) -> dict:
        """Stable machine-readable payload (schema pinned by tests)."""
        return {
            "version": 3,
            "tool": "repro-lint",
            "files_checked": self.files_checked,
            "findings": [f.to_json() for f in self.findings],
            "stats": self.stats(),
            "parse_errors": list(self.parse_errors),
            "dead_suppressions": list(self.dead_suppressions),
        }


def _package_of(relpath: str) -> str:
    """Aggregation key for --stats: the package under ``src/repro/``."""
    parts = relpath.split("/")
    if parts[:2] == ["src", "repro"]:
        return parts[2] if len(parts) > 3 else "repro"
    return parts[0]


def discover_files(paths: Iterable[pathlib.Path]) -> list[pathlib.Path]:
    """Expand files/directories into a sorted, de-duplicated ``*.py`` list."""
    seen: set[pathlib.Path] = set()
    for path in paths:
        path = pathlib.Path(path)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if any(
                    part.startswith(".") or part == "__pycache__"
                    for part in candidate.relative_to(path).parts
                ):
                    continue
                seen.add(candidate.resolve())
        elif path.suffix == ".py":
            seen.add(path.resolve())
        else:
            raise ValueError(f"not a python file or directory: {path}")
    return sorted(seen)


def _relpath(path: pathlib.Path, root: pathlib.Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _select_rules(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> list[LintRule]:
    if select:
        rules = [get_rule(rule_id) for rule_id in select]
    else:
        rules = list(iter_rules())
    if ignore:
        dropped = {get_rule(rule_id).id for rule_id in ignore}
        rules = [spec for spec in rules if spec.id not in dropped]
    return rules


def _lint_file(
    ctx: FileContext, rules: Sequence[LintRule], report: LintReport
) -> None:
    """Run ``rules`` over one parsed file; record findings and pragmas."""
    pragmas = Pragmas.scan(ctx.lines)
    raw = []
    for spec in rules:
        if path_is_exempt(ctx.relpath, spec):
            continue
        for node, message in spec.check(ctx):
            raw.append((
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                spec.id,
                message,
                spec.hint,
            ))
    for line, col, rule_id, message, hint in sorted(raw):
        if pragmas.suppresses(line, rule_id):
            report.suppressed += 1
            continue
        report.findings.append(
            Finding(ctx.relpath, line, col, rule_id, message, hint)
        )
    report.dead_suppressions.extend(pragmas.dead_entries(ctx.relpath))


def run_lint(
    paths: Iterable[str | pathlib.Path] | None = None,
    *,
    root: str | pathlib.Path | None = None,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintReport:
    """Lint ``paths`` (default: ``src/`` under the repo root).

    Args:
        paths: Files and/or directories to analyze.
        root: Base for repo-relative diagnostic paths (default: the
            repository root inferred from this package's location).
        select: Only run these rule ids (default: all registered).
        ignore: Drop these rule ids from the run.
    """
    root = pathlib.Path(root).resolve() if root is not None else _REPO_ROOT
    targets = (
        [pathlib.Path(p) for p in paths] if paths else [root / "src"]
    )
    rules = _select_rules(select, ignore)
    report = LintReport()
    scanned: list[str] = []
    for path in discover_files(targets):
        report.files_checked += 1
        relpath = _relpath(path, root)
        try:
            ctx = FileContext(path, relpath, path.read_text())
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.parse_errors.append(
                f"{relpath}: {type(exc).__name__}: {exc}"
            )
            continue
        scanned.append(relpath)
        _lint_file(ctx, rules, report)
    for spec in rules:
        for pattern in spec.exempt:
            if not any(
                rel == pattern or rel.endswith("/" + pattern)
                for rel in scanned
            ):
                report.dead_suppressions.append(
                    {
                        "kind": "exempt",
                        "path": pattern,
                        "line": 0,
                        "detail": (
                            f"{spec.id} exempt {pattern!r} matches no "
                            "scanned file"
                        ),
                    }
                )
    report.dead_suppressions.sort(
        key=lambda d: (d["kind"], d["path"], d["line"], d["detail"])
    )
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
