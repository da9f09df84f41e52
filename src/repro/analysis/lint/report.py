"""Rendering for ``repro lint``: text diagnostics, stats tables, JSON.

Output is deliberately boring and stable: findings print as
``path:line:col: REP### message`` with an indented fix hint, sorted by
location, so diffs of lint output are meaningful and editors/CI annotate
them directly.  The JSON payload shape is pinned by
``tests/analysis/test_lint_engine.py`` — the future run-database service
(ROADMAP) ingests it, so schema changes must bump ``version``.
"""

from __future__ import annotations

import json

from repro.analysis.lint.engine import LintReport
from repro.analysis.lint.registry import iter_rules
from repro.utils.tabulate import format_table

__all__ = [
    "format_findings",
    "format_stats",
    "format_rules",
    "format_dead_suppressions",
    "to_json_text",
]


def format_findings(report: LintReport) -> str:
    """The classic compiler-style diagnostic listing plus a tally line."""
    lines = [finding.format_text() for finding in report.findings]
    for error in report.parse_errors:
        lines.append(f"error: cannot analyze {error}")
    tally = (
        f"{len(report.findings)} finding(s) in {report.files_checked} "
        f"file(s)"
    )
    if report.suppressed:
        tally += f" ({report.suppressed} suppressed by pragma)"
    lines.append(tally)
    return "\n".join(lines)


def format_stats(report: LintReport) -> str:
    """``--stats``: findings per rule and per package, as tables."""
    stats = report.stats()
    rule_rows = [
        [rule_id, str(count)]
        for rule_id, count in stats["by_rule"].items()
    ] or [["-", "0"]]
    package_rows = [
        [package, str(count)]
        for package, count in stats["by_package"].items()
    ] or [["-", "0"]]
    sections = [
        format_table(["rule", "findings"], rule_rows,
                     title="findings per rule"),
        format_table(["package", "findings"], package_rows,
                     title="findings per package"),
    ]
    if report.dead_suppressions:
        sections.append(format_dead_suppressions(report))
    sections.append(
        f"total: {stats['total']}  suppressed: {stats['suppressed']}  "
        f"files: {stats['files_checked']}  "
        f"dead suppressions: {stats['dead_suppressions']}"
    )
    return "\n\n".join(sections)


def format_dead_suppressions(report: LintReport) -> str:
    """Suppressions (pragma / exempt path) that no longer fire."""
    rows = [
        [dead["kind"], dead["path"],
         str(dead["line"]) if dead["line"] else "-", dead["detail"]]
        for dead in report.dead_suppressions
    ] or [["-", "-", "-", "none"]]
    return format_table(["kind", "path", "line", "detail"], rows,
                        title="dead suppressions")


def format_rules() -> str:
    """``--list-rules``: the registered rule catalogue."""
    rows = [
        [spec.id, spec.name, spec.summary]
        for spec in iter_rules()
    ]
    return format_table(["id", "name", "checks for"], rows,
                        title="repro lint rules")


def to_json_text(report: LintReport) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"
