"""``repro lint`` — static determinism & resource-safety analysis.

An :mod:`ast`-based analyzer enforcing the reproducibility invariants
the rest of this repo can only spot-check at runtime: every RNG seeded
from a parameter (REP001), byte-stable serialization (REP002), the
worker-env contract (REP003), hook hygiene (REP004), atomic artifact
writes (REP005), float-order discipline (REP006), fork-safe module
state (REP007) and the scenario-registration contract (REP008).  Each
rule reads one file at a time.

Entry points::

    python -m repro lint [paths] [--format text|json] [--select/--ignore]
                         [--stats] [--check-suppressions] [--list-rules]

    from repro.analysis.lint import run_lint
    report = run_lint(["src/repro"])

Suppress a reviewed, intentional violation in place::

    env = dict(os.environ)  # repro: noqa[REP003] — local transport ships full env

Inline pragmas are the only escape hatch (see
:mod:`repro.analysis.lint.suppress`); CI gates on a clean run.
"""

from repro.analysis.lint.engine import (
    FileContext,
    Finding,
    LintReport,
    repo_root,
    run_lint,
)
from repro.analysis.lint.registry import (
    LintRule,
    get_rule,
    iter_rules,
    rule,
    rule_ids,
)
from repro.analysis.lint.report import (
    format_dead_suppressions,
    format_findings,
    format_rules,
    format_stats,
    to_json_text,
)
from repro.analysis.lint.suppress import Pragmas

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "repo_root",
    "run_lint",
    "LintRule",
    "get_rule",
    "iter_rules",
    "rule",
    "rule_ids",
    "format_findings",
    "format_rules",
    "format_stats",
    "format_dead_suppressions",
    "to_json_text",
    "Pragmas",
]
