"""Suppression mechanics: ``noqa`` pragmas, the one escape hatch.

Pragmas are permanent, reviewed-in-place waivers.  A trailing
``# repro: noqa[REP003]`` on the offending line (or a module-level
``# repro: noqa-file[REP003]`` line) says "this site intentionally
violates the rule, and the adjacent comment explains why".  A bare
``# repro: noqa`` waives every rule on that line — reserved for
fixtures and generated code.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["Pragmas"]

_LINE_PRAGMA = re.compile(r"#\s*repro:\s*noqa(?:\[([A-Z0-9,\s]+)\])?")
_FILE_PRAGMA = re.compile(r"^\s*#\s*repro:\s*noqa-file\[([A-Z0-9,\s]+)\]")

_ALL = "*"


@dataclass
class Pragmas:
    """Per-file suppression map parsed from comments.

    Every pragma's *use* is tracked: :meth:`suppresses` records which
    line/file-wide waivers actually fired, so :meth:`dead_entries` can
    report pragmas that no longer suppress anything: suppressions are
    debt and must stay live.
    """

    by_line: dict[int, set[str]] = field(default_factory=dict)
    file_wide: set[str] = field(default_factory=set)
    hit_lines: set[int] = field(default_factory=set)
    hit_file_wide: set[str] = field(default_factory=set)

    @classmethod
    def scan(cls, lines: list[str]) -> "Pragmas":
        pragmas = cls()
        comments = _comment_linenos(lines)
        for lineno, text in enumerate(lines, start=1):
            if comments is not None and lineno not in comments:
                continue  # pragma text inside a string/docstring: inert
            file_match = _FILE_PRAGMA.match(text)
            if file_match:
                pragmas.file_wide.update(_parse_rule_list(file_match.group(1)))
                continue
            line_match = _LINE_PRAGMA.search(text)
            if line_match:
                rules = (
                    _parse_rule_list(line_match.group(1))
                    if line_match.group(1)
                    else {_ALL}
                )
                pragmas.by_line.setdefault(lineno, set()).update(rules)
        return pragmas

    def suppresses(self, line: int, rule_id: str) -> bool:
        if rule_id in self.file_wide:
            self.hit_file_wide.add(rule_id)
            return True
        rules = self.by_line.get(line)
        if rules is None:
            return False
        if _ALL in rules or rule_id in rules:
            self.hit_lines.add(line)
            return True
        return False

    def dead_entries(self, relpath: str) -> list[dict]:
        """Pragmas that suppressed nothing this run, as report records.

        Only meaningful after the engine has consulted :meth:`suppresses`
        for every raw finding in the file.
        """
        dead: list[dict] = []
        for lineno in sorted(self.by_line):
            if lineno not in self.hit_lines:
                rules = ",".join(sorted(self.by_line[lineno]))
                dead.append(
                    {
                        "kind": "noqa",
                        "path": relpath,
                        "line": lineno,
                        "detail": f"noqa[{rules}] suppresses nothing",
                    }
                )
        for rule_id in sorted(self.file_wide - self.hit_file_wide):
            dead.append(
                {
                    "kind": "noqa-file",
                    "path": relpath,
                    "line": 0,
                    "detail": f"noqa-file[{rule_id}] suppresses nothing",
                }
            )
        return dead


def _parse_rule_list(text: str) -> set[str]:
    return {part.strip() for part in text.split(",") if part.strip()}


def _comment_linenos(lines: list[str]) -> set[int] | None:
    """Line numbers holding an actual ``#`` comment token.

    Keeps docstrings that *mention* pragma syntax (the lint package's
    own docs) from registering as suppressions — and therefore from
    polluting the dead-suppression report.  Returns None when the
    source does not tokenize (caller falls back to matching every
    line).
    """
    source = "\n".join(lines) + "\n"
    try:
        return {
            token.start[0]
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        }
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return None
