"""Rule registry for ``repro lint``.

Mirrors the scenario-registry idiom (:mod:`repro.experiments.registry`):
rules are declarative specs registered by decorator at import time, and
every consumer — the engine, the CLI, the docs table, the fixture tests
— resolves them from one dict.

Registering a rule::

    @rule(
        "REP001",
        name="unseeded-rng",
        summary="module-level RNG without an explicit seed",
        hint="thread a seeded np.random.Generator through",
        rationale="PR 3 patched silent unseeded-RNG fallbacks",
    )
    def check_unseeded_rng(ctx):
        for node in ctx.walk(ast.Call):
            ...
            yield node, "np.random.default_rng() without a seed"

A rule is a generator over ``(ast_node, message)`` pairs; the engine
turns each pair into a :class:`repro.analysis.lint.engine.Finding`,
attaching the rule's id and fix hint.  ``exempt`` names repo-relative
path suffixes where the rule never applies (the sanctioned choke points
the rule funnels everyone else towards).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "LintRule",
    "rule",
    "register",
    "unregister",
    "get_rule",
    "rule_ids",
    "iter_rules",
    "path_is_exempt",
]

_RULE_ID = re.compile(r"^REP\d{3}$")

_REGISTRY: dict[str, "LintRule"] = {}


@dataclass(frozen=True)
class LintRule:
    """One registered static-analysis rule.

    Attributes:
        id: Stable diagnostic code (``REP001`` …) — referenced by
            suppression pragmas and ``--select/--ignore``.
        name: Kebab-case slug for humans (``unseeded-rng``).
        summary: One-line description shown by ``repro lint --list-rules``.
        hint: Fix hint appended to every finding this rule emits.
        rationale: Which recurring bug class / past PR fix the rule
            codifies (shown in the docs rule table).
        check: Generator of ``(node, message)`` pairs for one file.
        exempt: Repo-relative path suffixes the rule skips — the
            sanctioned implementation sites of the invariant itself.
    """

    id: str
    name: str
    summary: str
    hint: str
    check: Callable = field(repr=False, compare=False)
    rationale: str = ""
    exempt: tuple[str, ...] = ()


def register(spec: LintRule) -> LintRule:
    """Add ``spec`` to the registry; bad ids and duplicates are errors."""
    if not _RULE_ID.match(spec.id):
        raise ValueError(f"rule id {spec.id!r} does not match REP###")
    if spec.id in _REGISTRY:
        raise ValueError(f"rule {spec.id!r} is already registered")
    _REGISTRY[spec.id] = spec
    return spec


def unregister(rule_id: str) -> None:
    """Remove a rule (used by tests registering throwaway rules)."""
    _REGISTRY.pop(rule_id, None)


def rule(
    rule_id: str,
    *,
    name: str,
    summary: str,
    hint: str,
    rationale: str = "",
    exempt: tuple[str, ...] = (),
) -> Callable[[Callable], LintRule]:
    """Decorator: register the wrapped check function as a lint rule.

    Returns the :class:`LintRule` (not the raw function), matching the
    scenario-registry convention.
    """

    def wrap(fn: Callable) -> LintRule:
        return register(
            LintRule(
                id=rule_id,
                name=name,
                summary=summary,
                hint=hint,
                check=fn,
                rationale=rationale,
                exempt=tuple(exempt),
            )
        )

    return wrap


def get_rule(rule_id: str) -> LintRule:
    """Resolve a rule by id; raise with the catalogue on miss."""
    _ensure_builtins()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown lint rule {rule_id!r}; registered rules: {known}"
        ) from None


def rule_ids() -> list[str]:
    """Sorted ids of all registered rules."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def iter_rules() -> Iterator[LintRule]:
    """Iterate rules in id order."""
    _ensure_builtins()
    for rule_id in sorted(_REGISTRY):
        yield _REGISTRY[rule_id]


def path_is_exempt(relpath: str, spec: LintRule) -> bool:
    """True when ``relpath`` (posix) matches one of the rule's exemptions.

    A pattern matches the whole path or a trailing path-segment suffix:
    ``nn/seeding.py`` matches ``src/repro/nn/seeding.py`` but a pattern
    ``cli.py`` does not match ``tools/mycli.py``.
    """
    for pattern in spec.exempt:
        if relpath == pattern or relpath.endswith("/" + pattern):
            return True
    return False


def _ensure_builtins() -> None:
    """Import the built-in rule definitions exactly once.

    Same pattern as the scenario registry: lets this module be imported
    standalone while guaranteeing the REP rules are present whenever the
    registry is queried.
    """
    import repro.analysis.lint.rules  # noqa: F401  (registers on import)
