"""Attacker registry: named :class:`Attacker` factories (``@attacker``).

An :class:`AttackerSpec` describes one registered attacker — a
zero-argument factory returning a fresh
:class:`repro.attacks.protocol.Attacker` — and the ``@attacker``
decorator registers it by name.  The ``tournament-matrix`` scenario and
``repro list --kind attackers`` resolve attackers here.  The lookup
itself is the :class:`repro.utils.registry.Registry` the defense
registry (:mod:`repro.defenses.registry`) uses too.

``REPRO_ATTACKER_MODULES`` (comma-separated module names) names extra
modules to import for their registration side effects, so shard worker
subprocesses see dynamically registered attackers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.attacks.protocol import Attacker
from repro.utils.registry import Registry

__all__ = [
    "AttackerSpec",
    "attacker",
    "register_attacker",
    "unregister_attacker",
    "get_attacker",
    "attacker_names",
    "iter_attackers",
    "build_attacker",
]


@dataclass
class AttackerSpec:
    """One registered attacker.

    Attributes:
        name: Registry identifier (``bfa``, ``smart-bfa`` …).
        build: ``() -> Attacker`` factory (attackers carry no build-time
            state; everything arrives through the ``AttackContext``).
        title: One-line description (shown by ``repro list``).
        kind: Threat-model class — ``"baseline"`` (no gradient access),
            ``"white-box"`` (full gradients, defense-blind),
            ``"adaptive"`` (defense-aware), or ``"targeted"``.
        cost: Relative attack cost hint (1.0 = a random-flip campaign);
            feeds the tournament's ``trial_cost`` scheduling hint.
            Never affects results.
        tournament: Whether the attacker is in the default
            ``tournament-matrix`` roster.
    """

    name: str
    build: Callable[[], Attacker]
    title: str = ""
    kind: str = "white-box"
    cost: float = 1.0
    tournament: bool = True

    def __call__(self) -> Attacker:
        return self.build()


_REGISTRY: Registry[AttackerSpec] = Registry(
    "attacker", builtins="repro.attacks.builtin",
    modules_env="REPRO_ATTACKER_MODULES",
)


def register_attacker(spec: AttackerSpec) -> AttackerSpec:
    """Add ``spec`` to the registry; duplicate names are an error."""
    return _REGISTRY.register(spec)


def unregister_attacker(name: str) -> None:
    """Remove an attacker (tests registering throwaway attackers)."""
    _REGISTRY.unregister(name)


def attacker(
    name: str,
    *,
    title: str = "",
    kind: str = "white-box",
    cost: float = 1.0,
    tournament: bool = True,
) -> Callable[[Callable[[], Attacker]], AttackerSpec]:
    """Decorator: register the wrapped factory as a named attacker."""

    def wrap(fn: Callable[[], Attacker]) -> AttackerSpec:
        return register_attacker(
            AttackerSpec(
                name=name, build=fn, title=title, kind=kind, cost=cost,
                tournament=tournament,
            )
        )

    return wrap


def get_attacker(name: str) -> AttackerSpec:
    """Resolve an attacker by name; raise with the catalogue on miss."""
    return _REGISTRY.get(name)


def attacker_names() -> list[str]:
    """Sorted names of all registered attackers."""
    return _REGISTRY.names()


def iter_attackers(kind: str | None = None) -> Iterator[AttackerSpec]:
    """Iterate attackers in name order, optionally filtered by kind."""
    return _REGISTRY.iter(kind)


def build_attacker(name: str) -> Attacker:
    """Resolve + instantiate in one call (the scenario entry point)."""
    return get_attacker(name).build()
