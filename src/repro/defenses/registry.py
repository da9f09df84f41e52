"""Defense registry: named builders behind the ``Defense`` protocol.

A :class:`DefenseSpec` describes one registered defense — a builder
taking a :class:`repro.defenses.protocol.DefenseContext` and returning a
live :class:`repro.defenses.protocol.Defense` — and the ``@defense``
decorator registers it by name.  Deployments (``DefendedDeployment.build(
defense="radar")``), the ``table3`` and ``tournament-matrix`` scenarios,
and ``repro list --kind defenses`` all resolve defenses here.  The
lookup itself is the :class:`repro.utils.registry.Registry` the attacker
registry uses too.

``REPRO_DEFENSE_MODULES`` (comma-separated module names) names extra
modules to import for their registration side effects, so shard worker
subprocesses see dynamically registered defenses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.defenses.protocol import Defense, DefenseContext
from repro.utils.registry import Registry

__all__ = [
    "DefenseSpec",
    "defense",
    "register_defense",
    "unregister_defense",
    "get_defense",
    "defense_names",
    "iter_defenses",
    "build_defense",
]


@dataclass
class DefenseSpec:
    """One registered defense.

    Attributes:
        name: Registry identifier (``radar``, ``dnn-defender`` …).
        build: ``(DefenseContext) -> Defense`` factory.
        title: One-line description (shown by ``repro list``).
        kind: Coarse mechanism class — ``"hardware"`` (controller
            hooks / swap engines), ``"behavioral"`` (stochastic block
            model), ``"software"`` (training-/run-time model hardening),
            or ``"detection"`` (detect-and-recover).
        cost: Relative build+attack cost hint (1.0 = an undefended
            cell); feeds the tournament's ``trial_cost`` scheduling
            hint.  Never affects results.
        tournament: Whether the defense is in the default
            ``tournament-matrix`` roster (training-time defenses are
            registered but opt-in — their builds fine-tune a model).
    """

    name: str
    build: Callable[[DefenseContext], Defense]
    title: str = ""
    kind: str = "software"
    cost: float = 1.0
    tournament: bool = True

    def __call__(self, context: DefenseContext) -> Defense:
        return self.build(context)


_REGISTRY: Registry[DefenseSpec] = Registry(
    "defense", builtins="repro.defenses.builtin",
    modules_env="REPRO_DEFENSE_MODULES",
)


def register_defense(spec: DefenseSpec) -> DefenseSpec:
    """Add ``spec`` to the registry; duplicate names are an error."""
    return _REGISTRY.register(spec)


def unregister_defense(name: str) -> None:
    """Remove a defense (tests registering throwaway defenses)."""
    _REGISTRY.unregister(name)


def defense(
    name: str,
    *,
    title: str = "",
    kind: str = "software",
    cost: float = 1.0,
    tournament: bool = True,
) -> Callable[[Callable[[DefenseContext], Defense]], DefenseSpec]:
    """Decorator: register the wrapped builder as a named defense."""

    def wrap(fn: Callable[[DefenseContext], Defense]) -> DefenseSpec:
        return register_defense(
            DefenseSpec(
                name=name, build=fn, title=title, kind=kind, cost=cost,
                tournament=tournament,
            )
        )

    return wrap


def get_defense(name: str) -> DefenseSpec:
    """Resolve a defense by name; raise with the catalogue on miss."""
    return _REGISTRY.get(name)


def defense_names() -> list[str]:
    """Sorted names of all registered defenses."""
    return _REGISTRY.names()


def iter_defenses(kind: str | None = None) -> Iterator[DefenseSpec]:
    """Iterate defenses in name order, optionally filtered by kind."""
    return _REGISTRY.iter(kind)


def build_defense(name: str, context: DefenseContext) -> Defense:
    """Resolve + build in one call (the deployment/scenario entry point)."""
    return get_defense(name).build(context)
