"""Named-spec registry shared by the defense and attacker registries.

A :class:`Registry` maps names to spec objects (anything with ``name``
and ``kind`` attributes — :class:`repro.defenses.registry.DefenseSpec`,
:class:`repro.attacks.registry.AttackerSpec`).  Every query first
imports the built-in registration module and the extra modules named in
the registry's ``REPRO_*_MODULES`` variable (comma-separated), so shard
worker subprocesses, which start from a fresh interpreter, see the same
catalogue as the process that launched them.
"""

from __future__ import annotations

import importlib
from typing import Generic, Iterator, TypeVar

from repro.utils.env import env_str

__all__ = ["Registry"]

S = TypeVar("S")


class Registry(Generic[S]):
    """Specs by unique name, queried in name order.

    Args:
        noun: What one entry is called in error messages (``"defense"``).
        builtins: Module whose import registers the built-in entries.
        modules_env: Variable naming extra registration modules.
    """

    def __init__(self, noun: str, builtins: str, modules_env: str):
        self._noun = noun
        self._builtins = builtins
        self._modules_env = modules_env
        self._specs: dict[str, S] = {}

    def register(self, spec: S) -> S:
        """Add ``spec``; duplicate names are an error."""
        if spec.name in self._specs:
            raise ValueError(
                f"{self._noun} {spec.name!r} is already registered"
            )
        self._specs[spec.name] = spec
        return spec

    def unregister(self, name: str) -> None:
        """Remove an entry (tests registering throwaway entries)."""
        self._specs.pop(name, None)

    def get(self, name: str) -> S:
        """Resolve by name; raise with the catalogue on a miss."""
        self._ensure_builtins()
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted(self._specs)) or "<none>"
            raise KeyError(
                f"unknown {self._noun} {name!r}; "
                f"registered {self._noun}s: {known}"
            ) from None

    def names(self) -> list[str]:
        """Sorted names of every entry."""
        self._ensure_builtins()
        return sorted(self._specs)

    def iter(self, kind: str | None = None) -> Iterator[S]:
        """Entries in name order, optionally filtered by ``kind``."""
        for name in self.names():
            spec = self._specs[name]
            if kind is None or spec.kind == kind:
                yield spec

    def _ensure_builtins(self) -> None:
        importlib.import_module(self._builtins)
        extra = env_str(self._modules_env, "")
        for module in filter(None, (m.strip() for m in extra.split(","))):
            importlib.import_module(module)
