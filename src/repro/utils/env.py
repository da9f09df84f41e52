"""Sanctioned environment-variable accessors.

Every ``REPRO_*`` toggle the codebase honours is read through this
module.  That single choke point is what makes the worker-env contract
auditable: the sharded scheduler ships chunk workers an explicit env
(coordinator extras only — see ``repro.experiments.transport``), so any
*raw* ``os.environ`` read elsewhere is a determinism hazard — the value
observed on the coordinator may silently differ from the value a worker
observes.  The ``repro lint`` rule REP003 enforces the discipline: raw
``os.environ`` reads outside this module (and the CLI) are findings.

Readers only.  Code that *mutates* the environment (worker-env
construction) keeps using ``os.environ`` directly — mutation is visible
in process-local scope and is not the hazard REP003 polices.
"""

from __future__ import annotations

import os

__all__ = ["env_str", "env_float"]


def env_str(name: str, default: str | None = None) -> str | None:
    """The variable's raw string value, or ``default`` when unset."""
    return os.environ.get(name, default)


def env_float(name: str, default: float) -> float:
    """The variable parsed as ``float``, or ``default`` when unset."""
    raw = os.environ.get(name)
    return float(default if raw is None else raw)
