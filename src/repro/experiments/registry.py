"""Scenario registry: declarative specs for every experiment the repo runs.

A *scenario* is one paper figure/table (``fig8a``, ``table3`` …) or a
sweep grid, described declaratively: a trial function (one seeded
Monte-Carlo trial), optional aggregate checks (the reproduction
assertions), and an optional report formatter.  The registry is the single
source of truth shared by the pytest benchmarks, the ``python -m repro``
CLI, and any future service — all three resolve scenarios by name and
execute them through :func:`repro.experiments.runner.run_scenario`.

Registering a scenario::

    @scenario("fig8a", title="Time-to-break vs T_RH", source="Fig. 8a")
    def fig8a(ctx):
        points = security_sweep()
        return {"metrics": {...flat floats...}, "detail": {...json...}}

    @fig8a.check
    def _check(result):
        assert result.metric("dd_4k_days") > result.metric("shadow_4k_days")

    @fig8a.reporter
    def _report(result):
        return format_table(...)

The trial function receives a :class:`repro.experiments.runner.TrialContext`
and returns ``{"metrics": {name: scalar}, "detail": <any JSON>}``.
Metrics are aggregated (mean/std/CI) across trials; ``detail`` is kept
from the first trial for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "Scenario",
    "scenario",
    "register",
    "unregister",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
]

_REGISTRY: dict[str, "Scenario"] = {}


@dataclass
class Scenario:
    """One registered experiment.

    Attributes:
        name: CLI-facing identifier (``fig8b``, ``sweep-hammer-rate`` …).
        trial_fn: Runs one seeded trial; returns metrics + detail.
        title: One-line human description (shown by ``repro list``).
        source: Paper anchor, e.g. ``"Fig. 8(b)"`` or ``"Table 3"``.
        presets: Names of trained presets the trial loads (informational;
            lets the CLI warn about cold-cache cost up front).
        deterministic: True when trials are seed-independent (analytical
            models) — extra trials only confirm a std of zero.
        tags: Free-form labels for filtering (``"paper"``, ``"sweep"`` …).
        default_trials: Trial count used when the caller does not specify.
        trial_cost: Optional ``(trial_index, params) -> float`` hint of a
            trial's *relative* cost.  Purely a scheduling hint: the
            sharded backend leases predicted-expensive trials first so
            stragglers surface early where work stealing can absorb
            them.  Never affects results — only wall-clock.
    """

    name: str
    trial_fn: Callable
    title: str = ""
    source: str = ""
    presets: tuple[str, ...] = ()
    deterministic: bool = False
    tags: tuple[str, ...] = ()
    default_trials: int = 1
    trial_cost: Callable | None = field(default=None, repr=False)
    check_fn: Callable | None = field(default=None, repr=False)
    report_fn: Callable | None = field(default=None, repr=False)

    # -- decorator hooks ------------------------------------------------ #

    def check(self, fn: Callable) -> Callable:
        """Attach the aggregate assertion function (decorator)."""
        self.check_fn = fn
        return fn

    def reporter(self, fn: Callable) -> Callable:
        """Attach the text-report formatter (decorator)."""
        self.report_fn = fn
        return fn

    # -- execution helpers ---------------------------------------------- #

    def run_trial(self, ctx) -> dict:
        """Run one trial; normalise the payload shape."""
        payload = self.trial_fn(ctx)
        if not isinstance(payload, dict):
            raise TypeError(
                f"scenario {self.name!r} trial returned "
                f"{type(payload).__name__}, expected dict"
            )
        metrics = payload.get("metrics", {})
        for key, value in metrics.items():
            if not isinstance(value, (int, float)):
                raise TypeError(
                    f"scenario {self.name!r} metric {key!r} is "
                    f"{type(value).__name__}; metrics must be scalars"
                )
        return {"metrics": metrics, "detail": payload.get("detail", {})}

    def run_checks(self, result) -> None:
        """Run reproduction assertions against an aggregate result.

        Raises ``AssertionError`` on failure; no-op when the scenario has
        no registered checks.
        """
        if self.check_fn is not None:
            self.check_fn(result)

    def render_report(self, result) -> str:
        """Human-readable report; falls back to a metric listing."""
        if self.report_fn is not None:
            return self.report_fn(result)
        lines = [f"{self.name} — {self.title}"]
        for key in sorted(result.metrics):
            stats = result.metrics[key]
            lines.append(f"  {key}: {stats.mean:.6g} ± {stats.ci95:.2g}")
        return "\n".join(lines)


def register(spec: Scenario) -> Scenario:
    """Add ``spec`` to the registry; duplicate names are an error."""
    if spec.name in _REGISTRY:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister(name: str) -> None:
    """Remove a scenario (used by tests registering throwaway scenarios)."""
    _REGISTRY.pop(name, None)


def scenario(
    name: str,
    *,
    title: str = "",
    source: str = "",
    presets: tuple[str, ...] = (),
    deterministic: bool = False,
    tags: tuple[str, ...] = (),
    default_trials: int = 1,
    trial_cost: Callable | None = None,
) -> Callable[[Callable], Scenario]:
    """Decorator: register the wrapped trial function as a scenario.

    Returns the :class:`Scenario` (not the raw function), so ``.check``
    and ``.reporter`` can be used as attachment decorators.
    """

    def wrap(fn: Callable) -> Scenario:
        return register(
            Scenario(
                name=name,
                trial_fn=fn,
                title=title,
                source=source,
                presets=tuple(presets),
                deterministic=deterministic,
                tags=tuple(tags),
                default_trials=default_trials,
                trial_cost=trial_cost,
            )
        )

    return wrap


def get_scenario(name: str) -> Scenario:
    """Resolve a scenario by name; raise with the catalogue on miss."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise KeyError(
            f"unknown scenario {name!r}; registered scenarios: {known}"
        ) from None


def scenario_names() -> list[str]:
    """Sorted names of all registered scenarios."""
    _ensure_builtins()
    return sorted(_REGISTRY)


def iter_scenarios(tag: str | None = None) -> Iterator[Scenario]:
    """Iterate scenarios in name order, optionally filtered by tag."""
    _ensure_builtins()
    for name in sorted(_REGISTRY):
        spec = _REGISTRY[name]
        if tag is None or tag in spec.tags:
            yield spec


def _ensure_builtins() -> None:
    """Import the built-in scenario definitions exactly once.

    Lets ``registry`` be imported standalone (e.g. by worker processes or
    tests) while still guaranteeing the paper scenarios are present
    whenever the registry is queried.

    ``REPRO_SCENARIO_MODULES`` (comma-separated module names) names extra
    modules to import for their registration side effects.  Shard worker
    subprocesses (``repro run --shard i/N``) start from a fresh
    interpreter, so scenarios registered dynamically by the coordinating
    process are invisible to them unless they live in an importable
    module named here.
    """
    import importlib

    import repro.experiments.scenarios  # noqa: F401  (registers on import)
    import repro.experiments.tournament  # noqa: F401  (registers on import)

    from repro.utils.env import env_str

    extra = env_str("REPRO_SCENARIO_MODULES", "")
    for module in filter(None, (m.strip() for m in extra.split(","))):
        importlib.import_module(module)
