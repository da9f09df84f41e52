"""Defense-mechanism base machinery shared by the hardware baselines.

Hardware baselines observe DRAM activity through the controller's activate
hook, keep per-row activation counters that reset every refresh interval,
and react (swap / shuffle / refresh) when a row gets hot.  They also plug
into the hammer driver's ``tick()`` protocol, though most act directly from
the hook.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.address import RowAddress
from repro.dram.controller import MemoryController

__all__ = ["DefenseStats", "HookedDefense"]


@dataclass
class DefenseStats:
    """Common counters across the baseline defenses.

    ``notes`` holds per-defense counters that do not fit the shared
    fields (RADAR's sweep/detection counts, a guard's corrections …).
    Scenario artifacts keep only scalar metrics per trial, so notes ride
    into artifacts through :meth:`as_metrics` (one scalar per counter)
    and into detail payloads through :meth:`to_json` — both paths
    survive ``repro merge`` because merging re-aggregates the same
    per-trial scalars.
    """

    reactions: int = 0           # swaps / shuffles / refreshes triggered
    rows_moved: int = 0
    skipped_for_budget: int = 0
    notes: dict[str, int] = field(default_factory=dict)

    def note(self, key: str, count: int = 1) -> None:
        """Bump one named counter."""
        self.notes[key] = self.notes.get(key, 0) + count

    def merge(self, other: "DefenseStats") -> "DefenseStats":
        """Accumulate another stats record into this one (in place)."""
        self.reactions += other.reactions
        self.rows_moved += other.rows_moved
        self.skipped_for_budget += other.skipped_for_budget
        for key, count in other.notes.items():
            self.note(key, count)
        return self

    def as_metrics(self, prefix: str = "") -> dict[str, float]:
        """Flatten every counter — notes included — to scalar metrics.

        This is the serialization-safe form: scenario metrics must be
        scalars, and the runner carries each scalar through
        ``per_trial_metrics``, the trial stream, and shard merging.
        """
        flat = {
            f"{prefix}reactions": float(self.reactions),
            f"{prefix}rows_moved": float(self.rows_moved),
            f"{prefix}skipped_for_budget": float(self.skipped_for_budget),
        }
        for key in sorted(self.notes):
            flat[f"{prefix}notes.{key}"] = float(self.notes[key])
        return flat

    def to_json(self) -> dict:
        """JSON form for detail payloads (notes kept as a mapping)."""
        return {
            "reactions": self.reactions,
            "rows_moved": self.rows_moved,
            "skipped_for_budget": self.skipped_for_budget,
            "notes": {key: self.notes[key] for key in sorted(self.notes)},
        }


class HookedDefense:
    """Base class: per-row activation counting with per-``T_ref`` reset.

    Subclasses implement :meth:`_react` which fires when a row's activation
    count inside the current refresh interval reaches ``trigger_count``.
    """

    name = "hooked"

    def __init__(self, controller: MemoryController, trigger_fraction: float):
        if not 0.0 < trigger_fraction <= 1.0:
            raise ValueError(
                f"trigger_fraction must be in (0, 1], got {trigger_fraction}"
            )
        self.controller = controller
        self.trigger_count = max(
            1, int(controller.timing.t_rh * trigger_fraction)
        )
        self.stats = DefenseStats()
        self._counts: dict[RowAddress, int] = {}
        self._epoch = controller.refresh_epoch
        self._reacting = False  # a reaction's own commands must not re-trigger
        controller.register_activate_hook(self._on_activate)

    # ------------------------------------------------------------------ #
    # Hook plumbing
    # ------------------------------------------------------------------ #

    def _maybe_reset_epoch(self) -> None:
        if self.controller.refresh_epoch != self._epoch:
            self._epoch = self.controller.refresh_epoch
            self._counts.clear()
            self._on_new_epoch()

    def _on_new_epoch(self) -> None:
        """Subclass hook: refresh-interval budgets reset here."""

    def _on_activate(self, physical: RowAddress, time_ns: float, count: int) -> None:
        if self._reacting:
            return
        self._maybe_reset_epoch()
        total = self._counts.get(physical, 0) + count
        self._counts[physical] = total
        if total >= self.trigger_count:
            self._counts[physical] = 0
            self._reacting = True
            try:
                self._react(physical)
            finally:
                self._reacting = False

    def tick(self) -> None:
        self._maybe_reset_epoch()

    def close(self) -> None:
        """Detach from the controller; the defense stops observing.

        Idempotent.  Without this, a defense outlives its experiment as a
        live activate hook on a shared controller, still counting (and
        reacting to) every later activation.
        """
        self.controller.unregister_activate_hook(self._on_activate)

    def __enter__(self) -> "HookedDefense":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Subclass interface
    # ------------------------------------------------------------------ #

    def _react(self, hot_physical: RowAddress) -> None:
        raise NotImplementedError
