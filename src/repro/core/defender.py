"""DNN-Defender: victim-focused, priority-driven in-DRAM swap defense.

The defender owns a :class:`ProtectionPlan` (target rows = rows holding
profiler-identified vulnerable bits; non-target rows = remaining weight
rows) and runs a swap pass every scheduling period.  Per pass, each bank
refreshes its target rows with pipelined four-step swaps (Fig. 5/6) under a
per-bank budget derived from the paper's timing constraint — swaps beyond
``(T_ACT x T_RH) / T_swap`` per window are deferred round-robin, which is
exactly how an overloaded defender starts leaking flips.

The defender plugs into the attack loop through the ``tick()`` protocol
(:class:`repro.attacks.hammer.TickingDefense`): the hammer driver calls
``tick()`` between activation bursts, and the defender catches up on any
scheduling periods that have elapsed on the controller clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DefenderConfig
from repro.core.pipeline import max_swaps_per_window
from repro.core.swap import SwapEngine
from repro.dram.address import RowAddress
from repro.dram.controller import MemoryController
from repro.mapping.victim import ProtectionPlan
from repro.nn.quant import BitLocation

__all__ = ["DefenderStats", "DNNDefender"]


@dataclass
class DefenderStats:
    """Operational counters of a defender instance."""

    windows_run: int = 0
    swaps_executed: int = 0
    non_targets_refreshed: int = 0
    deferred_swaps: int = 0
    per_window_swaps: list[int] = field(default_factory=list)


@dataclass
class _BankSchedule:
    """Round-robin swap schedule of one bank."""

    # Target rows grouped per sub-array, flattened in scan order.
    targets: list[RowAddress] = field(default_factory=list)
    non_targets_by_subarray: dict[int, list[RowAddress]] = field(
        default_factory=dict
    )
    cursor: int = 0
    nt_cursor: dict[int, int] = field(default_factory=dict)


class DNNDefender:
    """The paper's defense mechanism, operating on a live controller.

    Every swap is pipelined (step 1 of swap *n+1* overlaps step 4 of swap
    *n*, Fig. 6, so a steady-state swap costs ``3 x T_AAP``) and runs step
    4, the opportunistic refresh of a non-target victim row.  ``seed``
    seeds the random-row selector of swap step 1.
    """

    def __init__(
        self,
        controller: MemoryController,
        plan: ProtectionPlan,
        config: DefenderConfig | None = None,
        reserved_rows: int = 2,
        seed: int = 0,
    ):
        self.controller = controller
        self.plan = plan
        self.config = config or DefenderConfig()
        self.engine = SwapEngine(
            controller, reserved_rows=reserved_rows, actor="defender"
        )
        self.rng = np.random.default_rng(seed)
        self.stats = DefenderStats()
        self.period_ns = (
            controller.timing.hammer_window_ns * self.config.period_fraction
        )
        self._next_due = 0.0
        # Algorithm 1's DD_Start / DD_Interrupt control: an interrupted
        # defender stops issuing swaps until resumed.
        self.enabled = True
        self._banks: dict[int, _BankSchedule] = {}
        for row in plan.target_rows:
            schedule = self._banks.setdefault(row.bank, _BankSchedule())
            schedule.targets.append(row)
        for row in plan.non_target_rows:
            schedule = self._banks.setdefault(row.bank, _BankSchedule())
            schedule.non_targets_by_subarray.setdefault(row.subarray, []).append(row)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def secured_bits(self) -> set[BitLocation]:
        """The secured-bit set (a white-box attacker learns this)."""
        return self.plan.secured_bits

    def bank_budget(self) -> int:
        """Swaps one bank may run per pass (paper's per-window constraint,
        scaled to the scheduling period)."""
        per_window = max_swaps_per_window(self.controller.timing)
        budget = int(per_window * self.config.period_fraction)
        return max(budget, 1)

    @property
    def defender_busy_ns(self) -> float:
        return self.controller.actor_stats("defender").total_time_ns

    def latency_per_tref_ms(self) -> float:
        """Average defender busy time per refresh interval (Fig. 8b metric)."""
        elapsed = self.controller.now_ns
        if elapsed <= 0:
            return 0.0
        refresh_intervals = max(elapsed / self.controller.timing.t_ref_ns, 1e-9)
        return self.defender_busy_ns / refresh_intervals / 1e6

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def interrupt(self) -> None:
        """Algorithm 1's DD_Interrupt: suspend protection."""
        self.enabled = False

    def resume(self) -> None:
        """Re-arm protection (DD_Start); overdue periods are not replayed."""
        self.enabled = True
        self._next_due = max(self._next_due, self.controller.now_ns)

    def tick(self) -> None:
        """Catch up on every scheduling period elapsed on the clock."""
        if not self.enabled:
            return
        while self.controller.now_ns >= self._next_due:
            due_at = self._next_due
            self.run_window()
            # Swaps advance the clock; schedule relative to the original due
            # time but never re-run for periods we already covered.
            self._next_due = max(
                due_at + self.period_ns,
                self.controller.now_ns - self.period_ns + 1e-9,
            )

    def run_window(self) -> int:
        """One swap pass over all banks; returns swaps executed."""
        swaps_this_window = 0
        for bank_index in sorted(self._banks):
            swaps_this_window += self._run_bank(self._banks[bank_index])
        self.stats.windows_run += 1
        self.stats.per_window_swaps.append(swaps_this_window)
        return swaps_this_window

    def _run_bank(self, schedule: _BankSchedule) -> int:
        if not schedule.targets:
            return 0
        budget = self.bank_budget()
        n_targets = len(schedule.targets)
        to_run = min(budget, n_targets)
        self.stats.deferred_swaps += max(0, n_targets - to_run)
        executed = 0
        target_set = set(schedule.targets)
        for _ in range(to_run):
            target = schedule.targets[schedule.cursor % n_targets]
            schedule.cursor += 1
            record = self.engine.swap_target(
                target,
                rng=self.rng,
                non_target_logical=self._next_non_target(schedule, target),
                exclude=target_set,
            )
            executed += 1
            self.stats.swaps_executed += 1
            if record.non_target_refreshed is not None:
                self.stats.non_targets_refreshed += 1
        return executed

    def _next_non_target(
        self, schedule: _BankSchedule, target: RowAddress
    ) -> RowAddress | None:
        """Pick the step-4 row: a non-target victim in the target's current
        physical sub-array."""
        physical = self.controller.indirection.physical(target)
        rows = schedule.non_targets_by_subarray.get(physical.subarray, [])
        candidates = [
            row for row in rows
            if self.controller.indirection.physical(row).same_subarray(physical)
        ]
        if not candidates:
            return None
        cursor = schedule.nt_cursor.get(physical.subarray, 0)
        chosen = candidates[cursor % len(candidates)]
        schedule.nt_cursor[physical.subarray] = cursor + 1
        return chosen
