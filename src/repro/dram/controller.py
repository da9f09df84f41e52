"""Memory controller: command issue, timing, refresh, and RowHammer dynamics.

The controller owns simulated time.  Every command advances the clock and is
charged to an *actor* ("attacker", "defender", "system", ...) so benchmarks
can separate defense latency from attack activity — the paper's "latency per
``T_ref``" metric (Fig. 8b) is exactly the defender's busy time inside one
refresh interval.

RowHammer dynamics: each activation of a physical row

1. restores the activated row's own charge (its disturbance resets),
2. adds one disturbance unit to each physically adjacent row, and
3. when a victim's disturbance crosses ``T_RH`` within a refresh interval,
   the flip model decides which of that row's bits flip (threat model of
   Section 3: deterministic flips on both neighbours by default).

Auto-refresh fires every ``T_ref`` and recharges every row, which resets all
disturbance counters — the attacker must reach the threshold *within* one
refresh interval.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.dram.address import RowAddress, RowIndirection
from repro.dram.commands import (
    Command,
    CommandEvent,
    CommandStats,
    command_energy_pj,
    command_latency_ns,
)
from repro.dram.device import DramDevice
from repro.dram.faults import BitFlipEvent
from repro.dram.timing import TimingParams

__all__ = ["MemoryController"]

ActivateHook = Callable[[RowAddress, float, int], None]
CommandHook = Callable[[CommandEvent], None]


class MemoryController:
    """Single-channel memory controller over one :class:`DramDevice`.

    The activation and RowClone hot loops resolve neighbours by row
    arithmetic inside the sub-array (RowHammer coupling never crosses
    one) and memoize validated RowClone pairs.
    """

    def __init__(self, device: DramDevice, timing: TimingParams):
        self.device = device
        self.timing = timing
        self.indirection = RowIndirection(device.mapper)
        self.now_ns: float = 0.0
        self.refresh_epoch: int = 0
        self._next_refresh_ns: float = timing.t_ref_ns
        self.stats = CommandStats()
        self.stats_by_actor: dict[str, CommandStats] = {}
        # Attacker-declared target bits per *physical* victim row; consulted
        # by the deterministic flip model when a threshold crossing occurs.
        self._declared_targets: dict[RowAddress, set[int]] = {}
        self._activate_hooks: list[ActivateHook] = []
        # Command hooks observe *every* issued command (trace recording,
        # timing-rule checking).  Emission sites are gated on the list
        # being non-empty so an unobserved controller pays nothing.
        self._command_hooks: list[CommandHook] = []
        # (src, dst) pairs whose rowclone preconditions already passed —
        # geometry-pure, so the memo is shared across controllers and a
        # repeated clone pair skips re-validation even on a fresh device.
        self._clone_checked = device.mapper.checked_clone_pairs
        # Dirty-row bookkeeping for incremental model<->DRAM sync: every
        # content change to a *logical* row records the running version it
        # happened at, so consumers (WeightLayout) can reload only rows
        # touched since their last sync.
        self.content_version: int = 0
        self._dirty_versions: dict[RowAddress, int] = {}
        # Per-command costs resolved once per controller: `_charge` runs on
        # every command and the latency/energy if-chains dominate it.
        self._latency_ns = {
            cmd: command_latency_ns(cmd, timing) for cmd in Command
        }
        self._energy_pj = {
            cmd: command_energy_pj(cmd, timing) for cmd in Command
        }

    # ------------------------------------------------------------------ #
    # Time and refresh
    # ------------------------------------------------------------------ #

    @property
    def next_refresh_ns(self) -> float:
        return self._next_refresh_ns

    def _charge(self, command: Command, actor: str, repeat: int = 1) -> None:
        # Pre-resolved per-command costs, recorded inline into both the
        # global and per-actor stats: _charge runs on every command.
        elapsed = self._latency_ns[command] * repeat
        energy = self._energy_pj[command] * repeat
        stats = self.stats
        stats.counts[command] = stats.counts.get(command, 0) + repeat
        stats.total_time_ns += elapsed
        stats.total_energy_pj += energy
        actor_stats = self.stats_by_actor.get(actor)
        if actor_stats is None:
            actor_stats = self.stats_by_actor.setdefault(actor, CommandStats())
        actor_stats.counts[command] = (
            actor_stats.counts.get(command, 0) + repeat
        )
        actor_stats.total_time_ns += elapsed
        actor_stats.total_energy_pj += energy
        self.now_ns += elapsed

    def _maybe_refresh(self) -> None:
        while self.now_ns >= self._next_refresh_ns:
            self.refresh_epoch += 1
            self._next_refresh_ns = (
                (self.refresh_epoch + 1) * self.timing.t_ref_ns
            )
            self.device.refresh_all()
            if self._command_hooks:
                # The bulk refresh is pinned to its scheduled boundary,
                # not the (possibly later) clock that crossed it; it
                # charges no bus time, so observers see ``auto=True``.
                self._emit(CommandEvent(
                    time_ns=self.refresh_epoch * self.timing.t_ref_ns,
                    command=Command.REF, auto=True,
                ))

    def advance_time(self, ns: float) -> None:
        """Let idle time pass (crossing refresh boundaries as needed)."""
        if ns < 0:
            raise ValueError(f"cannot advance time by {ns} ns")
        if self._command_hooks and ns > 0:
            self._emit(CommandEvent(
                time_ns=self.now_ns, command=None, duration_ns=ns,
            ))
        self.now_ns += ns
        self._maybe_refresh()

    def ns_until_refresh(self) -> float:
        return max(0.0, self.next_refresh_ns - self.now_ns)

    # ------------------------------------------------------------------ #
    # Dirty-row tracking (incremental model sync)
    # ------------------------------------------------------------------ #

    def _mark_dirty(self, logical: RowAddress) -> None:
        """Record a content change to a logical row (write/flip/copy)."""
        self.content_version += 1
        self._dirty_versions[logical] = self.content_version

    def dirty_rows_since(self, version: int) -> list[RowAddress]:
        """Logical rows whose content changed after ``version``.

        ``version`` is a value previously read from
        :attr:`content_version`; the scan is O(rows ever touched), which
        is bounded by the weight footprint plus collateral rows — orders
        of magnitude below re-reading every row.
        """
        return [
            row for row, v in self._dirty_versions.items() if v > version
        ]

    # ------------------------------------------------------------------ #
    # Adjacency
    # ------------------------------------------------------------------ #

    def _disturb_neighbors(
        self, base: RowAddress, sa, rows: tuple[int, ...], count: int
    ) -> None:
        """Add ``count`` disturbance to physical neighbour rows of ``base``'s
        sub-array and check thresholds.

        RowHammer coupling never crosses a sub-array, so the neighbours of
        any row live in the *same* :class:`Subarray`, and adjacency reduces
        to row arithmetic — no address objects, validation, or lookups on
        the per-burst path.  The victim's :class:`RowAddress` is only
        materialised when its disturbance actually crosses the threshold.
        """
        disturbance = sa.disturbance
        t_rh = self.timing.t_rh
        for row in rows:
            value = disturbance.item(row) + count
            disturbance[row] = value
            if value >= t_rh:
                self._check_threshold(base.with_row(row), sa)

    def _neighbor_rows(self, row: int) -> tuple[int, ...]:
        last = self.device.geometry.rows_per_subarray - 1
        if 0 < row < last:
            return (row - 1, row + 1)
        if row == 0:
            return (1,) if last > 0 else ()
        return (row - 1,)

    # ------------------------------------------------------------------ #
    # Attack-target declarations and hooks
    # ------------------------------------------------------------------ #

    def declare_attack_targets(
        self, victim_physical: RowAddress, bits: Iterable[int]
    ) -> None:
        """Register the bits the attacker intends to flip in a victim row.

        ``bits`` may carry a whole multi-bit flip set at once — the
        batched hammer path (:meth:`repro.attacks.hammer.
        RowHammerAttacker.attempt_flips`) declares every target bit of a
        victim row in one call, so a single threshold crossing resolves
        the full set.
        """
        self.device.mapper.validate(victim_physical)
        self._declared_targets.setdefault(victim_physical, set()).update(
            int(b) for b in bits
        )

    def attack_targets(self, victim_physical: RowAddress) -> frozenset[int]:
        """Currently declared target bits for a physical victim row."""
        return frozenset(self._declared_targets.get(victim_physical, ()))

    def clear_attack_targets(self, victim_physical: RowAddress | None = None) -> None:
        if victim_physical is None:
            self._declared_targets.clear()
        else:
            self._declared_targets.pop(victim_physical, None)

    def register_activate_hook(self, hook: ActivateHook) -> None:
        """Observe activations (used by counter-based trackers/defenses)."""
        self._activate_hooks.append(hook)

    def unregister_activate_hook(self, hook: ActivateHook) -> None:
        """Remove a previously registered activation hook (no-op if absent)."""
        if hook in self._activate_hooks:
            self._activate_hooks.remove(hook)

    def register_command_hook(self, hook: CommandHook) -> None:
        """Observe every issued command (trace recording, timing checks).

        Hooks receive a :class:`CommandEvent` per command at its *issue*
        time (pre-charge clock), in issue order — including the
        controller's own boundary refreshes and idle ``advance_time``
        gaps, which is what makes a recorded stream replayable.
        """
        self._command_hooks.append(hook)

    def unregister_command_hook(self, hook: CommandHook) -> None:
        """Remove a previously registered command hook (no-op if absent)."""
        if hook in self._command_hooks:
            self._command_hooks.remove(hook)

    def _emit(self, event: CommandEvent) -> None:
        for hook in self._command_hooks:
            hook(event)

    # ------------------------------------------------------------------ #
    # Commands
    # ------------------------------------------------------------------ #

    def activate(
        self, physical: RowAddress, actor: str = "system", count: int = 1,
        hammer: bool = False,
    ) -> None:
        """Issue ``count`` ACT(+PRE) pairs to a physical row.

        ``hammer=True`` charges the calibrated effective activation period
        (``t_act_eff_ns``) used by the security model; plain accesses are
        charged ``t_rc_ns``.  Bursts are split at refresh boundaries so a
        burst cannot carry disturbance across a refresh.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.device.mapper.validate(physical)
        period = self.timing.t_act_eff_ns if hammer else self.timing.t_rc_ns
        remaining = count
        while remaining > 0:
            fit = int(self.ns_until_refresh() // period)
            chunk = min(remaining, max(fit, 1))
            self._activate_chunk(physical, actor, chunk, hammer)
            remaining -= chunk
            self._maybe_refresh()

    def _activate_chunk(
        self, physical: RowAddress, actor: str, count: int, hammer: bool
    ) -> None:
        # activate() already validated the address; resolve the sub-array
        # without re-validating.
        sa = self.device.banks[physical.bank].subarrays[physical.subarray]
        # Activation restores the activated row's own charge.
        sa.reset_disturbance(physical.row)
        self.device.bank(physical.bank).activate(physical.subarray, physical.row)
        start_ns = self.now_ns
        if hammer:
            # Hammering is ACT at the effective period; we account it as ACTs.
            self.stats.record(Command.ACT, self.timing, 0)  # count below
            self._charge_hammer(actor, count)
        else:
            self._charge(Command.ACT, actor, count)
        if self._command_hooks:
            # Emitted before the activate hooks: a hook-driven defense
            # issues its own commands from inside the hook, and the
            # triggering ACT must precede them in any recorded stream.
            self._emit(CommandEvent(
                time_ns=start_ns, command=Command.ACT, actor=actor,
                bank=physical.bank, subarray=physical.subarray,
                row=physical.row, count=count, hammer=hammer,
            ))
        for hook in self._activate_hooks:
            hook(physical, self.now_ns, count)
        # One batched disturbance update per neighbour for the whole chunk.
        self._disturb_neighbors(
            physical, sa, self._neighbor_rows(physical.row), count
        )

    def _charge_hammer(self, actor: str, count: int) -> None:
        self.stats.counts[Command.ACT] = self.stats.counts.get(Command.ACT, 0) + count
        actor_stats = self.stats_by_actor.setdefault(actor, CommandStats())
        actor_stats.counts[Command.ACT] = (
            actor_stats.counts.get(Command.ACT, 0) + count
        )
        elapsed = self.timing.t_act_eff_ns * count
        energy = self.timing.e_act_pj * count
        self.stats.total_time_ns += elapsed
        self.stats.total_energy_pj += energy
        actor_stats.total_time_ns += elapsed
        actor_stats.total_energy_pj += energy
        self.now_ns += elapsed

    def _check_threshold(self, victim: RowAddress, sa) -> None:
        if sa.disturbance[victim.row] < self.timing.t_rh:
            return
        if sa.flipped_this_window[victim.row]:
            return
        declared = self._declared_targets.get(victim, set())
        row_data = sa.rows[victim.row]
        flips = self.device.flip_model.flips_for(victim, declared, row_data)
        if not flips:
            # Nothing flippable crossed; leave the window open so bits
            # declared later in the same window can still flip.
            return
        sa.flipped_this_window[victim.row] = True
        self._mark_dirty(self.indirection.logical(victim))
        for bit, old, new in sa.flip_bits(victim.row, flips):
            self.device.fault_log.record(
                BitFlipEvent(self.now_ns, victim, bit, old, new)
            )

    def precharge(self, bank: int, actor: str = "system") -> None:
        self.device.bank(bank).precharge()
        start_ns = self.now_ns
        self._charge(Command.PRE, actor)
        if self._command_hooks:
            self._emit(CommandEvent(
                time_ns=start_ns, command=Command.PRE, actor=actor, bank=bank,
            ))

    def rowclone(
        self, src: RowAddress, dst: RowAddress, actor: str = "system"
    ) -> None:
        """RowClone FPM copy: both rows must share a sub-array.

        The AAP activates source then destination back-to-back; both end up
        fully charged, and both activations disturb their physical
        neighbours (a defense's own copies can hammer, and the model keeps
        that honest).
        """
        pair = (src, dst)
        if pair not in self._clone_checked:
            self.device.mapper.validate(src)
            self.device.mapper.validate(dst)
            if not src.same_subarray(dst):
                raise ValueError(
                    f"RowClone FPM requires same sub-array: {src} vs {dst}; "
                    "use rowclone_psm for inter-sub-array copies"
                )
            if src == dst:
                raise ValueError("source and destination rows are identical")
            self._clone_checked.add(pair)
        src_row, dst_row = src.row, dst.row
        sa = self.device.banks[src.bank].subarrays[src.subarray]
        sa.copy_row(src_row, dst_row)
        self._mark_dirty(self.indirection.logical(dst))
        start_ns = self.now_ns
        self._charge(Command.AAP, actor)
        if self._command_hooks:
            self._emit(CommandEvent(
                time_ns=start_ns, command=Command.AAP, actor=actor,
                bank=src.bank, subarray=src.subarray, row=src_row,
                dst_subarray=dst.subarray, dst_row=dst_row,
            ))
        # Both activations disturb their same-sub-array neighbours;
        # src/dst themselves end the AAP fully charged.  A row adjacent to
        # both (|src-dst| == 2) is disturbed twice.
        last = self.device.geometry.rows_per_subarray - 1
        rows = []
        for base in (src_row, dst_row):
            row = base - 1
            if row >= 0 and row != src_row and row != dst_row:
                rows.append(row)
            row = base + 1
            if row <= last and row != src_row and row != dst_row:
                rows.append(row)
        self._disturb_neighbors(src, sa, rows, 1)
        if self.now_ns >= self._next_refresh_ns:
            self._maybe_refresh()

    def rowclone_psm(
        self, src: RowAddress, dst: RowAddress, actor: str = "system"
    ) -> None:
        """Pipelined-serial-mode copy across sub-arrays (slower fallback)."""
        data = self.device.read_row(src)
        self.device.subarray_at(src).reset_disturbance(src.row)
        self.device.write_row(dst, data)
        self._mark_dirty(self.indirection.logical(dst))
        # PSM streams the row through the bank I/O: one ACT per row plus a
        # transfer charged as a read+write.
        start_ns = self.now_ns
        self._charge(Command.ACT, actor, 2)
        rd_ns = self.now_ns
        self._charge(Command.RD, actor)
        wr_ns = self.now_ns
        self._charge(Command.WR, actor)
        if self._command_hooks:
            # The ACT pair is emitted as one src-bank burst, mirroring how
            # it is charged; the dst activation rides in the count.
            self._emit(CommandEvent(
                time_ns=start_ns, command=Command.ACT, actor=actor,
                bank=src.bank, subarray=src.subarray, row=src.row, count=2,
            ))
            self._emit(CommandEvent(
                time_ns=rd_ns, command=Command.RD, actor=actor,
                bank=src.bank, subarray=src.subarray, row=src.row,
            ))
            self._emit(CommandEvent(
                time_ns=wr_ns, command=Command.WR, actor=actor,
                bank=dst.bank, subarray=dst.subarray, row=dst.row,
            ))
        self._maybe_refresh()

    def generate_random_row(self, actor: str = "defender") -> None:
        """Charge one RNG slot (defender step 1 needs one random number)."""
        start_ns = self.now_ns
        self._charge(Command.RNG, actor)
        if self._command_hooks:
            self._emit(CommandEvent(
                time_ns=start_ns, command=Command.RNG, actor=actor,
            ))

    def charge_command(
        self,
        command: Command,
        actor: str = "system",
        bank: int | None = None,
        subarray: int | None = None,
        row: int | None = None,
        count: int = 1,
    ) -> None:
        """Charge a raw command with no device side effects.

        The trace-replay path for RD/WR/RNG/REF records (and the synthetic
        streams the timing tests build): the command is charged and emitted
        exactly as its originating high-level call would, but no row data
        moves and no disturbance accrues.  Device-mutating commands must go
        through :meth:`activate`/:meth:`rowclone`/:meth:`precharge`, which
        reproduce their side effects.  Like the high-level RD/WR paths,
        this does not poll the refresh boundary; the next activation or
        ``advance_time`` catches up.
        """
        if command in (Command.ACT, Command.AAP, Command.PRE):
            raise ValueError(
                f"{command.name} mutates device state; use "
                "activate/rowclone/precharge"
            )
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        start_ns = self.now_ns
        self._charge(command, actor, count)
        if self._command_hooks:
            self._emit(CommandEvent(
                time_ns=start_ns, command=command, actor=actor, bank=bank,
                subarray=subarray, row=row, count=count,
            ))

    # ------------------------------------------------------------------ #
    # Logical data access (through the indirection table)
    # ------------------------------------------------------------------ #

    def read_logical(self, logical: RowAddress, actor: str = "system") -> np.ndarray:
        physical = self.indirection.physical(logical)
        self.activate(physical, actor=actor)
        data = self.device.read_row(physical)
        start_ns = self.now_ns
        self._charge(Command.RD, actor)
        if self._command_hooks:
            self._emit(CommandEvent(
                time_ns=start_ns, command=Command.RD, actor=actor,
                bank=physical.bank, subarray=physical.subarray,
                row=physical.row,
            ))
        return data

    def write_logical(
        self, logical: RowAddress, data: np.ndarray, actor: str = "system"
    ) -> None:
        physical = self.indirection.physical(logical)
        self.activate(physical, actor=actor)
        self.device.write_row(physical, data)
        self._mark_dirty(logical)
        start_ns = self.now_ns
        self._charge(Command.WR, actor)
        if self._command_hooks:
            self._emit(CommandEvent(
                time_ns=start_ns, command=Command.WR, actor=actor,
                bank=physical.bank, subarray=physical.subarray,
                row=physical.row,
            ))

    def peek_logical(self, logical: RowAddress) -> np.ndarray:
        """Read row contents without advancing time (test/instrumentation)."""
        return self.device.read_row(self.indirection.physical(logical))

    def poke_logical(self, logical: RowAddress, data: np.ndarray) -> None:
        """Write row contents without advancing time (test/instrumentation)."""
        self.device.write_row(self.indirection.physical(logical), data)
        self._mark_dirty(logical)

    def actor_stats(self, actor: str) -> CommandStats:
        return self.stats_by_actor.setdefault(actor, CommandStats())
