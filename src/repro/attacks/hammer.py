"""RowHammer attack driver: realises BFA flips as ACT streams.

This is the reproduction's stand-in for the DeepHammer-style end-to-end
exploit: given a weight-bit target, the driver consults the mapping file for
the logical row, follows the controller's indirection to the *current
physical* row (the white-box attacker observes defense swaps and re-targets
— Section 4: "the malicious process knows the new location"), picks the
adjacent aggressor row, and hammers it to the RowHammer threshold.

Defense mechanisms run concurrently through a ``tick()`` protocol: the
driver splits each hammer window into chunks and lets the defense execute
its due swap operations between chunks, exactly the interleaving the
paper's timing analysis assumes (swaps must complete within
``T_RH x T_ACT``).

Every hammer burst goes through ``MemoryController.activate`` and is
therefore visible to command observers: a :class:`repro.dram.CommandTrace`
records the bursts for replay and a :class:`repro.dram.TimingChecker`
validates them against the DDR timing rules (a hammer ACT stream runs at
``T_ACT`` = 118 ns per activation, well above every rule window, so a
correctly charged attack is timing-legal by construction).

Multi-bit attacks (T-BFA's N-to-1 flip sets, the limited-budget attacks of
Bai et al.) often target several bits that share a victim row.  The batched
:meth:`RowHammerAttacker.attempt_flips` path groups targets by victim
logical row, declares all of a row's target bits at once, and shares one
hammer window — and one post-window model sync — across them, instead of
paying a full ``T_RH`` activation window (plus sync) per bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

from repro.dram.address import RowAddress
from repro.dram.controller import MemoryController
from repro.mapping.layout import WeightLayout
from repro.nn.quant import BitLocation

__all__ = ["TickingDefense", "RowHammerAttacker", "HammerExecutor"]


class TickingDefense(Protocol):
    """Defense that performs its due maintenance when ticked."""

    def tick(self) -> None:
        ...


class _NullDefense:
    def tick(self) -> None:
        return None


class RowHammerAttacker:
    """Issues hammer sessions against weight bits through the controller."""

    def __init__(
        self,
        controller: MemoryController,
        layout: WeightLayout,
        defense: TickingDefense | None = None,
        chunks_per_window: int = 4,
        track_swaps: bool = True,
        sided: str = "single",
    ):
        if chunks_per_window < 1:
            raise ValueError("chunks_per_window must be >= 1")
        if sided not in ("single", "double"):
            raise ValueError(f"sided must be 'single' or 'double', got {sided!r}")
        self.controller = controller
        self.layout = layout
        self.defense = defense or _NullDefense()
        self.chunks_per_window = chunks_per_window
        # White-box attackers observe defense swaps and re-target the moved
        # victim (Section 4); a non-tracking attacker keeps hammering the
        # address it resolved at session start — RRS/SRS rely on that.
        self.track_swaps = track_swaps
        # Single-sided hammering (Fig. 3) uses one adjacent aggressor;
        # double-sided (DeepHammer-style) sandwiches the victim between
        # both neighbours, reaching the threshold with the same total
        # activation count split across two rows.
        self.sided = sided
        self.sessions = 0
        self.activations_issued = 0

    @property
    def busy_time_ns(self) -> float:
        """Bus time the controller has charged to this attacker so far."""
        return self.controller.actor_stats("attacker").total_time_ns

    def _aggressor_for(self, victim_physical: RowAddress) -> RowAddress:
        """Adjacent row used as the single-sided aggressor."""
        neighbors = self.controller.device.mapper.neighbors(victim_physical)
        if not neighbors:
            raise ValueError(f"victim {victim_physical} has no neighbours")
        # Prefer the higher neighbour, matching Fig. 3's a+1 choice.
        return neighbors[-1]

    def _aggressors_for(self, victim_physical: RowAddress) -> list[RowAddress]:
        """Aggressor rows for the configured hammering mode."""
        if self.sided == "single":
            return [self._aggressor_for(victim_physical)]
        neighbors = self.controller.device.mapper.neighbors(victim_physical)
        if not neighbors:
            raise ValueError(f"victim {victim_physical} has no neighbours")
        return neighbors

    def _burst_counts(self) -> list[int]:
        """Per-chunk activation counts of one ``T_RH`` hammer window.

        ``T_RH`` activations split over ``chunks_per_window`` bursts with
        the remainder on the last.  When ``T_RH < chunks_per_window`` the
        even split floors to zero: a zero-activation burst would still
        tick the defense and re-declare/charge attack targets, so empty
        bursts are dropped (regression-tested in
        ``tests/attacks/test_hammer_batched.py``).
        """
        t_rh = self.controller.timing.t_rh
        base = t_rh // self.chunks_per_window
        counts = [base] * self.chunks_per_window
        counts[-1] += t_rh - base * self.chunks_per_window
        return [count for count in counts if count > 0]

    def _hammer_row(
        self,
        logical_row: RowAddress,
        target_bits: list[int],
        max_windows: int,
        flipped_check,
    ) -> bool:
        """Hammer one victim row for up to ``max_windows`` windows.

        All of the row's target bits are declared together; after each
        window the model is synced from DRAM *once* and ``flipped_check``
        decides whether every requested flip materialised (stopping
        early).  Returns the final check outcome.
        """
        counts = self._burst_counts()
        declared: RowAddress | None = None
        done = False
        # Non-tracking attackers resolve the victim and the aggressor
        # *address* once; their activations then follow whatever physical
        # row the address maps to after defense remapping.
        initial_physical = self.controller.indirection.physical(logical_row)
        aggressor_logical = self.controller.indirection.logical(
            self._aggressor_for(initial_physical)
        )
        # Re-resolving the victim and aggressors is only necessary after a
        # defense remap; the indirection version check makes repeated
        # bursts against an unmoved row O(1) instead of re-deriving the
        # same addresses every chunk.
        resolved_version: int | None = None
        physical = initial_physical
        aggressors: list[RowAddress] = []
        for _ in range(max_windows):
            for count in counts:
                # Let the defense run whatever is due before this burst.
                self.defense.tick()
                version = self.controller.indirection.version
                if resolved_version != version:
                    if self.track_swaps:
                        # Re-resolve: the defense may have moved the victim.
                        physical = self.controller.indirection.physical(
                            logical_row
                        )
                        aggressors = self._aggressors_for(physical)
                    else:
                        physical = initial_physical
                        aggressors = [
                            self.controller.indirection.physical(
                                aggressor_logical
                            )
                        ]
                    resolved_version = version
                if declared is not None and declared != physical:
                    self.controller.clear_attack_targets(declared)
                if declared != physical:
                    self.controller.declare_attack_targets(
                        physical, target_bits
                    )
                    declared = physical
                share = count // len(aggressors)
                shares = [share] * len(aggressors)
                shares[0] += count - share * len(aggressors)
                for aggressor, n_acts in zip(aggressors, shares):
                    if n_acts == 0:
                        continue  # an empty share issues no commands
                    self.controller.activate(
                        aggressor, actor="attacker", count=n_acts, hammer=True
                    )
                    self.activations_issued += n_acts
            self.sessions += 1
            self.layout.sync_model_from_dram()
            done = flipped_check()
            if done:
                break
        if declared is not None:
            self.controller.clear_attack_targets(declared)
        return done

    def attempt_flip(self, location: BitLocation, max_windows: int = 3) -> bool:
        """Hammer one weight bit for up to ``max_windows`` full windows.

        A row the defense refreshes *deterministically* (a secured target
        row) never flips no matter how many windows the attacker spends; an
        unprotected row may survive one window by luck (e.g. it happened to
        be the step-4 non-target of a nearby swap) but falls within a few.
        Returns True when the flip materialised in DRAM; the model copy is
        re-synchronised either way, so the caller observes ground truth.
        """
        return self.attempt_flips([location], max_windows=max_windows)[0]

    def attempt_flips(
        self, locations: Sequence[BitLocation], max_windows: int = 3
    ) -> list[bool]:
        """Batched multi-bit hammer: one window shared per victim row.

        ``locations`` are grouped by victim logical row (first-seen row
        order, preserving per-row target order); each row's target bits
        are declared together and hammered in one shared window loop, and
        the post-window model sync runs once per row per window instead
        of once per bit.  A row's loop stops as soon as *all* of its
        requested flips materialised.  Returns per-location success flags
        aligned with the input order.

        For a single location this is exactly :meth:`attempt_flip`; for
        ``k`` bits on one unprotected row it issues one ``T_RH`` window
        where the sequential path issues ``k``.
        """
        if max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        located = self.layout.locate_bits(locations)
        groups: dict[RowAddress, list[int]] = {}
        for index, (logical_row, _) in enumerate(located):
            groups.setdefault(logical_row, []).append(index)
        results = [False] * len(locations)
        qmodel = self.layout.qmodel
        for logical_row, indices in groups.items():
            target_bits = [located[i][1] for i in indices]
            before = {i: qmodel.bit_value(locations[i]) for i in indices}

            def check(indices=indices, before=before) -> bool:
                done = True
                for i in indices:
                    results[i] = qmodel.bit_value(locations[i]) != before[i]
                    done = done and results[i]
                return done

            self._hammer_row(logical_row, target_bits, max_windows, check)
        return results


class HammerExecutor:
    """Adapts :class:`RowHammerAttacker` to the attack executor protocol."""

    def __init__(self, attacker: RowHammerAttacker):
        self.attacker = attacker
        self.flips_performed = 0
        self.blocked = 0

    def execute(self, location: BitLocation) -> bool:
        succeeded = self.attacker.attempt_flip(location)
        if succeeded:
            self.flips_performed += 1
        else:
            self.blocked += 1
        return succeeded
