"""The four-step in-DRAM swap (Fig. 5 / Algorithm 1).

One swap protects one *target* row:

1. a random data row of the same sub-array is RowCloned into the sub-array's
   reserved row;
2. the target row is RowCloned onto the random row's position — this
   activation refreshes the target's cells and "resets the attacker" (the
   data moved, so accumulated disturbance is against stale cells);
3. the reserved copy (the random row's data) is RowCloned into the target's
   original position, completing the exchange;
4. a *non-target* victim row is RowCloned into the reserved row.  The copy
   activates (hence refreshes) the non-target row, and its image in the
   reserved row doubles as the next swap's step-1 result — that overlap is
   the Fig. 6 pipelining that makes the steady-state cost ``3 x T_AAP``.

All copies are same-sub-array RowClone FPM operations; the logical-to-
physical indirection table is updated so software (and the white-box
attacker) can follow the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.address import RowAddress
from repro.dram.controller import MemoryController

__all__ = ["SwapRecord", "SwapEngine"]


@dataclass
class SwapRecord:
    """Bookkeeping for one executed four-step swap."""

    target_logical: RowAddress
    random_logical: RowAddress
    aaps_issued: int
    reused_reserved: bool          # pipelined: step 1 came for free
    non_target_refreshed: RowAddress | None = None


@dataclass
class _SubarrayState:
    """Per-sub-array reserved-row bookkeeping."""

    reserved_physical: RowAddress
    # Logical row whose data currently sits in the reserved row (valid for
    # reuse as the next swap's random row), or None when stale.
    staged_logical: RowAddress | None = None
    records: list[SwapRecord] = field(default_factory=list)


class SwapEngine:
    """Executes DNN-Defender swaps against a memory controller."""

    def __init__(
        self,
        controller: MemoryController,
        reserved_rows: int = 2,
        actor: str = "defender",
    ):
        if reserved_rows < 1:
            raise ValueError("need at least one reserved row per sub-array")
        self.controller = controller
        self.reserved_rows = reserved_rows
        self.actor = actor
        self._states: dict[tuple[int, int], _SubarrayState] = {}
        # Data-region row addresses per sub-array, built once per
        # (geometry, reserved_rows) and shared across engines: step 1
        # picks from the same fixed pool every swap, so rebuilding the
        # address objects per call (or per engine) was pure overhead.
        key = (controller.device.geometry, reserved_rows)
        pools = SwapEngine._shared_pools.get(key)
        if pools is None:
            pools = SwapEngine._shared_pools[key] = {}
        self._row_pools: dict[tuple[int, int], list[RowAddress]] = pools
        self.total_aaps = 0
        self.total_swaps = 0
        self.rng_draws = 0

    _shared_pools: dict[tuple, dict[tuple[int, int], list[RowAddress]]] = {}

    # ------------------------------------------------------------------ #
    # Sub-array state
    # ------------------------------------------------------------------ #

    def _state(self, bank: int, subarray: int) -> _SubarrayState:
        key = (bank, subarray)
        state = self._states.get(key)
        if state is None:
            last = self.controller.device.geometry.rows_per_subarray - 1
            state = _SubarrayState(
                reserved_physical=RowAddress(bank, subarray, last)
            )
            self._states[key] = state
        return state

    def data_region_end(self, subarray_rows: int) -> int:
        return subarray_rows - self.reserved_rows

    def _row_pool(self, bank: int, subarray: int) -> list[RowAddress]:
        key = (bank, subarray)
        pool = self._row_pools.get(key)
        if pool is None:
            geometry = self.controller.device.geometry
            end = self.data_region_end(geometry.rows_per_subarray)
            pool = [RowAddress(bank, subarray, row) for row in range(end)]
            self._row_pools[key] = pool
        return pool

    def _pick_random_row(
        self,
        target_physical: RowAddress,
        exclude: set[RowAddress],
        rng: np.random.Generator,
    ) -> RowAddress:
        """Random same-sub-array data row for swap step 1."""
        pool = self._row_pool(target_physical.bank, target_physical.subarray)
        candidates = [
            addr
            for addr in pool
            if addr not in exclude and addr.row != target_physical.row
        ]
        if not candidates:
            raise RuntimeError(
                f"no random-row candidate in sub-array "
                f"({target_physical.bank}, {target_physical.subarray})"
            )
        self.rng_draws += 1
        self.controller.generate_random_row(actor=self.actor)
        return candidates[int(rng.integers(0, len(candidates)))]

    def _clone(self, src: RowAddress, dst: RowAddress) -> None:
        self.controller.rowclone(src, dst, actor=self.actor)
        self.total_aaps += 1

    # ------------------------------------------------------------------ #
    # The four-step swap
    # ------------------------------------------------------------------ #

    def swap_target(
        self,
        target_logical: RowAddress,
        rng: np.random.Generator,
        non_target_logical: RowAddress | None = None,
        exclude: set[RowAddress] | None = None,
        pipelined: bool = True,
    ) -> SwapRecord:
        """Protect one target row (Fig. 5 steps 1-4).

        Args:
            target_logical: the row to protect (logical address).
            rng: the defender's random stream for step 1.
            non_target_logical: victim row refreshed in step 4 (same
                sub-array); skipped if None.
            exclude: logical rows that must not be chosen as the random row
                (e.g. other target rows awaiting their own swap).
            pipelined: reuse the reserved row's staged data from the
                previous swap's step 4 as this swap's random row (Fig. 6).
        """
        ind = self.controller.indirection
        target_physical = ind.physical(target_logical)
        state = self._state(target_physical.bank, target_physical.subarray)
        exclude_physical = (
            ind.physical_set(exclude) if exclude else set()
        )
        exclude_physical.add(state.reserved_physical)

        reused = False
        if (
            pipelined
            and state.staged_logical is not None
            and ind.physical(state.staged_logical).same_subarray(target_physical)
            and state.staged_logical != target_logical
            and ind.physical(state.staged_logical) not in exclude_physical
        ):
            # Step 1 for free: the reserved row already holds the staged
            # (previous step-4) row's data.
            random_logical = state.staged_logical
            reused = True
        else:
            random_physical = self._pick_random_row(
                target_physical, exclude_physical, rng
            )
            random_logical = ind.logical(random_physical)
            self._clone(random_physical, state.reserved_physical)  # step 1

        random_physical = ind.physical(random_logical)
        # Step 2: target data -> random row's position.
        self._clone(target_physical, random_physical)
        # Step 3: reserved (random row's data) -> target's old position.
        self._clone(state.reserved_physical, target_physical)
        ind.swap(target_logical, random_logical)
        state.staged_logical = None

        refreshed: RowAddress | None = None
        if non_target_logical is not None:
            nt_physical = ind.physical(non_target_logical)
            if not nt_physical.same_subarray(target_physical):
                raise ValueError(
                    "step-4 non-target row must live in the target's "
                    f"sub-array; got {nt_physical} vs {target_physical}"
                )
            # Step 4: non-target -> reserved (refreshes the non-target and
            # stages it as the next swap's random row).
            self._clone(nt_physical, state.reserved_physical)
            state.staged_logical = non_target_logical
            refreshed = non_target_logical

        record = SwapRecord(
            target_logical=target_logical,
            random_logical=random_logical,
            aaps_issued=(0 if reused else 1) + 2 + (1 if refreshed else 0),
            reused_reserved=reused,
            non_target_refreshed=refreshed,
        )
        state.records.append(record)
        self.total_swaps += 1
        return record

    def records_for(self, bank: int, subarray: int) -> list[SwapRecord]:
        return list(self._state(bank, subarray).records)
