"""Placement of quantized DNN weights into DRAM rows.

The threat model (Section 3, Fig. 4) gives the attacker a *mapping file*:
for every weight bit, the DRAM row and bit position that stores it.  This
module builds that mapping.  Placement follows the paper's assumption 2:
weight rows are neither concentrated in a couple of sub-arrays nor perfectly
evenly spread — a seeded scatter across all (bank, sub-array) pairs.

The same object serves both sides:

* the **attacker** resolves a :class:`BitLocation` to a logical row + bit,
  then follows the controller's indirection to the current physical row;
* the **runtime** syncs model weights from DRAM after an attack window, so
  any materialised flips show up in inference.

The top ``reserved_rows`` rows of every sub-array are excluded from
placement: they form the defender's reserved region (Fig. 5).  Rows are
interleaved with non-weight filler rows when ``spacing > 1`` so aggressor
rows usually hold unrelated data, as in a real co-located deployment.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.dram.address import RowAddress
from repro.dram.controller import MemoryController
from repro.nn.quant import BitLocation, QuantizedModel

__all__ = ["RowSlot", "WeightLayout", "place_model"]


@dataclass(frozen=True)
class RowSlot:
    """One DRAM row's worth of one layer's packed weight bytes."""

    layer: int
    byte_offset: int   # offset of this row's first byte in the layer's bytes
    length: int        # number of weight bytes stored in this row
    logical_row: RowAddress


class WeightLayout:
    """Bidirectional weight-bit <-> DRAM-row mapping (the "mapping file")."""

    def __init__(
        self,
        qmodel: QuantizedModel,
        controller: MemoryController,
        reserved_rows: int = 2,
        spacing: int = 2,
        seed: int = 0,
    ):
        if reserved_rows < 1:
            raise ValueError("at least one reserved row per sub-array is needed")
        if spacing < 1:
            raise ValueError(f"spacing must be >= 1, got {spacing}")
        self.qmodel = qmodel
        self.controller = controller
        self.reserved_rows = reserved_rows
        self.spacing = spacing
        geometry = controller.device.geometry
        self.row_bytes = geometry.row_bytes
        self.slots: list[RowSlot] = []
        self._slot_by_row: dict[RowAddress, RowSlot] = {}
        self._rows_by_layer: dict[int, list[RowSlot]] = {}
        self._place(np.random.default_rng(seed))
        # Placement wrote every weight row, so model == DRAM right now;
        # incremental sync only needs rows dirtied after this point.
        self._synced_version = controller.content_version

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #

    def _candidate_rows(self, rng: np.random.Generator) -> list[RowAddress]:
        """Data rows available for weights, scattered over sub-arrays.

        Within each sub-array the data region is rows
        ``[1, rows_per_subarray - reserved_rows - 1)`` (row 0 and the last
        data row are kept as guard/filler so every weight row has in-sub-array
        neighbours), sampled every ``spacing`` rows.  Sub-array order is
        shuffled so consecutive layer rows land in different sub-arrays.
        """
        geometry = self.controller.device.geometry
        data_end = geometry.rows_per_subarray - self.reserved_rows
        per_subarray: list[list[RowAddress]] = []
        for bank in range(geometry.banks):
            for subarray in range(geometry.subarrays_per_bank):
                start = 1 + int(rng.integers(0, self.spacing))
                rows = [
                    RowAddress(bank, subarray, row)
                    for row in range(start, data_end - 1, self.spacing)
                ]
                per_subarray.append(rows)
        rng.shuffle(per_subarray)
        # Round-robin across sub-arrays: "most sub-arrays store several data
        # rows; some may store multiple or none" (threat model item 2).
        result: list[RowAddress] = []
        cursor = 0
        while any(per_subarray):
            block = per_subarray[cursor % len(per_subarray)]
            if block:
                result.append(block.pop(0))
            cursor += 1
            per_subarray = [b for b in per_subarray if b]
        return result

    def _place(self, rng: np.random.Generator) -> None:
        candidates = self._candidate_rows(rng)
        needed = sum(
            -(-layer.num_weights // self.row_bytes)   # ceil division
            for layer in self.qmodel.layers
        )
        if needed > len(candidates):
            raise ValueError(
                f"model needs {needed} rows but only {len(candidates)} data "
                "rows are available; use a larger geometry, smaller model, "
                "or smaller spacing"
            )
        cursor = 0
        for layer_index, layer in enumerate(self.qmodel.layers):
            packed = layer.packed_bytes()
            self._rows_by_layer[layer_index] = []
            for offset in range(0, packed.size, self.row_bytes):
                chunk = packed[offset:offset + self.row_bytes]
                logical = candidates[cursor]
                cursor += 1
                row_data = np.zeros(self.row_bytes, dtype=np.uint8)
                row_data[:chunk.size] = chunk
                self.controller.poke_logical(logical, row_data)
                slot = RowSlot(layer_index, offset, int(chunk.size), logical)
                self.slots.append(slot)
                self._slot_by_row[logical] = slot
                self._rows_by_layer[layer_index].append(slot)

    # ------------------------------------------------------------------ #
    # Mapping-file queries
    # ------------------------------------------------------------------ #

    @property
    def num_rows(self) -> int:
        return len(self.slots)

    def weight_rows(self) -> list[RowAddress]:
        return [slot.logical_row for slot in self.slots]

    def locate_bit(self, location: BitLocation) -> tuple[RowAddress, int]:
        """Map a weight bit to (logical row, bit index within the row)."""
        layer = self.qmodel.layer(location.layer)
        if not 0 <= location.index < layer.num_weights:
            raise ValueError(
                f"weight index {location.index} out of range for layer "
                f"{location.layer}"
            )
        if not 0 <= location.bit <= 7:
            raise ValueError(f"bit must be in [0, 7], got {location.bit}")
        slots = self._rows_by_layer[location.layer]
        slot = slots[location.index // self.row_bytes]
        byte_in_row = location.index - slot.byte_offset
        return slot.logical_row, byte_in_row * 8 + location.bit

    def locate_bits(
        self, locations: Sequence[BitLocation]
    ) -> list[tuple[RowAddress, int]]:
        """Map many weight bits to (logical row, bit-in-row) pairs.

        The batched counterpart of :meth:`locate_bit`, used by the
        multi-bit hammer path (:meth:`repro.attacks.hammer.
        RowHammerAttacker.attempt_flips`) to group targets by victim row;
        validation matches the scalar method exactly.
        """
        return [self.locate_bit(location) for location in locations]

    def slot_for_row(self, logical_row: RowAddress) -> RowSlot | None:
        return self._slot_by_row.get(logical_row)

    def bits_in_row(self, logical_row: RowAddress) -> list[BitLocation]:
        """All weight-bit locations stored in one logical row."""
        slot = self._slot_by_row.get(logical_row)
        if slot is None:
            return []
        return [
            BitLocation(slot.layer, slot.byte_offset + byte, bit)
            for byte in range(slot.length)
            for bit in range(8)
        ]

    def row_for_bits(self, locations: list[BitLocation]) -> set[RowAddress]:
        """Logical rows covering a set of weight bits (deduplicated)."""
        return {self.locate_bit(loc)[0] for loc in locations}

    # ------------------------------------------------------------------ #
    # Model <-> DRAM synchronisation
    # ------------------------------------------------------------------ #

    def sync_model_from_dram(self, full: bool = False) -> None:
        """Load DRAM weight-row contents into the model.

        By default this is *incremental*: only logical rows whose DRAM
        content changed since the last sync (RowHammer flips, defender
        copies, explicit writes — see
        :meth:`repro.dram.controller.MemoryController.dirty_rows_since`)
        are re-read, and each reloads just its byte slice of its layer.

        ``full=True`` re-reads every weight row.  The two are equivalent
        as long as model weights are only mutated through DRAM-consistent
        paths between syncs (the deployment contract); callers that
        mutated the model directly must request ``full``.
        """
        if full:
            self._sync_model_full()
        else:
            for logical in self.controller.dirty_rows_since(
                self._synced_version
            ):
                slot = self._slot_by_row.get(logical)
                if slot is None:
                    continue  # collateral damage outside the weight rows
                row_data = self.controller.peek_logical(logical)
                self.qmodel.layer(slot.layer).load_packed_slice(
                    slot.byte_offset, row_data[:slot.length]
                )
        self._synced_version = self.controller.content_version

    def _sync_model_full(self) -> None:
        """Re-read every weight row and load the bytes into the model."""
        for layer_index, layer in enumerate(self.qmodel.layers):
            packed = np.empty(layer.num_weights, dtype=np.uint8)
            for slot in self._rows_by_layer[layer_index]:
                row_data = self.controller.peek_logical(slot.logical_row)
                packed[slot.byte_offset:slot.byte_offset + slot.length] = (
                    row_data[:slot.length]
                )
            layer.load_packed_bytes(packed)

    def sync_dram_from_model(self) -> None:
        """Write the model's current integer weights back into DRAM."""
        for layer_index, layer in enumerate(self.qmodel.layers):
            packed = layer.packed_bytes()
            for slot in self._rows_by_layer[layer_index]:
                row_data = np.zeros(self.row_bytes, dtype=np.uint8)
                chunk = packed[slot.byte_offset:slot.byte_offset + slot.length]
                row_data[:chunk.size] = chunk
                self.controller.poke_logical(slot.logical_row, row_data)
        # Every weight row was just rewritten from the model, so the two
        # sides are in lock-step again.
        self._synced_version = self.controller.content_version


def place_model(
    qmodel: QuantizedModel,
    controller: MemoryController,
    reserved_rows: int = 2,
    spacing: int = 2,
    seed: int = 0,
) -> WeightLayout:
    """Convenience constructor mirroring the paper's deployment step."""
    return WeightLayout(
        qmodel, controller, reserved_rows=reserved_rows, spacing=spacing,
        seed=seed,
    )
