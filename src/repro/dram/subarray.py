"""One DRAM sub-array: row storage, row buffer, and disturbance counters.

The sub-array is the unit that matters for both RowClone (fast in-memory copy
only works between rows sharing local bit-lines) and RowHammer (disturbance
coupling does not cross sub-array boundaries).
"""

from __future__ import annotations

import numpy as np

__all__ = ["Subarray"]


class Subarray:
    """Row storage plus per-row RowHammer disturbance state.

    Attributes:
        rows: ``(num_rows, row_bytes)`` uint8 backing store.
        disturbance: per-row accumulated neighbour-activation count since the
            row was last refreshed/rewritten.
        flipped_this_window: rows whose vulnerable cells already flipped since
            their last refresh (a cell that has discharged does not flip
            again until recharged).
    """

    def __init__(self, num_rows: int, row_bytes: int):
        if num_rows <= 0 or row_bytes <= 0:
            raise ValueError("num_rows and row_bytes must be positive")
        self.num_rows = num_rows
        self.row_bytes = row_bytes
        self.rows = np.zeros((num_rows, row_bytes), dtype=np.uint8)
        self.disturbance = np.zeros(num_rows, dtype=np.int64)
        self.flipped_this_window = np.zeros(num_rows, dtype=bool)
        self.open_row: int | None = None

    def _check(self, row: int) -> None:
        if not 0 <= row < self.num_rows:
            raise ValueError(f"row {row} out of range [0, {self.num_rows})")

    def read_row(self, row: int) -> np.ndarray:
        """Return a copy of a row's bytes (a read does not refresh DRAM state
        here; the controller models activation explicitly)."""
        self._check(row)
        return self.rows[row].copy()

    def write_row(self, row: int, data: np.ndarray) -> None:
        """Overwrite a row; rewriting restores charge, clearing disturbance."""
        self._check(row)
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (self.row_bytes,):
            raise ValueError(
                f"row data must have shape ({self.row_bytes},), got {data.shape}"
            )
        self.rows[row] = data
        self.reset_disturbance(row)

    def copy_row(self, src: int, dst: int) -> None:
        """In-sub-array copy (RowClone FPM). Activating the source restores
        its charge; writing the destination restores its charge too."""
        num_rows = self.num_rows
        if not (0 <= src < num_rows and 0 <= dst < num_rows):
            self._check(src)
            self._check(dst)
        self.rows[dst] = self.rows[src]
        disturbance = self.disturbance
        flipped = self.flipped_this_window
        disturbance[src] = 0
        disturbance[dst] = 0
        flipped[src] = False
        flipped[dst] = False

    def reset_disturbance(self, row: int) -> None:
        self._check(row)
        self.disturbance[row] = 0
        self.flipped_this_window[row] = False

    def refresh_all(self) -> None:
        """Periodic auto-refresh: every cell recharged."""
        self.disturbance[:] = 0
        self.flipped_this_window[:] = False

    def flip_bits(self, row: int, bits: list[int]) -> list[tuple[int, int, int]]:
        """Apply RowHammer flips; returns (bit, old, new) per flip.

        All flips are applied as one XOR against a byte mask.  Duplicate
        bit indices cancel pairwise in the data (each occurrence toggles
        the cell once), and the per-occurrence events alternate old/new
        exactly as sequential application would report them.
        """
        self._check(row)
        if not len(bits):
            return []
        bit_array = np.asarray(bits, dtype=np.int64)
        if bit_array.min() < 0 or bit_array.max() >= self.row_bytes * 8:
            bad = bit_array[
                (bit_array < 0) | (bit_array >= self.row_bytes * 8)
            ][0]
            raise ValueError(
                f"bit {int(bad)} out of range [0, {self.row_bytes * 8})"
            )
        byte_index = bit_array >> 3
        shift = (bit_array & 7).astype(np.uint8)
        row_data = self.rows[row]
        old = (row_data[byte_index] >> shift) & 1
        mask = np.zeros(self.row_bytes, dtype=np.uint8)
        np.bitwise_xor.at(mask, byte_index, np.uint8(1) << shift)
        np.bitwise_xor(row_data, mask, out=row_data)
        events = []
        seen: dict[int, int] = {}
        for bit, value in zip(bit_array, old):
            bit = int(bit)
            occurrence = seen.get(bit, 0)
            seen[bit] = occurrence + 1
            # Odd occurrences observe the already-toggled cell.
            effective_old = int(value) ^ (occurrence & 1)
            events.append((bit, effective_old, 1 - effective_old))
        return events
