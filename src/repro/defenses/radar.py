"""RADAR: run-time checksum detection + zero-out recovery (Li et al. [PAPERS]).

RADAR guards a deployed quantized network by checksumming the *most
significant bits* of weight groups: at deployment time every group of
``group_size`` int8 weights gets a signature over its top-2 bits (the
bits whose flips do BFA-scale damage); at run time a periodic detection
sweep recomputes the signatures and compares them to the golden copy.  A
mismatched group has been tampered with — recovery **zeroes the whole
group** (a ~``group_size``-weight dent in the network is negligible;
leaving a sign-flipped weight is not), which restores accuracy to near
clean levels against MSB-targeting attacks.

The defense is *detection-based*, not preventive: flips land, then get
caught on the next sweep.  Its blind spot is exactly what the smart-bfa
attacker exploits — flips confined to the unguarded low bit positions
never change a signature.

Detection latency is accounted through the DRAM timing layer: one sweep
reads every weight row once (``rows x t_rc_ns``) plus a per-group
compare cost, accumulated in ``detection_ns`` and surfaced through
``DefenseStats.notes``.  With a live memory controller the defense also
registers an activate hook so sweeps are scheduled by observed DRAM
activity; the hook is detached by ``close()`` (lint REP004).
"""

from __future__ import annotations

import numpy as np

from repro.defenses.protocol import Defense
from repro.nn.quant import QuantizedModel

__all__ = ["RadarDefense", "RadarExecutor"]

# Signatures live in a prime field so multi-bit tampering inside one
# group cannot cancel by wraparound in practice.
_SIG_MODULUS = 2_147_483_647  # 2**31 - 1 (Mersenne prime)
# Bit columns covered by the checksum: the sign bit and the top
# magnitude bit — the high-damage BFA targets.
_GUARDED_BITS = frozenset({6, 7})


class RadarExecutor:
    """Flip executor wrapper: the defense's clock is attack activity.

    Every attempted flip goes through ``inner`` untouched (RADAR never
    blocks — it detects), then advances the defense by one tick so the
    periodic sweep runs on the configured cadence.
    """

    def __init__(self, inner, defense: "RadarDefense"):
        self.inner = inner
        self.defense = defense

    def execute(self, location) -> bool:
        landed = self.inner.execute(location)
        self.defense.tick()
        return landed


class RadarDefense(Defense):
    """Checksum-based run-time detection with zero-out recovery."""

    name = "radar"

    def __init__(
        self,
        qmodel: QuantizedModel,
        group_size: int = 32,
        check_interval: int = 4,
        weights_per_row: int = 256,
        timing=None,
        controller=None,
        check_activations: int = 100_000,
    ):
        if group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {group_size}")
        if check_interval < 1:
            raise ValueError(
                f"check_interval must be >= 1, got {check_interval}"
            )
        super().__init__(qmodel)
        self.group_size = int(group_size)
        self.check_interval = int(check_interval)
        self.weights_per_row = int(weights_per_row)
        if timing is None:
            from repro.dram.timing import DDR4_DEFAULT

            timing = DDR4_DEFAULT
        self.timing = timing
        self.detection_ns = 0.0
        self._ticks = 0
        self._hook_activations = 0
        # Deployment-time golden signatures, one vector per layer.
        self._golden: list[np.ndarray] = [
            self._layer_signatures(i) for i in range(qmodel.num_layers)
        ]
        self.num_groups = int(sum(g.size for g in self._golden))
        self.stats.notes["checksum_groups"] = self.num_groups
        self._controller = controller
        if controller is not None:
            self.check_activations = int(check_activations)
            controller.register_activate_hook(self._on_activate)

    # ------------------------------------------------------------------ #
    # Signatures
    # ------------------------------------------------------------------ #

    def _msb_groups(self, layer_index: int) -> np.ndarray:
        """Top-2 bits of each weight byte, padded into (groups, size)."""
        layer = self.qmodel.layer(layer_index)
        msb = (
            layer.weight_int.reshape(-1).view(np.uint8) >> 6
        ).astype(np.int64)
        pad = (-msb.size) % self.group_size
        if pad:
            msb = np.concatenate([msb, np.zeros(pad, dtype=np.int64)])
        return msb.reshape(-1, self.group_size)

    def _layer_signatures(self, layer_index: int) -> np.ndarray:
        """Position-weighted MSB checksum of every group in one layer."""
        groups = self._msb_groups(layer_index)
        weights = np.arange(1, self.group_size + 1, dtype=np.int64)
        return ((groups + 1) * weights).sum(axis=1) % _SIG_MODULUS

    def _layer_signatures_reference(self, layer_index: int) -> np.ndarray:
        """Pure-Python signature recompute: the bench parity baseline."""
        layer = self.qmodel.layer(layer_index)
        values = [int(v) & 0xFF for v in layer.weight_int.reshape(-1)]
        pad = (-len(values)) % self.group_size
        values.extend([0] * pad)
        signatures = []
        for start in range(0, len(values), self.group_size):
            total = 0
            for offset in range(self.group_size):
                msb = values[start + offset] >> 6
                total += (msb + 1) * (offset + 1)
            signatures.append(total % _SIG_MODULUS)
        return np.asarray(signatures, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Detection sweep + recovery
    # ------------------------------------------------------------------ #

    def _charge_sweep_latency(self) -> None:
        """Account one full-model signature pass through the timing layer.

        Reading the weight array costs one row cycle per occupied DRAM
        row; comparing a group's signature costs one additional row
        cycle per 64 groups (signatures stream from a reserved row).
        """
        rows = -(-self.qmodel.total_weights // self.weights_per_row)
        compare_rows = -(-self.num_groups // 64)
        self.detection_ns += (rows + compare_rows) * self.timing.t_rc_ns

    def sweep(self, reference: bool = False) -> list[tuple[int, int]]:
        """One detection pass; returns mismatched ``(layer, group)`` pairs.

        ``reference=True`` recomputes signatures through the pure-Python
        path (bench parity check); results are identical by contract.
        """
        recompute = (
            self._layer_signatures_reference
            if reference else self._layer_signatures
        )
        mismatched: list[tuple[int, int]] = []
        for layer_index in range(self.qmodel.num_layers):
            fresh = recompute(layer_index)
            bad = np.nonzero(fresh != self._golden[layer_index])[0]
            mismatched.extend(
                (layer_index, int(group)) for group in bad
            )
        self._charge_sweep_latency()
        self.stats.note("sweeps")
        if mismatched:
            self.stats.note("detections", len(mismatched))
        self.stats.notes["detection_ns"] = int(round(self.detection_ns))
        return mismatched

    def _repair(self, mismatched: list[tuple[int, int]]) -> int:
        """Zero-out recovery: clear every weight of a tampered group."""
        zeroed = 0
        for layer_index, group in mismatched:
            layer = self.qmodel.layer(layer_index)
            start = group * self.group_size
            end = min(start + self.group_size, layer.num_weights)
            values = layer.weight_int.reshape(-1)
            span = values[start:end]
            zeroed += int(np.count_nonzero(span))
            span[:] = 0
            layer.version += 1  # invalidate weight-derived caches
            layer._sync_float()
            self._golden[layer_index][group] = self._layer_signatures(
                layer_index
            )[group]
        if zeroed:
            self.stats.note("weights_zeroed", zeroed)
        return zeroed

    def detect_and_recover(self) -> int:
        """One sweep followed by zero-out recovery of detected groups."""
        return self._repair(self.sweep())

    # ------------------------------------------------------------------ #
    # Protocol surface
    # ------------------------------------------------------------------ #

    def executor(self):
        from repro.attacks.executor import SoftwareFlipExecutor

        return RadarExecutor(SoftwareFlipExecutor(self.qmodel), self)

    def guarded_bit_positions(self) -> frozenset[int]:
        return _GUARDED_BITS

    def tick(self) -> None:
        self._ticks += 1
        if self._ticks % self.check_interval == 0:
            self.detect_and_recover()

    def recover(self) -> int:
        """Post-attack repair: a final unconditional detection sweep."""
        return self.detect_and_recover()

    def finalize(self):
        self.stats.notes["detection_ns"] = int(round(self.detection_ns))
        return self.stats

    # ------------------------------------------------------------------ #
    # Controller-hook scheduling (DRAM path)
    # ------------------------------------------------------------------ #

    def _on_activate(self, physical, time_ns: float, count: int) -> None:
        """Observed ACT stream drives the sweep cadence on the DRAM path."""
        self._hook_activations += count
        if self._hook_activations >= self.check_activations:
            self._hook_activations = 0
            self.detect_and_recover()

    def close(self) -> None:
        """Detach the activate hook; the defense stops observing."""
        if self._controller is not None:
            self._controller.unregister_activate_hook(self._on_activate)
            self._controller = None
