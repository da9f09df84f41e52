"""Flip executors: how an attack's chosen bit flip is *attempted*.

The bit-search algorithm (``repro.attacks.bfa``) decides *which* bit to flip;
an executor realises the flip in a deployment:

* :class:`SoftwareFlipExecutor` — flips the model copy directly; models the
  undefended baseline (every flip lands).
* :class:`LogicalDefenseExecutor` — the fast analytical path: a flip on a
  secured bit is blocked (DNN-Defender refreshes the victim row before
  ``T_RH``), anything else lands.  Equivalence with the full DRAM path is
  covered by integration tests.
* ``HammerExecutor`` (in :mod:`repro.attacks.hammer`) — drives real ACT
  streams through the simulated memory controller with the defense running.
"""

from __future__ import annotations

from typing import Protocol

from repro.nn.quant import BitLocation, QuantizedModel

__all__ = [
    "FlipExecutor",
    "SoftwareFlipExecutor",
    "LogicalDefenseExecutor",
]


class FlipExecutor(Protocol):
    """Attempt a bit flip in the deployed model; return True if it landed."""

    def execute(self, location: BitLocation) -> bool:
        ...


class SoftwareFlipExecutor:
    """Undefended deployment: every requested flip succeeds."""

    def __init__(self, qmodel: QuantizedModel):
        self.qmodel = qmodel
        self.flips_performed = 0

    def execute(self, location: BitLocation) -> bool:
        self.qmodel.flip_bit(location)
        self.flips_performed += 1
        return True


class LogicalDefenseExecutor:
    """Analytical defense outcome: secured bits never flip.

    This captures DNN-Defender's guarantee (a target row is swap-refreshed
    within every hammer window, so its disturbance never reaches ``T_RH``)
    without simulating every activation.  ``blocked`` counts defended
    attempts — the defense-side metric reported in Section 5.2.
    """

    def __init__(self, qmodel: QuantizedModel, secured_bits: set[BitLocation]):
        self.qmodel = qmodel
        self.secured_bits = set(secured_bits)
        self.blocked = 0
        self.flips_performed = 0

    def execute(self, location: BitLocation) -> bool:
        if location in self.secured_bits:
            self.blocked += 1
            return False
        self.qmodel.flip_bit(location)
        self.flips_performed += 1
        return True


class BehavioralDefenseExecutor:
    """Stochastic block-and-deflect model of swap/shuffle defenses.

    Used for the Table 3 rows of RRS / SRS / SHADOW: an intended flip is
    blocked with probability ``block_prob`` (the defense relocated the
    aggressor or victim in time), and a blocked hammer session still flips
    a *random* bit with probability ``collateral_prob`` — the attacker's
    activations land next to relocated, unrelated data.  The result is the
    published plateau shape: hundreds of attempted flips, modest accuracy
    degradation.
    """

    def __init__(
        self,
        qmodel: QuantizedModel,
        block_prob: float,
        collateral_prob: float,
        rng,
    ):
        if not 0.0 <= block_prob <= 1.0:
            raise ValueError(f"block_prob must be in [0, 1], got {block_prob}")
        if not 0.0 <= collateral_prob <= 1.0:
            raise ValueError(
                f"collateral_prob must be in [0, 1], got {collateral_prob}"
            )
        self.qmodel = qmodel
        self.block_prob = block_prob
        self.collateral_prob = collateral_prob
        self.rng = rng
        self.blocked = 0
        self.flips_performed = 0
        self.collateral_flips = 0

    def _random_location(self) -> BitLocation:
        total = self.qmodel.total_bits
        flat = int(self.rng.integers(0, total))
        for layer_index, layer in enumerate(self.qmodel.layers):
            bits = layer.num_weights * 8
            if flat < bits:
                return BitLocation(layer_index, flat // 8, flat % 8)
            flat -= bits
        raise AssertionError("unreachable: flat index exceeded total bits")

    def execute(self, location: BitLocation) -> bool:
        if self.rng.random() < self.block_prob:
            self.blocked += 1
            if self.rng.random() < self.collateral_prob:
                self.qmodel.flip_bit(self._random_location())
                self.collateral_flips += 1
            return False
        self.qmodel.flip_bit(location)
        self.flips_performed += 1
        return True
