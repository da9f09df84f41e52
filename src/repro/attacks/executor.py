"""Flip executors: how an attack's chosen bit flip is *attempted*.

The bit-search algorithm (``repro.attacks.bfa``) decides *which* bit to flip;
an executor realises the flip in a deployment:

* :class:`SoftwareFlipExecutor` — flips the model copy directly; models the
  undefended baseline (every flip lands).
* :class:`LogicalDefenseExecutor` — the fast analytical path: a flip on a
  secured bit is blocked (DNN-Defender refreshes the victim row before
  ``T_RH``), anything else lands.  Equivalence with the full DRAM path is
  covered by integration tests.  :class:`SecuredRows` is the secured set
  of whole weight rows.
* ``HammerExecutor`` (in :mod:`repro.attacks.hammer`) — drives real ACT
  streams through the simulated memory controller with the defense running.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Set
from typing import Protocol

from repro.nn.quant import BitLocation, QuantizedModel

__all__ = [
    "FlipExecutor",
    "SoftwareFlipExecutor",
    "LogicalDefenseExecutor",
    "SecuredRows",
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


class SecuredRows(Set):
    """Every bit of the weight rows holding ``bits``, kept as the rows.

    Row ``r`` of a layer holds its weights ``r * weights_per_row`` up to
    the next row's first weight or the layer's end.  Membership is one
    row lookup and the size a sum of row spans; the
    :class:`~repro.nn.quant.BitLocation` of each bit is built only when
    something iterates the set.
    """

    def __init__(
        self,
        qmodel: QuantizedModel,
        bits: Iterable[BitLocation],
        weights_per_row: int = 256,
    ):
        if weights_per_row < 1:
            raise ValueError("weights_per_row must be >= 1")
        self.weights_per_row = weights_per_row
        self._ends: dict[tuple[int, int], int] = {}   # (layer, row) -> end
        for location in bits:
            row = location.index // weights_per_row
            end = min(
                (row + 1) * weights_per_row,
                qmodel.layer(location.layer).num_weights,
            )
            if end > row * weights_per_row:
                self._ends[(location.layer, row)] = end
        self._len = 8 * sum(
            end - row * weights_per_row
            for (_, row), end in self._ends.items()
        )

    def __contains__(self, location) -> bool:
        if not isinstance(location, BitLocation):
            return False
        end = self._ends.get(
            (location.layer, location.index // self.weights_per_row)
        )
        return end is not None and location.index < end and (
            0 <= location.bit < 8
        )

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[BitLocation]:
        for (layer, row), end in sorted(self._ends.items()):
            for index in range(row * self.weights_per_row, end):
                for bit in range(8):
                    yield BitLocation(layer, index, bit)

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset[BitLocation]:
        return frozenset(iterable)


class LogicalDefenseExecutor:
    """Analytical defense outcome: secured bits never flip.

    This captures DNN-Defender's guarantee (a target row is swap-refreshed
    within every hammer window, so its disturbance never reaches ``T_RH``)
    without simulating every activation.  ``blocked`` counts defended
    attempts — the defense-side metric reported in Section 5.2.

    ``secured_bits`` is kept as given when it is :class:`SecuredRows`,
    which tests membership by row, and copied otherwise.
    """

    def __init__(
        self, qmodel: QuantizedModel, secured_bits: Iterable[BitLocation]
    ):
        self.qmodel = qmodel
        self.secured_bits = (
            secured_bits if isinstance(secured_bits, SecuredRows)
            else set(secured_bits)
        )
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
