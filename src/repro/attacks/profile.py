"""Multi-round vulnerable-bit profiling (Section 4, Priority Protection).

The defender runs the *attacker's own* search algorithm on a copy of the
victim model: round ``R_1`` performs a complete BFA and records the flipped
bits; the model is restored, and round ``R_2`` repeats the search while
skipping every bit from ``R_1``; and so on for ``r`` rounds.  The union of
all rounds is the priority set handed to DNN-Defender — more rounds means
more secured bits and a higher protection level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.nn.quant import BitLocation, QuantizedModel

__all__ = ["ProfileResult", "profile_vulnerable_bits"]


@dataclass
class ProfileResult:
    """Vulnerable bits discovered per profiling round."""

    rounds: list[list[BitLocation]] = field(default_factory=list)

    @property
    def all_bits(self) -> set[BitLocation]:
        return {bit for round_bits in self.rounds for bit in round_bits}

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def bits_up_to_round(self, r: int) -> set[BitLocation]:
        """Union of rounds ``R_1 .. R_r`` (protection level knob)."""
        if r < 0:
            raise ValueError("round count must be non-negative")
        return {bit for round_bits in self.rounds[:r] for bit in round_bits}


def profile_vulnerable_bits(
    qmodel: QuantizedModel,
    attack_x: np.ndarray,
    attack_y: np.ndarray,
    rounds: int,
    config: BfaConfig | None = None,
    eval_x: np.ndarray | None = None,
    eval_y: np.ndarray | None = None,
) -> ProfileResult:
    """Run ``rounds`` of restore-and-skip BFA profiling.

    The model is always restored to its pre-profiling weights, including
    after the last round; profiling is read-only from the deployment's
    point of view.  A round reads only its flips, so it evaluates accuracy
    (on ``eval_x``/``eval_y``) only when ``config.stop_accuracy`` asks.
    """
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    config = config or BfaConfig(stop_accuracy=None)
    snapshot = qmodel.snapshot()
    skip: set[BitLocation] = set()
    result = ProfileResult()
    try:
        for _ in range(rounds):
            attack = BitFlipAttack(
                qmodel,
                attack_x,
                attack_y,
                config=config,
                skip=frozenset(skip),
                eval_x=eval_x,
                eval_y=eval_y,
            )
            flips = [a.location for a in attack.steps() if a.succeeded]
            qmodel.restore(snapshot)
            if not flips:
                break  # search exhausted: no loss-increasing bits remain
            result.rounds.append(flips)
            skip.update(flips)
    finally:
        qmodel.restore(snapshot)
    return result
