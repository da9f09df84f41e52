"""Attack variants of Section 5.2: semi-white-box and adaptive white-box.

* **Semi-white-box** — the attacker does not know a defense is deployed.  It
  generates its bit-flip sequence *offline* on a model copy (where every
  flip "works"), then replays that fixed sequence against the real
  deployment.  Under DNN-Defender the replayed flips on secured bits never
  materialise, so the attack achieves no accuracy drop.

* **Adaptive white-box** — the attacker knows the defense and the secured
  bit set.  It skips secured bits during the search and keeps attacking the
  best *unprotected* bits; defended attempts are also fed back into the
  skip set.  Fig. 9 sweeps the secured-bit budget against this attacker.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.bfa import AttackResult, BfaConfig, BitFlipAttack
from repro.attacks.executor import FlipExecutor, SoftwareFlipExecutor
from repro.attacks.protocol import AttackOutcome, replay
from repro.nn.quant import BitLocation, QuantizedModel

__all__ = ["semi_white_box_attack", "white_box_adaptive_attack"]


def semi_white_box_attack(
    qmodel: QuantizedModel,
    attack_x: np.ndarray,
    attack_y: np.ndarray,
    executor: FlipExecutor,
    config: BfaConfig | None = None,
    eval_x: np.ndarray | None = None,
    eval_y: np.ndarray | None = None,
) -> AttackOutcome:
    """Plan a BFA offline, then replay it through the real deployment.

    The replay fires one planned flip at a time, so the defense ticks
    through each flip's hammer windows in plan order.  The outcome's
    ``attempts`` counts the planned flips.
    """
    eval_x = attack_x if eval_x is None else eval_x
    eval_y = attack_y if eval_y is None else eval_y
    snapshot = qmodel.snapshot()
    # Offline planning phase on the attacker's copy: no defense involved.
    planner = BitFlipAttack(
        qmodel, attack_x, attack_y, config=config,
        executor=SoftwareFlipExecutor(qmodel),
        eval_x=eval_x, eval_y=eval_y,
    )
    planned = [a.location for a in planner.steps() if a.succeeded]
    qmodel.restore(snapshot)
    return replay(
        "semi-white-box", qmodel, planned, executor, eval_x, eval_y
    )


def white_box_adaptive_attack(
    qmodel: QuantizedModel,
    attack_x: np.ndarray,
    attack_y: np.ndarray,
    executor: FlipExecutor,
    secured_bits: set[BitLocation],
    config: BfaConfig | None = None,
    eval_x: np.ndarray | None = None,
    eval_y: np.ndarray | None = None,
) -> AttackResult:
    """Defense-aware BFA: skip every secured bit, adapt on failures.

    The returned result's ``attempts`` include any defended attempts (bits
    the attacker tried anyway, e.g. when the secured set it obtained is
    stale); its ``flips`` are the landed ones — the "SB + # of additional
    bit-flips" axis of Fig. 9 counts these.
    """
    attack = BitFlipAttack(
        qmodel, attack_x, attack_y, config=config,
        skip=secured_bits, executor=executor,
        eval_x=eval_x, eval_y=eval_y,
    )
    return attack.run()
