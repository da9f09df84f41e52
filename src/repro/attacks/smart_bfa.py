"""smart-bfa: defense-aware progressive bit search (Ghavami et al. [PAPERS]).

The stealth counterpart of the adaptive white-box attacker.  Where the
adaptive attack skips *individually secured bits* (DNN-Defender's swap
set), smart-bfa reasons about *detection*: checksum defenses like RADAR
only guard the high bit positions of each weight (the sign and top
magnitude bits, whose flips do BFA-scale damage), so an attacker that
confines its search to the unguarded low columns never perturbs a
signature and its flips survive every detection sweep.

Concretely this runs the progressive bit search of
:class:`repro.attacks.bfa.BitFlipAttack` with

* ``skip_bit_positions`` = the defense's ``guarded_bit_positions()``
  (whole bit columns masked out of the candidate space), and
* ``skip`` = the defense's ``protected_bits()`` (individually secured
  bits, so the attacker also adapts to swap-based defenses).

Against an undefended model both sets are empty and smart-bfa degrades
to the plain BFA.  Against RADAR it needs more flips per accuracy point
(low-magnitude bits move weights less) but its damage is *permanent* —
the recovery sweep has nothing to detect — which is exactly the
trade-off the tournament matrix surfaces.
"""

from __future__ import annotations

from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.attacks.protocol import AttackContext, AttackOutcome, Attacker

__all__ = ["SmartBfaAttacker"]


class SmartBfaAttacker(Attacker):
    """Progressive BFA that stays off guarded bit columns."""

    name = "smart-bfa"

    def execute(self, context: AttackContext) -> AttackOutcome:
        attack_x, attack_y = context.batch()
        eval_x, eval_y = context.eval_batch()
        guarded = context.guarded_bit_positions()
        secured = set(context.protected_bits())
        stop = context.param("stop_accuracy")
        config = BfaConfig(
            max_iterations=max(int(context.budget), 1),
            stop_accuracy=None if stop is None else float(stop),
            exact_eval_top=int(context.param("exact_eval_top", 4)),
        )
        attack = BitFlipAttack(
            context.qmodel, attack_x, attack_y,
            config=config,
            skip=secured,
            executor=context.flip_executor(),
            eval_x=eval_x, eval_y=eval_y,
            skip_bit_positions=guarded,
        )
        result = attack.run_endpoints()
        return AttackOutcome(
            attacker=self.name,
            initial_accuracy=result.initial_accuracy,
            final_accuracy=result.final_accuracy,
            attempts=len(result.attempts),
            flips=list(result.flips),
            blocked=result.num_blocked,
            detail={
                "avoided_bit_columns": float(len(guarded)),
                "known_secured_bits": float(len(secured)),
            },
        )
