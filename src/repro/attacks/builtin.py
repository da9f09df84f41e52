"""Built-in ``@attacker`` registrations.

Importing this module populates the attacker registry with the ported
attacks — random flips, the progressive BFA in its defense-blind,
adaptive and smart-bfa registrations, targeted T-BFA and the
semi-white-box replay.  Each factory returns a stateless
:class:`repro.attacks.protocol.Attacker`; all run-specific inputs arrive
through the :class:`repro.attacks.protocol.AttackContext`.
"""

from __future__ import annotations

from repro.attacks.adaptive import semi_white_box_attack
from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.attacks.protocol import AttackContext, AttackOutcome, Attacker
from repro.attacks.random_attack import sample_random_bits
from repro.attacks.registry import attacker
from repro.attacks.tbfa import TargetedBitFlipAttack, TbfaConfig
from repro.nn.quant import BitLocation
from repro.nn.train import evaluate

__all__ = []  # registration side effects only


def _bfa_config(context: AttackContext) -> BfaConfig:
    stop = context.param("stop_accuracy")
    return BfaConfig(
        max_iterations=max(int(context.budget), 1),
        stop_accuracy=None if stop is None else float(stop),
        exact_eval_top=int(context.param("exact_eval_top", 4)),
    )


class RandomAttacker(Attacker):
    """Uniform random flips (Fig. 1b baseline): plan-then-replay."""

    name = "random"

    def plan(self, context: AttackContext) -> list[BitLocation]:
        count = max(int(context.budget), 1)
        return sample_random_bits(
            context.qmodel, count, context.rng(stream=3)
        )


class BfaAttacker(Attacker):
    """Progressive white-box BFA; the registrations differ only in what
    they read of the defense.

    * ``bfa`` reads nothing: it is blind to any deployed defense.
    * ``adaptive`` skips every bit in ``protected_bits()``, the secured
      set of a swap-based defense like DNN-Defender.
    * ``smart-bfa`` (Ghavami et al., PAPERS.md) also masks out the whole
      bit columns in ``guarded_bit_positions()``.  Checksum defenses
      like RADAR guard only the high bit positions of each weight, so a
      search confined to the low columns never perturbs a signature: it
      needs more flips per accuracy point, but no recovery sweep sees
      them.

    With nothing protected and nothing guarded all three run the same
    search.
    """

    def __init__(
        self, name: str, skip_protected: bool = False,
        skip_guarded: bool = False,
    ):
        self.name = name
        self.skip_protected = skip_protected
        self.skip_guarded = skip_guarded

    def execute(self, context: AttackContext) -> AttackOutcome:
        attack_x, attack_y = context.batch()
        eval_x, eval_y = context.eval_batch()
        detail: dict[str, float] = {}
        guarded: frozenset[int] = frozenset()
        if self.skip_guarded:
            guarded = context.guarded_bit_positions()
            detail["avoided_bit_columns"] = float(len(guarded))
        secured: frozenset[BitLocation] = frozenset()
        if self.skip_protected:
            secured = context.protected_bits()
            detail["known_secured_bits"] = float(len(secured))
        result = BitFlipAttack(
            context.qmodel, attack_x, attack_y,
            config=_bfa_config(context),
            skip=secured,
            executor=context.flip_executor(),
            eval_x=eval_x, eval_y=eval_y,
            skip_bit_positions=guarded,
        ).run_endpoints()
        return AttackOutcome(
            attacker=self.name,
            initial_accuracy=result.initial_accuracy,
            final_accuracy=result.final_accuracy,
            attempts=len(result.attempts),
            flips=list(result.flips),
            blocked=result.num_blocked,
            detail=detail,
        )


class SemiWhiteBoxAttacker(Attacker):
    """Defense-unaware replay: plan on an offline copy, then fire."""

    name = "semi-white-box"

    def execute(self, context: AttackContext) -> AttackOutcome:
        attack_x, attack_y = context.batch()
        eval_x, eval_y = context.eval_batch()
        return semi_white_box_attack(
            context.qmodel, attack_x, attack_y, context.flip_executor(),
            config=_bfa_config(context), eval_x=eval_x, eval_y=eval_y,
        )


class TbfaAttacker(Attacker):
    """N-to-1 targeted attack: source class forced into target class."""

    name = "tbfa"

    def execute(self, context: AttackContext) -> AttackOutcome:
        attack_x, attack_y = context.batch()
        eval_x, eval_y = context.eval_batch()
        config = TbfaConfig(
            source_class=int(context.param("tbfa_source_class", 0)),
            target_class=int(context.param("tbfa_target_class", 1)),
            max_iterations=max(int(context.budget), 1),
            exact_eval_top=int(context.param("exact_eval_top", 4)),
        )
        initial = evaluate(context.qmodel.model, eval_x, eval_y)
        attack = TargetedBitFlipAttack(
            context.qmodel, attack_x, attack_y, config,
            executor=context.flip_executor(),
            skip=set(context.protected_bits()) or None,
        )
        result = attack.run()
        final = evaluate(context.qmodel.model, eval_x, eval_y)
        return AttackOutcome(
            attacker=self.name,
            initial_accuracy=initial,
            final_accuracy=final,
            attempts=result.attempts,
            flips=list(result.flips),
            blocked=result.attempts - len(result.flips),
            detail={
                "success_rate": float(result.final_success_rate),
                "other_accuracy": float(result.final_other_accuracy),
            },
        )


@attacker("random", title="uniform random bit flips (Fig. 1b baseline)",
          kind="baseline", cost=1.0)
def _build_random() -> Attacker:
    return RandomAttacker()


@attacker("bfa", title="progressive bit-search BFA (defense-blind)",
          kind="white-box", cost=3.0)
def _build_bfa() -> Attacker:
    return BfaAttacker("bfa")


@attacker("adaptive", title="adaptive BFA: skips known-secured bits",
          kind="adaptive", cost=3.0)
def _build_adaptive() -> Attacker:
    return BfaAttacker("adaptive", skip_protected=True)


@attacker("semi-white-box",
          title="offline-planned BFA replayed blind (Sec. 5.2)",
          kind="white-box", cost=3.0, tournament=False)
def _build_semi_white_box() -> Attacker:
    return SemiWhiteBoxAttacker()


@attacker("tbfa", title="targeted N-to-1 bit-flip attack (T-BFA)",
          kind="targeted", cost=3.0, tournament=False)
def _build_tbfa() -> Attacker:
    return TbfaAttacker()


@attacker("smart-bfa",
          title="detection-aware BFA: avoids checksummed bit columns",
          kind="adaptive", cost=3.0)
def _build_smart_bfa() -> Attacker:
    return BfaAttacker("smart-bfa", skip_protected=True, skip_guarded=True)
