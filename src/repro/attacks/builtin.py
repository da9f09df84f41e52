"""Built-in ``@attacker`` registrations.

Importing this module populates the attacker registry with the ported
attacks — random flips, progressive BFA, targeted T-BFA, the
semi-white-box replay, the adaptive white-box variant — plus smart-bfa,
the detection-aware search.  Each factory returns a stateless
:class:`repro.attacks.protocol.Attacker`; all run-specific inputs arrive
through the :class:`repro.attacks.protocol.AttackContext`.
"""

from __future__ import annotations

from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.attacks.protocol import AttackContext, AttackOutcome, Attacker
from repro.attacks.random_attack import sample_random_bits
from repro.attacks.registry import attacker
from repro.attacks.smart_bfa import SmartBfaAttacker
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


def _bfa_outcome(name: str, result, **detail) -> AttackOutcome:
    """Map a :class:`repro.attacks.bfa.AttackResult` onto the protocol."""
    return AttackOutcome(
        attacker=name,
        initial_accuracy=result.initial_accuracy,
        final_accuracy=result.final_accuracy,
        attempts=len(result.attempts),
        flips=list(result.flips),
        blocked=result.num_blocked,
        detail={k: float(v) for k, v in detail.items()},
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
    """Progressive white-box BFA, blind to any deployed defense."""

    name = "bfa"

    def execute(self, context: AttackContext) -> AttackOutcome:
        attack_x, attack_y = context.batch()
        eval_x, eval_y = context.eval_batch()
        attack = BitFlipAttack(
            context.qmodel, attack_x, attack_y,
            config=_bfa_config(context),
            executor=context.flip_executor(),
            eval_x=eval_x, eval_y=eval_y,
        )
        return _bfa_outcome(self.name, attack.run_endpoints())


class AdaptiveAttacker(Attacker):
    """Defense-aware BFA: skips every bit it knows to be secured."""

    name = "adaptive"

    def execute(self, context: AttackContext) -> AttackOutcome:
        attack_x, attack_y = context.batch()
        eval_x, eval_y = context.eval_batch()
        secured = set(context.protected_bits())
        attack = BitFlipAttack(
            context.qmodel, attack_x, attack_y,
            config=_bfa_config(context),
            skip=secured,
            executor=context.flip_executor(),
            eval_x=eval_x, eval_y=eval_y,
        )
        return _bfa_outcome(
            self.name, attack.run_endpoints(),
            known_secured_bits=len(secured),
        )


class SemiWhiteBoxAttacker(Attacker):
    """Defense-unaware replay: plan on an offline copy, then fire."""

    name = "semi-white-box"

    def plan(self, context: AttackContext) -> list[BitLocation]:
        attack_x, attack_y = context.batch()
        eval_x, eval_y = context.eval_batch()
        from repro.attacks.executor import SoftwareFlipExecutor

        snapshot = context.qmodel.snapshot()
        planner = BitFlipAttack(
            context.qmodel, attack_x, attack_y,
            config=_bfa_config(context),
            executor=SoftwareFlipExecutor(context.qmodel),
            eval_x=eval_x, eval_y=eval_y,
        )
        planned = [a.location for a in planner.steps() if a.succeeded]
        context.qmodel.restore(snapshot)
        return planned


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
    return BfaAttacker()


@attacker("adaptive", title="adaptive BFA: skips known-secured bits",
          kind="adaptive", cost=3.0)
def _build_adaptive() -> Attacker:
    return AdaptiveAttacker()


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
    return SmartBfaAttacker()
