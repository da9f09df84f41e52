"""One replay loop: :func:`repro.attacks.protocol.replay`, and the
semi-white-box attack and default ``Attacker.execute`` built on it."""

import numpy as np

from repro.attacks.adaptive import semi_white_box_attack
from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.attacks.executor import LogicalDefenseExecutor, SoftwareFlipExecutor
from repro.attacks.protocol import (
    AttackContext,
    AttackOutcome,
    Attacker,
    replay,
)
from repro.attacks.random_attack import sample_random_bits
from repro.attacks.registry import build_attacker
from repro.nn.train import evaluate


class RecordingExecutor:
    """Flips every location it is asked to, except ``blocked`` ones, and
    records the call order."""

    def __init__(self, qmodel, blocked=()):
        self.inner = LogicalDefenseExecutor(qmodel, set(blocked))
        self.calls = []

    def execute(self, location):
        self.calls.append(location)
        return self.inner.execute(location)


def _weights(qmodel):
    return [w.tobytes() for w in qmodel.snapshot()]


def _plan(qmodel, count=8, seed=3):
    return sample_random_bits(qmodel, count, np.random.default_rng(seed))


def _eval_split(dataset):
    return dataset.x_test[:128], dataset.y_test[:128]


class TestReplay:
    def test_fires_every_planned_flip_in_order(self, fresh_quantized,
                                               tiny_dataset):
        planned = _plan(fresh_quantized)
        executor = RecordingExecutor(fresh_quantized, blocked=planned[1::2])
        outcome = replay(
            "probe", fresh_quantized, planned, executor,
            *_eval_split(tiny_dataset),
        )
        # The attacker cannot tell a blocked flip: it fires the whole plan.
        assert executor.calls == planned
        assert outcome.flips == planned[0::2]

    def test_blocked_flips_are_counted_not_kept(self, fresh_quantized,
                                                tiny_dataset):
        planned = _plan(fresh_quantized, count=10)
        executor = RecordingExecutor(fresh_quantized, blocked=planned[:3])
        outcome = replay(
            "probe", fresh_quantized, planned, executor,
            *_eval_split(tiny_dataset),
        )
        assert outcome.attacker == "probe"
        assert outcome.attempts == 10
        assert outcome.blocked == 3
        assert outcome.num_flips == 7
        assert not set(outcome.flips) & set(planned[:3])

    def test_endpoints_bracket_the_flips(self, quantized_factory,
                                         tiny_dataset):
        eval_x, eval_y = _eval_split(tiny_dataset)
        x, y = tiny_dataset.attack_batch(64, np.random.default_rng(7))
        # BFA's picks, so the flips move the accuracy the endpoints read.
        planned = BitFlipAttack(
            quantized_factory(), x, y,
            config=BfaConfig(max_iterations=3, exact_eval_top=4),
        ).run().flips
        qmodel = quantized_factory()
        outcome = replay(
            "probe", qmodel, planned, SoftwareFlipExecutor(qmodel),
            eval_x, eval_y,
        )
        # A second copy with the same flips applied by hand.
        clean = quantized_factory()
        assert outcome.initial_accuracy == evaluate(
            clean.model, eval_x, eval_y
        )
        for location in planned:
            clean.flip_bit(location)
        assert outcome.final_accuracy == evaluate(clean.model, eval_x, eval_y)
        assert _weights(qmodel) == _weights(clean)
        assert outcome.final_accuracy < outcome.initial_accuracy

    def test_empty_plan_is_a_no_op(self, fresh_quantized, tiny_dataset):
        before = _weights(fresh_quantized)
        executor = RecordingExecutor(fresh_quantized)
        outcome = replay(
            "probe", fresh_quantized, [], executor,
            *_eval_split(tiny_dataset),
        )
        assert executor.calls == []
        assert (outcome.attempts, outcome.flips, outcome.blocked) == (0, [], 0)
        assert outcome.final_accuracy == outcome.initial_accuracy
        assert _weights(fresh_quantized) == before

    def test_default_execute_replays_the_plan(self, quantized_factory,
                                              tiny_dataset):
        eval_x, eval_y = _eval_split(tiny_dataset)
        planned = _plan(quantized_factory(), count=12)

        class _Fixed(Attacker):
            name = "fixed"

            def plan(self, context):
                return list(planned)

        qmodel = quantized_factory()
        outcome = _Fixed().execute(AttackContext(
            qmodel=qmodel,
            executor=LogicalDefenseExecutor(qmodel, set(planned[:4])),
            eval_x=eval_x, eval_y=eval_y,
        ))
        other = quantized_factory()
        expected = replay(
            "fixed", other, planned,
            LogicalDefenseExecutor(other, set(planned[:4])), eval_x, eval_y,
        )
        assert outcome == expected
        assert outcome.blocked == 4


class TestSemiWhiteBox:
    CONFIG = BfaConfig(max_iterations=3, exact_eval_top=4)

    @staticmethod
    def _batch(dataset):
        return dataset.attack_batch(64, np.random.default_rng(7))

    def test_returns_an_attack_outcome(self, fresh_quantized, tiny_dataset):
        x, y = self._batch(tiny_dataset)
        outcome = semi_white_box_attack(
            fresh_quantized, x, y, SoftwareFlipExecutor(fresh_quantized),
            config=self.CONFIG, eval_x=tiny_dataset.x_test,
            eval_y=tiny_dataset.y_test,
        )
        assert isinstance(outcome, AttackOutcome)
        assert outcome.attacker == "semi-white-box"
        # Undefended: every planned flip lands.
        assert outcome.attempts == outcome.num_flips > 0
        assert outcome.blocked == 0
        assert outcome.detail == {}

    def test_plan_is_the_bfa_search(self, quantized_factory, tiny_dataset):
        x, y = self._batch(tiny_dataset)
        qmodel = quantized_factory()
        outcome = semi_white_box_attack(
            qmodel, x, y, SoftwareFlipExecutor(qmodel), config=self.CONFIG,
        )
        searched = BitFlipAttack(
            quantized_factory(), x, y, config=self.CONFIG
        ).run()
        assert outcome.flips == searched.flips
        assert outcome.final_accuracy == searched.final_accuracy

    def test_plans_offline_then_restores(self, fresh_quantized,
                                         tiny_dataset):
        """Blocking every flip shows the planning phase left no trace:
        the deployed weights come back unchanged."""
        x, y = self._batch(tiny_dataset)
        before = _weights(fresh_quantized)

        class BlockAll:
            def execute(self, location):
                return False

        outcome = semi_white_box_attack(
            fresh_quantized, x, y, BlockAll(), config=self.CONFIG,
        )
        assert outcome.attempts > 0
        assert outcome.blocked == outcome.attempts
        assert outcome.flips == []
        assert outcome.final_accuracy == outcome.initial_accuracy
        assert _weights(fresh_quantized) == before

    def test_registered_attacker_runs_the_function(
        self, quantized_factory, tiny_dataset
    ):
        budget = 3
        qmodel = quantized_factory()
        ctx = AttackContext(
            qmodel=qmodel, dataset=tiny_dataset, seed=5, budget=budget,
            eval_x=tiny_dataset.x_test, eval_y=tiny_dataset.y_test,
        )
        outcome = build_attacker("semi-white-box").execute(ctx)
        attack_x, attack_y = ctx.batch()
        other = quantized_factory()
        expected = semi_white_box_attack(
            other, attack_x, attack_y, SoftwareFlipExecutor(other),
            config=BfaConfig(max_iterations=budget, exact_eval_top=4),
            eval_x=tiny_dataset.x_test, eval_y=tiny_dataset.y_test,
        )
        assert outcome == expected
        assert outcome.attempts <= budget
