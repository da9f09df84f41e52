"""BFA exact evaluation: resumed forwards vs a full-forward oracle.

The library evaluates a shortlisted candidate by resuming the forward at
the segment that owns the flipped layer, from the inputs the gradient
pass captured.  :class:`FullForwardAttack` — a test-local oracle —
evaluates every candidate with the full forward instead.  Whole attack
runs must agree on every location, estimate, success flag and accuracy,
and the callers that read only flips or only the endpoints must see the
same search.
"""

import numpy as np
import pytest

from repro.attacks import LogicalDefenseExecutor
from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.attacks.profile import profile_vulnerable_bits
from repro.nn import QuantizedModel, make_resnet20
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad
from repro.nn.train import loss_and_grads


class FullForwardAttack(BitFlipAttack):
    """Oracle: exact-evaluate every candidate with the full forward."""

    def _candidate_loss(self, location, inputs):
        self.qmodel.flip_bit(location)
        self.qmodel.model.eval()
        with no_grad():
            logits = self.qmodel.model(Tensor(self.attack_x))
            loss = F.cross_entropy(logits, self.attack_y).item()
        self.qmodel.flip_bit(location)
        return loss


def _qmodel():
    return QuantizedModel(
        make_resnet20(num_classes=10, width_scale=0.5, seed=7).eval()
    )


def _batch(dataset, n=48, seed=11):
    return dataset.attack_batch(n, np.random.default_rng(seed))


def _attack(cls, qmodel, dataset, config=None, **kwargs):
    x, y = _batch(dataset)
    return cls(
        qmodel, x, y,
        config=config or BfaConfig(max_iterations=5, exact_eval_top=4),
        eval_x=dataset.x_test[:96], eval_y=dataset.y_test[:96],
        **kwargs,
    )


def _record(result):
    return (
        result.initial_accuracy,
        result.final_accuracy,
        [
            (a.iteration, a.location, a.estimated_gain, a.succeeded,
             a.accuracy_after)
            for a in result.attempts
        ],
    )


def _secured_champions(dataset):
    """Each layer's best candidate on the clean model (a skip set)."""
    qmodel = _qmodel()
    probe = _attack(BitFlipAttack, qmodel, dataset)
    loss_and_grads(qmodel.model, probe.attack_x, probe.attack_y)
    return {
        candidate[0]
        for i in range(qmodel.num_layers)
        if (candidate := probe._layer_best_candidate(i)) is not None
    }


CASES = {
    "default": lambda dataset: {},
    "skip": lambda dataset: {"skip": _secured_champions(dataset)},
    "skip-columns": lambda dataset: {"skip_bit_positions": frozenset({6, 7})},
}


class TestOracleParity:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_matches_full_forward_oracle(self, case, tiny_dataset):
        kwargs = CASES[case](tiny_dataset)
        result = _attack(
            BitFlipAttack, _qmodel(), tiny_dataset, **kwargs
        ).run()
        expected = _attack(
            FullForwardAttack, _qmodel(), tiny_dataset, **kwargs
        ).run()
        assert result.attempts
        assert _record(result) == _record(expected)

    def test_parity_under_logical_defense(self, tiny_dataset):
        secured = _secured_champions(tiny_dataset)

        def run(cls):
            qmodel = _qmodel()
            return _attack(
                cls, qmodel, tiny_dataset,
                executor=LogicalDefenseExecutor(qmodel, secured),
            ).run()

        result, expected = run(BitFlipAttack), run(FullForwardAttack)
        assert _record(result) == _record(expected)

    def test_full_forward_reference_matches_resumed_losses(
        self, tiny_dataset
    ):
        """The library's own full-forward branch, ``inputs=None``, gives
        each layer champion the resumed loss bit for bit, and reverts its
        flip."""
        qmodel = _qmodel()
        attack = _attack(BitFlipAttack, qmodel, tiny_dataset)
        inputs = []
        loss_and_grads(
            qmodel.model, attack.attack_x, attack.attack_y, inputs=inputs
        )
        champions = [
            candidate[0]
            for i in range(qmodel.num_layers)
            if (candidate := attack._layer_best_candidate(i)) is not None
        ]
        assert any(qmodel.segment_of(c.layer) > 0 for c in champions)
        before = [w.tobytes() for w in qmodel.snapshot()]
        for location in champions:
            assert attack._candidate_loss(location, None) == (
                attack._candidate_loss(location, inputs)
            )
        assert [w.tobytes() for w in qmodel.snapshot()] == before

    def test_commits_land_in_resumed_segments(self, tiny_dataset):
        """The parity above is not vacuous: flips land past the stem, so
        their evaluations resumed mid-network."""
        qmodel = _qmodel()
        result = _attack(BitFlipAttack, qmodel, tiny_dataset).run()
        assert any(qmodel.segment_of(a.location.layer) > 0
                   for a in result.attempts)


class TestCallerViews:
    def test_steps_and_endpoints_follow_the_same_search(self, tiny_dataset):
        curve = _attack(BitFlipAttack, _qmodel(), tiny_dataset).run()
        steps = list(_attack(BitFlipAttack, _qmodel(), tiny_dataset).steps())
        ends = _attack(BitFlipAttack, _qmodel(), tiny_dataset).run_endpoints()
        locations = [a.location for a in curve.attempts]
        assert [a.location for a in steps] == locations
        assert [a.location for a in ends.attempts] == locations
        assert all(a.accuracy_after is None for a in steps + ends.attempts)
        assert ends.initial_accuracy == curve.initial_accuracy
        assert ends.final_accuracy == curve.final_accuracy

    def test_stop_rule_still_reads_accuracy(self, tiny_dataset):
        config = BfaConfig(max_iterations=8, exact_eval_top=4,
                           stop_accuracy=1.0)
        steps = list(
            _attack(BitFlipAttack, _qmodel(), tiny_dataset, config).steps()
        )
        assert len(steps) == 1  # every accuracy is <= 1.0
        assert steps[0].accuracy_after is not None

    def test_profile_rounds_match_run_flips(self, tiny_dataset):
        x, y = _batch(tiny_dataset)
        config = BfaConfig(max_iterations=4, exact_eval_top=4)
        profile = profile_vulnerable_bits(_qmodel(), x, y, rounds=3,
                                          config=config)
        qmodel = _qmodel()
        snapshot = qmodel.snapshot()
        rounds, skip = [], set()
        for _ in range(3):
            flips = BitFlipAttack(qmodel, x, y, config=config,
                                  skip=frozenset(skip)).run().flips
            qmodel.restore(snapshot)
            rounds.append(flips)
            skip.update(flips)
        assert profile.rounds == rounds
