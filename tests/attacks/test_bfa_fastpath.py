"""BFA candidate-scoring parity: argpartition top-k vs an argsort scan.

The library's scoring (masked scores + ``np.argpartition`` + cached
bit-deltas) must select exactly the flips that :class:`ArgsortScanAttack`
— a test-local oracle running a full argsort plus a rank scan past
skip/tried bits — selects on seeded models, across whole attack runs
including skip sets and defended attempts.
"""

import numpy as np

from repro.attacks import LogicalDefenseExecutor
from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.nn.quant import BitLocation
from repro.nn.train import loss_and_grads


class ArgsortScanAttack(BitFlipAttack):
    """Oracle: rank every ``(weight, bit)`` score with a full argsort and
    walk it past skipped/tried bits to the first eligible candidate."""

    def _layer_best_candidate(self, layer_index):
        layer = self.qmodel.layer(layer_index)
        grad = layer.grad_flat().astype(np.float64)
        scores = grad[:, None] * (
            self._bit_deltas(layer.weight_int) * layer.scale
        )
        if self._skip_columns is not None:
            scores[:, self._skip_columns] = -np.inf
        for flat in np.argsort(scores, axis=None)[::-1]:
            index, bit = divmod(int(flat), 8)
            score = float(scores.flat[flat])
            if score <= 0.0:
                return None
            location = BitLocation(layer_index, index, bit)
            if location not in self.skip and location not in self.tried:
                return location, score
        return None


def _attack(qmodel, dataset, reference=False, skip=None, executor=None,
            skip_bit_positions=None):
    rng = np.random.default_rng(11)
    x, y = dataset.attack_batch(64, rng)
    cls = ArgsortScanAttack if reference else BitFlipAttack
    return cls(
        qmodel, x, y,
        config=BfaConfig(max_iterations=6, exact_eval_top=3),
        skip=skip, executor=executor, skip_bit_positions=skip_bit_positions,
    )


def _attempts(result):
    return [
        (a.iteration, a.location, a.succeeded, round(a.estimated_gain, 9))
        for a in result.attempts
    ]


class TestScoringParity:
    def test_full_runs_select_identical_flips(self, quantized_factory,
                                              tiny_dataset):
        result = _attack(quantized_factory(), tiny_dataset).run()
        expected = _attack(
            quantized_factory(), tiny_dataset, reference=True
        ).run()
        assert _attempts(result) == _attempts(expected)
        assert result.accuracy_history == expected.accuracy_history

    def test_parity_with_skip_set_and_defense(self, quantized_factory,
                                              tiny_dataset):
        def build(reference):
            qmodel = quantized_factory()
            probe = _attack(qmodel, tiny_dataset)
            loss_and_grads(qmodel.model, probe.attack_x, probe.attack_y)
            secured = {
                probe._layer_best_candidate(i)[0]
                for i in range(qmodel.num_layers)
                if probe._layer_best_candidate(i) is not None
            }
            qmodel.zero_grad()
            return _attack(
                qmodel, tiny_dataset, reference=reference, skip=set(secured),
                executor=LogicalDefenseExecutor(qmodel, secured),
            )

        assert _attempts(build(False).run()) == _attempts(build(True).run())

    def test_parity_with_masked_bit_columns(self, quantized_factory,
                                            tiny_dataset):
        def run(reference):
            return _attack(
                quantized_factory(), tiny_dataset, reference=reference,
                skip_bit_positions=frozenset({6, 7}),
            ).run()

        assert _attempts(run(False)) == _attempts(run(True))

    def test_per_layer_candidates_match(self, fresh_quantized, tiny_dataset):
        attack = _attack(fresh_quantized, tiny_dataset)
        reference = _attack(fresh_quantized, tiny_dataset, reference=True)
        loss_and_grads(fresh_quantized.model, attack.attack_x, attack.attack_y)
        for index in range(fresh_quantized.num_layers):
            assert (
                attack._layer_best_candidate(index)
                == reference._layer_best_candidate(index)
            )


class TestScoringInternals:
    def test_bit_deltas_match_reference(self):
        weights = np.arange(-128, 128, dtype=np.int8)
        deltas = BitFlipAttack._bit_deltas(weights)
        bytes_view = weights.view(np.uint8)
        for i, byte in enumerate(bytes_view):
            for bit in range(7):
                expected = float(1 << bit) * (
                    1.0 if not (byte >> bit) & 1 else -1.0
                )
                assert deltas[i, bit] == expected
            expected_sign = -128.0 if not (byte >> 7) & 1 else 128.0
            assert deltas[i, 7] == expected_sign

    def test_delta_cache_invalidated_by_mutation(self, fresh_quantized,
                                                 tiny_dataset):
        attack = _attack(fresh_quantized, tiny_dataset)
        first = attack._scaled_deltas(0)
        assert attack._scaled_deltas(0) is first  # cache hit
        fresh_quantized.flip_bit(BitLocation(0, 0, 3))
        second = attack._scaled_deltas(0)
        assert second is not first  # version bump invalidated
        np.testing.assert_array_equal(
            second, BitFlipAttack._bit_deltas(
                fresh_quantized.layers[0].weight_int
            ) * fresh_quantized.layers[0].scale,
        )

    def test_mask_tracks_skip_and_tried(self, fresh_quantized, tiny_dataset):
        skip = {BitLocation(0, 1, 4)}
        attack = _attack(fresh_quantized, tiny_dataset, skip=skip)
        mask = attack._layer_mask(0)
        assert mask[1 * 8 + 4]
        assert mask.sum() == 1
        attack._mark_tried(BitLocation(0, 2, 7))
        assert attack._layer_mask(0)[2 * 8 + 7]
        assert attack._layer_mask(0).sum() == 2

    def test_reconstruction_guard_invalidates_delta_cache(
        self, fresh_quantized, tiny_dataset
    ):
        """Every weight_int mutation path must bump layer.version; the
        reconstruction defense clips weights outside the flip API."""
        from repro.defenses.software import WeightReconstructionGuard

        guard = WeightReconstructionGuard(fresh_quantized, percentile=50.0)
        versions = [layer.version for layer in fresh_quantized.layers]
        corrected = guard.reconstruct()
        assert corrected > 0  # the 50th-percentile bound clips aggressively
        bumped = [
            layer.version > v
            for layer, v in zip(fresh_quantized.layers, versions)
        ]
        assert any(bumped)

    def test_top_candidates_respect_min_gain(self, fresh_quantized,
                                             tiny_dataset):
        attack = _attack(fresh_quantized, tiny_dataset)
        loss_and_grads(fresh_quantized.model, attack.attack_x,
                       attack.attack_y)
        top = attack._layer_top_candidates(0, 16)
        assert all(score > 0.0 for _, score in top)
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)
