"""Tests for the targeted attack (T-BFA), command trace, and DD_Interrupt."""

import numpy as np
import pytest

from repro.attacks import (
    AttackContext,
    LogicalDefenseExecutor,
    SoftwareFlipExecutor,
    TargetedBitFlipAttack,
    TbfaConfig,
    TbfaResult,
    build_attacker,
)
from repro.attacks.bfa import BitFlipAttack
from repro.dram import (
    CommandTrace,
    DramDevice,
    DramGeometry,
    MemoryController,
    RowAddress,
    TimingParams,
)
from repro.nn import functional as F
from repro.nn.quant import BitLocation
from repro.nn.tensor import Tensor, no_grad
from repro.nn.train import loss_and_grads


def attack_batch(dataset, n=128, seed=0):
    rng = np.random.default_rng(seed)
    return dataset.attack_batch(n, rng)


class LoopOracle:
    """T-BFA's own search loop from before it ran ``BitFlipAttack``'s:
    a fresh gradient pass of the targeted loss every iteration (one
    forward of the source samples, one of the rest), a full argsort of
    every layer's scores, and two full forwards per exact evaluation.
    The loop minimises the targeted loss itself."""

    def __init__(self, qmodel, attack_x, attack_y, config, executor=None,
                 skip=None):
        self.qmodel = qmodel
        self.config = config
        self.executor = executor or SoftwareFlipExecutor(qmodel)
        self.skip = set(skip or ())
        self.tried = set()
        source_mask = attack_y == config.source_class
        self.x_source = attack_x[source_mask]
        self.x_other = attack_x[~source_mask]
        self.y_other = attack_y[~source_mask]
        self.y_forced = np.full(
            self.x_source.shape[0], config.target_class, dtype=np.int64
        )

    def _targeted_loss(self, build_graph):
        model = self.qmodel.model
        model.eval()
        if build_graph:
            model.zero_grad()
            loss = self._loss_terms(model)
            loss.backward()
            return loss.item()
        with no_grad():
            return self._loss_terms(model).item()

    def _loss_terms(self, model):
        loss = F.cross_entropy(model(Tensor(self.x_source)), self.y_forced)
        if self.x_other.shape[0] and self.config.preserve_weight > 0:
            keep = F.cross_entropy(model(Tensor(self.x_other)), self.y_other)
            loss = loss + keep * self.config.preserve_weight
        return loss

    def success_rate(self):
        with no_grad():
            logits = self.qmodel(Tensor(self.x_source))
        return float(
            (logits.data.argmax(axis=1) == self.config.target_class).mean()
        )

    def other_accuracy(self):
        if not self.x_other.shape[0]:
            return float("nan")
        with no_grad():
            logits = self.qmodel(Tensor(self.x_other))
        return float((logits.data.argmax(axis=1) == self.y_other).mean())

    def _select_flip(self):
        self._targeted_loss(build_graph=True)
        candidates = []
        for layer_index in range(self.qmodel.num_layers):
            layer = self.qmodel.layer(layer_index)
            grad = layer.grad_flat().astype(np.float64)
            deltas = BitFlipAttack._bit_deltas(layer.weight_int) * layer.scale
            scores = grad[:, None] * deltas
            order = np.argsort(scores, axis=None)
            budget = 64 + len(self.skip) + len(self.tried)
            for rank in range(min(order.size, budget)):
                flat = int(order[rank])
                index, bit = divmod(flat, 8)
                score = float(scores.flat[flat])
                if score >= 0:
                    break
                location = BitLocation(layer_index, index, bit)
                if location in self.skip or location in self.tried:
                    continue
                candidates.append((location, score))
                break
        if not candidates:
            return None
        candidates.sort(key=lambda item: item[1])
        best = None
        for location, _ in candidates[: self.config.exact_eval_top]:
            self.qmodel.flip_bit(location)
            loss = self._targeted_loss(build_graph=False)
            self.qmodel.flip_bit(location)
            if best is None or loss < best[1]:
                best = (location, loss)
        return best[0] if best else None

    def run(self):
        result = TbfaResult(
            initial_success_rate=self.success_rate(),
            initial_other_accuracy=self.other_accuracy(),
        )
        for _ in range(self.config.max_iterations):
            location = self._select_flip()
            if location is None:
                break
            self.tried.add(location)
            result.attempts += 1
            if self.executor.execute(location):
                result.flips.append(location)
            result.success_rate_history.append(self.success_rate())
            result.other_accuracy_history.append(self.other_accuracy())
            if result.final_success_rate >= self.config.stop_success_rate:
                break
        return result


class Recorder:
    """Executor wrapper logging each attempt as ``(bit, landed)``."""

    def __init__(self, executor):
        self.executor = executor
        self.log = []

    def execute(self, location):
        landed = self.executor.execute(location)
        self.log.append((location, landed))
        return landed


class TestTbfaConfig:
    def test_rejects_same_classes(self):
        with pytest.raises(ValueError):
            TbfaConfig(source_class=1, target_class=1)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            TbfaConfig(source_class=0, target_class=1, max_iterations=0)
        with pytest.raises(ValueError):
            TbfaConfig(source_class=0, target_class=1, stop_success_rate=0.0)
        with pytest.raises(ValueError, match="exact_eval_top must be >= 1"):
            TbfaConfig(source_class=0, target_class=1, exact_eval_top=0)

    def test_registered_attacker_rejects_no_exact_evaluation(
        self, fresh_quantized, tiny_dataset
    ):
        """With nothing exact-evaluated no flip can be picked; the
        attacker says so instead of attempting none."""
        context = AttackContext(
            qmodel=fresh_quantized, dataset=tiny_dataset, budget=4,
            params={"exact_eval_top": 0},
        )
        with pytest.raises(ValueError, match="exact_eval_top must be >= 1"):
            build_attacker("tbfa").execute(context)


class TestTargetedAttack:
    def test_raises_success_rate(self, fresh_quantized, tiny_dataset):
        x, y = attack_batch(tiny_dataset)
        config = TbfaConfig(
            source_class=0, target_class=1, max_iterations=15,
            exact_eval_top=4, stop_success_rate=0.8,
        )
        attack = TargetedBitFlipAttack(fresh_quantized, x, y, config)
        result = attack.run()
        assert result.final_success_rate > result.initial_success_rate
        assert result.flips

    def test_requires_source_samples(self, fresh_quantized, tiny_dataset):
        x, y = attack_batch(tiny_dataset)
        mask = y != 3
        config = TbfaConfig(source_class=3, target_class=1)
        with pytest.raises(ValueError):
            TargetedBitFlipAttack(fresh_quantized, x[mask], y[mask], config)

    def test_defense_blocks_targeted_attack_on_secured_bits(
        self, fresh_quantized, tiny_dataset
    ):
        x, y = attack_batch(tiny_dataset)
        config = TbfaConfig(
            source_class=0, target_class=1, max_iterations=6,
            exact_eval_top=4,
        )
        # Discover the bits T-BFA wants, then secure them and replay.
        probe = TargetedBitFlipAttack(fresh_quantized, x, y, config)
        snap = fresh_quantized.snapshot()
        wanted = set(probe.run().flips)
        fresh_quantized.restore(snap)
        assert wanted
        executor = LogicalDefenseExecutor(fresh_quantized, wanted)
        defended = TargetedBitFlipAttack(
            fresh_quantized, x, y, config, executor=executor, skip=set()
        )
        result = defended.run()
        assert not set(result.flips) & wanted

    def test_history_lengths_match_attempts(
        self, fresh_quantized, tiny_dataset
    ):
        x, y = attack_batch(tiny_dataset)
        config = TbfaConfig(source_class=0, target_class=2, max_iterations=4,
                            exact_eval_top=3)
        result = TargetedBitFlipAttack(fresh_quantized, x, y, config).run()
        assert len(result.success_rate_history) == result.attempts
        assert len(result.other_accuracy_history) == result.attempts

    def test_targeted_loss_same_with_and_without_graph(
        self, fresh_quantized, tiny_dataset
    ):
        """The objective is the targeted loss negated, whether the
        gradient pass differentiates it or a forward without a graph
        measures it."""
        x, y = attack_batch(tiny_dataset)
        attack = TargetedBitFlipAttack(
            fresh_quantized, x, y, TbfaConfig(source_class=0, target_class=1)
        )
        model = fresh_quantized.model
        params = [p for _, p in model.named_parameters()]
        model.zero_grad()
        with no_grad():
            plain = -attack._objective(fresh_quantized(Tensor(x)), y).item()
        assert all(p.grad is None for p in params)
        targeted = -loss_and_grads(model, x, y, objective=attack._objective)
        assert targeted == plain
        assert any(p.grad is not None and p.grad.any() for p in params)

    def test_preservation_term_weighting(self, fresh_quantized,
                                         tiny_dataset):
        x, y = attack_batch(tiny_dataset)
        source = y == 0

        def loss(batch_x, batch_y, weight):
            attack = TargetedBitFlipAttack(
                fresh_quantized, batch_x, batch_y,
                TbfaConfig(source_class=0, target_class=1,
                           preserve_weight=weight),
            )
            with no_grad():
                logits = fresh_quantized(Tensor(batch_x))
            return -attack._objective(logits, batch_y).item()

        # With no other-class samples there is no preservation term.
        source_only = loss(x[source], y[source], 1.0)
        assert loss(x, y, 0.0) == source_only
        assert loss(x, y, 1.0) > loss(x, y, 0.5) > source_only

    @pytest.mark.parametrize("preserve_weight", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("top", [1, 6])
    def test_same_search_as_the_old_loop(
        self, quantized_factory, tiny_dataset, preserve_weight, top
    ):
        """Run through ``BitFlipAttack.steps()``, T-BFA attempts the bits
        its own loop attempted, lands the same ones and measures the same
        histories: undefended, with every other undefended pick blocked,
        and skipping the remaining picks."""
        x, y = attack_batch(tiny_dataset, n=64, seed=1)
        config = TbfaConfig(
            source_class=0, target_class=1, max_iterations=5,
            exact_eval_top=top, preserve_weight=preserve_weight,
        )

        def search(cls, blocked=(), skip=()):
            qmodel = quantized_factory()
            recorder = Recorder(
                LogicalDefenseExecutor(qmodel, blocked) if blocked
                else SoftwareFlipExecutor(qmodel)
            )
            result = cls(
                qmodel, x, y, config, executor=recorder, skip=set(skip)
            ).run()
            return recorder.log, (
                result.initial_success_rate, result.initial_other_accuracy,
                result.success_rate_history, result.other_accuracy_history,
            )

        picks = [bit for bit, _ in search(LoopOracle)[0]]
        assert len(picks) > 1
        for blocked, skip in (((), ()), (picks[::2], ()), ((), picks[1::2])):
            expected = search(LoopOracle, blocked, skip)
            assert search(TargetedBitFlipAttack, blocked, skip) == expected
            attempts = expected[0]
            assert any(not landed for _, landed in attempts) == bool(blocked)
            assert not {bit for bit, _ in attempts} & set(skip)


class TestCommandTrace:
    def make_controller(self):
        geometry = DramGeometry(
            banks=2, subarrays_per_bank=2, rows_per_subarray=16, row_bytes=32
        )
        return MemoryController(DramDevice(geometry), TimingParams(t_rh=10**6))

    def test_records_activations(self):
        mc = self.make_controller()
        trace = CommandTrace(mc)
        mc.activate(RowAddress(0, 0, 3), count=10, hammer=True)
        mc.activate(RowAddress(1, 0, 5), count=4, hammer=True)
        assert trace.total_activations == 14
        assert trace.activations_by_bank == {0: 10, 1: 4}
        assert trace.summary()["distinct_rows"] == 2

    def test_hottest_rows_ranks_aggressors(self):
        mc = self.make_controller()
        trace = CommandTrace(mc)
        hot = RowAddress(0, 0, 3)
        mc.activate(hot, count=100, hammer=True)
        mc.activate(RowAddress(0, 0, 7), count=5, hammer=True)
        ranked = trace.hottest_rows(1)
        assert ranked[0][0] == hot
        assert ranked[0][1] == 100

    def test_window_bounds_entries(self):
        mc = self.make_controller()
        trace = CommandTrace(mc, window=3)
        for i in range(6):
            mc.activate(RowAddress(0, 0, i), count=1)
        assert len(trace.entries) == 3
        assert trace.total_activations == 6  # aggregates keep counting

    def test_span_query(self):
        mc = self.make_controller()
        trace = CommandTrace(mc)
        mc.activate(RowAddress(0, 0, 1), count=5, hammer=True)
        end = mc.now_ns
        mc.activate(RowAddress(0, 0, 2), count=5, hammer=True)
        assert trace.activations_in_span(0.0, end) == 5
        with pytest.raises(ValueError):
            trace.activations_in_span(10.0, 0.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CommandTrace(self.make_controller(), window=0)


class TestDefenderInterrupt:
    def test_interrupted_defender_stops_swapping(self):
        from repro.core import DNNDefender
        from repro.mapping import ProtectionPlan

        geometry = DramGeometry(
            banks=1, subarrays_per_bank=2, rows_per_subarray=32, row_bytes=32
        )
        mc = MemoryController(DramDevice(geometry), TimingParams(t_rh=100))
        plan = ProtectionPlan(
            secured_bits=set(),
            target_rows=[RowAddress(0, 0, 5)],
            non_target_rows=[RowAddress(0, 0, 9)],
        )
        defender = DNNDefender(mc, plan)
        mc.advance_time(defender.period_ns * 2)
        defender.tick()
        swaps_before = defender.stats.swaps_executed
        assert swaps_before > 0
        defender.interrupt()
        mc.advance_time(defender.period_ns * 3)
        defender.tick()
        assert defender.stats.swaps_executed == swaps_before
        defender.resume()
        mc.advance_time(defender.period_ns)
        defender.tick()
        assert defender.stats.swaps_executed > swaps_before


class TestDoubleSidedHammer:
    def build(self, fresh_model, t_rh=1000):
        from repro.mapping import WeightLayout
        from repro.nn import QuantizedModel

        geometry = DramGeometry(
            banks=2, subarrays_per_bank=4, rows_per_subarray=64, row_bytes=128
        )
        qmodel = QuantizedModel(fresh_model)
        mc = MemoryController(DramDevice(geometry), TimingParams(t_rh=t_rh))
        layout = WeightLayout(qmodel, mc, seed=0)
        return qmodel, mc, layout

    def test_double_sided_flip_lands(self, fresh_model):
        from repro.attacks import RowHammerAttacker
        from repro.nn.quant import BitLocation

        qmodel, mc, layout = self.build(fresh_model)
        attacker = RowHammerAttacker(mc, layout, sided="double")
        loc = BitLocation(0, 0, 7)
        before = qmodel.bit_value(loc)
        assert attacker.attempt_flip(loc)
        assert qmodel.bit_value(loc) == 1 - before

    def test_double_sided_splits_activations(self, fresh_model):
        from repro.attacks import RowHammerAttacker
        from repro.dram import CommandTrace
        from repro.nn.quant import BitLocation

        qmodel, mc, layout = self.build(fresh_model)
        trace = CommandTrace(mc)
        attacker = RowHammerAttacker(mc, layout, sided="double")
        loc = BitLocation(0, 0, 7)
        logical_row, _ = layout.locate_bit(loc)
        victim = mc.indirection.physical(logical_row)
        attacker.attempt_flip(loc, max_windows=1)
        hot = dict(trace.hottest_rows(2))
        neighbors = mc.device.mapper.neighbors(victim)
        assert set(hot) == set(neighbors)
        # Same total activations as single-sided, split across both sides.
        assert sum(hot.values()) == mc.timing.t_rh

    def test_sided_validation(self, fresh_model):
        from repro.attacks import RowHammerAttacker

        qmodel, mc, layout = self.build(fresh_model)
        with pytest.raises(ValueError):
            RowHammerAttacker(mc, layout, sided="triple")

    def test_defender_blocks_double_sided(self, fresh_model, tiny_dataset):
        from repro.attacks import HammerExecutor, RowHammerAttacker
        from repro.core import DefendedDeployment

        deployment = DefendedDeployment.build(
            fresh_model,
            tiny_dataset,
            geometry=DramGeometry(
                banks=2, subarrays_per_bank=4, rows_per_subarray=64,
                row_bytes=128,
            ),
            timing=TimingParams(t_rh=1000),
            defense_params={"profile_rounds": 2, "profile_iterations": 5},
            seed=0,
        )
        attacker = RowHammerAttacker(
            deployment.controller,
            deployment.layout,
            defense=deployment.defense,
            sided="double",
        )
        executor = HammerExecutor(attacker)
        secured = sorted(deployment.defense.protected_bits())[0]
        assert not executor.execute(secured)
