"""Tests for the targeted attack (T-BFA), command trace, and DD_Interrupt."""

import numpy as np
import pytest

from repro.attacks import (
    LogicalDefenseExecutor,
    TargetedBitFlipAttack,
    TbfaConfig,
)
from repro.dram import (
    CommandTrace,
    DramDevice,
    DramGeometry,
    MemoryController,
    RowAddress,
    TimingParams,
)


def attack_batch(dataset, n=128, seed=0):
    rng = np.random.default_rng(seed)
    return dataset.attack_batch(n, rng)


class TestTbfaConfig:
    def test_rejects_same_classes(self):
        with pytest.raises(ValueError):
            TbfaConfig(source_class=1, target_class=1)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            TbfaConfig(source_class=0, target_class=1, max_iterations=0)
        with pytest.raises(ValueError):
            TbfaConfig(source_class=0, target_class=1, stop_success_rate=0.0)


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
        x, y = attack_batch(tiny_dataset)
        attack = TargetedBitFlipAttack(
            fresh_quantized, x, y, TbfaConfig(source_class=0, target_class=1)
        )
        params = [p for _, p in fresh_quantized.model.named_parameters()]
        fresh_quantized.model.zero_grad()
        plain = attack._targeted_loss(build_graph=False)
        assert all(p.grad is None for p in params)
        assert attack._targeted_loss(build_graph=True) == plain
        assert any(p.grad is not None and p.grad.any() for p in params)

    def test_preservation_term_weighting(self, fresh_quantized,
                                         tiny_dataset):
        x, y = attack_batch(tiny_dataset)
        source = y == 0

        def loss(batch_x, batch_y, weight):
            return TargetedBitFlipAttack(
                fresh_quantized, batch_x, batch_y,
                TbfaConfig(source_class=0, target_class=1,
                           preserve_weight=weight),
            )._targeted_loss(build_graph=False)

        # With no other-class samples there is no preservation term.
        source_only = loss(x[source], y[source], 1.0)
        assert loss(x, y, 0.0) == source_only
        assert loss(x, y, 1.0) > loss(x, y, 0.5) > source_only


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
