"""End-to-end tests: DNN-Defender against the RowHammer attack driver."""

import numpy as np
import pytest

from repro.attacks import (
    BfaConfig,
    RowHammerAttacker,
    semi_white_box_attack,
    white_box_adaptive_attack,
)
from repro.core import DefendedDeployment, DefenderConfig, DNNDefender
from repro.dram import DramDevice, DramGeometry, MemoryController, TimingParams
from repro.mapping import build_protection_plan
from repro.nn.quant import BitLocation

GEOMETRY = DramGeometry(
    banks=2, subarrays_per_bank=4, rows_per_subarray=64, row_bytes=128
)
TIMING = TimingParams(t_rh=1000)


@pytest.fixture
def deployment(fresh_model, tiny_dataset):
    return DefendedDeployment.build(
        fresh_model,
        tiny_dataset,
        geometry=GEOMETRY,
        timing=TIMING,
        defense_params={"profile_rounds": 2, "profile_iterations": 5},
        seed=0,
    )


class TestDeploymentWiring:
    def test_profile_found_bits_and_rows(self, deployment):
        plan = deployment.defense.defender.plan
        assert len(plan.secured_bits) > 0
        assert plan.num_target_rows > 0

    def test_dram_holds_model(self, deployment):
        snap = deployment.qmodel.snapshot()
        deployment.layout.sync_model_from_dram()
        assert deployment.qmodel.hamming_distance_from(snap) == 0

    def test_accuracy_unaffected_by_defense_deployment(
        self, deployment, tiny_dataset
    ):
        # Table 3's headline: clean accuracy identical with defense (91.71 ->
        # 91.71 in the paper; here: unchanged from deployment).
        acc = deployment.accuracy()
        assert acc > 0.75


class TestHammerWithoutDefense:
    def test_undefended_flip_lands(self, fresh_model, tiny_dataset):
        from repro.nn import QuantizedModel
        from repro.mapping import WeightLayout

        qmodel = QuantizedModel(fresh_model)
        controller = MemoryController(DramDevice(GEOMETRY), TIMING)
        layout = WeightLayout(qmodel, controller, seed=0)
        attacker = RowHammerAttacker(controller, layout)
        loc = BitLocation(0, 0, 7)
        before = qmodel.bit_value(loc)
        assert attacker.attempt_flip(loc)
        assert qmodel.bit_value(loc) == 1 - before

    def test_partial_hammering_below_threshold_fails(self, fresh_model):
        """Direct bursts below T_RH leave the declared bit unflipped."""
        from repro.nn import QuantizedModel
        from repro.mapping import WeightLayout

        qmodel = QuantizedModel(fresh_model)
        controller = MemoryController(
            DramDevice(GEOMETRY), TimingParams(t_rh=1000)
        )
        layout = WeightLayout(qmodel, controller, seed=0)
        loc = BitLocation(0, 0, 7)
        logical_row, bit_in_row = layout.locate_bit(loc)
        physical = controller.indirection.physical(logical_row)
        controller.declare_attack_targets(physical, [bit_in_row])
        aggressor = controller.device.mapper.neighbors(physical)[-1]
        before = qmodel.bit_value(loc)
        controller.activate(aggressor, actor="attacker", count=999,
                            hammer=True)
        layout.sync_model_from_dram()
        assert qmodel.bit_value(loc) == before
        # The thousandth activation crosses the threshold.
        controller.activate(aggressor, actor="attacker", count=1, hammer=True)
        layout.sync_model_from_dram()
        assert qmodel.bit_value(loc) == 1 - before


class TestDefendedFlips:
    def test_secured_bit_is_blocked_through_dram(self, deployment):
        secured = sorted(deployment.defense.defender.secured_bits)[0]
        executor = deployment.hammer_executor()
        before = deployment.qmodel.bit_value(secured)
        assert not executor.execute(secured)
        assert deployment.qmodel.bit_value(secured) == before
        assert executor.blocked == 1
        assert deployment.defense.defender.stats.swaps_executed > 0

    def test_unprotected_bit_still_flips(self, deployment):
        executor = deployment.hammer_executor()
        secured_rows = set(deployment.defense.defender.plan.target_rows)
        # Find a weight bit living in a non-target row.
        candidate = None
        for slot in deployment.layout.slots:
            if slot.logical_row not in secured_rows:
                candidate = deployment.layout.bits_in_row(slot.logical_row)[7]
                break
        assert candidate is not None
        assert executor.execute(candidate)

    def test_logical_and_dram_paths_agree(self, deployment):
        secured = sorted(deployment.defense.defender.secured_bits)[0]
        unsecured = None
        secured_rows = set(deployment.defense.defender.plan.target_rows)
        for slot in deployment.layout.slots:
            if slot.logical_row not in secured_rows:
                unsecured = deployment.layout.bits_in_row(slot.logical_row)[3]
                break
        logical = deployment.flip_executor()
        dram = deployment.hammer_executor()
        assert logical.execute(secured) == dram.execute(secured) == False  # noqa: E712
        # Undo logical state drift before comparing the unsecured bit.
        assert logical.execute(unsecured) is True
        deployment.qmodel.flip_bit(unsecured)  # revert logical's flip
        assert dram.execute(unsecured) is True

    def test_multiple_windows_keep_blocking(self, deployment):
        secured = sorted(deployment.defense.defender.secured_bits)[0]
        executor = deployment.hammer_executor()
        for _ in range(3):
            assert not executor.execute(secured)
        assert executor.blocked == 3


class TestDefenderScheduling:
    def test_non_targets_get_refreshed(self, deployment):
        executor = deployment.hammer_executor()
        executor.execute(sorted(deployment.defense.defender.secured_bits)[0])
        assert deployment.defense.defender.stats.non_targets_refreshed > 0

    def test_latency_metric_positive_once_running(self, deployment):
        executor = deployment.hammer_executor()
        executor.execute(sorted(deployment.defense.defender.secured_bits)[0])
        assert deployment.defense.defender.defender_busy_ns > 0
        assert deployment.defense.defender.latency_per_tref_ms() > 0

    def test_overloaded_defender_defers_swaps(self, fresh_model, tiny_dataset):
        # Tiny hammer window: budget of very few swaps per pass.
        from repro.nn import QuantizedModel
        from repro.mapping import WeightLayout

        timing = TimingParams(t_rh=20)  # window = 20 * 118ns = 2.36 us
        qmodel = QuantizedModel(fresh_model)
        controller = MemoryController(DramDevice(GEOMETRY), timing)
        layout = WeightLayout(qmodel, controller, seed=0)
        # Protect many rows in one bank to exceed the per-pass budget.
        rows = [r for r in layout.weight_rows() if r.bank == 0][:24]
        bits = set()
        for row in rows:
            bits.update(layout.bits_in_row(row)[:1])
        plan = build_protection_plan(layout, bits)
        defender = DNNDefender(controller, plan)
        budget = defender.bank_budget()
        assert budget < len(rows)
        defender.run_window()
        assert defender.stats.deferred_swaps > 0
        assert defender.stats.swaps_executed <= budget * GEOMETRY.banks

    def test_every_swap_is_pipelined_and_runs_step_four(self, fresh_model):
        """Swaps overlap the previous swap's step 4 (Fig. 6), so the bank
        budget is priced at the pipelined swap cost, and every swap
        refreshes a non-target row."""
        from repro.core.pipeline import max_swaps_per_window
        from repro.mapping import WeightLayout
        from repro.nn import QuantizedModel

        qmodel = QuantizedModel(fresh_model)
        controller = MemoryController(DramDevice(GEOMETRY), TIMING)
        layout = WeightLayout(qmodel, controller, seed=0)
        rows = [r for r in layout.weight_rows() if r.bank == 0][:6]
        bits = {layout.bits_in_row(row)[0] for row in rows}
        defender = DNNDefender(controller, build_protection_plan(layout, bits))
        budget = defender.bank_budget()
        assert budget == int(max_swaps_per_window(TIMING) * 0.5)
        assert budget > int(max_swaps_per_window(TIMING, pipelined=False) * 0.5)
        assert defender.run_window() == len(rows)
        assert defender.stats.non_targets_refreshed == len(rows)
        subarrays = {row.subarray for row in rows}
        assert len(subarrays) < len(rows)  # some sub-array swaps twice
        for subarray in subarrays:
            records = defender.engine.records_for(0, subarray)
            assert records
            assert all(r.non_target_refreshed is not None for r in records)
            # Only a sub-array's first swap pays for its own step 1.
            assert [r.reused_reserved for r in records] == (
                [False] + [True] * (len(records) - 1)
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DefenderConfig(period_fraction=0.0)
        with pytest.raises(ValueError):
            DefenderConfig(period_fraction=1.5)


class TestAttackScenarios:
    def test_semi_white_box_attack_fails(self, deployment):
        """Section 5.2: a defense-unaware BFA achieves no accuracy drop
        when its targets are the profiled (and therefore secured) bits."""
        rng = np.random.default_rng(0)
        x, y = deployment.dataset.attack_batch(96, rng)
        executor = deployment.flip_executor()
        result = semi_white_box_attack(
            deployment.qmodel, x, y, executor,
            config=BfaConfig(max_iterations=5),
            eval_x=deployment.dataset.x_test,
            eval_y=deployment.dataset.y_test,
        )
        assert result.attempts, "attack should have found targets"
        assert result.blocked >= result.num_flips
        assert result.accuracy_drop <= 0.08

    def test_white_box_needs_extra_flips(self, deployment):
        """Fig. 9's mechanism: skipping secured bits forces the adaptive
        attacker onto weaker bits."""
        rng = np.random.default_rng(1)
        x, y = deployment.dataset.attack_batch(96, rng)
        secured = deployment.defense.defender.secured_bits
        executor = deployment.flip_executor()
        result = white_box_adaptive_attack(
            deployment.qmodel, x, y, executor, secured,
            config=BfaConfig(max_iterations=6),
            eval_x=deployment.dataset.x_test,
            eval_y=deployment.dataset.y_test,
        )
        # No secured bit was flipped.
        assert not set(result.flips) & secured
