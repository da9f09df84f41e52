"""Batched multi-bit hammer windows and hammer-window accounting fixes.

Covers the row-grouped ``attempt_flips`` path (one shared window and one
model sync per victim row), ``HammerExecutor``'s per-flip counts, and the
tiny-``T_RH`` burst-accounting regression (zero-activation bursts must
not tick the defense or charge commands).
"""

import numpy as np
import pytest

from repro.attacks.hammer import HammerExecutor, RowHammerAttacker
from repro.dram import DramDevice, DramGeometry, MemoryController, TimingParams
from repro.dram.commands import Command
from repro.mapping import place_model
from repro.nn.quant import BitLocation

GEOMETRY = DramGeometry(
    banks=2, subarrays_per_bank=4, rows_per_subarray=64, row_bytes=256
)


class CountingDefense:
    def __init__(self):
        self.ticks = 0

    def tick(self):
        self.ticks += 1


class SyncCountingLayout:
    """Wraps a WeightLayout, counting post-window model syncs."""

    def __init__(self, layout):
        self._layout = layout
        self.syncs = 0

    def __getattr__(self, name):
        return getattr(self._layout, name)

    def sync_model_from_dram(self, full=None):
        self.syncs += 1
        return self._layout.sync_model_from_dram(full=full)


def _deployment(fresh_quantized, t_rh=500):
    controller = MemoryController(
        DramDevice(GEOMETRY), TimingParams(t_rh=t_rh)
    )
    layout = place_model(fresh_quantized, controller, reserved_rows=2, seed=0)
    return controller, layout


def _multi_row_targets(layout, rows, bits_per_row=4):
    targets = []
    for slot in layout.slots[:rows]:
        for bit in range(bits_per_row):
            targets.append(BitLocation(slot.layer, slot.byte_offset, bit))
    assert len({layout.locate_bit(t)[0] for t in targets}) == rows
    return targets


class TestAttemptFlipsParity:
    def test_matches_sequential_with_refresh_gaps(self, quantized_factory):
        """Row-batched outcomes and final weights are identical to the
        per-bit sequential schedule (one window per bit, refresh-separated
        so same-row cells can recharge between flips)."""
        qm_seq = quantized_factory()
        controller, layout = _deployment(qm_seq)
        attacker = RowHammerAttacker(controller, layout)
        targets = _multi_row_targets(layout, rows=3)
        sequential = []
        for target in targets:
            sequential.append(attacker.attempt_flip(target, max_windows=1))
            controller.advance_time(controller.ns_until_refresh())

        qm_bat = quantized_factory()
        controller_b, layout_b = _deployment(qm_bat)
        attacker_b = RowHammerAttacker(controller_b, layout_b)
        batched = attacker_b.attempt_flips(targets, max_windows=1)

        assert batched == sequential
        assert all(batched)
        seq_bytes = [layer.packed_bytes().tobytes() for layer in qm_seq.layers]
        bat_bytes = [layer.packed_bytes().tobytes() for layer in qm_bat.layers]
        assert seq_bytes == bat_bytes

    def test_single_location_equals_attempt_flip(self, quantized_factory):
        qm_a = quantized_factory()
        controller_a, layout_a = _deployment(qm_a)
        one = RowHammerAttacker(controller_a, layout_a)
        target = BitLocation(0, 0, 6)
        flip_result = one.attempt_flip(target, max_windows=2)

        qm_b = quantized_factory()
        controller_b, layout_b = _deployment(qm_b)
        many = RowHammerAttacker(controller_b, layout_b)
        batch_result = many.attempt_flips([target], max_windows=2)

        assert batch_result == [flip_result]
        assert one.sessions == many.sessions
        assert one.activations_issued == many.activations_issued
        assert controller_a.now_ns == controller_b.now_ns

    def test_shares_windows_and_syncs_per_row(self, fresh_quantized):
        controller, layout = _deployment(fresh_quantized)
        counting = SyncCountingLayout(layout)
        attacker = RowHammerAttacker(controller, counting)
        rows, bits_per_row = 2, 4
        targets = _multi_row_targets(layout, rows, bits_per_row)
        outcomes = attacker.attempt_flips(targets, max_windows=3)
        assert all(outcomes)
        # One window (and one sync) per row, not per bit.
        assert attacker.sessions == rows
        assert counting.syncs == rows
        assert attacker.activations_issued == rows * controller.timing.t_rh

    def test_declared_targets_cleared_after_batch(self, fresh_quantized):
        controller, layout = _deployment(fresh_quantized)
        attacker = RowHammerAttacker(controller, layout)
        targets = _multi_row_targets(layout, rows=2)
        attacker.attempt_flips(targets, max_windows=1)
        for target in targets:
            logical, _ = layout.locate_bit(target)
            physical = controller.indirection.physical(logical)
            assert controller.attack_targets(physical) == frozenset()

    def test_max_windows_validation(self, fresh_quantized):
        controller, layout = _deployment(fresh_quantized)
        attacker = RowHammerAttacker(controller, layout)
        with pytest.raises(ValueError, match="max_windows"):
            attacker.attempt_flips([BitLocation(0, 0, 0)], max_windows=0)


class TestTinyTrhAccounting:
    def test_no_empty_bursts_below_chunk_count(self, fresh_quantized):
        """``t_rh < chunks_per_window``: the zero-activation bursts of the
        old even split must be dropped — the defense ticks once (not
        ``chunks_per_window`` times) and exactly ``t_rh`` attacker ACTs
        are issued per window."""
        controller, layout = _deployment(fresh_quantized, t_rh=2)
        defense = CountingDefense()
        attacker = RowHammerAttacker(
            controller, layout, defense=defense, chunks_per_window=4
        )
        flipped = attacker.attempt_flip(BitLocation(0, 0, 6), max_windows=1)
        assert flipped
        acts = controller.actor_stats("attacker").counts.get(Command.ACT, 0)
        assert acts == 2
        assert attacker.activations_issued == 2
        assert defense.ticks == 1

    def test_normal_t_rh_burst_counts_unchanged(self, fresh_quantized):
        controller, layout = _deployment(fresh_quantized, t_rh=500)
        defense = CountingDefense()
        attacker = RowHammerAttacker(
            controller, layout, defense=defense, chunks_per_window=4
        )
        attacker.attempt_flip(BitLocation(0, 0, 6), max_windows=1)
        acts = controller.actor_stats("attacker").counts.get(Command.ACT, 0)
        assert acts == 500
        assert defense.ticks == 4

    def test_double_sided_skips_empty_aggressor_share(self, fresh_quantized):
        """A 1-activation burst split across two aggressors gives the
        second aggressor an empty share, which must issue nothing."""
        controller, layout = _deployment(fresh_quantized, t_rh=1)
        attacker = RowHammerAttacker(
            controller, layout, chunks_per_window=4, sided="double"
        )
        attacker.attempt_flip(BitLocation(0, 0, 6), max_windows=1)
        acts = controller.actor_stats("attacker").counts.get(Command.ACT, 0)
        assert acts == 1
        assert attacker.activations_issued == 1


class TestHammerExecutor:
    def test_execute_counts_each_flip(self, fresh_quantized):
        """Flips replayed one ``execute`` call at a time, one per victim
        row, all land in the model, and the executor counts each one."""
        controller, layout = _deployment(fresh_quantized)
        executor = HammerExecutor(RowHammerAttacker(controller, layout))
        targets = _multi_row_targets(layout, rows=4, bits_per_row=1)
        before = [fresh_quantized.bit_value(t) for t in targets]
        outcomes = [executor.execute(target) for target in targets]
        assert outcomes == [True] * len(targets)
        assert executor.flips_performed == len(targets)
        assert executor.blocked == 0
        after = [fresh_quantized.bit_value(t) for t in targets]
        assert after == [1 - bit for bit in before]
