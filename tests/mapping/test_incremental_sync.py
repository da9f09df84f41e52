"""Incremental vs full model<->DRAM sync parity.

The incremental path reloads only dirty rows; after any randomized
sequence of DRAM-side mutations (pokes, RowHammer flips, defender swap
chains) an incremental sync must leave the model byte-identical to what
a full re-read produces.
"""

import numpy as np
import pytest

from repro.core import SwapEngine
from repro.dram import (
    DramDevice,
    DramGeometry,
    MemoryController,
    TimingParams,
)
from repro.mapping import place_model
from repro.nn.quant import BitLocation

GEOMETRY = DramGeometry(
    banks=2, subarrays_per_bank=4, rows_per_subarray=64, row_bytes=128
)


@pytest.fixture
def controller():
    return MemoryController(DramDevice(GEOMETRY), TimingParams(t_rh=200))


@pytest.fixture
def layout(fresh_quantized, controller):
    return place_model(fresh_quantized, controller, reserved_rows=2, seed=0)


def _random_poke(layout, controller, rng):
    row = layout.weight_rows()[int(rng.integers(0, layout.num_rows))]
    data = controller.peek_logical(row)
    data[int(rng.integers(0, data.size))] ^= np.uint8(1 << rng.integers(0, 8))
    controller.poke_logical(row, data)


def _random_hammer_flip(layout, controller, rng):
    row = layout.weight_rows()[int(rng.integers(0, layout.num_rows))]
    physical = controller.indirection.physical(row)
    bit = int(rng.integers(0, GEOMETRY.row_bytes * 8))
    controller.declare_attack_targets(physical, [bit])
    neighbors = controller.device.mapper.neighbors(physical)
    controller.activate(
        neighbors[-1], actor="attacker",
        count=controller.timing.t_rh + 1, hammer=True,
    )
    controller.clear_attack_targets(physical)


def _random_swap_chain(layout, controller, rng):
    engine = SwapEngine(controller, reserved_rows=2)
    rows = layout.weight_rows()
    picks = rng.choice(len(rows), size=4, replace=False)
    for i in picks:
        engine.swap_target(rows[int(i)], rng, exclude=set(rows))


class TestIncrementalSyncParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_mutation_sequences(
        self, layout, controller, fresh_quantized, seed
    ):
        rng = np.random.default_rng(seed)
        actions = [_random_poke, _random_hammer_flip, _random_swap_chain]
        for step in range(8):
            actions[int(rng.integers(0, len(actions)))](layout, controller,
                                                        rng)
            layout.sync_model_from_dram()  # incremental (default)
            snapshot = fresh_quantized.snapshot()
            layout.sync_model_from_dram(full=True)
            assert fresh_quantized.hamming_distance_from(snapshot) == 0, (
                f"incremental sync diverged from full sync at step {step}"
            )

    def test_incremental_picks_up_hammer_flip(
        self, layout, controller, fresh_quantized
    ):
        location = BitLocation(0, 5, 2)
        row, bit_in_row = layout.locate_bit(location)
        before = fresh_quantized.bit_value(location)
        physical = controller.indirection.physical(row)
        controller.declare_attack_targets(physical, [bit_in_row])
        neighbors = controller.device.mapper.neighbors(physical)
        controller.activate(
            neighbors[0], actor="attacker",
            count=controller.timing.t_rh + 1, hammer=True,
        )
        layout.sync_model_from_dram()
        assert fresh_quantized.bit_value(location) == 1 - before

    def test_noop_sync_touches_nothing(self, layout, fresh_quantized):
        versions = [layer.version for layer in fresh_quantized.layers]
        layout.sync_model_from_dram()
        assert [layer.version for layer in fresh_quantized.layers] == versions

    def test_full_reloads_every_layer(self, layout, fresh_quantized):
        versions = [layer.version for layer in fresh_quantized.layers]
        layout.sync_model_from_dram(full=True)  # bumps every layer
        assert all(
            layer.version > v
            for layer, v in zip(fresh_quantized.layers, versions)
        )


class TestLoadPackedSlice:
    def test_slice_updates_ints_and_floats(self, fresh_quantized):
        layer = fresh_quantized.layers[0]
        packed = layer.packed_bytes()
        packed[3] ^= 0xFF
        layer.load_packed_slice(2, packed[2:6])
        np.testing.assert_array_equal(layer.packed_bytes(), packed)
        np.testing.assert_allclose(
            layer.module.weight.data.reshape(-1),
            layer.weight_int.reshape(-1).astype(np.float32) * layer.scale,
        )

    def test_bounds_checked(self, fresh_quantized):
        layer = fresh_quantized.layers[0]
        with pytest.raises(ValueError):
            layer.load_packed_slice(-1, np.zeros(2, np.uint8))
        with pytest.raises(ValueError):
            layer.load_packed_slice(
                layer.num_weights - 1, np.zeros(2, np.uint8)
            )

    def test_empty_slice_is_noop(self, fresh_quantized):
        layer = fresh_quantized.layers[0]
        version = layer.version
        layer.load_packed_slice(0, np.zeros(0, np.uint8))
        assert layer.version == version
