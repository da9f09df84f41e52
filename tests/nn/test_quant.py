"""Tests for 8-bit quantization and bit-level weight manipulation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    BitLocation,
    Linear,
    QuantizedModel,
    ReLU,
    Sequential,
    Tensor,
)
from repro.utils.bits import bit_flip_delta


def make_quantized(seed=0, sizes=(6, 8, 4)):
    rng = np.random.default_rng(seed)
    model = Sequential(
        Linear(sizes[0], sizes[1], rng=rng),
        ReLU(),
        Linear(sizes[1], sizes[2], rng=rng),
    )
    return model, QuantizedModel(model)


class TestQuantization:
    def test_finds_quantizable_layers(self):
        _, qmodel = make_quantized()
        assert qmodel.num_layers == 2
        assert qmodel.total_weights == 6 * 8 + 8 * 4
        assert qmodel.total_bits == qmodel.total_weights * 8

    def test_scale_maps_max_weight_to_127(self):
        model, qmodel = make_quantized(seed=3)
        for layer in qmodel.layers:
            assert np.abs(layer.weight_int).max() == 127

    def test_dequantized_weights_close_to_float(self):
        rng = np.random.default_rng(4)
        model = Sequential(Linear(20, 20, rng=rng))
        original = model.layers[0].weight.data.copy()
        qmodel = QuantizedModel(model)
        scale = qmodel.layers[0].scale
        np.testing.assert_allclose(
            model.layers[0].weight.data, original, atol=scale / 2 + 1e-7
        )

    def test_quantized_forward_still_works(self):
        model, qmodel = make_quantized()
        x = Tensor(np.ones((2, 6), dtype=np.float32))
        out = qmodel(x)
        assert out.shape == (2, 4)

    def test_rejects_model_without_quantizable_layers(self):
        with pytest.raises(ValueError):
            QuantizedModel(Sequential(ReLU()))


class TestBitFlips:
    def test_flip_changes_float_weight_consistently(self):
        _, qmodel = make_quantized(seed=5)
        loc = BitLocation(layer=0, index=3, bit=7)
        before_int = qmodel.get_int(loc)
        layer = qmodel.layer(0)
        before_float = layer.module.weight.data.flat[3]
        delta = qmodel.flip_bit(loc)
        after_int = qmodel.get_int(loc)
        after_float = layer.module.weight.data.flat[3]
        assert delta == pytest.approx(
            bit_flip_delta(before_int, 7) * layer.scale
        )
        assert after_int - before_int == bit_flip_delta(before_int, 7)
        assert after_float - before_float == pytest.approx(delta, rel=1e-5)

    def test_double_flip_restores(self):
        _, qmodel = make_quantized(seed=6)
        loc = BitLocation(layer=1, index=0, bit=4)
        before = qmodel.get_int(loc)
        qmodel.flip_bit(loc)
        qmodel.flip_bit(loc)
        assert qmodel.get_int(loc) == before

    def test_bit_value_reads_twos_complement(self):
        _, qmodel = make_quantized(seed=7)
        layer = qmodel.layer(0)
        layer.set_int(0, -1)  # 0xFF: all bits set
        for bit in range(8):
            assert qmodel.bit_value(BitLocation(0, 0, bit)) == 1

    def test_set_int_range_check(self):
        _, qmodel = make_quantized()
        with pytest.raises(ValueError):
            qmodel.layer(0).set_int(0, 200)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-127, 127), st.integers(0, 7))
    def test_flip_matches_bit_delta_everywhere(self, value, bit):
        _, qmodel = make_quantized(seed=8)
        layer = qmodel.layer(0)
        layer.set_int(1, value)
        delta = layer.flip_bit(1, bit)
        assert layer.get_int(1) - value == bit_flip_delta(value, bit)
        assert delta == pytest.approx(
            bit_flip_delta(value, bit) * layer.scale, rel=1e-6
        )


def _assert_dequantized(layer):
    expected = layer.weight_int.astype(np.float32) * layer.scale
    assert layer.module.weight.data.tobytes() == expected.tobytes()


class TestDequantization:
    """Every integer-weight writer stores the same float for the same
    integer, so the flip and DRAM-sync paths agree and a revert is exact."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["set_int", "flip_bit", "load_packed_slice"]),
            st.integers(0, 47),
            st.integers(-128, 127),
        ),
        min_size=1, max_size=8,
    ))
    def test_writers_store_dequantized_weights(self, ops):
        _, qmodel = make_quantized(seed=12)
        layer = qmodel.layer(0)  # 8 x 6 weights
        for kind, index, value in ops:
            if kind == "set_int":
                layer.set_int(index, value)
            elif kind == "flip_bit":
                layer.flip_bit(index, value % 8)
            else:
                layer.load_packed_slice(
                    index, np.array([value % 256], dtype=np.uint8)
                )
            _assert_dequantized(layer)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2), st.integers(0, 47), st.integers(0, 7))
    def test_flip_then_revert_restores_float_weights(self, seed, index, bit):
        _, qmodel = make_quantized(seed=seed)
        layer = qmodel.layer(0)
        before = layer.module.weight.data.copy()
        layer.flip_bit(index, bit)
        layer.flip_bit(index, bit)
        assert layer.module.weight.data.tobytes() == before.tobytes()


class TestPackedBytes:
    def test_roundtrip(self):
        _, qmodel = make_quantized(seed=9)
        layer = qmodel.layer(0)
        packed = layer.packed_bytes()
        assert packed.dtype == np.uint8
        assert packed.size == layer.num_weights
        original = layer.weight_int.copy()
        layer.load_packed_bytes(packed)
        np.testing.assert_array_equal(layer.weight_int, original)

    def test_load_syncs_float_weights(self):
        _, qmodel = make_quantized(seed=10)
        layer = qmodel.layer(0)
        packed = layer.packed_bytes()
        packed[0] ^= 0x80  # flip sign bit of first weight
        layer.load_packed_bytes(packed)
        expected = layer.weight_int.astype(np.float32) * layer.scale
        np.testing.assert_allclose(
            layer.module.weight.data, expected.reshape(layer.shape)
        )

    def test_size_validation(self):
        _, qmodel = make_quantized()
        with pytest.raises(ValueError):
            qmodel.layer(0).load_packed_bytes(np.zeros(3, dtype=np.uint8))


class TestSnapshots:
    def test_snapshot_restore(self):
        _, qmodel = make_quantized(seed=11)
        snap = qmodel.snapshot()
        qmodel.flip_bit(BitLocation(0, 0, 7))
        qmodel.flip_bit(BitLocation(1, 2, 6))
        assert qmodel.hamming_distance_from(snap) == 2
        qmodel.restore(snap)
        assert qmodel.hamming_distance_from(snap) == 0

    def test_restore_validates_shapes(self):
        _, qmodel = make_quantized()
        snap = qmodel.snapshot()
        snap[0] = snap[0][:2]
        with pytest.raises(ValueError):
            qmodel.restore(snap)

    def test_restore_validates_length(self):
        _, qmodel = make_quantized()
        with pytest.raises(ValueError):
            qmodel.restore([])
