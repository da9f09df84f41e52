"""Tests for the deployment builder, presets, and report formatting."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    AccuracyCurve,
    SecuredBitsCurve,
    format_accuracy_curves,
    format_secured_bits_curves,
    format_latency_sweep,
    format_security_sweep,
    latency_sweep,
    security_sweep,
)
from repro.analysis.defense_eval import expand_bits_to_rows
from repro.nn.quant import BitLocation
from repro.utils.tabulate import format_table


class TestExpandBitsToRows:
    def test_expansion_covers_block(self, fresh_quantized):
        bits = {BitLocation(0, 5, 7)}
        expanded = expand_bits_to_rows(fresh_quantized, bits,
                                       weights_per_row=16)
        assert BitLocation(0, 0, 0) in expanded
        assert BitLocation(0, 15, 7) in expanded
        assert BitLocation(0, 16, 0) not in expanded
        assert len(expanded) == 16 * 8

    def test_expansion_clamps_at_layer_end(self, fresh_quantized):
        layer = fresh_quantized.layer(0)
        last = layer.num_weights - 1
        expanded = expand_bits_to_rows(
            fresh_quantized, {BitLocation(0, last, 0)}, weights_per_row=1000
        )
        assert all(loc.index < layer.num_weights for loc in expanded)

    def test_validates_weights_per_row(self, fresh_quantized):
        with pytest.raises(ValueError):
            expand_bits_to_rows(fresh_quantized, set(), weights_per_row=0)

    def test_superset_of_input(self, fresh_quantized):
        bits = {BitLocation(1, 3, 2), BitLocation(0, 0, 7)}
        expanded = expand_bits_to_rows(fresh_quantized, bits,
                                       weights_per_row=8)
        assert bits <= expanded

    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        weights_per_row=st.one_of(st.just(1), st.integers(2, 1000)),
        picks=st.lists(
            st.tuples(st.integers(0, 3), st.floats(0, 1), st.integers(0, 7)),
            max_size=12,
        ),
        probes=st.lists(
            st.tuples(st.integers(0, 3), st.floats(0, 1), st.integers(0, 7)),
            max_size=24,
        ),
    )
    def test_equals_per_bit_expansion(
        self, fresh_quantized, weights_per_row, picks, probes
    ):
        """One expansion per secured row gives the set of expanding every
        bit on its own: for bits sharing a row, bits in a layer's short
        last row, one weight per row, and rows longer than the layer (the
        first and last layers hold 432 and 640 weights).  Its row lookup
        answers membership as the per-bit set does, for the picked bits'
        neighbours and for bits anywhere."""
        sizes = [layer.num_weights for layer in fresh_quantized.layers]

        def located(layer, at, bit):
            index = min(int(at * sizes[layer]), sizes[layer] - 1)
            return BitLocation(layer, index, bit)

        bits = {located(*pick) for pick in picks}
        expected = set()
        for location in bits:
            start = location.index // weights_per_row * weights_per_row
            end = min(start + weights_per_row, sizes[location.layer])
            for index in range(start, end):
                for bit in range(8):
                    expected.add(BitLocation(location.layer, index, bit))
        expanded = expand_bits_to_rows(
            fresh_quantized, bits, weights_per_row=weights_per_row
        )
        assert expanded == expected
        assert len(expanded) == len(expected)
        neighbours = {
            BitLocation(b.layer, b.index + step, b.bit)
            for b in bits for step in (-weights_per_row, -1, 1,
                                       weights_per_row)
        }
        for location in neighbours | {located(*p) for p in probes}:
            assert (location in expanded) == (location in expected)


class TestReportFormatting:
    def test_security_sweep_table(self):
        text = format_security_sweep(security_sweep())
        assert "dnn-defender" in text
        assert "time-to-break" in text

    def test_latency_sweep_table(self):
        text = format_latency_sweep(latency_sweep(thresholds=(1000,)))
        assert "latency per T_ref" in text

    def test_accuracy_curves(self):
        curve = AccuracyCurve("bfa")
        curve.add(0, 0.9)
        curve.add(1, 0.5)
        text = format_accuracy_curves([curve])
        assert "bfa" in text
        assert "90.00" in text

    def test_secured_bits_curves(self):
        curve = SecuredBitsCurve(secured_bits=100, profile_rounds=2)
        curve.extra_flips.extend([0, 1])
        curve.accuracies.extend([0.8, 0.75])
        text = format_secured_bits_curves([curve])
        assert "100" in text
        assert "75.00" in text

    def test_format_table_validates_row_width(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_table_alignment(self):
        text = format_table(["name", "v"], [["x", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line}) == 1


class TestThreatModelFlags:
    def test_table1_defaults(self):
        from repro.attacks import SEMI_WHITE_BOX, WHITE_BOX, ThreatModel

        assert SEMI_WHITE_BOX.knows_parameters
        assert SEMI_WHITE_BOX.has_test_batch
        assert SEMI_WHITE_BOX.knows_dram_addresses
        assert not SEMI_WHITE_BOX.knows_training_data
        assert not SEMI_WHITE_BOX.has_memory_write
        assert SEMI_WHITE_BOX.name == "semi-white-box"
        assert WHITE_BOX.name == "white-box"
        assert WHITE_BOX.knows_defense

    def test_memory_write_forbidden(self):
        from repro.attacks import ThreatModel

        with pytest.raises(ValueError):
            ThreatModel(has_memory_write=True)


class TestBehavioralExecutor:
    def test_block_and_collateral_accounting(self, fresh_quantized):
        from repro.attacks import BehavioralDefenseExecutor

        executor = BehavioralDefenseExecutor(
            fresh_quantized, block_prob=1.0, collateral_prob=1.0,
            rng=np.random.default_rng(0),
        )
        snap = fresh_quantized.snapshot()
        assert not executor.execute(BitLocation(0, 0, 7))
        assert executor.blocked == 1
        assert executor.collateral_flips == 1
        # Exactly one (random) bit changed — the collateral flip.
        assert fresh_quantized.hamming_distance_from(snap) == 1

    def test_no_block_passes_through(self, fresh_quantized):
        from repro.attacks import BehavioralDefenseExecutor

        executor = BehavioralDefenseExecutor(
            fresh_quantized, block_prob=0.0, collateral_prob=0.0,
            rng=np.random.default_rng(0),
        )
        before = fresh_quantized.bit_value(BitLocation(0, 0, 7))
        assert executor.execute(BitLocation(0, 0, 7))
        assert fresh_quantized.bit_value(BitLocation(0, 0, 7)) == 1 - before

    def test_probability_validation(self, fresh_quantized):
        from repro.attacks import BehavioralDefenseExecutor

        with pytest.raises(ValueError):
            BehavioralDefenseExecutor(fresh_quantized, 1.5, 0.0,
                                      np.random.default_rng(0))
        with pytest.raises(ValueError):
            BehavioralDefenseExecutor(fresh_quantized, 0.5, -0.1,
                                      np.random.default_rng(0))
