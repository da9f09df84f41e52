"""Tests for the unified Defense protocol, registry, and stats plumbing."""

import json

import numpy as np
import pytest

from repro.defenses.base import DefenseStats
from repro.defenses.protocol import (
    DefenseContext,
    ModelTransformDefense,
    ReconstructionDefense,
    SecuredBitsDefense,
)
from repro.defenses.radar import RadarDefense
from repro.defenses.registry import (
    build_defense,
    defense,
    defense_names,
    get_defense,
    unregister_defense,
)
from repro.dram import DramDevice, DramGeometry, MemoryController, TimingParams
from repro.nn.quant import BitLocation

BUILTIN_DEFENSES = {
    "none", "dnn-defender", "rrs", "srs", "shadow", "p-pim",
    "radar", "reconstruction", "binarize", "clustering", "capacity",
}


class TestDefenseStats:
    def test_note_accumulates(self):
        stats = DefenseStats()
        stats.note("sweeps")
        stats.note("sweeps")
        stats.note("detections", 3)
        assert stats.notes == {"sweeps": 2, "detections": 3}

    def test_merge_sums_fields_and_notes(self):
        a = DefenseStats(reactions=1, rows_moved=2, notes={"sweeps": 1})
        b = DefenseStats(reactions=4, skipped_for_budget=1,
                         notes={"sweeps": 2, "detections": 5})
        out = a.merge(b)
        assert out is a  # in place
        assert a.reactions == 5
        assert a.rows_moved == 2
        assert a.skipped_for_budget == 1
        assert a.notes == {"sweeps": 3, "detections": 5}

    def test_as_metrics_flattens_notes_to_scalars(self):
        stats = DefenseStats(reactions=2, notes={"b": 1, "a": 7})
        metrics = stats.as_metrics(prefix="defense_")
        assert metrics["defense_reactions"] == 2.0
        assert metrics["defense_notes.a"] == 7.0
        assert metrics["defense_notes.b"] == 1.0
        assert all(isinstance(v, float) for v in metrics.values())
        # Deterministic key order: artifacts must not depend on insertion.
        assert list(metrics) == sorted(metrics, key=list(metrics).index)
        assert json.loads(json.dumps(metrics)) == metrics

    def test_to_json_round_trip(self):
        stats = DefenseStats(reactions=1, notes={"z": 2, "a": 1})
        payload = json.loads(json.dumps(stats.to_json()))
        rebuilt = DefenseStats(
            reactions=payload["reactions"],
            rows_moved=payload["rows_moved"],
            skipped_for_budget=payload["skipped_for_budget"],
            notes=dict(payload["notes"]),
        )
        assert rebuilt == stats
        assert list(payload["notes"]) == ["a", "z"]

    def test_notes_survive_scenario_aggregation(self):
        """Per-defense counters ride per-trial metrics into artifacts."""
        from repro.experiments import run_scenario, scenario, unregister

        @scenario("_stats-probe", default_trials=2)
        def _probe(ctx):
            stats = DefenseStats(reactions=ctx.trial_index)
            stats.note("detections", ctx.trial_index + 1)
            return {"metrics": stats.as_metrics("defense_"), "detail": {}}

        try:
            result = run_scenario("_stats-probe", trials=2, seed=0)
        finally:
            unregister("_stats-probe")
        assert result.metric("defense_notes.detections") == pytest.approx(1.5)
        payload = json.loads(json.dumps(result.to_json()))
        assert "defense_notes.detections" in payload["metrics"]


class TestRegistry:
    def test_builtins_registered(self):
        assert BUILTIN_DEFENSES <= set(defense_names())

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(KeyError, match="registered defenses"):
            get_defense("no-such-defense")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @defense("none")
            def _clash(context):  # pragma: no cover - never built
                raise AssertionError

    def test_decorator_registers_and_builds(self, fresh_quantized):
        @defense("_test-noop", kind="software", cost=2.0)
        def _build(context):
            return ModelTransformDefense(context.qmodel, "_test-noop")

        try:
            spec = get_defense("_test-noop")
            assert spec.cost == 2.0
            built = build_defense(
                "_test-noop", DefenseContext(qmodel=fresh_quantized)
            )
            assert built.qmodel is fresh_quantized
        finally:
            unregister_defense("_test-noop")
        assert "_test-noop" not in defense_names()

    def test_training_time_defenses_opt_out_of_tournament(self):
        for name in ("binarize", "clustering", "capacity"):
            assert not get_defense(name).tournament
        for name in ("none", "radar", "shadow", "dnn-defender"):
            assert get_defense(name).tournament


class TestProtocolLifecycle:
    def test_undefended_round_trip(self, fresh_quantized):
        with build_defense(
            "none", DefenseContext(qmodel=fresh_quantized)
        ) as d:
            assert d.executor().execute(BitLocation(0, 0, 0))
            assert d.protected_bits() == frozenset()
            assert d.guarded_bit_positions() == frozenset()
            assert d.recover() == 0
            assert d.finalize().notes["landed"] == 1
        d.close()  # idempotent after __exit__

    def test_secured_bits_block_and_protocol_surface(self, fresh_quantized):
        secured = {BitLocation(0, 0, 7), BitLocation(0, 1, 7)}
        d = SecuredBitsDefense(fresh_quantized, secured)
        assert not d.executor().execute(BitLocation(0, 0, 7))   # blocked
        assert d.executor().execute(BitLocation(0, 2, 7))       # lands
        assert d.protected_bits() == frozenset(secured)
        stats = d.finalize()
        assert stats.reactions == 1
        assert stats.notes == {"blocked": 1, "landed": 1, "secured_bits": 2}

    def test_behavioral_defense_from_registry(self, fresh_quantized):
        d = build_defense(
            "shadow", DefenseContext(qmodel=fresh_quantized, seed=5)
        )
        attempts = 40
        for i in range(attempts):
            d.executor().execute(BitLocation(0, i, 7))
        stats = d.finalize()
        assert stats.notes["blocked"] + stats.notes["landed"] == attempts
        assert stats.notes["blocked"] > 0  # SHADOW blocks most MSB flips

    def test_behavioral_defense_seed_replayable(self, quantized_factory):
        def outcome(seed):
            d = build_defense(
                "shadow",
                DefenseContext(qmodel=quantized_factory(), seed=seed),
            )
            return [
                d.executor().execute(BitLocation(0, i, 7)) for i in range(20)
            ]

        assert outcome(3) == outcome(3)
        assert outcome(3) != outcome(4)  # streams actually differ


class TestReconstructionDefense:
    def test_executor_round_trip_clamps_outliers(self, fresh_quantized):
        d = ReconstructionDefense(fresh_quantized, percentile=99.0)
        layer = fresh_quantized.layer(0)
        layer.set_int(5, 1)
        assert d.executor().execute(BitLocation(0, 5, 7))  # sign flip
        assert abs(layer.get_int(5)) <= d.guard.bounds[0]
        stats = d.finalize()
        assert stats.notes["landed"] == 1
        assert stats.notes["corrections"] >= 1

    def test_recover_reports_corrected_weights(self, fresh_quantized):
        d = build_defense(
            "reconstruction", DefenseContext(qmodel=fresh_quantized)
        )
        fresh_quantized.layer(0).set_int(0, 127)  # out-of-band outlier
        corrected = d.recover()
        assert corrected >= 1
        assert d.stats.notes["recovered_weights"] == corrected

    def test_accuracy_floor_not_below_undefended(
        self, quantized_factory, tiny_dataset
    ):
        """The clamp bounds BFA damage: the defended floor never sinks
        meaningfully below the undefended floor at equal budget."""
        from repro.analysis.defense_eval import evaluate_tournament_cell

        def floor(name):
            d = build_defense(
                name,
                DefenseContext(qmodel=quantized_factory(),
                               dataset=tiny_dataset),
            )
            try:
                return evaluate_tournament_cell(
                    "bfa", d, tiny_dataset, budget=6, seed=0
                )
            finally:
                d.close()

        undefended = floor("none")
        guarded = floor("reconstruction")
        assert (
            guarded["floor_accuracy"]
            >= undefended["floor_accuracy"] - 0.02
        )
        assert guarded["clean_accuracy"] == pytest.approx(
            undefended["clean_accuracy"]
        )


class TestRadarDefense:
    def test_msb_flip_detected_and_zeroed(self, fresh_quantized):
        radar = RadarDefense(fresh_quantized, group_size=32)
        fresh_quantized.flip_bit(BitLocation(0, 3, 7))
        assert radar.sweep() == [(0, 0)]
        zeroed = radar.detect_and_recover()
        assert zeroed >= 1
        span = fresh_quantized.layer(0).weight_int.reshape(-1)[:32]
        assert not span.any()
        assert radar.sweep() == []  # golden refreshed after repair
        assert radar.stats.notes["detections"] == 2
        assert radar.stats.notes["weights_zeroed"] == zeroed

    def test_low_bit_flips_invisible(self, fresh_quantized):
        radar = RadarDefense(fresh_quantized, group_size=32)
        for bit in range(6):  # unguarded columns
            fresh_quantized.flip_bit(BitLocation(0, 0, bit))
        assert radar.sweep() == []
        assert radar.guarded_bit_positions() == frozenset({6, 7})

    def test_reference_signatures_match_vectorized(self, fresh_quantized):
        radar = RadarDefense(fresh_quantized, group_size=16)
        for i in range(fresh_quantized.num_layers):
            np.testing.assert_array_equal(
                radar._layer_signatures(i),
                radar._layer_signatures_reference(i),
            )

    def test_tick_cadence_and_latency_accounting(self, fresh_quantized):
        radar = RadarDefense(fresh_quantized, group_size=32,
                             check_interval=4)
        fresh_quantized.flip_bit(BitLocation(0, 0, 6))
        for _ in range(3):
            radar.tick()
        assert radar.stats.notes.get("sweeps", 0) == 0  # not yet due
        radar.tick()
        assert radar.stats.notes["sweeps"] == 1
        assert radar.stats.notes["detections"] == 1
        rows = -(-fresh_quantized.total_weights // radar.weights_per_row)
        compare_rows = -(-radar.num_groups // 64)
        expected = (rows + compare_rows) * radar.timing.t_rc_ns
        assert radar.detection_ns == pytest.approx(expected)
        assert radar.stats.notes["detection_ns"] == int(round(expected))

    def test_controller_hook_attach_detach(self, fresh_quantized):
        """REP004/REP104: the activate hook must detach on close()."""
        controller = MemoryController(
            DramDevice(DramGeometry(
                banks=2, subarrays_per_bank=4, rows_per_subarray=32,
                row_bytes=128,
            )),
            TimingParams(t_rh=1000),
        )
        radar = RadarDefense(
            fresh_quantized, controller=controller, check_activations=8
        )
        assert radar._on_activate in controller._activate_hooks
        fresh_quantized.flip_bit(BitLocation(0, 0, 7))
        radar._on_activate(None, 0.0, 8)  # ACT budget reached -> sweep
        assert radar.stats.notes["sweeps"] == 1
        assert radar.stats.notes["detections"] == 1
        radar.close()
        assert radar._on_activate not in controller._activate_hooks
        radar.close()  # idempotent

    def test_build_validation(self, fresh_quantized):
        with pytest.raises(ValueError):
            RadarDefense(fresh_quantized, group_size=0)
        with pytest.raises(ValueError):
            RadarDefense(fresh_quantized, check_interval=0)
