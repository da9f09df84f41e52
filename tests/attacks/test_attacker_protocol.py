"""Tests for the Attacker protocol, registry, and smart-bfa evasion."""

import pytest

from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.attacks.protocol import AttackContext, AttackOutcome, Attacker
from repro.attacks.registry import (
    attacker,
    attacker_names,
    build_attacker,
    get_attacker,
    unregister_attacker,
)
from repro.defenses.protocol import DefenseContext, SecuredBitsDefense
from repro.defenses.radar import RadarDefense
from repro.defenses.registry import build_defense
from repro.nn.quant import BitLocation

BUILTIN_ATTACKERS = {
    "random", "bfa", "adaptive", "semi-white-box", "tbfa", "smart-bfa",
}


class TestRegistry:
    def test_builtins_registered(self):
        assert BUILTIN_ATTACKERS <= set(attacker_names())

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(KeyError, match="registered attackers"):
            get_attacker("no-such-attacker")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @attacker("random")
            def _clash():  # pragma: no cover - never built
                raise AssertionError

    def test_decorator_registers_and_builds(self):
        class _Probe(Attacker):
            name = "_probe"

            def plan(self, context):
                return []

        @attacker("_probe", kind="baseline", cost=0.5, tournament=False)
        def _build() -> Attacker:
            return _Probe()

        try:
            spec = get_attacker("_probe")
            assert spec.cost == 0.5
            assert not spec.tournament
            assert isinstance(build_attacker("_probe"), _Probe)
        finally:
            unregister_attacker("_probe")
        assert "_probe" not in attacker_names()

    def test_non_tournament_attackers(self):
        assert not get_attacker("tbfa").tournament
        assert not get_attacker("semi-white-box").tournament
        for name in ("random", "bfa", "adaptive", "smart-bfa"):
            assert get_attacker(name).tournament


class TestAttackContext:
    def test_rng_streams_deterministic(self, fresh_quantized):
        ctx = AttackContext(qmodel=fresh_quantized, seed=9)
        assert (
            ctx.rng(stream=2).integers(1 << 30)
            == ctx.rng(stream=2).integers(1 << 30)
        )
        assert (
            ctx.rng(stream=2).integers(1 << 30)
            != ctx.rng(stream=3).integers(1 << 30)
        )

    def test_batch_drawn_once_then_stable(self, fresh_quantized,
                                          tiny_dataset):
        ctx = AttackContext(
            qmodel=fresh_quantized, dataset=tiny_dataset, attack_batch=16
        )
        x1, _ = ctx.batch()
        x2, _ = ctx.batch()
        assert x1 is x2

    def test_batch_requires_dataset_or_explicit(self, fresh_quantized):
        with pytest.raises(ValueError, match="dataset"):
            AttackContext(qmodel=fresh_quantized).batch()

    def test_defense_queries_default_empty(self, fresh_quantized):
        ctx = AttackContext(qmodel=fresh_quantized)
        assert ctx.protected_bits() == frozenset()
        assert ctx.guarded_bit_positions() == frozenset()


class TestReplayExecute:
    def test_random_plan_deterministic_and_budget_sized(
        self, fresh_quantized, tiny_dataset
    ):
        ctx = AttackContext(
            qmodel=fresh_quantized, dataset=tiny_dataset, seed=4, budget=7
        )
        plan = build_attacker("random").plan(ctx)
        assert len(plan) == 7
        assert plan == build_attacker("random").plan(ctx)

    def test_default_execute_counts_blocked(self, fresh_quantized,
                                            tiny_dataset):
        ctx = AttackContext(
            qmodel=fresh_quantized, dataset=tiny_dataset, seed=4, budget=20
        )
        planned = build_attacker("random").plan(ctx)
        defense = SecuredBitsDefense(fresh_quantized, set(planned[:5]))
        ctx.executor = defense.executor()
        ctx.defense = defense
        outcome = build_attacker("random").execute(ctx)
        assert outcome.attempts == 20
        assert outcome.blocked == 5
        assert outcome.num_flips == 15
        assert outcome.attacker == "random"


class TestSmartBfa:
    def test_avoids_guarded_columns_and_stays_undetected(
        self, fresh_quantized, tiny_dataset
    ):
        radar = RadarDefense(fresh_quantized, check_interval=1_000_000)
        ctx = AttackContext(
            qmodel=fresh_quantized, dataset=tiny_dataset, seed=0, budget=4,
            executor=radar.executor(), defense=radar,
        )
        outcome = build_attacker("smart-bfa").execute(ctx)
        assert outcome.num_flips > 0
        assert all(f.bit not in {6, 7} for f in outcome.flips)
        assert radar.sweep() == []  # structurally invisible
        assert outcome.detail["avoided_bit_columns"] == 2.0

    def test_falls_back_to_plain_bfa_without_defense(
        self, quantized_factory, tiny_dataset
    ):
        def run(name):
            qmodel = quantized_factory()
            defense = build_defense("none", DefenseContext(qmodel=qmodel))
            ctx = AttackContext(
                qmodel=qmodel, dataset=tiny_dataset, seed=0, budget=4,
                executor=defense.executor(), defense=defense,
            )
            return build_attacker(name).execute(ctx)

        smart = run("smart-bfa")
        plain = run("bfa")
        assert smart.flips == plain.flips  # no guards -> same search


class TestBfaSkipColumns:
    def test_skip_bit_positions_validated(self, fresh_quantized,
                                          tiny_dataset):
        import numpy as np

        x, y = tiny_dataset.attack_batch(16, np.random.default_rng(0))
        with pytest.raises(ValueError):
            BitFlipAttack(fresh_quantized, x, y,
                          skip_bit_positions=frozenset({8}))

    def test_masked_columns_never_selected(
        self, quantized_factory, tiny_dataset
    ):
        import numpy as np

        qmodel = quantized_factory()
        x, y = tiny_dataset.attack_batch(64, np.random.default_rng(0))
        result = BitFlipAttack(
            qmodel, x, y,
            config=BfaConfig(max_iterations=4, exact_eval_top=4),
            skip_bit_positions=frozenset({6, 7}),
        ).run()
        assert result.flips
        assert all(f.bit not in {6, 7} for f in result.flips)


class TestAttackOutcome:
    def test_as_metrics_flattens_detail(self):
        outcome = AttackOutcome(
            attacker="x", initial_accuracy=0.9, final_accuracy=0.7,
            attempts=5, flips=[BitLocation(0, 0, 0)], blocked=2,
            detail={"b": 1.0, "a": 2.0},
        )
        metrics = outcome.as_metrics(prefix="attack_")
        assert metrics["attack_accuracy_drop"] == pytest.approx(0.2)
        assert metrics["attack_flips"] == 1.0
        assert metrics["attack_blocked"] == 2.0
        assert metrics["attack_detail.a"] == 2.0
        assert all(isinstance(v, float) for v in metrics.values())
