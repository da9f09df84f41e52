"""Tests for the Attacker protocol, registry, and smart-bfa evasion."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.attacks.builtin import BfaAttacker
from repro.attacks.protocol import AttackContext, AttackOutcome, Attacker
from repro.attacks.registry import (
    attacker,
    attacker_names,
    build_attacker,
    get_attacker,
    iter_attackers,
    unregister_attacker,
)
from repro.defenses.protocol import DefenseContext, SecuredBitsDefense
from repro.defenses.radar import RadarDefense
from repro.defenses.registry import build_defense
from repro.nn.quant import BitLocation
from repro.nn.train import evaluate

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


class TestBfaRegistrations:
    """``bfa``, ``adaptive`` and ``smart-bfa`` run one search: they
    differ only in what they read of the defense."""

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 1000), budget=st.integers(1, 4))
    def test_registrations_differ_only_in_what_they_read(
        self, seed, budget, quantized_factory, tiny_dataset
    ):
        def execute(name, secured=frozenset()):
            qmodel = quantized_factory()
            defense = SecuredBitsDefense(qmodel, set(secured))
            ctx = AttackContext(
                qmodel=qmodel, dataset=tiny_dataset, seed=seed,
                budget=budget, executor=defense.executor(), defense=defense,
            )
            return build_attacker(name).execute(ctx)

        plain = execute("bfa").flips
        assert plain
        # Nothing protected, nothing guarded: all three flip the same bits.
        assert execute("adaptive").flips == plain
        assert execute("smart-bfa").flips == plain
        # Protected bits but no guarded columns: smart-bfa reads only what
        # adaptive reads, and neither tries a protected bit.
        secured = frozenset(plain)
        adaptive = execute("adaptive", secured)
        smart = execute("smart-bfa", secured)
        assert adaptive.flips and adaptive.blocked == 0
        assert smart.flips == adaptive.flips and smart.blocked == 0

    def test_one_class_three_registrations(self):
        specs = {name: get_attacker(name)
                 for name in ("bfa", "adaptive", "smart-bfa")}
        assert {name: (spec.kind, spec.cost, spec.tournament)
                for name, spec in specs.items()} == {
            "bfa": ("white-box", 3.0, True),
            "adaptive": ("adaptive", 3.0, True),
            "smart-bfa": ("adaptive", 3.0, True),
        }
        built = [build_attacker(name) for name in specs]
        assert {type(a) for a in built} == {BfaAttacker}
        assert [a.name for a in built] == list(specs)

    @pytest.mark.parametrize("name, reads, detail", [
        ("bfa", [], {}),
        ("adaptive", ["protected_bits"], {"known_secured_bits": 1.0}),
        ("smart-bfa", ["guarded_bit_positions", "protected_bits"],
         {"avoided_bit_columns": 2.0, "known_secured_bits": 1.0}),
    ], ids=["bfa", "adaptive", "smart-bfa"])
    def test_reads_only_its_defense_queries(
        self, name, reads, detail, quantized_factory, tiny_dataset
    ):
        qmodel = quantized_factory()

        class SpyDefense:
            """Answers both queries, and records which were asked."""

            def __init__(self):
                self.asked = []

            def protected_bits(self):
                self.asked.append("protected_bits")
                return {BitLocation(0, 0, 7)}

            def guarded_bit_positions(self):
                self.asked.append("guarded_bit_positions")
                return {6, 7}

        spy = SpyDefense()
        ctx = AttackContext(
            qmodel=qmodel, dataset=tiny_dataset, seed=0, budget=2,
            defense=spy,
        )
        outcome = build_attacker(name).execute(ctx)
        assert sorted(spy.asked) == reads
        assert outcome.attacker == name
        assert outcome.detail == detail
        assert list(outcome.detail) == list(detail)  # key order is stable


class TestOutcomeEndpoints:
    """Tournament cells reuse ``initial_accuracy``/``final_accuracy`` as
    their clean accuracy and floor, so both must equal an evaluation of
    the test split right before and right after ``execute``."""

    @pytest.mark.parametrize("defense_name", ["none", "radar"])
    @pytest.mark.parametrize(
        "name", [spec.name for spec in iter_attackers() if spec.tournament]
    )
    def test_endpoints_equal_surrounding_evaluations(
        self, name, defense_name, quantized_factory, tiny_dataset
    ):
        qmodel = quantized_factory()
        defense = build_defense(
            defense_name, DefenseContext(qmodel=qmodel, dataset=tiny_dataset)
        )
        x_test, y_test = tiny_dataset.x_test, tiny_dataset.y_test
        ctx = AttackContext(
            qmodel=qmodel, dataset=tiny_dataset, seed=0, budget=4,
            executor=defense.executor(), defense=defense,
            eval_x=x_test, eval_y=y_test,
        )
        before = evaluate(qmodel.model, x_test, y_test)
        outcome = build_attacker(name).execute(ctx)
        after = evaluate(qmodel.model, x_test, y_test)
        defense.close()
        assert outcome.attempts > 0
        assert outcome.initial_accuracy == before
        assert outcome.final_accuracy == after


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
