"""Tests for registry-resolved deployments: build(defense=..., attacker=...)."""

import pytest

from repro.core import DefendedDeployment
from repro.defenses import iter_defenses
from repro.dram import DramGeometry, TimingParams
from repro.nn.quant import BitLocation

GEOMETRY = DramGeometry(
    banks=2, subarrays_per_bank=4, rows_per_subarray=64, row_bytes=128
)
TIMING = TimingParams(t_rh=1000)
# A short DNN-Defender profile; the other builders ignore these keys.
PROFILE = {"profile_rounds": 2, "profile_iterations": 5}
TOURNAMENT_DEFENSES = [spec.name for spec in iter_defenses() if spec.tournament]


def _build(fresh_model, tiny_dataset, **kwargs):
    return DefendedDeployment.build(
        fresh_model, tiny_dataset, geometry=GEOMETRY, timing=TIMING,
        seed=0, **kwargs,
    )


class TestRegistryDefenses:
    def test_radar_deployment_round_trip(self, fresh_model, tiny_dataset):
        with _build(
            fresh_model, tiny_dataset, defense="radar", attacker="smart-bfa"
        ) as deployment:
            assert deployment.defense.name == "radar"
            # Built with the live controller: the activate hook is attached
            # until close() (REP004/REP104 through the deployment).
            hook = deployment.defense._on_activate
            assert hook in deployment.controller._activate_hooks
            outcome = deployment.run_attack(budget=3)
            assert outcome.attacker == "smart-bfa"
            assert outcome.num_flips > 0
            assert all(f.bit not in {6, 7} for f in outcome.flips)
        assert hook not in deployment.controller._activate_hooks
        deployment.close()  # idempotent

    @pytest.mark.parametrize("name", ["random", "bfa"])
    def test_none_defense_and_attacker_override(
        self, name, fresh_model, tiny_dataset
    ):
        deployment = _build(fresh_model, tiny_dataset, defense="none")
        before = deployment.accuracy()
        outcome = deployment.run_attack(attacker=name, budget=5)
        assert outcome.attacker == name
        assert outcome.num_flips == 5
        # The endpoints are measured on the test split, as accuracy() is.
        assert outcome.initial_accuracy == before
        assert outcome.final_accuracy == deployment.accuracy()

    def test_unnamed_attacker_rejected(self, fresh_model, tiny_dataset):
        deployment = _build(fresh_model, tiny_dataset, defense="none")
        with pytest.raises(ValueError, match="no attacker named"):
            deployment.run_attack()

    def test_default_path_still_builds_defender(
        self, fresh_model, tiny_dataset
    ):
        deployment = _build(
            fresh_model, tiny_dataset, defense_params=PROFILE,
            attacker="adaptive",
        )
        assert deployment.defense.name == "dnn-defender"
        assert deployment.defense.protected_bits() == frozenset(
            deployment.defense.defender.secured_bits
        )
        outcome = deployment.run_attack(budget=3)
        assert outcome.attacker == "adaptive"
        assert outcome.detail["known_secured_bits"] > 0


class TestHammerPathTicks:
    """Every tournament defense ticks when flips go through DRAM."""

    @pytest.mark.parametrize("name", TOURNAMENT_DEFENSES)
    def test_hammer_driver_ticks_the_defense(
        self, name, fresh_model, tiny_dataset
    ):
        deployment = _build(
            fresh_model, tiny_dataset, defense=name, defense_params=PROFILE
        )
        defense = deployment.defense
        ticks = 0
        inner = defense.tick

        def counted():
            nonlocal ticks
            ticks += 1
            inner()

        defense.tick = counted
        executor = deployment.hammer_executor()
        for layer in range(3):
            executor.execute(BitLocation(layer, 0, 7))
        assert ticks > 0
        if name == "radar":
            notes = defense.finalize().notes
            assert notes["sweeps"] > 0
            assert notes["detection_ns"] > 0
        deployment.close()
        deployment.close()
        assert deployment.controller._activate_hooks == []
