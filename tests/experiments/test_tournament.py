"""Tests for the tournament-matrix scenario's grid, cost, and cell logic."""

from types import SimpleNamespace

import pytest

from repro.analysis.defense_eval import (
    TOURNAMENT_CELL_METRICS,
    evaluate_tournament_cell,
    tournament_matrix_rows,
)
from repro.defenses.protocol import DefenseContext
from repro.defenses.registry import build_defense
from repro.experiments.registry import get_scenario
from repro.experiments.tournament import (
    _tournament_check,
    _tournament_cost,
    tournament_cells,
)


class TestGrid:
    def test_default_grid_order(self):
        cells = tournament_cells({})
        assert len(cells) == 12  # 1 model x 4 defenses x 3 attackers x 1
        assert cells[0] == ("resnet20_cifar", "none", "random", 10)
        # models > defenses > attackers > budgets ordering:
        assert [c[1] for c in cells[:3]] == ["none"] * 3
        assert [c[2] for c in cells[:3]] == ["random", "bfa", "smart-bfa"]

    def test_cli_string_params(self):
        cells = tournament_cells({
            "defenses": "none,radar",
            "attackers": " random , smart-bfa ",
            "budgets": "4,8",
        })
        assert len(cells) == 8
        assert cells[0] == ("resnet20_cifar", "none", "random", 4)
        assert cells[-1] == ("resnet20_cifar", "radar", "smart-bfa", 8)

    def test_scalar_budget_param(self):
        cells = tournament_cells({"budgets": 5})
        assert all(c[3] == 5 for c in cells)

    def test_default_trials_cover_grid(self):
        assert get_scenario("tournament-matrix").default_trials == len(
            tournament_cells({})
        )

    @pytest.mark.parametrize("axis", ["models", "defenses", "attackers"])
    def test_empty_roster_axis_is_named(self, axis):
        with pytest.raises(ValueError, match=f"the {axis} roster is empty"):
            tournament_cells({axis: ""})

    def test_empty_roster_fails_the_cost_hint_too(self):
        with pytest.raises(ValueError, match="the defenses roster is empty"):
            _tournament_cost(0, {"defenses": " , "})


class TestCost:
    def test_multiplies_registry_hints(self):
        params = {"defenses": "radar", "attackers": "bfa", "budgets": "10"}
        # radar cost 1.5 x bfa cost 3.0 x budget 10
        assert _tournament_cost(0, params) == pytest.approx(45.0)

    def test_replicates_reuse_cell_cost(self):
        cells = tournament_cells({})
        assert _tournament_cost(3, {}) == _tournament_cost(
            3 + len(cells), {}
        )

    @pytest.mark.parametrize("axis,kind", [
        ("defenses", "defense"), ("attackers", "attacker"),
    ])
    def test_unknown_cell_name_raises_the_registry_error(self, axis, kind):
        # The sharded scheduler reads the hint before any worker launches,
        # so a bad name must fail here, as the serial trial does.
        with pytest.raises(KeyError, match=f"unknown {kind} 'nope'"):
            _tournament_cost(0, {axis: "nope"})


class TestMatrixRows:
    def test_replicates_average_per_cell(self):
        cells = [("m", "none", "random", 4), ("m", "radar", "bfa", 4)]
        base = {key: 0.0 for key in TOURNAMENT_CELL_METRICS}
        trials = [
            {**base, "cell_index": 0, "floor_accuracy": 0.8},
            {**base, "cell_index": 1, "floor_accuracy": 0.5},
            {**base, "cell_index": 0, "floor_accuracy": 0.6},  # replicate
        ]
        rows = tournament_matrix_rows(cells, trials)
        assert rows[cells[0]]["floor_accuracy"] == pytest.approx(0.7)
        assert rows[cells[1]]["floor_accuracy"] == pytest.approx(0.5)
        assert set(rows[cells[0]]) == set(TOURNAMENT_CELL_METRICS)


class TestCheck:
    """The check's DNN-Defender floors, on fabricated per-trial metrics."""

    CELLS = [
        ["resnet20_cifar", "none", "bfa", 12],
        ["resnet20_cifar", "dnn-defender", "bfa", 12],
    ]

    def result(self, none_floor, dd_floor, dd_clean=0.97):
        base = {key: 0.0 for key in TOURNAMENT_CELL_METRICS}
        trials = [
            {**base, "cell_index": 0, "clean_accuracy": 0.97,
             "floor_accuracy": none_floor},
            {**base, "cell_index": 1, "clean_accuracy": dd_clean,
             "floor_accuracy": dd_floor},
        ]
        return SimpleNamespace(
            trials=len(trials), detail={"cells": self.CELLS},
            per_trial_metrics=trials,
        )

    def test_defended_floor_holds(self):
        _tournament_check(self.result(none_floor=0.88, dd_floor=0.95))

    def test_defended_floor_below_undefended_fails(self):
        with pytest.raises(AssertionError):
            _tournament_check(
                self.result(none_floor=0.94, dd_floor=0.93, dd_clean=0.95)
            )

    def test_defended_floor_far_below_its_clean_accuracy_fails(self):
        with pytest.raises(AssertionError):
            _tournament_check(self.result(none_floor=0.30, dd_floor=0.90))

    def test_floors_compare_within_one_budget(self):
        cells = self.CELLS + [["resnet20_cifar", "none", "bfa", 4]]
        result = self.result(none_floor=0.88, dd_floor=0.95)
        result.detail["cells"] = cells
        base = dict(result.per_trial_metrics[0])
        result.per_trial_metrics.append(
            {**base, "cell_index": 2, "floor_accuracy": 0.96}
        )
        result.trials = 3
        _tournament_check(result)


class TestCell:
    def test_cell_reports_full_metric_vocabulary(
        self, fresh_quantized, tiny_dataset
    ):
        defense = build_defense(
            "none", DefenseContext(qmodel=fresh_quantized,
                                   dataset=tiny_dataset)
        )
        try:
            metrics = evaluate_tournament_cell(
                "random", defense, tiny_dataset, budget=3, seed=0
            )
        finally:
            defense.close()
        assert set(metrics) == set(TOURNAMENT_CELL_METRICS)
        assert metrics["clean_accuracy"] > 0.5
        assert metrics["flips_landed"] == 3.0
        assert metrics["detections"] == 0.0
        assert metrics["detection_ns"] == 0.0

    def test_radar_cell_detects_and_recovers_bfa(
        self, fresh_quantized, tiny_dataset
    ):
        defense = build_defense(
            "radar", DefenseContext(qmodel=fresh_quantized,
                                    dataset=tiny_dataset)
        )
        try:
            metrics = evaluate_tournament_cell(
                "bfa", defense, tiny_dataset, budget=6, seed=0
            )
        finally:
            defense.close()
        assert metrics["detections"] > 0
        assert metrics["detection_ns"] > 0
        assert metrics["recovery_accuracy"] >= (
            metrics["floor_accuracy"] - 0.05
        )

    def test_radar_cell_blind_to_smart_bfa(
        self, fresh_quantized, tiny_dataset
    ):
        defense = build_defense(
            "radar", DefenseContext(qmodel=fresh_quantized,
                                    dataset=tiny_dataset)
        )
        try:
            metrics = evaluate_tournament_cell(
                "smart-bfa", defense, tiny_dataset, budget=6, seed=0
            )
        finally:
            defense.close()
        assert metrics["flips_landed"] > 0
        assert metrics["detections"] == 0.0
        assert metrics["recovered_weights"] == 0.0
