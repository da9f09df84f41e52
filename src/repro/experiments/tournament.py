"""The ``tournament-matrix`` scenario: every attacker vs every defense.

Generalizes the paper's Fig. 6/7 comparisons into a full cross product:
a grid of **attacker x defense x model x budget** cells, each cell one
trial of the runner.  Attackers and defenses resolve by name through
their registries (:mod:`repro.attacks.registry`,
:mod:`repro.defenses.registry`), so a new ``@attacker`` or ``@defense``
joins the tournament by registering and being named on the roster —
no scenario change needed.

Cell-to-trial mapping: trial ``i`` runs cell ``i % len(cells)`` in
deterministic grid order (models > defenses > attackers > budgets, the
roster orders as given); trials beyond the grid size are Monte-Carlo
replicates with fresh derived seeds.  Every trial reports the same flat
metric vocabulary (:data:`repro.analysis.defense_eval.
TOURNAMENT_CELL_METRICS` plus the cell coordinates), which keeps the
aggregate artifact byte-identical across serial / process-pool /
sharded backends by the runner's usual construction.

The per-cell cost hint multiplies the registered defense and attacker
``cost`` fields with the flip budget, so the sharded backend leases the
expensive cells (profiled defenses, progressive attackers) first.
"""

from __future__ import annotations

from repro.analysis.defense_eval import (
    evaluate_tournament_cell,
    tournament_matrix_rows,
)
from repro.experiments.registry import scenario
from repro.experiments.scenarios import _int_grid
from repro.nn.quant import QuantizedModel
from repro.utils.tabulate import format_table

__all__ = ["tournament_cells"]

_DEFAULT_MODELS = ("resnet20_cifar",)
_DEFAULT_DEFENSES = ("none", "dnn-defender", "shadow", "radar")
_DEFAULT_ATTACKERS = ("random", "bfa", "smart-bfa")
_DEFAULT_BUDGETS = (10,)


def _str_grid(value, default: tuple[str, ...]) -> tuple[str, ...]:
    """Coerce a roster parameter (tuple or ``"a,b,c"`` CLI string)."""
    if value is None:
        return default
    if isinstance(value, str):
        return tuple(v for v in (s.strip() for s in value.split(",")) if v)
    return tuple(str(v) for v in value)


def tournament_cells(params) -> list[tuple[str, str, str, int]]:
    """The grid in trial order: (model, defense, attacker, budget).

    Raises:
        ValueError: a roster axis names no entry (``--param defenses=``).
    """
    get = params.get if hasattr(params, "get") else lambda k, d=None: d
    models = _str_grid(get("models"), _DEFAULT_MODELS)
    defenses = _str_grid(get("defenses"), _DEFAULT_DEFENSES)
    attackers = _str_grid(get("attackers"), _DEFAULT_ATTACKERS)
    budgets = _int_grid(get("budgets"), _DEFAULT_BUDGETS)
    for axis, roster in (
        ("models", models), ("defenses", defenses),
        ("attackers", attackers), ("budgets", budgets),
    ):
        if not roster:
            raise ValueError(
                f"tournament-matrix: the {axis} roster is empty"
            )
    return [
        (model, defense, attacker, budget)
        for model in models
        for defense in defenses
        for attacker in attackers
        for budget in budgets
    ]


def _tournament_cost(trial_index: int, params) -> float:
    """Relative cell cost: registry hints x flip budget (never results)."""
    from repro.attacks.registry import get_attacker
    from repro.defenses.registry import get_defense

    cells = tournament_cells(params)
    _, defense, attacker, budget = cells[trial_index % len(cells)]
    try:
        defense_cost = get_defense(defense).cost
        attacker_cost = get_attacker(attacker).cost
    except KeyError:
        return 1.0  # unknown cell names fail in the trial, not the hint
    return defense_cost * attacker_cost * max(float(budget), 1.0)


@scenario(
    "tournament-matrix",
    title="Attacker x defense tournament: floor/detection/recovery matrix",
    source="generalization of Figs. 6/7",
    presets=("resnet20_cifar",),
    tags=("sweep", "attack", "tournament"),
    default_trials=len(tournament_cells({})),
    trial_cost=_tournament_cost,
)
def tournament_matrix(ctx):
    """One tournament cell (see the module docstring for the mapping)."""
    from repro.defenses.protocol import DefenseContext
    from repro.defenses.registry import build_defense

    cells = tournament_cells(ctx.params)
    index = ctx.trial_index % len(cells)
    model_name, defense_name, attacker_name, budget = cells[index]
    preset = ctx.preset(model_name)
    qmodel = QuantizedModel(preset.fresh_model())
    defense = build_defense(
        defense_name,
        DefenseContext(
            qmodel=qmodel,
            dataset=preset.dataset,
            seed=ctx.seed,
            params=dict(ctx.params),
            trial=ctx,
            preset_name=model_name,
        ),
    )
    try:
        metrics = evaluate_tournament_cell(
            attacker_name,
            defense,
            preset.dataset,
            budget=budget,
            seed=ctx.seed,
            params=dict(ctx.params),
        )
    finally:
        defense.close()
    metrics["cell_index"] = float(index)
    metrics["replicate"] = float(ctx.trial_index // len(cells))
    metrics["budget"] = float(budget)
    return {
        "metrics": metrics,
        "detail": {"cells": [list(cell) for cell in cells]},
    }


def _matrix(result) -> dict[tuple, dict[str, float]]:
    cells = [tuple(cell) for cell in result.detail["cells"]]
    return tournament_matrix_rows(cells, result.per_trial_metrics)


@tournament_matrix.check
def _tournament_check(result):
    rows = _matrix(result)
    cells = [tuple(cell) for cell in result.detail["cells"]]
    if result.trials >= len(cells):
        # Full coverage: every grid cell ran at least once.
        assert len(rows) == len(cells), (
            f"only {len(rows)}/{len(cells)} cells covered"
        )
    for cell, row in rows.items():
        assert row["clean_accuracy"] > 0.2, (cell, row["clean_accuracy"])
        # A lucky landed flip can *raise* accuracy on the finite eval
        # batch, so the floor is only bounded near the clean accuracy,
        # not strictly below it.
        assert row["floor_accuracy"] <= row["clean_accuracy"] + 0.02, (
            cell, row["floor_accuracy"], row["clean_accuracy"]
        )

    def find(defense, attacker):
        matches = [
            row for cell, row in rows.items()
            if cell[1] == defense and cell[2] == attacker
        ]
        return matches[0] if matches else None

    # Targeted beats random on the undefended model.
    undefended_bfa = find("none", "bfa")
    undefended_random = find("none", "random")
    if undefended_bfa and undefended_random:
        assert (
            undefended_bfa["accuracy_drop"]
            >= undefended_random["accuracy_drop"] - 1e-9
        )
    # RADAR catches the MSB-targeting BFA and pays a detection-ns cost...
    radar_bfa = find("radar", "bfa")
    if radar_bfa:
        assert radar_bfa["detections"] > 0
        assert radar_bfa["detection_ns"] > 0
        assert (
            radar_bfa["recovery_accuracy"]
            >= radar_bfa["floor_accuracy"] - 0.05
        )
    # ...while smart-bfa's low-bit flips are structurally invisible to it.
    radar_smart = find("radar", "smart-bfa")
    if radar_smart:
        assert radar_smart["detections"] == 0
        assert radar_smart["recovered_weights"] == 0
    # DNN-Defender holds the line where the same BFA budget collapses the
    # undefended model.
    for (model, defense, attacker, budget), row in rows.items():
        undefended = rows.get((model, "none", attacker, budget))
        if (defense, attacker) != ("dnn-defender", "bfa") or not undefended:
            continue
        floor = row["floor_accuracy"]
        assert floor >= undefended["floor_accuracy"], (
            model, budget, floor, undefended["floor_accuracy"]
        )
        assert floor >= row["clean_accuracy"] - 0.05, (
            model, budget, floor, row["clean_accuracy"]
        )


@tournament_matrix.reporter
def _tournament_report(result):
    rows = []
    for cell, row in sorted(_matrix(result).items()):
        model, defense, attacker, budget = cell
        rows.append(
            [
                model,
                defense,
                attacker,
                f"{budget}",
                f"{row['clean_accuracy'] * 100:.2f}",
                f"{row['floor_accuracy'] * 100:.2f}",
                f"{row['recovery_accuracy'] * 100:.2f}",
                f"{row['detection_rate'] * 100:.0f}",
                f"{row['detection_ns']:.0f}",
            ]
        )
    return format_table(
        [
            "model", "defense", "attacker", "budget", "clean (%)",
            "floor (%)", "recovered (%)", "detect (%)", "detect (ns)",
        ],
        rows,
        title=(
            f"Tournament matrix — {result.trials} trials over "
            f"{len(result.detail['cells'])} cells (means per cell)"
        ),
    )
