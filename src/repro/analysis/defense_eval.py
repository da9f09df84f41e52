"""DNN-level defense evaluation harness (Figs. 1b and 9, Table 3).

These orchestrators run the attack/defense experiments end-to-end on the
numpy substrate and return plain result records the benchmarks print.  All
of them accept a pre-trained model state so the (expensive) training happens
once per benchmark session.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.attacks.adaptive import white_box_adaptive_attack
from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.attacks.executor import (
    FlipExecutor, LogicalDefenseExecutor, SecuredRows, SoftwareFlipExecutor,
)
from repro.attacks.profile import profile_vulnerable_bits
from repro.attacks.random_attack import random_bit_attack
from repro.nn.data import Dataset
from repro.nn.module import Module
from repro.nn.quant import BitLocation, QuantizedModel
from repro.nn.train import evaluate

__all__ = [
    "AccuracyCurve",
    "expand_bits_to_rows",
    "targeted_vs_random",
    "SecuredBitsCurve",
    "secured_bits_sweep",
    "DefenseComparisonRow",
    "evaluate_defense_row",
    "TOURNAMENT_CELL_METRICS",
    "evaluate_tournament_cell",
    "tournament_matrix_rows",
]


def expand_bits_to_rows(
    qmodel: QuantizedModel,
    bits: set[BitLocation],
    weights_per_row: int = 256,
) -> SecuredRows:
    """Expand profiled bits to DRAM-row protection granularity.

    DNN-Defender protects *rows*, not individual bits: securing one
    profiled bit secures every weight bit sharing its row.  With the
    default 8 KiB rows a row holds thousands of 8-bit weights, which is
    why the paper's secured-bit counts (Fig. 9's 2k-311k "SB") are far
    larger than the handful of profiled flips per round.  The result is
    kept as the secured rows (:class:`SecuredRows`): it builds a
    ``BitLocation`` per bit only when iterated.
    """
    return SecuredRows(qmodel, bits, weights_per_row)


# ---------------------------------------------------------------------- #
# Fig. 1b: targeted BFA vs random flips vs the defense
# ---------------------------------------------------------------------- #

@dataclass
class AccuracyCurve:
    """Accuracy as a function of accumulated bit flips."""

    label: str
    flips: list[int] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    def add(self, n_flips: int, accuracy: float) -> None:
        self.flips.append(n_flips)
        self.accuracies.append(accuracy)


def targeted_vs_random(
    model_factory: Callable[[], Module],
    trained_state: dict[str, np.ndarray],
    dataset: Dataset,
    bfa_flips: int = 20,
    random_flips: int = 100,
    defended_flips: int = 20,
    profile_rounds: int = 2,
    attack_batch: int = 128,
    bfa_config: BfaConfig | None = None,
    seed: int = 0,
) -> list[AccuracyCurve]:
    """Reproduce Fig. 1b's three curves on one trained model.

    Returns curves for: targeted BFA (undefended), random flips, and the
    adaptive BFA against DNN-Defender's secured bits.
    """
    rng = np.random.default_rng(seed)
    x, y = dataset.attack_batch(attack_batch, rng)
    config = bfa_config or BfaConfig(max_iterations=bfa_flips)

    def fresh() -> QuantizedModel:
        model = model_factory()
        model.load_state_dict(trained_state)
        model.eval()
        return QuantizedModel(model)

    curves = []

    # Targeted BFA, no defense.
    qmodel = fresh()
    attack = BitFlipAttack(
        qmodel, x, y, config=config,
        eval_x=dataset.x_test, eval_y=dataset.y_test,
    )
    result = attack.run()
    curve = AccuracyCurve("bfa")
    for i, accuracy in enumerate(result.accuracy_history):
        curve.add(i, accuracy)
    curves.append(curve)

    # Random flips.
    qmodel = fresh()
    rand = random_bit_attack(
        qmodel, dataset.x_test, dataset.y_test, num_flips=random_flips,
        rng=np.random.default_rng(seed + 1), eval_every=max(random_flips // 10, 1),
    )
    curve = AccuracyCurve("random")
    for n, accuracy in zip(rand.checkpoints, rand.accuracies):
        curve.add(n, accuracy)
    curves.append(curve)

    # Adaptive BFA against DNN-Defender: profiled bits secure their rows.
    qmodel = fresh()
    profile = profile_vulnerable_bits(
        qmodel, x, y, rounds=profile_rounds, config=config
    )
    secured = expand_bits_to_rows(qmodel, profile.all_bits)
    executor = LogicalDefenseExecutor(qmodel, secured)
    defended = white_box_adaptive_attack(
        qmodel, x, y, executor, secured,
        config=BfaConfig(
            max_iterations=defended_flips,
            exact_eval_top=config.exact_eval_top,
        ),
        eval_x=dataset.x_test, eval_y=dataset.y_test,
    )
    curve = AccuracyCurve("dnn-defender")
    for i, accuracy in enumerate(defended.accuracy_history):
        curve.add(i, accuracy)
    curves.append(curve)
    return curves


# ---------------------------------------------------------------------- #
# Fig. 9: secured-bits sweep against the adaptive white-box attacker
# ---------------------------------------------------------------------- #

@dataclass
class SecuredBitsCurve:
    """One Fig. 9 curve: accuracy vs extra flips at a secured-bit budget."""

    secured_bits: int
    profile_rounds: int
    extra_flips: list[int] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)

    @property
    def final_accuracy(self) -> float:
        return self.accuracies[-1] if self.accuracies else float("nan")


def secured_bits_sweep(
    model_factory: Callable[[], Module],
    trained_state: dict[str, np.ndarray],
    dataset: Dataset,
    round_budgets: tuple[int, ...] = (1, 2, 4),
    extra_flip_budget: int = 20,
    attack_batch: int = 128,
    profile_config: BfaConfig | None = None,
    seed: int = 0,
) -> list[SecuredBitsCurve]:
    """Fig. 9: for growing secured-bit budgets (via profiling rounds), run
    the adaptive white-box BFA and record accuracy vs extra flips."""
    rng = np.random.default_rng(seed)
    x, y = dataset.attack_batch(attack_batch, rng)
    profile_config = profile_config or BfaConfig(max_iterations=10)

    def fresh() -> QuantizedModel:
        model = model_factory()
        model.load_state_dict(trained_state)
        model.eval()
        return QuantizedModel(model)

    # Profile once at the deepest budget; nested budgets reuse the rounds.
    qmodel = fresh()
    profile = profile_vulnerable_bits(
        qmodel, x, y, rounds=max(round_budgets), config=profile_config
    )
    curves = []
    for rounds in round_budgets:
        qmodel = fresh()
        secured = expand_bits_to_rows(
            qmodel, profile.bits_up_to_round(rounds)
        )
        executor = LogicalDefenseExecutor(qmodel, secured)
        result = white_box_adaptive_attack(
            qmodel, x, y, executor, secured,
            config=BfaConfig(
                max_iterations=extra_flip_budget,
                exact_eval_top=profile_config.exact_eval_top,
            ),
            eval_x=dataset.x_test, eval_y=dataset.y_test,
        )
        curve = SecuredBitsCurve(
            secured_bits=len(secured), profile_rounds=rounds
        )
        for i, accuracy in enumerate(result.accuracy_history):
            curve.extra_flips.append(i)
            curve.accuracies.append(accuracy)
        curves.append(curve)
    return curves


# ---------------------------------------------------------------------- #
# Table 3: defense comparison
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class DefenseComparisonRow:
    """One Table 3 row."""

    name: str
    clean_accuracy: float
    post_attack_accuracy: float
    bit_flips: int


# ---------------------------------------------------------------------- #
# Tournament matrix: attacker x defense cells (generalizes Figs. 6/7)
# ---------------------------------------------------------------------- #

# The fixed per-cell metric vocabulary.  Every tournament trial reports
# exactly these keys (plus the cell coordinates), because the runner's
# aggregation requires each metric to be present in every trial.
TOURNAMENT_CELL_METRICS: tuple[str, ...] = (
    "clean_accuracy",
    "floor_accuracy",
    "recovery_accuracy",
    "accuracy_drop",
    "recovery_gain",
    "attempts",
    "flips_landed",
    "flips_blocked",
    "detections",
    "detection_rate",
    "recovered_weights",
    "detection_ns",
    "defense_reactions",
)


def evaluate_tournament_cell(
    attacker_name: str,
    defense,
    dataset: Dataset,
    budget: int,
    seed: int,
    params: dict | None = None,
) -> dict[str, float]:
    """Run one tournament cell: a registered attacker vs a live defense.

    The cell protocol mirrors a real deployment's lifetime: measure the
    defended model's clean accuracy, run the attack through the
    defense's executor (ticking the defense as it goes), measure the
    post-attack accuracy *floor*, give the defense its post-attack
    :meth:`~repro.defenses.protocol.Defense.recover` pass, and measure
    the recovered accuracy.  The clean accuracy and the floor are the
    outcome's ``initial_accuracy`` and ``final_accuracy``: the attacker
    measures both on the test split right before and right after the
    attack, so measuring them again here would repeat two evaluations of
    the same weights.  Detection counters and the detection-ns cost come
    out of the defense's :class:`~repro.defenses.base.DefenseStats` notes.

    Returns the flat scalar metrics of :data:`TOURNAMENT_CELL_METRICS`
    (artifact- and merge-safe).  The caller owns ``defense.close()``.
    """
    from repro.attacks.protocol import AttackContext
    from repro.attacks.registry import build_attacker

    deployed = defense.qmodel  # transforms may have replaced the model
    context = AttackContext(
        qmodel=deployed,
        dataset=dataset,
        seed=seed,
        budget=int(budget),
        executor=defense.executor(),
        defense=defense,
        params=dict(params or {}),
        eval_x=dataset.x_test,
        eval_y=dataset.y_test,
    )
    outcome = build_attacker(attacker_name).execute(context)
    clean, floor = outcome.initial_accuracy, outcome.final_accuracy
    recovered_weights = int(defense.recover())
    recovery = evaluate(deployed.model, dataset.x_test, dataset.y_test)
    stats = defense.finalize()
    detections = int(stats.notes.get("detections", 0))
    landed = outcome.num_flips
    return {
        "clean_accuracy": float(clean),
        "floor_accuracy": float(floor),
        "recovery_accuracy": float(recovery),
        "accuracy_drop": float(clean - floor),
        "recovery_gain": float(recovery - floor),
        "attempts": float(outcome.attempts),
        "flips_landed": float(landed),
        "flips_blocked": float(outcome.blocked),
        "detections": float(detections),
        "detection_rate": float(detections / landed) if landed else 0.0,
        "recovered_weights": float(recovered_weights),
        "detection_ns": float(stats.notes.get("detection_ns", 0)),
        "defense_reactions": float(stats.reactions),
    }


def tournament_matrix_rows(
    cells: list[tuple],
    per_trial_metrics: list[dict],
) -> dict[tuple, dict[str, float]]:
    """Re-assemble the matrix from a run's raw per-trial metrics.

    ``cells`` is the grid order the scenario derived from its params;
    each trial carries its ``cell_index`` metric, so replicated trials of
    the same cell average together.  Returns ``{cell: {metric: mean}}``
    keyed by the (model, defense, attacker, budget) tuples.
    """
    grouped: dict[tuple, list[dict]] = {}
    for metrics in per_trial_metrics:
        cell = tuple(cells[int(metrics["cell_index"])])
        grouped.setdefault(cell, []).append(metrics)
    rows: dict[tuple, dict[str, float]] = {}
    for cell, group in grouped.items():
        rows[cell] = {
            key: float(np.mean([m[key] for m in group]))
            for key in TOURNAMENT_CELL_METRICS
        }
    return rows


def evaluate_defense_row(
    name: str,
    qmodel: QuantizedModel,
    dataset: Dataset,
    executor: FlipExecutor | None = None,
    stop_accuracy: float | None = None,
    max_iterations: int = 40,
    attack_batch: int = 128,
    exact_eval_top: int = 6,
    seed: int = 0,
) -> DefenseComparisonRow:
    """Attack one defended deployment until collapse or budget exhaustion.

    ``bit_flips`` counts the attacker's *attempts* (landed or defended),
    matching Table 3's accounting where a strong defense shows many flips
    and no accuracy loss.
    """
    rng = np.random.default_rng(seed)
    x, y = dataset.attack_batch(attack_batch, rng)
    clean = evaluate(qmodel.model, dataset.x_test, dataset.y_test)
    stop = stop_accuracy if stop_accuracy is not None else (
        dataset.random_guess_accuracy + 0.02
    )
    attack = BitFlipAttack(
        qmodel, x, y,
        config=BfaConfig(
            max_iterations=max_iterations,
            stop_accuracy=stop,
            exact_eval_top=exact_eval_top,
        ),
        executor=executor or SoftwareFlipExecutor(qmodel),
        eval_x=dataset.x_test, eval_y=dataset.y_test,
    )
    result = attack.run()
    return DefenseComparisonRow(
        name=name,
        clean_accuracy=clean,
        post_attack_accuracy=result.final_accuracy,
        bit_flips=len(result.attempts),
    )
