"""T-BFA: targeted bit-flip attack (Rakin et al., TPAMI 2021 [17]).

The paper's threat model cites T-BFA alongside the untargeted BFA: instead
of crushing overall accuracy, the attacker flips bits so that inputs of a
*source* class are misclassified into a chosen *target* class while the
rest of the model keeps working (a stealthier objective).  This module
implements the "N-to-1" variant: all source-class samples should land in
the target class.

The search is :class:`~repro.attacks.bfa.BitFlipAttack`'s, given another
objective: it ascends the negated targeted loss, which is cross-entropy
towards the target class on the source samples plus a term keeping the
remaining samples' true classes, both from one forward of the whole
batch (of the source samples alone when that term is off).
DNN-Defender's protection argument is unchanged: the most damaging bits
for *any* objective concentrate in the same high-gradient rows the
profiler secures, and the defense blocks the flips physically, not by
objective.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.attacks.executor import FlipExecutor
from repro.nn import functional as F
from repro.nn.quant import BitLocation, QuantizedModel
from repro.nn.tensor import Tensor
from repro.nn.train import evaluate

__all__ = ["TbfaConfig", "TbfaResult", "TargetedBitFlipAttack"]


@dataclass(frozen=True)
class TbfaConfig:
    """Knobs of the targeted bit search."""

    source_class: int
    target_class: int
    max_iterations: int = 30
    exact_eval_top: int = 6
    stop_success_rate: float = 0.9   # stop once 90% of source maps to target
    preserve_weight: float = 1.0     # weight of the keep-others-correct term

    def __post_init__(self) -> None:
        if self.source_class == self.target_class:
            raise ValueError("source and target classes must differ")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.exact_eval_top < 1:
            raise ValueError("exact_eval_top must be >= 1")
        if not 0.0 < self.stop_success_rate <= 1.0:
            raise ValueError("stop_success_rate must be in (0, 1]")


@dataclass
class TbfaResult:
    """Outcome of a targeted attack run."""

    initial_success_rate: float
    initial_other_accuracy: float
    flips: list[BitLocation] = field(default_factory=list)
    attempts: int = 0
    success_rate_history: list[float] = field(default_factory=list)
    other_accuracy_history: list[float] = field(default_factory=list)

    @property
    def final_success_rate(self) -> float:
        if self.success_rate_history:
            return self.success_rate_history[-1]
        return self.initial_success_rate

    @property
    def final_other_accuracy(self) -> float:
        if self.other_accuracy_history:
            return self.other_accuracy_history[-1]
        return self.initial_other_accuracy


class TargetedBitFlipAttack:
    """N-to-1 targeted bit-flip attack over a quantized model.

    ``search`` is the :class:`BitFlipAttack` that picks the flips, with
    :meth:`_objective` as its objective; :meth:`run` iterates its
    ``steps()`` until ``stop_success_rate`` is reached.
    """

    def __init__(
        self,
        qmodel: QuantizedModel,
        attack_x: np.ndarray,
        attack_y: np.ndarray,
        config: TbfaConfig,
        executor: FlipExecutor | None = None,
        skip: set[BitLocation] | None = None,
    ):
        self.qmodel = qmodel
        self.config = config
        source_mask = attack_y == config.source_class
        if not source_mask.any():
            raise ValueError(
                f"attack batch contains no samples of source class "
                f"{config.source_class}"
            )
        self.x_source = attack_x[source_mask]
        self.x_other = attack_x[~source_mask]
        self.y_other = attack_y[~source_mask]
        self.y_forced = np.full(
            self.x_source.shape[0], config.target_class, dtype=np.int64
        )
        if config.preserve_weight <= 0:
            # Only the source samples' logits count: forward only them.
            attack_x, attack_y = self.x_source, attack_y[source_mask]
        self.search = BitFlipAttack(
            qmodel, attack_x, attack_y,
            config=BfaConfig(
                max_iterations=config.max_iterations,
                exact_eval_top=config.exact_eval_top,
            ),
            skip=skip, executor=executor, objective=self._objective,
        )

    def _objective(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        """The targeted loss of the attack batch's ``logits``, negated for
        the search to ascend: cross-entropy towards the target on the
        source samples, plus ``preserve_weight`` times cross-entropy on
        the rest."""
        source = labels == self.config.source_class
        loss = F.cross_entropy(logits[source], self.y_forced)
        if self.x_other.shape[0] and self.config.preserve_weight > 0:
            keep = F.cross_entropy(logits[~source], labels[~source])
            loss = loss + keep * self.config.preserve_weight
        return -loss

    def success_rate(self) -> float:
        """Fraction of source samples classified as the target class."""
        return evaluate(self.qmodel.model, self.x_source, self.y_forced)

    def other_accuracy(self) -> float:
        """Accuracy on the non-source part of the batch (stealth metric)."""
        if not self.x_other.shape[0]:
            return float("nan")
        return evaluate(self.qmodel.model, self.x_other, self.y_other)

    def run(self) -> TbfaResult:
        result = TbfaResult(
            initial_success_rate=self.success_rate(),
            initial_other_accuracy=self.other_accuracy(),
        )
        with closing(self.search.steps()) as steps:
            for attempt in steps:
                result.attempts += 1
                if attempt.succeeded:
                    result.flips.append(attempt.location)
                result.success_rate_history.append(self.success_rate())
                result.other_accuracy_history.append(self.other_accuracy())
                if result.final_success_rate >= self.config.stop_success_rate:
                    break
        return result
