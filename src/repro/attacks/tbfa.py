"""T-BFA: targeted bit-flip attack (Rakin et al., TPAMI 2021 [17]).

The paper's threat model cites T-BFA alongside the untargeted BFA: instead
of crushing overall accuracy, the attacker flips bits so that inputs of a
*source* class are misclassified into a chosen *target* class while the
rest of the model keeps working (a stealthier objective).  This module
implements the "N-to-1" variant: all source-class samples should land in
the target class.

The search mirrors the untargeted BFA — gradient ranking plus exact
evaluation — but optimises a targeted loss: minimise cross-entropy towards
the target class on source-class samples while an auxiliary term preserves
the remaining classes' behaviour.  DNN-Defender's protection argument is
unchanged: the most damaging bits for *any* objective concentrate in the
same high-gradient rows the profiler secures, and the defense blocks the
flips physically, not by objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.bfa import BitFlipAttack
from repro.attacks.executor import FlipExecutor, SoftwareFlipExecutor
from repro.nn import functional as F
from repro.nn.quant import BitLocation, QuantizedModel
from repro.nn.tensor import Tensor, no_grad

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
    """N-to-1 targeted bit-flip attack over a quantized model."""

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
        self.executor = executor or SoftwareFlipExecutor(qmodel)
        self.skip = set(skip or ())
        self.tried: set[BitLocation] = set()
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

    # ------------------------------------------------------------------ #
    # Objective
    # ------------------------------------------------------------------ #

    def _targeted_loss(self, build_graph: bool) -> float:
        """CE towards the target on source samples, plus a preservation
        term on the remaining samples.  Populates grads when asked."""
        model = self.qmodel.model
        model.eval()
        if build_graph:
            model.zero_grad()
            loss = self._loss_terms(model)
            loss.backward()
            return loss.item()
        with no_grad():
            return self._loss_terms(model).item()

    def _loss_terms(self, model) -> Tensor:
        loss = F.cross_entropy(model(Tensor(self.x_source)), self.y_forced)
        if self.x_other.shape[0] and self.config.preserve_weight > 0:
            keep = F.cross_entropy(model(Tensor(self.x_other)), self.y_other)
            loss = loss + keep * self.config.preserve_weight
        return loss

    def success_rate(self) -> float:
        """Fraction of source samples classified as the target class."""
        with no_grad():
            logits = self.qmodel(Tensor(self.x_source))
        return float(
            (logits.data.argmax(axis=1) == self.config.target_class).mean()
        )

    def other_accuracy(self) -> float:
        """Accuracy on the non-source part of the batch (stealth metric)."""
        if not self.x_other.shape[0]:
            return float("nan")
        with no_grad():
            logits = self.qmodel(Tensor(self.x_other))
        return float((logits.data.argmax(axis=1) == self.y_other).mean())

    # ------------------------------------------------------------------ #
    # Search (descends the targeted loss)
    # ------------------------------------------------------------------ #

    def _select_flip(self) -> BitLocation | None:
        self._targeted_loss(build_graph=True)
        candidates: list[tuple[BitLocation, float]] = []
        for layer_index in range(self.qmodel.num_layers):
            layer = self.qmodel.layer(layer_index)
            grad = layer.grad_flat().astype(np.float64)
            deltas = BitFlipAttack._bit_deltas(layer.weight_int) * layer.scale
            # Targeted attack *minimises* the loss: pick negative dL.
            scores = grad[:, None] * deltas
            order = np.argsort(scores, axis=None)
            budget = 64 + len(self.skip) + len(self.tried)
            for rank in range(min(order.size, budget)):
                flat = int(order[rank])
                index, bit = divmod(flat, 8)
                score = float(scores.flat[flat])
                if score >= 0:
                    break
                location = BitLocation(layer_index, index, bit)
                if location in self.skip or location in self.tried:
                    continue
                candidates.append((location, score))
                break
        if not candidates:
            return None
        candidates.sort(key=lambda item: item[1])
        best: tuple[BitLocation, float] | None = None
        for location, _ in candidates[: self.config.exact_eval_top]:
            self.qmodel.flip_bit(location)
            loss = self._targeted_loss(build_graph=False)
            self.qmodel.flip_bit(location)
            if best is None or loss < best[1]:
                best = (location, loss)
        return best[0] if best else None

    def run(self) -> TbfaResult:
        result = TbfaResult(
            initial_success_rate=self.success_rate(),
            initial_other_accuracy=self.other_accuracy(),
        )
        for _ in range(self.config.max_iterations):
            location = self._select_flip()
            if location is None:
                break
            self.tried.add(location)
            result.attempts += 1
            if self.executor.execute(location):
                result.flips.append(location)
            result.success_rate_history.append(self.success_rate())
            result.other_accuracy_history.append(self.other_accuracy())
            if result.final_success_rate >= self.config.stop_success_rate:
                break
        return result
