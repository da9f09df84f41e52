"""The ``Attacker`` protocol: uniform plan/execute surface over all attacks.

Every attack in the repo — random flips, progressive BFA, targeted
T-BFA, the adaptive and defense-blind variants, smart-bfa — presents the
same two-phase interface here:

* :meth:`Attacker.plan` derives a bit-target list from the attacker's
  knowledge (model copy, budget, RNG) without touching the deployment;
* :meth:`Attacker.execute` carries the attack out against a deployment
  through a :class:`~repro.attacks.executor.FlipExecutor` and returns a
  uniform :class:`AttackOutcome`.

Replay-style attackers plan offline and fire the whole sequence
through :func:`replay`: random implements ``plan`` and inherits the
default ``execute``, and semi-white-box runs
:func:`repro.attacks.adaptive.semi_white_box_attack`, the function the
scenarios call.  Interactive searches (BFA and friends) override
``execute`` because their planning and execution interleave — each
committed flip informs the next gradient step.

The :class:`AttackContext` mirrors ``DefenseContext``: it carries the
deployed model, dataset, seed, flip budget, the executor the defense
wired up, and — for defense-aware attackers — the defense object itself,
queried only through the protocol methods ``protected_bits()`` /
``guarded_bit_positions()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.executor import FlipExecutor, SoftwareFlipExecutor
from repro.nn.quant import BitLocation, QuantizedModel
from repro.nn.train import evaluate

__all__ = ["AttackContext", "AttackOutcome", "Attacker", "replay"]


@dataclass
class AttackContext:
    """Everything an attacker may draw on, bundled for ``execute``.

    Attributes:
        qmodel: the deployed model (white-box attackers read it
            directly; the executor commits flips to it).
        dataset: source of attack/eval batches (optional when explicit
            batches are supplied).
        seed: base seed; all attacker randomness must derive from
            :meth:`rng` so runs are replayable.
        budget: flip/iteration budget — the Hamming-distance axis every
            scenario sweeps.
        executor: the deployment's flip path (defense-wrapped); ``None``
            falls back to the undefended software executor.
        defense: the live defense object, for attackers whose threat
            model includes defense knowledge.  Defense-blind attackers
            simply never look at it.
        params: free-form knobs (``tbfa_source_class`` …) read via
            :meth:`param`.
        attack_batch: samples drawn for gradient estimation when no
            explicit batch is given.
    """

    qmodel: QuantizedModel
    dataset: object | None = None
    seed: int = 0
    budget: int = 25
    executor: FlipExecutor | None = None
    defense: object | None = None
    params: dict = field(default_factory=dict)
    attack_batch: int = 96
    attack_x: np.ndarray | None = None
    attack_y: np.ndarray | None = None
    eval_x: np.ndarray | None = None
    eval_y: np.ndarray | None = None

    def rng(self, stream: int = 0) -> np.random.Generator:
        """Deterministic per-stream generator (seed + stream)."""
        return np.random.default_rng(self.seed + stream)

    def param(self, key: str, default=None):
        return self.params.get(key, default)

    def batch(self) -> tuple[np.ndarray, np.ndarray]:
        """The attacker's sample batch; drawn once, then stable."""
        if self.attack_x is None:
            if self.dataset is None:
                raise ValueError(
                    "AttackContext needs a dataset or explicit attack_x/y"
                )
            self.attack_x, self.attack_y = self.dataset.attack_batch(
                self.attack_batch, self.rng(stream=1)
            )
        return self.attack_x, self.attack_y

    def eval_batch(self) -> tuple[np.ndarray, np.ndarray]:
        """Held-out data for the reported accuracy; defaults to batch()."""
        if self.eval_x is not None:
            return self.eval_x, self.eval_y
        return self.batch()

    def flip_executor(self) -> FlipExecutor:
        if self.executor is None:
            self.executor = SoftwareFlipExecutor(self.qmodel)
        return self.executor

    def protected_bits(self) -> frozenset[BitLocation]:
        """Bits the defense secures (adaptive attackers skip these)."""
        if self.defense is None:
            return frozenset()
        return frozenset(self.defense.protected_bits())

    def guarded_bit_positions(self) -> frozenset[int]:
        """Bit columns a checksum defense watches (smart-bfa avoids them)."""
        if self.defense is None:
            return frozenset()
        return frozenset(self.defense.guarded_bit_positions())


@dataclass
class AttackOutcome:
    """Uniform result of one attack execution, attacker-agnostic.

    ``initial_accuracy`` and ``final_accuracy`` are measured on
    :meth:`AttackContext.eval_batch` (batches of 256) right before the
    attack's first flip and right after its last, so callers can take
    them as the deployment's clean and post-attack accuracy.

    ``detail`` holds attacker-specific scalars (T-BFA success rate,
    smart-bfa's avoided column count …) that flow into scenario metrics
    via :meth:`as_metrics`.
    """

    attacker: str
    initial_accuracy: float
    final_accuracy: float
    attempts: int
    flips: list[BitLocation] = field(default_factory=list)
    blocked: int = 0
    detail: dict[str, float] = field(default_factory=dict)

    @property
    def num_flips(self) -> int:
        return len(self.flips)

    @property
    def accuracy_drop(self) -> float:
        return self.initial_accuracy - self.final_accuracy

    def as_metrics(self, prefix: str = "") -> dict[str, float]:
        """Flatten to scalar metrics (artifact- and merge-safe)."""
        metrics = {
            f"{prefix}initial_accuracy": float(self.initial_accuracy),
            f"{prefix}final_accuracy": float(self.final_accuracy),
            f"{prefix}accuracy_drop": float(self.accuracy_drop),
            f"{prefix}attempts": float(self.attempts),
            f"{prefix}flips": float(self.num_flips),
            f"{prefix}blocked": float(self.blocked),
        }
        for key in sorted(self.detail):
            metrics[f"{prefix}detail.{key}"] = float(self.detail[key])
        return metrics


class Attacker:
    """Base class every registered attacker extends.

    Subclasses either implement :meth:`plan` (replay-style attacks —
    the default :meth:`execute` fires the planned sequence), or override
    :meth:`execute` outright (interactive searches).
    """

    name = "attacker"

    def plan(self, context: AttackContext) -> list[BitLocation]:
        """Derive the bit-target sequence without touching the deployment."""
        raise NotImplementedError(
            f"attacker {self.name!r} has no offline plan; call execute()"
        )

    def execute(self, context: AttackContext) -> AttackOutcome:
        """Default replay: plan offline, then fire through the executor."""
        planned = self.plan(context)
        eval_x, eval_y = context.eval_batch()
        return replay(
            self.name, context.qmodel, planned, context.flip_executor(),
            eval_x, eval_y,
        )


def replay(
    attacker: str,
    qmodel: QuantizedModel,
    planned: list[BitLocation],
    executor: FlipExecutor,
    eval_x: np.ndarray,
    eval_y: np.ndarray,
) -> AttackOutcome:
    """Fire a planned flip sequence through ``executor``, in plan order.

    The attacker cannot tell which flips landed; it fires the whole
    plan.  Accuracy on ``(eval_x, eval_y)`` is measured right before the
    first flip and right after the last.
    """
    initial = evaluate(qmodel.model, eval_x, eval_y)
    landed = [location for location in planned if executor.execute(location)]
    return AttackOutcome(
        attacker=attacker,
        initial_accuracy=initial,
        final_accuracy=evaluate(qmodel.model, eval_x, eval_y),
        attempts=len(planned),
        flips=landed,
        blocked=len(planned) - len(landed),
    )
