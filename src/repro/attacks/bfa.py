"""Progressive bit-search Bit-Flip Attack (Rakin et al., ICCV 2019 [15]).

The attack iterates: compute the gradient of the inference loss w.r.t. every
weight, rank candidate single-bit flips by their first-order loss increase
``dL ~ g * (delta_w)``, exact-evaluate the best few candidates by actually
flipping them on the attacker's model copy, and commit the winner through a
:class:`FlipExecutor` (software, analytical defense, or the full DRAM
simulation).  Iteration stops when accuracy collapses to the target level or
the flip budget is exhausted — matching Eq. 1's maximisation of loss under a
minimal Hamming-distance budget.

Each forward pass runs once, and only when something reads it.  The
gradient pass captures every forward segment's input, so a candidate's
exact evaluation resumes the forward at the segment owning its layer.
:meth:`BitFlipAttack.steps` is the one search loop and evaluates accuracy
only for the ``stop_accuracy`` rule; :meth:`BitFlipAttack.run` adds the
per-attempt accuracy curve, and :meth:`BitFlipAttack.run_endpoints` only
the accuracy before and after the search.

Vectorised bit scoring: for an int8 weight ``w`` with per-layer scale ``s``,
flipping bit ``b < 7`` changes the weight by ``+-2^b * s`` (sign from the
current bit value) and flipping the sign bit by ``-+128 * s``; the estimated
loss change of a flip is ``g * delta_w`` and only loss-increasing flips are
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

import numpy as np

from repro.attacks.executor import FlipExecutor, SoftwareFlipExecutor
from repro.nn.quant import BitLocation, QuantizedModel
from repro.nn.train import evaluate, loss_and_grads
from repro.nn.tensor import Tensor, no_grad
from repro.nn import functional as F

__all__ = ["BfaConfig", "FlipAttempt", "AttackResult", "BitFlipAttack"]

_BIT_POSITIONS = np.arange(8, dtype=np.uint8)
# Weight delta for flipping bit b of a two's-complement byte whose bit is
# currently 0; the sign bit subtracts 128.  A set bit moves by the negation.
_BIT_MAGNITUDES = np.array(
    [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, -128.0], dtype=np.float64
)


@dataclass(frozen=True)
class BfaConfig:
    """Knobs of the progressive bit search."""

    max_iterations: int = 50
    stop_accuracy: float | None = None   # e.g. 0.11 for CIFAR-10-like
    exact_eval_top: int = 8              # layers exact-evaluated per iteration

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.exact_eval_top < 1:
            raise ValueError("exact_eval_top must be >= 1")


@dataclass(frozen=True)
class FlipAttempt:
    """One committed attack step (successful or defended).

    ``accuracy_after`` is ``None`` when nothing measured it: only
    :meth:`BitFlipAttack.run` and the ``stop_accuracy`` rule do.
    """

    iteration: int
    location: BitLocation
    estimated_gain: float
    succeeded: bool
    accuracy_after: float | None


@dataclass
class AttackResult:
    """Outcome of one attack run.

    ``initial_accuracy`` and ``final_accuracy`` are measured before and
    after the search.  Results of :meth:`BitFlipAttack.run` also carry
    every attempt's accuracy (``accuracy_history``).
    """

    initial_accuracy: float
    final_accuracy: float
    attempts: list[FlipAttempt] = field(default_factory=list)

    @property
    def flips(self) -> list[BitLocation]:
        return [a.location for a in self.attempts if a.succeeded]

    @property
    def num_flips(self) -> int:
        return len(self.flips)

    @property
    def num_blocked(self) -> int:
        return sum(1 for a in self.attempts if not a.succeeded)

    @property
    def accuracy_history(self) -> list[float]:
        return [self.initial_accuracy] + [a.accuracy_after for a in self.attempts]


class BitFlipAttack:
    """Progressive bit search over a quantized model.

    Args:
        qmodel: the (attacker-visible copy of the) deployed model.  White-box
            threat model: identical architecture and weights (Table 1).
        attack_x / attack_y: the attacker's sample batch (test data).
        config: search parameters.
        skip: bits the attacker will not target (adaptive attacker skipping
            bits it knows are secured, or bits burned in earlier rounds).
        skip_bit_positions: whole bit *columns* (0..7) the attacker avoids
            in every weight of every layer — the smart-bfa attacker's way
            of staying invisible to checksum defenses that only guard the
            high bit positions.  ``None`` (default) targets all columns.
        executor: how committed flips are attempted; defaults to the
            undefended software executor.
        eval_x / eval_y: held-out data for the reported accuracy curve;
            defaults to the attack batch.
    """

    def __init__(
        self,
        qmodel: QuantizedModel,
        attack_x: np.ndarray,
        attack_y: np.ndarray,
        config: BfaConfig | None = None,
        skip: set[BitLocation] | None = None,
        executor: FlipExecutor | None = None,
        eval_x: np.ndarray | None = None,
        eval_y: np.ndarray | None = None,
        skip_bit_positions: frozenset[int] | None = None,
    ):
        self.qmodel = qmodel
        self.attack_x = attack_x
        self.attack_y = attack_y
        self.config = config or BfaConfig()
        self.skip = set(skip or ())
        self.skip_bit_positions = frozenset(skip_bit_positions or ())
        if any(b < 0 or b > 7 for b in self.skip_bit_positions):
            raise ValueError(
                f"skip_bit_positions must be in 0..7, "
                f"got {sorted(self.skip_bit_positions)}"
            )
        # Column index array for vectorised masking (None when unused so
        # the default path stays byte-for-byte identical).
        self._skip_columns = (
            np.array(sorted(self.skip_bit_positions), dtype=np.intp)
            if self.skip_bit_positions else None
        )
        self.executor = executor or SoftwareFlipExecutor(qmodel)
        self.eval_x = attack_x if eval_x is None else eval_x
        self.eval_y = attack_y if eval_y is None else eval_y
        self.tried: set[BitLocation] = set()
        # Scoring state: a persistent per-layer boolean mask over the
        # flat (weight, bit) space covering skip + tried bits, and a
        # bit-delta table cached per layer, invalidated by the layer's
        # mutation version (committed flips, collateral damage, restores).
        self._masks: dict[int, np.ndarray] = {}
        self._delta_cache: dict[int, tuple[int, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    # Candidate generation
    # ------------------------------------------------------------------ #

    @staticmethod
    def _bit_deltas(weight_int: np.ndarray) -> np.ndarray:
        """Integer weight change for flipping each bit: shape ``(n, 8)``."""
        bytes_view = weight_int.reshape(-1).view(np.uint8)
        bit_values = (bytes_view[:, None] >> _BIT_POSITIONS) & 1
        # Magnitude bits 0..6 gain +2^b when currently 0, lose 2^b when 1;
        # the sign bit (two's complement) moves the weight by -/+128.
        deltas = np.where(bit_values == 0, _BIT_MAGNITUDES, -_BIT_MAGNITUDES)
        return deltas

    def _scaled_deltas(self, layer_index: int) -> np.ndarray:
        """Per-layer ``_bit_deltas * scale``, cached until the layer mutates.

        The cache key is :attr:`QuantizedLayer.version`, which every
        integer-weight mutation bumps (committed flips, behavioural
        collateral flips, DRAM sync, snapshots) — including the exact-eval
        flip/revert pairs, which net out but still invalidate, keeping the
        cache trivially safe.
        """
        layer = self.qmodel.layer(layer_index)
        cached = self._delta_cache.get(layer_index)
        if cached is not None and cached[0] == layer.version:
            return cached[1]
        deltas = self._bit_deltas(layer.weight_int) * layer.scale
        self._delta_cache[layer_index] = (layer.version, deltas)
        return deltas

    def _layer_mask(self, layer_index: int) -> np.ndarray:
        """Persistent boolean mask over the layer's flat (weight, bit) grid
        marking skip + tried bits; updated in place as bits are tried."""
        mask = self._masks.get(layer_index)
        if mask is None:
            layer = self.qmodel.layer(layer_index)
            mask = np.zeros(layer.num_weights * 8, dtype=bool)
            if self._skip_columns is not None:
                mask.reshape(-1, 8)[:, self._skip_columns] = True
            for location in self.skip:
                if location.layer == layer_index:
                    mask[location.index * 8 + location.bit] = True
            for location in self.tried:
                if location.layer == layer_index:
                    mask[location.index * 8 + location.bit] = True
            self._masks[layer_index] = mask
        return mask

    def _mark_tried(self, location: BitLocation) -> None:
        """Record an attempted bit in both the set and the layer mask."""
        self.tried.add(location)
        mask = self._masks.get(location.layer)
        if mask is not None:
            mask[location.index * 8 + location.bit] = True

    def _layer_best_candidate(
        self, layer_index: int
    ) -> tuple[BitLocation, float] | None:
        """Intra-layer search: best estimated flip in one layer, or None."""
        candidates = self._layer_top_candidates(layer_index, 1)
        return candidates[0] if candidates else None

    def _layer_top_candidates(
        self, layer_index: int, k: int
    ) -> list[tuple[BitLocation, float]]:
        """Top-``k`` eligible flips by estimated gain.

        Skip/tried bits are masked to ``-inf`` up front, so an
        ``np.argpartition`` top-k over the masked scores needs no full
        argsort and no Python rank scan past excluded bits.  Ties carry
        no preference.
        """
        layer = self.qmodel.layer(layer_index)
        grad = layer.grad_flat().astype(np.float64)
        deltas = self._scaled_deltas(layer_index)
        scores = (grad[:, None] * deltas).reshape(-1)
        scores[self._layer_mask(layer_index)] = -np.inf
        if k < scores.size:
            top = np.argpartition(scores, scores.size - k)[scores.size - k:]
            top = top[np.argsort(scores[top])[::-1]]
        else:
            top = np.argsort(scores)[::-1]
        results: list[tuple[BitLocation, float]] = []
        for flat in top:
            score = float(scores[flat])
            if not np.isfinite(score) or score <= 0.0:
                break  # candidates must increase the loss
            index, bit = divmod(int(flat), 8)
            results.append((BitLocation(layer_index, index, bit), score))
        return results

    def _candidate_loss(
        self, location: BitLocation, inputs: list[np.ndarray] | None
    ) -> float:
        """Attack-batch loss with ``location`` flipped (flip, measure,
        revert).

        The forward resumes at the segment owning the flipped layer, from
        the gradient pass's segment ``inputs``: the segments before it see
        only base weights, so their captured outputs are this candidate's
        too.  ``inputs=None`` runs the full forward instead.  The search
        never does; it is the reference the ``bfa_exact_eval`` bench pair
        times and checks the resumed losses against.
        """
        start = 0 if inputs is None else self.qmodel.segment_of(location.layer)
        x = Tensor(self.attack_x if inputs is None else inputs[start])
        self.qmodel.flip_bit(location)
        with no_grad():
            logits = self.qmodel(x, start=start)
            loss = F.cross_entropy(logits, self.attack_y).item()
        self.qmodel.flip_bit(location)  # revert: restores the floats exactly
        return loss

    def _select_flip(self) -> tuple[BitLocation, float] | None:
        """One full inter/intra-layer search step; returns (bit, est gain)."""
        inputs: list[np.ndarray] = []
        # Also leaves the model in eval mode for the exact evaluations.
        loss_and_grads(
            self.qmodel.model, self.attack_x, self.attack_y, inputs=inputs
        )
        per_layer = []
        for layer_index in range(self.qmodel.num_layers):
            candidate = self._layer_best_candidate(layer_index)
            if candidate is not None:
                per_layer.append(candidate)
        if not per_layer:
            return None
        per_layer.sort(key=lambda item: item[1], reverse=True)
        shortlist = per_layer[: self.config.exact_eval_top]
        # Inter-layer search: exact-evaluate each layer's champion on the
        # attacker's copy (flip, measure, revert) and commit the best.
        best: tuple[BitLocation, float, float] | None = None
        for location, estimate in shortlist:
            loss = self._candidate_loss(location, inputs)
            if best is None or loss > best[1]:
                best = (location, loss, estimate)
        assert best is not None
        return best[0], best[2]

    # ------------------------------------------------------------------ #
    # Attack loop
    # ------------------------------------------------------------------ #

    def evaluate_accuracy(self) -> float:
        return evaluate(self.qmodel.model, self.eval_x, self.eval_y)

    def steps(self) -> Iterator[FlipAttempt]:
        """The search loop: select, commit and yield one attempt at a time.

        Accuracy is evaluated after an attempt only when ``stop_accuracy``
        is set, because the stop rule reads it; otherwise nothing is
        evaluated and ``accuracy_after`` is ``None``.  Callers that need
        only the flips iterate this directly.
        """
        stop = self.config.stop_accuracy
        for iteration in range(self.config.max_iterations):
            selected = self._select_flip()
            if selected is None:
                return  # no loss-increasing candidate remains
            location, estimate = selected
            succeeded = self.executor.execute(location)
            self._mark_tried(location)
            accuracy = None if stop is None else self.evaluate_accuracy()
            yield FlipAttempt(iteration, location, estimate, succeeded, accuracy)
            if accuracy is not None and accuracy <= stop:
                return

    def run(self) -> AttackResult:
        """The search with its accuracy curve: one evaluation before it and
        one after every attempt."""
        initial = self.evaluate_accuracy()
        attempts = []
        for attempt in self.steps():
            if attempt.accuracy_after is None:
                attempt = replace(
                    attempt, accuracy_after=self.evaluate_accuracy()
                )
            attempts.append(attempt)
        final = attempts[-1].accuracy_after if attempts else initial
        return AttackResult(initial, final, attempts)

    def run_endpoints(self) -> AttackResult:
        """The search with the accuracy measured only before and after it
        (the stop rule, when set, still measures every attempt)."""
        if self.config.stop_accuracy is not None:
            return self.run()
        initial = self.evaluate_accuracy()
        attempts = list(self.steps())
        return AttackResult(initial, self.evaluate_accuracy(), attempts)
