"""The unified ``Defense`` protocol behind the ``@defense`` registry.

Every defense — hardware swap engines, behavioural models, software
guards, RADAR — presents the same lifecycle to deployments and to the
``tournament-matrix`` scenario:

* **build from a deployment context** — a registered builder receives a
  :class:`DefenseContext` (victim model, dataset, seed, and optionally the
  deployment's DRAM weight layout with its live memory controller) and
  returns a :class:`Defense`.
* **attack surface** — :meth:`Defense.executor` yields the
  :class:`repro.attacks.executor.FlipExecutor` an attacker's flips go
  through; hardware-context defenses instead react from controller hooks
  while the DRAM path drives flips via ``HammerExecutor``.
* **``tick()``** — the hammer driver's per-window defense hook.
* **``close()`` / ``__exit__``** — hook detach (lint rule REP004: a
  defense that registers controller hooks must be detachable, or it
  outlives its experiment as a live observer).
* **``recover()``** — optional post-attack repair (RADAR's zero-out,
  the reconstruction guard's clamp); returns corrected weights.
* **``finalize()``** — sync executor counters into :class:`DefenseStats`
  (blocked / landed / collateral plus per-defense ``notes``).

Attackers interrogate defenses through :meth:`Defense.protected_bits`
(bits the defense pins, the adaptive attacker's skip set) and
:meth:`Defense.guarded_bit_positions` (bit *columns* covered by an
integrity check — smart-bfa avoids these to stay undetected).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.defenses.base import DefenseStats

if TYPE_CHECKING:  # imported lazily to keep the defense layer light
    from repro.core.defender import DNNDefender
    from repro.dram.controller import MemoryController
    from repro.dram.timing import TimingParams
    from repro.mapping.layout import WeightLayout
    from repro.nn.data import Dataset
    from repro.nn.quant import BitLocation, QuantizedModel

__all__ = [
    "DefenseContext",
    "Defense",
    "SecuredBitsDefense",
    "SwapDefense",
    "BehavioralDefense",
    "HookedDefenseAdapter",
    "ModelTransformDefense",
    "ReconstructionDefense",
]


@dataclass
class DefenseContext:
    """Everything a registered defense builder may consume.

    The logical (tournament) path supplies ``qmodel`` + ``dataset`` +
    ``seed``; the DRAM path additionally supplies the deployment's
    ``layout`` (the weight bit -> DRAM row map), whose live
    :attr:`controller` hooked defenses attach to and whose timing
    parameters then drive latency accounting.  ``trial`` and
    ``preset_name``, when present, let profile-based defenses reuse the
    on-disk profile cache.
    """

    qmodel: "QuantizedModel"
    dataset: "Dataset | None" = None
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)
    layout: "WeightLayout | None" = None
    timing: "TimingParams | None" = None
    trial: Any = None              # repro.experiments.runner.TrialContext
    preset_name: str | None = None

    @property
    def controller(self) -> "MemoryController | None":
        """The layout's live controller (``None`` on the logical path)."""
        return self.layout.controller if self.layout is not None else None

    def rng(self, stream: int = 0) -> np.random.Generator:
        """Independent seeded generator for sub-component ``stream``."""
        return np.random.default_rng(self.seed + stream)

    def param(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def effective_timing(self) -> "TimingParams":
        """Timing parameters for latency accounting (controller's, the
        explicit override, or the DDR4 defaults)."""
        if self.timing is not None:
            return self.timing
        if self.controller is not None:
            return self.controller.timing
        from repro.dram.timing import DDR4_DEFAULT

        return DDR4_DEFAULT


class Defense:
    """Base class of the unified defense protocol.

    Subclasses own a victim ``qmodel`` (possibly a transformed
    replacement of the context's model — capacity/binarize builders
    deploy a different network) and a :class:`DefenseStats` record.
    """

    name = "?"

    def __init__(self, qmodel: "QuantizedModel"):
        self.qmodel = qmodel
        self.stats = DefenseStats()

    # -- attack surface ------------------------------------------------- #

    def executor(self):
        """The :class:`FlipExecutor` attacker flips are attempted through.

        Hardware-context defenses (controller hooks) do not expose a
        logical executor — the DRAM path drives flips through
        ``HammerExecutor`` instead.
        """
        raise NotImplementedError(
            f"defense {self.name!r} has no logical flip executor"
        )

    def protected_bits(self) -> "frozenset[BitLocation]":
        """Bits the defense pins — the adaptive attacker's skip set."""
        return frozenset()

    def guarded_bit_positions(self) -> frozenset[int]:
        """Bit columns (0..7) covered by an integrity check.

        A detection-evading attacker (smart-bfa) avoids flipping these
        positions entirely; an empty set means flips are invisible to
        the defense's checks only by chance.
        """
        return frozenset()

    # -- lifecycle ------------------------------------------------------ #

    def tick(self) -> None:
        """Per-hammer-window hook (the driver's ``TickingDefense``)."""
        return None

    def recover(self) -> int:
        """Post-attack repair; returns the number of corrected weights."""
        return 0

    def finalize(self) -> DefenseStats:
        """Sync live executor counters into :attr:`stats`; return it."""
        return self.stats

    def close(self) -> None:
        """Detach hooks / release observers.  Idempotent."""
        return None

    def __enter__(self) -> "Defense":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SecuredBitsDefense(Defense):
    """Secured-bit-set defense (DNN-Defender's logical guarantee).

    Flips on secured bits are blocked — the defender swap-refreshes the
    victim row inside every hammer window — everything else lands.
    """

    name = "dnn-defender"

    def __init__(
        self, qmodel: "QuantizedModel", secured_bits: "set[BitLocation]"
    ):
        super().__init__(qmodel)
        from repro.attacks.executor import LogicalDefenseExecutor

        self._secured = frozenset(secured_bits)
        self._executor = LogicalDefenseExecutor(qmodel, set(secured_bits))

    def executor(self):
        return self._executor

    def protected_bits(self) -> "frozenset[BitLocation]":
        return self._secured

    def finalize(self) -> DefenseStats:
        self.stats.reactions = self._executor.blocked
        self.stats.notes["blocked"] = self._executor.blocked
        self.stats.notes["landed"] = self._executor.flips_performed
        self.stats.notes["secured_bits"] = len(self._secured)
        return self.stats


class SwapDefense(SecuredBitsDefense):
    """DNN-Defender on a live controller: the paper's swap defense.

    Keeps :class:`SecuredBitsDefense`'s secured set and logical
    executor, and adds the hooked
    :class:`~repro.core.defender.DNNDefender` that swap-refreshes the
    rows holding the secured bits whenever the hammer driver ticks.
    """

    def __init__(self, qmodel: "QuantizedModel", defender: "DNNDefender"):
        super().__init__(qmodel, defender.secured_bits)
        self.defender = defender

    def tick(self) -> None:
        self.defender.tick()


class BehavioralDefense(Defense):
    """Stochastic block-and-deflect model (RRS / SRS / SHADOW / P-PIM)."""

    def __init__(
        self,
        qmodel: "QuantizedModel",
        name: str,
        block_prob: float,
        collateral_prob: float,
        rng: np.random.Generator,
    ):
        super().__init__(qmodel)
        from repro.attacks.executor import BehavioralDefenseExecutor

        self.name = name
        self._executor = BehavioralDefenseExecutor(
            qmodel, block_prob=block_prob,
            collateral_prob=collateral_prob, rng=rng,
        )

    def executor(self):
        return self._executor

    def finalize(self) -> DefenseStats:
        self.stats.reactions = self._executor.blocked
        self.stats.notes["blocked"] = self._executor.blocked
        self.stats.notes["landed"] = self._executor.flips_performed
        self.stats.notes["collateral_flips"] = self._executor.collateral_flips
        return self.stats


class HookedDefenseAdapter(Defense):
    """Protocol adapter over a controller-hooked hardware baseline.

    Wraps a :class:`repro.defenses.base.HookedDefense` instance (RRS,
    SRS, Shadow, the counter trackers, P-PIM) — built only when the
    context carries a live controller.  ``close()`` forwards to the
    inner hook detach, so the REP004 attach/detach contract is honoured
    through the adapter.
    """

    def __init__(self, qmodel: "QuantizedModel", inner):
        super().__init__(qmodel)
        self.inner = inner
        self.name = inner.name
        self.stats = inner.stats  # share the live counters

    def tick(self) -> None:
        self.inner.tick()

    def finalize(self) -> DefenseStats:
        return self.inner.stats

    def close(self) -> None:
        self.inner.close()


class ModelTransformDefense(Defense):
    """Training-time defense: the deployed model *is* the defense.

    Binarization, weight clustering, and capacity scaling do their work
    before deployment; at attack time every flip lands (software
    executor) — the hardened weight distribution is what limits the
    damage.  ``transform_notes`` records what the build did (weights
    binarized, epochs of fine-tune, capacity factor …).  The undefended
    baseline ``none`` is the identity transform, with no notes.
    """

    def __init__(
        self,
        qmodel: "QuantizedModel",
        name: str,
        transform_notes: dict[str, int] | None = None,
    ):
        super().__init__(qmodel)
        from repro.attacks.executor import SoftwareFlipExecutor

        self.name = name
        self._executor = SoftwareFlipExecutor(qmodel)
        for key, value in (transform_notes or {}).items():
            self.stats.notes[key] = int(value)

    def executor(self):
        return self._executor

    def finalize(self) -> DefenseStats:
        self.stats.notes["landed"] = self._executor.flips_performed
        return self.stats


class ReconstructionDefense(Defense):
    """Run-time weight-reconstruction guard on the new protocol.

    Every landed flip is followed by a percentile-bound clamp of
    outlier weights; :meth:`recover` runs one final reconstruction
    pass (the post-attack repair step).
    """

    name = "reconstruction"

    def __init__(self, qmodel: "QuantizedModel", percentile: float = 99.0):
        super().__init__(qmodel)
        from repro.attacks.executor import SoftwareFlipExecutor
        from repro.defenses.software.reconstruction import (
            ReconstructingExecutor,
            WeightReconstructionGuard,
        )

        self.guard = WeightReconstructionGuard(qmodel, percentile=percentile)
        self._inner = SoftwareFlipExecutor(qmodel)
        self._executor = ReconstructingExecutor(self._inner, self.guard)

    def executor(self):
        return self._executor

    def recover(self) -> int:
        corrected = self.guard.reconstruct()
        self.stats.note("recovered_weights", corrected)
        return corrected

    def finalize(self) -> DefenseStats:
        self.stats.notes["landed"] = self._inner.flips_performed
        self.stats.notes["corrections"] = self.guard.corrections
        return self.stats
