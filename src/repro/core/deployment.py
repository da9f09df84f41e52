"""One-call wiring of the full defended system.

Builds the stack the paper's Fig. 7 framework evaluates: quantize a trained
model, place it in simulated DRAM, and stand up a defense over it.  Examples,
benchmarks and integration tests all start here.

The ``defense`` argument resolves through the defense registry
(:mod:`repro.defenses.registry`), the one place every defense is built.  The
builder receives the placed model's :class:`~repro.mapping.layout.WeightLayout`,
so the default ``"dnn-defender"`` profiles vulnerable bits (through the
profile cache when ``trial`` and ``preset_name`` are given) and runs the
hooked :class:`~repro.core.defender.DNNDefender` over their rows, while any
other registered name (``"radar"``, ``"shadow"``, ``"none"`` …) builds that
defense over the placed model.  The deployment exposes the uniform
:class:`~repro.defenses.protocol.Defense` surface on ``deployment.defense``,
the hammer driver ticks it between bursts, and ``attacker=`` names a
registered attacker that :meth:`DefendedDeployment.run_attack` executes
against the deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.attacks.hammer import HammerExecutor, RowHammerAttacker
from repro.dram.controller import MemoryController
from repro.dram.device import DramDevice
from repro.dram.geometry import DramGeometry
from repro.dram.timing import TimingParams
from repro.dram.timing_rules import TimingChecker
from repro.mapping.layout import WeightLayout
from repro.nn.data import Dataset
from repro.nn.module import Module
from repro.nn.quant import QuantizedModel
from repro.nn.train import evaluate

__all__ = ["DefendedDeployment"]


@dataclass
class DefendedDeployment:
    """A quantized model living in defended DRAM.

    ``defense`` carries the whole mechanism; for DNN-Defender,
    ``defense.defender`` is the live swap defender.
    """

    dataset: Dataset
    qmodel: QuantizedModel
    controller: MemoryController
    layout: WeightLayout
    checker: "TimingChecker | None" = None
    defense: object | None = None
    defense_name: str = "dnn-defender"
    attacker_name: str | None = None
    seed: int = 0
    defense_params: dict = field(default_factory=dict)

    @classmethod
    def build(
        cls,
        model: Module,
        dataset: Dataset,
        geometry: DramGeometry,
        timing: TimingParams,
        reserved_rows: int = 2,
        timing_check: str = "off",
        seed: int = 0,
        defense: str = "dnn-defender",
        attacker: str | None = None,
        defense_params: dict | None = None,
        trial: Any = None,
        preset_name: str | None = None,
    ) -> "DefendedDeployment":
        """Quantize, place, and defend ``model``.

        ``defense`` names a registered defense
        (``repro.defenses.registry``), built over the placed model with
        ``defense_params`` feeding its builder (DNN-Defender reads
        ``profile_rounds``, ``profile_iterations`` and ``attack_batch``).
        ``trial`` (a :class:`repro.experiments.TrialContext`) and
        ``preset_name`` let a profiling defense reuse the on-disk profile
        cache.  ``attacker`` names a registered attacker for
        :meth:`run_attack`.

        ``timing_check`` attaches a :class:`TimingChecker` to the
        controller before any command is issued: ``"strict"`` raises on
        the first DDR timing-rule violation anywhere in the defended
        stack, ``"audit"`` collects violations on ``deployment.checker``
        for later inspection, ``"off"`` (default) adds no observer.
        """
        from repro.defenses.protocol import DefenseContext
        from repro.defenses.registry import build_defense

        qmodel = QuantizedModel(model)
        controller = MemoryController(DramDevice(geometry), timing)
        checker = (
            TimingChecker(controller, mode=timing_check)
            if timing_check != "off" else None
        )
        layout = WeightLayout(
            qmodel, controller, reserved_rows=reserved_rows, seed=seed
        )
        defense_obj = build_defense(
            defense,
            DefenseContext(
                qmodel=qmodel,
                dataset=dataset,
                seed=seed,
                params=dict(defense_params or {}),
                layout=layout,
                timing=timing,
                trial=trial,
                preset_name=preset_name,
            ),
        )
        return cls(
            dataset=dataset,
            qmodel=defense_obj.qmodel,  # transforms may replace the model
            controller=controller,
            layout=layout,
            checker=checker,
            defense=defense_obj,
            defense_name=defense,
            attacker_name=attacker,
            seed=seed,
            defense_params=dict(defense_params or {}),
        )

    @classmethod
    def from_preset(
        cls,
        preset,
        geometry: DramGeometry,
        timing: TimingParams,
        **kwargs,
    ) -> "DefendedDeployment":
        """Build from a :class:`repro.presets.TrainedPreset`.

        Convenience used by scenarios: instantiates a fresh victim from
        the preset's trained state and deploys it over the preset's
        dataset.  ``kwargs`` forward to :meth:`build`.
        """
        return cls.build(
            preset.fresh_model(), preset.dataset,
            geometry=geometry, timing=timing, **kwargs,
        )

    # ------------------------------------------------------------------ #
    # Attack-side adapters
    # ------------------------------------------------------------------ #

    def hammer_executor(self, chunks_per_window: int = 4) -> HammerExecutor:
        """Full-DRAM attack path: flips go through hammered activations with
        the defense ticking in between."""
        attacker = RowHammerAttacker(
            self.controller,
            self.layout,
            defense=self.defense,
            chunks_per_window=chunks_per_window,
        )
        return HammerExecutor(attacker)

    def flip_executor(self):
        """The deployment's defense-wrapped logical flip path."""
        return self.defense.executor()

    def attack_context(self, budget: int = 25, params: dict | None = None):
        """An :class:`repro.attacks.protocol.AttackContext` over this
        deployment: the defense's executor, the defense object for
        defense-aware attackers, and the deployment's seed.  Outcome
        accuracies are measured on the test split, as :meth:`accuracy`
        is."""
        from repro.attacks.protocol import AttackContext

        return AttackContext(
            qmodel=self.qmodel,
            dataset=self.dataset,
            seed=self.seed,
            budget=budget,
            executor=self.flip_executor(),
            defense=self.defense,
            params=dict(params or {}),
            eval_x=self.dataset.x_test,
            eval_y=self.dataset.y_test,
        )

    def run_attack(
        self,
        attacker: str | None = None,
        budget: int = 25,
        params: dict | None = None,
    ):
        """Execute a registered attacker against this deployment.

        ``attacker`` defaults to the name given at :meth:`build` time;
        returns the uniform :class:`repro.attacks.protocol.AttackOutcome`.
        """
        from repro.attacks.registry import build_attacker

        name = attacker if attacker is not None else self.attacker_name
        if name is None:
            raise ValueError(
                "no attacker named: pass attacker=... here or at build()"
            )
        return build_attacker(name).execute(
            self.attack_context(budget=budget, params=params)
        )

    def accuracy(self) -> float:
        return evaluate(
            self.qmodel.model, self.dataset.x_test, self.dataset.y_test
        )

    def close(self) -> None:
        """Detach the defense's and the timing checker's controller hooks
        (idempotent).  A closed checker keeps its ``violations``."""
        if self.defense is not None:
            self.defense.close()
        if self.checker is not None:
            self.checker.close()

    def __enter__(self) -> "DefendedDeployment":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
