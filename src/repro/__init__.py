"""DNN-Defender reproduction: victim-focused in-DRAM RowHammer defense.

Reproduction of Zhou, Ahmed, Rakin & Angizi, "DNN-Defender: A Victim-Focused
In-DRAM Defense Mechanism for Taming Adversarial Weight Attack on DNNs"
(DAC 2024, arXiv:2305.08034).

Sub-packages:
    ``repro.dram``     -- command-level DRAM + RowHammer simulator
    ``repro.nn``       -- from-scratch numpy DNN framework + 8-bit quantization
    ``repro.mapping``  -- weight-to-DRAM placement ("mapping file")
    ``repro.attacks``  -- BFA, random flips, adaptive attacks, hammer driver
    ``repro.core``     -- DNN-Defender: swaps, pipelining, runtime, deployment
    ``repro.defenses`` -- RRS/SRS/SHADOW/trackers + software defenses
    ``repro.analysis`` -- Table 2 / Fig. 8 analytics + experiment harnesses
    ``repro.presets``  -- trained model/dataset recipes used by experiments
    ``repro.experiments`` -- scenario registry, parallel runner, preset cache

Experiments are driven through the scenario registry — see
``python -m repro list`` or :func:`repro.experiments.run_scenario`.
"""

from repro import analysis, attacks, core, defenses, dram, mapping, nn, presets, utils
from repro import experiments
from repro.experiments import (
    PresetCache,
    Scenario,
    ScenarioResult,
    get_scenario,
    run_scenario,
    scenario_names,
    write_artifact,
)

__version__ = "1.1.0"

__all__ = [
    "analysis",
    "attacks",
    "core",
    "defenses",
    "dram",
    "experiments",
    "mapping",
    "nn",
    "presets",
    "utils",
    "PresetCache",
    "Scenario",
    "ScenarioResult",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "write_artifact",
    "__version__",
]
