"""Fresh-process set-up probe for the benchmark.

``python3 perfbench/probe.py <workload>`` does the warm set-up that every
``repro`` CLI call and every chunk worker pays before its first trial:
import the package and the scenario registry, load the workload's trained
preset from the preset cache (which synthesises its dataset), and, for the
tournament, load a DNN-Defender vulnerable-bit profile from the profile
cache.  ``run.py`` times the whole process from outside.

``python3 perfbench/probe.py --fill <workload>`` runs the same loads
against a possibly cold cache, so they train and profile once.  ``run.py``
calls it before any timed run.

The cache roots come from ``REPRO_CACHE_DIR`` / ``REPRO_PROFILE_DIR``,
which ``run.py`` points into the checkout.
"""

from __future__ import annotations

import sys

from workloads import PRESET, TOURNAMENT_SEED_POOL, WORKLOADS


def load_profile(seed: int, cache, profile_cache) -> None:
    """Build the tournament's ``dnn-defender`` defense for ``seed``.

    This is the registry path a tournament cell takes; it loads (or, on a
    cold cache, computes and stores) the defense's vulnerable-bit profile.
    """
    from repro.defenses.protocol import DefenseContext
    from repro.defenses.registry import build_defense
    from repro.experiments import TrialContext
    from repro.nn.quant import QuantizedModel

    preset = cache.load(PRESET)
    ctx = TrialContext(
        scenario="tournament-matrix", trial_index=0, seed=seed,
        cache=cache, profile_cache=profile_cache,
    )
    defense = build_defense(
        "dnn-defender",
        DefenseContext(
            qmodel=QuantizedModel(preset.fresh_model()),
            dataset=preset.dataset, seed=seed, trial=ctx,
            preset_name=PRESET,
        ),
    )
    defense.close()


def main(argv: list[str]) -> int:
    fill = argv[:1] == ["--fill"]
    name = argv[-1]
    workload = WORKLOADS[name]

    import repro.cli  # noqa: F401  (the CLI entry every call imports)
    from repro.experiments import PresetCache, ProfileCache, get_scenario

    get_scenario(workload.scenario)
    cache, profile_cache = PresetCache(), ProfileCache()
    if workload.uses_preset:
        cache.load(PRESET)
    if workload.uses_profile:
        seeds = TOURNAMENT_SEED_POOL if fill else TOURNAMENT_SEED_POOL[:1]
        for seed in seeds:
            load_profile(seed, cache, profile_cache)
    if not fill and (cache.misses or profile_cache.misses):
        print("probe: cache was cold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
