"""Baseline RowHammer mitigations, software BFA defenses, and the
registry-backed ``Defense`` protocol (``@defense``)."""

from repro.defenses import software
from repro.defenses.base import DefenseStats, HookedDefense
from repro.defenses.ppim import make_ppim
from repro.defenses.protocol import (
    BehavioralDefense,
    Defense,
    DefenseContext,
    HookedDefenseAdapter,
    ModelTransformDefense,
    ReconstructionDefense,
    SecuredBitsDefense,
    SwapDefense,
)
from repro.defenses.radar import RadarDefense, RadarExecutor
from repro.defenses.registry import (
    DefenseSpec,
    build_defense,
    defense,
    defense_names,
    get_defense,
    iter_defenses,
    register_defense,
    unregister_defense,
)
from repro.defenses.rrs import RandomizedRowSwap
from repro.defenses.shadow import Shadow
from repro.defenses.srs import SecureRowSwap
from repro.defenses.trackers import (
    CounterBasedRefresh,
    make_counter_per_row,
    make_counter_tree,
    make_graphene,
    make_hydra,
    make_twice,
)

__all__ = [
    "software",
    "DefenseStats",
    "HookedDefense",
    "Defense",
    "DefenseContext",
    "DefenseSpec",
    "BehavioralDefense",
    "HookedDefenseAdapter",
    "ModelTransformDefense",
    "ReconstructionDefense",
    "SecuredBitsDefense",
    "SwapDefense",
    "RadarDefense",
    "RadarExecutor",
    "build_defense",
    "defense",
    "defense_names",
    "get_defense",
    "iter_defenses",
    "register_defense",
    "unregister_defense",
    "make_ppim",
    "RandomizedRowSwap",
    "Shadow",
    "SecureRowSwap",
    "CounterBasedRefresh",
    "make_counter_per_row",
    "make_counter_tree",
    "make_graphene",
    "make_hydra",
    "make_twice",
]
