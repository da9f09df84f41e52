"""Adversarial weight attacks: BFA, random flips, RowHammer driver, and
the registry-backed ``Attacker`` protocol (``@attacker``)."""

from repro.attacks.adaptive import (
    semi_white_box_attack,
    white_box_adaptive_attack,
)
from repro.attacks.bfa import AttackResult, BfaConfig, BitFlipAttack, FlipAttempt
from repro.attacks.executor import (
    BehavioralDefenseExecutor,
    FlipExecutor,
    LogicalDefenseExecutor,
    SoftwareFlipExecutor,
)
from repro.attacks.hammer import HammerExecutor, RowHammerAttacker, TickingDefense
from repro.attacks.profile import ProfileResult, profile_vulnerable_bits
from repro.attacks.protocol import AttackContext, Attacker, AttackOutcome
from repro.attacks.random_attack import (
    RandomAttackResult,
    random_bit_attack,
    sample_random_bits,
)
from repro.attacks.registry import (
    AttackerSpec,
    attacker,
    attacker_names,
    build_attacker,
    get_attacker,
    iter_attackers,
    register_attacker,
    unregister_attacker,
)
from repro.attacks.tbfa import TargetedBitFlipAttack, TbfaConfig, TbfaResult
from repro.attacks.threat import SEMI_WHITE_BOX, WHITE_BOX, ThreatModel

__all__ = [
    "AttackContext",
    "Attacker",
    "AttackOutcome",
    "AttackerSpec",
    "attacker",
    "attacker_names",
    "build_attacker",
    "get_attacker",
    "iter_attackers",
    "register_attacker",
    "unregister_attacker",
    "semi_white_box_attack",
    "white_box_adaptive_attack",
    "AttackResult",
    "BfaConfig",
    "BitFlipAttack",
    "FlipAttempt",
    "BehavioralDefenseExecutor",
    "FlipExecutor",
    "LogicalDefenseExecutor",
    "SoftwareFlipExecutor",
    "HammerExecutor",
    "RowHammerAttacker",
    "TickingDefense",
    "ProfileResult",
    "profile_vulnerable_bits",
    "RandomAttackResult",
    "random_bit_attack",
    "sample_random_bits",
    "TargetedBitFlipAttack",
    "TbfaConfig",
    "TbfaResult",
    "SEMI_WHITE_BOX",
    "WHITE_BOX",
    "ThreatModel",
]
