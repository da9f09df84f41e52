"""DNN-Defender core: the paper's primary contribution."""

from repro.core.config import DefenderConfig
from repro.core.defender import DefenderStats, DNNDefender
from repro.core.deployment import DefendedDeployment
from repro.core.pipeline import (
    TimelineEntry,
    build_timeline,
    chain_aap_count,
    chain_latency_ns,
    max_swaps_per_window,
)
from repro.core.swap import SwapEngine, SwapRecord

__all__ = [
    "DefenderConfig",
    "DefenderStats",
    "DNNDefender",
    "DefendedDeployment",
    "TimelineEntry",
    "build_timeline",
    "chain_aap_count",
    "chain_latency_ns",
    "max_swaps_per_window",
    "SwapEngine",
    "SwapRecord",
]
