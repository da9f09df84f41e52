"""DNN-Defender configuration."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DefenderConfig"]


@dataclass(frozen=True)
class DefenderConfig:
    """The one knob of the DNN-Defender mechanism.

    Attributes:
        period_fraction: how often the defender runs relative to the hammer
            window ``T_ACT x T_RH``.  Every target row must be refreshed at
            least once per window (Section 4, Timing Considerations); running
            at half the window leaves slack for scheduling jitter.
    """

    period_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.period_fraction <= 1.0:
            raise ValueError(
                "period_fraction must be in (0, 1]: the defender must run at "
                "least once per hammer window to meet the refresh deadline"
            )
