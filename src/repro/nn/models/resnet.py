"""ResNet family: ResNet-20 (CIFAR style) and ResNet-18/34 (ImageNet style).

The paper attacks an 8-bit ResNet-20 on CIFAR-10 (Table 3, baseline from
[15]) and ResNet-18/34 on ImageNet (Figs. 1b, 9b, 9c).  Architectures follow
He et al.; the ImageNet stem is adapted for small synthetic inputs (3x3
stride-1 conv instead of 7x7 stride-2 + maxpool when the input is small),
and ``width_scale`` shrinks channel counts for CI-scale runs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    ReLU,
)
from repro.nn.module import Module, Sequential
from repro.nn.seeding import fallback_rng

__all__ = ["BasicBlock", "ResNet", "make_resnet20", "make_resnet18", "make_resnet34"]


def _scaled(channels: int, width_scale: float) -> int:
    return max(8, int(round(channels * width_scale)))


class BasicBlock(Module):
    """Two 3x3 convs with identity (or projected) shortcut."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        rng: np.random.Generator | None = None,
        activation_factory=ReLU,
    ):
        super().__init__()
        rng = fallback_rng("BasicBlock.__init__", rng)
        self.conv1 = Conv2d(
            in_channels, out_channels, 3, stride=stride, padding=1,
            bias=False, rng=rng,
        )
        self.bn1 = BatchNorm2d(out_channels)
        self.conv2 = Conv2d(
            out_channels, out_channels, 3, stride=1, padding=1,
            bias=False, rng=rng,
        )
        self.bn2 = BatchNorm2d(out_channels)
        self.relu = activation_factory()
        if stride != 1 or in_channels != out_channels:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride,
                       bias=False, rng=rng),
                BatchNorm2d(out_channels),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x):
        out = self.relu(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        out = out + self.shortcut(x)
        return self.relu(out)


class ResNet(Module):
    """Generic basic-block ResNet."""

    def __init__(
        self,
        stage_blocks: list[int],
        stage_channels: list[int],
        num_classes: int = 10,
        in_channels: int = 3,
        width_scale: float = 1.0,
        rng: np.random.Generator | None = None,
        activation_factory=ReLU,
    ):
        super().__init__()
        rng = fallback_rng("ResNet.__init__", rng)
        if len(stage_blocks) != len(stage_channels):
            raise ValueError(
                f"{len(stage_blocks)} stages but {len(stage_channels)} widths"
            )
        widths = [_scaled(c, width_scale) for c in stage_channels]
        self.stem_conv = Conv2d(
            in_channels, widths[0], 3, stride=1, padding=1, bias=False, rng=rng
        )
        self.stem_bn = BatchNorm2d(widths[0])
        self.relu = activation_factory()
        stages: list[Module] = []
        channels = widths[0]
        for stage_index, (blocks, width) in enumerate(zip(stage_blocks, widths)):
            for block_index in range(blocks):
                stride = 2 if stage_index > 0 and block_index == 0 else 1
                stages.append(
                    BasicBlock(
                        channels, width, stride=stride, rng=rng,
                        activation_factory=activation_factory,
                    )
                )
                channels = width
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(channels, num_classes, rng=rng)

    def _stem(self, x):
        return self.relu(self.stem_bn(self.stem_conv(x)))

    def _head(self, x):
        return self.fc(self.pool(x))

    def segments(self):
        """Stem, each :class:`BasicBlock`, then the pooled classifier."""
        return [
            (self._stem, (self.stem_conv, self.stem_bn, self.relu)),
            *((block, (block,)) for block in self.stages),
            (self._head, (self.pool, self.fc)),
        ]

    def forward(self, x):
        for fn, _ in self.segments():
            x = fn(x)
        return x


def make_resnet20(
    num_classes: int = 10,
    in_channels: int = 3,
    width_scale: float = 1.0,
    seed: int = 0,
    activation_factory=ReLU,
) -> ResNet:
    """CIFAR-style ResNet-20: 3 stages x 3 blocks, widths 16/32/64."""
    rng = np.random.default_rng(seed)
    return ResNet([3, 3, 3], [16, 32, 64], num_classes=num_classes,
                  in_channels=in_channels, width_scale=width_scale, rng=rng,
                  activation_factory=activation_factory)


def make_resnet18(
    num_classes: int = 100,
    in_channels: int = 3,
    width_scale: float = 1.0,
    seed: int = 0,
) -> ResNet:
    """ResNet-18: 4 stages x 2 blocks, widths 64/128/256/512."""
    rng = np.random.default_rng(seed)
    return ResNet([2, 2, 2, 2], [64, 128, 256, 512], num_classes=num_classes,
                  in_channels=in_channels, width_scale=width_scale, rng=rng)


def make_resnet34(
    num_classes: int = 100,
    in_channels: int = 3,
    width_scale: float = 1.0,
    seed: int = 0,
) -> ResNet:
    """ResNet-34: 4 stages of 3/4/6/3 blocks, widths 64/128/256/512."""
    rng = np.random.default_rng(seed)
    return ResNet([3, 4, 6, 3], [64, 128, 256, 512], num_classes=num_classes,
                  in_channels=in_channels, width_scale=width_scale, rng=rng)
