"""Synthetic image-classification datasets.

The reproduction environment has no network access, so CIFAR-10 and ImageNet
are replaced by deterministic synthetic datasets that preserve what the
attack dynamics need: a convnet trained on them reaches high accuracy, the
loss surface gives informative per-weight gradients, and flipping the most
sensitive weight bits collapses accuracy towards random guess while random
flips barely move it (Fig. 1b's contrast).

Each class gets a smooth random "prototype" image (low-frequency Gaussian
field); samples are prototype + per-sample smooth deformation + pixel noise +
a random circular shift.  Difficulty is controlled by the noise-to-signal
ratio.

The smoothing is a reflect-mode Gaussian filter over a field's channel, row
and column axes, in float64 and in a fixed order of operations, because every
trained preset and committed artifact starts from these bytes
(tests/nn/test_data_train.py pins three datasets' hashes):

- radius ``int(4*sigma + 0.5)``; weights ``exp(-0.5/sigma**2 * x**2)`` for
  ``x = -radius..radius``, divided by their sum;
- edges extended by symmetric reflection (``... b a | a b ... y z | z y
  ...``), repeated when the radius is longer than the axis;
- one axis after another, in axis order, each output value is its centre
  value times the centre weight, then ``+= (left + right) * weight`` for
  each pair of taps, from the farthest pair inward.

Synthesis draws its random numbers in a fixed order (each class's prototype
field; then per split all labels, then per sample its deformation field,
shift and noise) and does the arithmetic for blocks of samples at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Dataset", "synthetic_classification", "cifar10_like", "imagenet_like"]


@dataclass
class Dataset:
    """Train/test split of a synthetic classification task."""

    name: str
    x_train: np.ndarray  # (N, C, H, W) float32
    y_train: np.ndarray  # (N,) int64
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if self.x_train.shape[0] != self.y_train.shape[0]:
            raise ValueError("train images/labels length mismatch")
        if self.x_test.shape[0] != self.y_test.shape[0]:
            raise ValueError("test images/labels length mismatch")

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.x_train.shape[1:])

    @property
    def random_guess_accuracy(self) -> float:
        return 1.0 / self.num_classes

    def attack_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sample the attacker's batch from the *test* set (threat model,
        Table 1: the attacker holds a small batch of test data)."""
        n = self.x_test.shape[0]
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        return self.x_test[idx], self.y_test[idx]


# float64 values filtered per block: enough samples to amortize numpy's
# per-call overhead on small images, few enough that a block's passes stay
# in cache on large ones.
_BLOCK_ELEMENTS = 1 << 15


def _gaussian_filter(fields: np.ndarray, sigma: float) -> np.ndarray:
    """Filter each float64 ``fields[i]`` over all of its axes, as the
    module docstring specifies.

    Each pass first moves the axis it filters to the front, so every tap
    is one contiguous slab; after the last pass the axes are back in
    order.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = weights / weights.sum()
    out = np.moveaxis(fields, 0, -1)
    for _ in range(1, out.ndim):
        length = out.shape[0]
        padded = np.pad(
            out, [(radius, radius)] + [(0, 0)] * (out.ndim - 1),
            mode="symmetric",
        )
        out = padded[radius:radius + length] * weights[radius]
        pair = np.empty_like(out)
        for k in range(radius, 0, -1):
            np.add(padded[radius - k:radius - k + length],
                   padded[radius + k:radius + k + length], out=pair)
            pair *= weights[radius + k]
            out += pair
        out = np.moveaxis(out, 0, -1)
    return np.ascontiguousarray(out)


def _smooth_fields(fields: np.ndarray, sigma: float) -> np.ndarray:
    """Filter each field, then divide it by its own std (a field with
    std 0 stays as it is)."""
    smooth = _gaussian_filter(fields, sigma)
    std = smooth.std(axis=tuple(range(1, smooth.ndim)), keepdims=True)
    np.divide(smooth, std, out=smooth, where=std > 0)
    return smooth


def _roll_each(images: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """``np.roll(images[i], shifts[i], axis=(1, 2))`` for every sample."""
    n, c, h, w = images.shape
    rows = (np.arange(h) - shifts[:, :1]) % h
    cols = (np.arange(w) - shifts[:, 1:]) % w
    return images[
        np.arange(n)[:, None, None, None],
        np.arange(c)[:, None, None],
        rows[:, None, :, None],
        cols[:, None, None, :],
    ]


def synthetic_classification(
    name: str,
    num_classes: int,
    n_train: int,
    n_test: int,
    image_hw: int = 16,
    channels: int = 3,
    noise: float = 0.45,
    deform: float = 0.3,
    max_shift: int = 2,
    seed: int = 0,
) -> Dataset:
    """Generate a synthetic dataset (see module docstring)."""
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    # Keep the augmentation shift proportionate on tiny images.
    max_shift = min(max_shift, image_hw // 8)
    shape = (channels, image_hw, image_hw)
    rng = np.random.default_rng(seed)
    prototypes = _smooth_fields(np.stack([
        rng.normal(0.0, 1.0, size=shape) for _ in range(num_classes)
    ]), sigma=2.0)
    block = max(1, _BLOCK_ELEMENTS // math.prod(shape))

    def sample(n: int, sample_rng: np.random.Generator):
        labels = sample_rng.integers(0, num_classes, size=n)
        images = np.empty((n, *shape), dtype=np.float32)
        for start in range(0, n, block):
            stop = min(start + block, n)
            fields = np.empty((stop - start, *shape))
            shifts = np.zeros((stop - start, 2), dtype=np.int64)
            noises = np.empty_like(fields)
            for i in range(stop - start):
                fields[i] = sample_rng.normal(0.0, 1.0, size=shape)
                if max_shift > 0:
                    shifts[i] = sample_rng.integers(
                        -max_shift, max_shift + 1, size=2
                    )
                noises[i] = sample_rng.normal(0.0, 1.0, size=shape)
            batch = prototypes[labels[start:stop]]
            batch += deform * _smooth_fields(fields, sigma=1.5)
            batch = _roll_each(batch, shifts)
            batch += noise * noises
            images[start:stop] = batch
        return images, labels.astype(np.int64)

    x_train, y_train = sample(n_train, np.random.default_rng(seed + 1))
    x_test, y_test = sample(n_test, np.random.default_rng(seed + 2))
    # Normalise with train statistics (per channel).
    mean = x_train.mean(axis=(0, 2, 3), keepdims=True)
    std = x_train.std(axis=(0, 2, 3), keepdims=True)
    std[std == 0] = 1.0
    x_train = ((x_train - mean) / std).astype(np.float32)
    x_test = ((x_test - mean) / std).astype(np.float32)
    return Dataset(name, x_train, y_train, x_test, y_test, num_classes)


def cifar10_like(
    n_train: int = 2000,
    n_test: int = 512,
    image_hw: int = 16,
    seed: int = 0,
) -> Dataset:
    """10-class stand-in for CIFAR-10 (random guess = 10%)."""
    return synthetic_classification(
        "cifar10-like", 10, n_train, n_test, image_hw=image_hw, seed=seed
    )


def imagenet_like(
    num_classes: int = 40,
    n_train: int = 4000,
    n_test: int = 800,
    image_hw: int = 16,
    seed: int = 0,
) -> Dataset:
    """Many-class stand-in for ImageNet (random guess = 1/num_classes)."""
    return synthetic_classification(
        "imagenet-like",
        num_classes,
        n_train,
        n_test,
        image_hw=image_hw,
        noise=0.45,
        seed=seed,
    )
