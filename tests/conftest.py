"""Shared fixtures: a small trained model + dataset, built once per session."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    QuantizedModel,
    ReLU,
    Sequential,
    cifar10_like,
    fit,
)
from repro.nn import train


@pytest.fixture(autouse=True)
def _fresh_accuracy_memo():
    """Each test starts with no memoized accuracies, whichever ran before."""
    train._ACCURACIES.clear()


def make_tiny_model(seed: int = 0) -> Sequential:
    """A small convnet that trains in seconds and quantizes cleanly."""
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(3, 16, 3, padding=1, rng=rng),
        BatchNorm2d(16),
        ReLU(),
        MaxPool2d(2),
        Conv2d(16, 32, 3, padding=1, rng=rng),
        BatchNorm2d(32),
        ReLU(),
        MaxPool2d(2),
        Flatten(),
        Linear(32 * 2 * 2, 64, rng=rng),
        ReLU(),
        Linear(64, 10, rng=rng),
    )


@pytest.fixture(scope="session")
def tiny_dataset():
    return cifar10_like(n_train=768, n_test=256, image_hw=8, seed=0)


@pytest.fixture(scope="session")
def trained_state(tiny_dataset):
    """Train once per session; tests get fresh copies via the state dict."""
    model = make_tiny_model(seed=0)
    history = fit(model, tiny_dataset, epochs=6, batch_size=64, lr=0.08,
                  seed=0)
    assert history["test_accuracy"][-1] > 0.75, (
        "fixture model failed to train; attack tests would be meaningless"
    )
    return model.state_dict()


@pytest.fixture
def fresh_model(trained_state):
    model = make_tiny_model(seed=0)
    model.load_state_dict(trained_state)
    model.eval()
    return model


@pytest.fixture
def fresh_quantized(fresh_model):
    return QuantizedModel(fresh_model)


@pytest.fixture
def quantized_factory(trained_state):
    """Build any number of identical trained quantized models (parity
    tests compare two independent copies side by side)."""

    def build() -> QuantizedModel:
        model = make_tiny_model(seed=0)
        model.load_state_dict(trained_state)
        model.eval()
        return QuantizedModel(model)

    return build
