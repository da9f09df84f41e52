"""Table 3's binary-weight fine-tune runs through ``fit`` byte for byte."""

import numpy as np
import pytest

from repro.defenses.software import bake_binarization, enable_weight_binarization
from repro.experiments.scenarios import _finetune_binary
from repro.nn import SGD, Tensor, cifar10_like, fit, make_resnet20
from repro.nn import functional as F


def _finetune_binary_loop(model, dataset, epochs=3, lr=0.01, seed=0):
    """Reference: the explicit SGD loop ``_finetune_binary`` must match."""
    enable_weight_binarization(model)
    rng = np.random.default_rng(seed)
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9)
    n = dataset.x_train.shape[0]
    for _ in range(epochs):
        model.train()
        order = rng.permutation(n)
        for start in range(0, n, 64):
            idx = order[start:start + 64]
            optimizer.zero_grad()
            loss = F.cross_entropy(
                model(Tensor(dataset.x_train[idx])), dataset.y_train[idx]
            )
            loss.backward()
            optimizer.step()
    bake_binarization(model)
    model.eval()


@pytest.fixture(scope="module")
def pre_fit():
    dataset = cifar10_like(n_train=160, n_test=64, image_hw=8, seed=0)
    model = make_resnet20(num_classes=10, width_scale=0.25, seed=0)
    fit(model, dataset, epochs=1, batch_size=64, lr=0.05, seed=0)
    return dataset, model.state_dict()


@pytest.mark.parametrize("seed", [0, 3])
def test_fit_based_finetune_matches_the_loop(pre_fit, seed):
    dataset, state = pre_fit
    models = []
    for _ in range(2):
        model = make_resnet20(num_classes=10, width_scale=0.25, seed=0)
        model.load_state_dict(state)
        models.append(model)
    _finetune_binary(models[0], dataset, seed=seed)
    _finetune_binary_loop(models[1], dataset, epochs=2, seed=seed)
    ours, oracle = models[0].state_dict(), models[1].state_dict()
    assert list(ours) == list(oracle)
    for key in ours:
        assert ours[key].dtype == oracle[key].dtype, key
        assert ours[key].tobytes() == oracle[key].tobytes(), key
    assert not models[0].training and not models[1].training
