"""Tests for synthetic datasets, the optimizer, and end-to-end training."""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import data as data_module
from repro.nn import (
    SGD,
    Linear,
    Sequential,
    Tensor,
    cifar10_like,
    evaluate,
    fit,
    imagenet_like,
    loss_and_grads,
    make_resnet20,
    predict_logits,
    synthetic_classification,
)
from repro.nn import functional as F
from repro.presets import preset_spec

REPO = pathlib.Path(__file__).resolve().parents[2]


def _reflect(i: int, n: int) -> int:
    """Index that position ``i`` of an axis of length ``n`` reads in its
    symmetric extension (``... b a | a b ... y z | z y ...``, period
    ``2n``)."""
    i %= 2 * n
    return i if i < n else 2 * n - 1 - i


def _gaussian_filter_loop(field: np.ndarray, sigma: float) -> np.ndarray:
    """Oracle filter, one output value at a time in Python floats: per
    axis in order, the centre tap times its weight, then ``+= (left +
    right) * weight`` for each pair from the farthest inward, reading
    reflected positions by index arithmetic."""
    radius = int(4 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    weights = (phi / phi.sum())[radius:].tolist()  # centre, 1, ..., radius
    out = np.array(field, dtype=np.float64)
    for axis in range(out.ndim):
        lines = np.moveaxis(out, axis, -1)
        filtered = np.empty_like(lines)
        n = lines.shape[-1]
        for index in np.ndindex(lines.shape[:-1]):
            line = lines[index].tolist()
            for i in range(n):
                acc = line[i] * weights[0]
                for k in range(radius, 0, -1):
                    acc += (line[_reflect(i - k, n)]
                            + line[_reflect(i + k, n)]) * weights[k]
                filtered[index + (i,)] = acc
        out = np.moveaxis(filtered, -1, axis)
    return np.ascontiguousarray(out)


def _sha256(dataset) -> str:
    digest = hashlib.sha256()
    for array in (dataset.x_train, dataset.y_train,
                  dataset.x_test, dataset.y_test):
        digest.update(array.tobytes())
    return digest.hexdigest()


class TestDatasetBytes:
    """The synthesized bytes are pinned: every trained preset, cached
    profile and committed artifact starts from them."""

    @pytest.mark.parametrize("build, expected", [
        (lambda: preset_spec("resnet20_cifar").make_dataset(),
         "f055972e6a0fc3d8b70e11e54f666fd50aa89fbf78aa1da10fa07588e8b76d34"),
        (lambda: preset_spec("resnet18_imagenet").make_dataset(),
         "2f78b012edbc7623e5c7a5329b100d682bc29b5ef48b85fee86ba5d5c6a687a7"),
        (lambda: cifar10_like(n_train=64, n_test=32, image_hw=16, seed=0),
         "41da09dc80d7c2f4b3b49ca6973d908fcc01e4c5853b2c73e3ffef1ebcac8857"),
    ], ids=["resnet20_cifar", "resnet18_imagenet", "cifar10_like-16px"])
    def test_pinned_sha256(self, build, expected):
        assert _sha256(build()) == expected

    @pytest.mark.parametrize("block_elements", [1, 4000])
    def test_block_size_never_moves_a_byte(self, monkeypatch, block_elements):
        """One sample per block, or five (so 37 training samples end in a
        short block), synthesize what one block per split does."""
        def build():
            return imagenet_like(num_classes=5, n_train=37, n_test=11,
                                 image_hw=16, seed=4)

        expected = _sha256(build())
        monkeypatch.setattr(data_module, "_BLOCK_ELEMENTS", block_elements)
        assert _sha256(build()) == expected

    def test_cli_import_loads_no_scipy(self):
        """Importing the CLI, which imports every subsystem, loads no
        scipy module: dataset synthesis needs numpy alone."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), env.get("PYTHONPATH", "")]
        )
        script = (
            "import sys, repro.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "[]"


class TestGaussianFilter:
    @settings(max_examples=40, deadline=None)
    @given(
        fields=st.integers(1, 3),
        shape=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        sigma=st.floats(0.5, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_oracle(self, fields, shape, sigma, seed):
        """Every output bit equals the loop oracle's, on any shape
        (axes shorter than the radius included); filtering a batch equals
        filtering each field alone; and each smoothed field is divided by
        its own std, unless that is 0."""
        rng = np.random.default_rng(seed)
        batch = rng.standard_normal((fields, *shape))
        filtered = data_module._gaussian_filter(batch, sigma)
        smooth = data_module._smooth_fields(batch, sigma)
        assert filtered.shape == batch.shape
        assert filtered.dtype == np.float64
        for i in range(fields):
            expected = _gaussian_filter_loop(batch[i], sigma)
            assert filtered[i].tobytes() == expected.tobytes()
            assert filtered[i].tobytes() == (
                data_module._gaussian_filter(batch[i:i + 1], sigma).tobytes()
            )
            std = expected.std()
            if std > 0:
                expected /= std
            assert smooth[i].tobytes() == expected.tobytes()


class TestSyntheticData:
    def test_shapes_and_dtypes(self):
        data = cifar10_like(n_train=64, n_test=32, image_hw=8, seed=0)
        assert data.x_train.shape == (64, 3, 8, 8)
        assert data.x_train.dtype == np.float32
        assert data.y_train.dtype == np.int64
        assert data.num_classes == 10
        assert data.random_guess_accuracy == pytest.approx(0.1)

    def test_deterministic(self):
        a = cifar10_like(n_train=32, n_test=16, image_hw=8, seed=5)
        b = cifar10_like(n_train=32, n_test=16, image_hw=8, seed=5)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_different_seed_differs(self):
        a = cifar10_like(n_train=32, n_test=16, image_hw=8, seed=1)
        b = cifar10_like(n_train=32, n_test=16, image_hw=8, seed=2)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_normalised(self):
        data = cifar10_like(n_train=256, n_test=32, image_hw=8, seed=0)
        assert abs(data.x_train.mean()) < 0.05
        assert data.x_train.std() == pytest.approx(1.0, abs=0.05)

    def test_imagenet_like_classes(self):
        data = imagenet_like(num_classes=20, n_train=64, n_test=32,
                             image_hw=8, seed=0)
        assert data.num_classes == 20
        assert set(np.unique(data.y_train)).issubset(set(range(20)))

    def test_attack_batch_comes_from_test(self):
        data = cifar10_like(n_train=32, n_test=16, image_hw=8, seed=0)
        rng = np.random.default_rng(0)
        xb, yb = data.attack_batch(8, rng)
        assert xb.shape[0] == 8
        # every sampled row exists in the test set
        for row, label in zip(xb, yb):
            matches = np.where((data.x_test == row).all(axis=(1, 2, 3)))[0]
            assert len(matches) >= 1
            assert label in data.y_test[matches]

    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            synthetic_classification("x", 1, 8, 8)


class TestSGD:
    def test_minimises_quadratic(self):
        rng = np.random.default_rng(0)
        w = Linear(4, 1, rng=rng)
        opt = SGD(w.parameters(), lr=0.1, momentum=0.5)
        x = np.eye(4, dtype=np.float32)
        loss = None
        for _ in range(200):
            opt.zero_grad()
            out = w(Tensor(x))
            loss = (out * out).sum()
            loss.backward()
            opt.step()
        assert loss.item() < 1e-8

    def test_weight_decay_shrinks(self):
        rng = np.random.default_rng(1)
        layer = Linear(3, 3, rng=rng)
        opt = SGD(layer.parameters(), lr=0.1, momentum=0.0, weight_decay=1.0)
        before = np.abs(layer.weight.data).sum()
        # Gradient-free steps: only decay acts.
        for p in layer.parameters():
            p.grad = np.zeros_like(p.data)
        for _ in range(10):
            opt.step()
        after = np.abs(layer.weight.data).sum()
        assert after < before

    def test_validates_args(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SGD(Linear(2, 2, rng=rng).parameters(), lr=0.0)


class TestTraining:
    def test_resnet20_learns_synthetic_data(self):
        data = cifar10_like(n_train=512, n_test=256, image_hw=8, seed=0)
        model = make_resnet20(num_classes=10, width_scale=0.5, seed=0)
        history = fit(model, data, epochs=6, batch_size=64, lr=0.08, seed=0)
        assert history["test_accuracy"][-1] > 0.7
        assert history["loss"][-1] < history["loss"][0]

    def test_evaluate_range(self):
        data = cifar10_like(n_train=32, n_test=32, image_hw=8, seed=0)
        model = make_resnet20(num_classes=10, width_scale=0.25, seed=0)
        acc = evaluate(model, data.x_test, data.y_test)
        assert 0.0 <= acc <= 1.0

    def test_predict_logits_batching_consistent(self):
        data = cifar10_like(n_train=32, n_test=40, image_hw=8, seed=0)
        model = make_resnet20(num_classes=10, width_scale=0.25, seed=0)
        full = predict_logits(model, data.x_test, batch_size=64)
        chunked = predict_logits(model, data.x_test, batch_size=7)
        np.testing.assert_allclose(full, chunked, rtol=1e-5, atol=1e-5)

    def test_loss_and_grads_populates_gradients(self):
        data = cifar10_like(n_train=32, n_test=32, image_hw=8, seed=0)
        model = make_resnet20(num_classes=10, width_scale=0.25, seed=0)
        loss = loss_and_grads(model, data.x_test[:8], data.y_test[:8])
        assert loss > 0
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)
        # eval mode must be left on and BN stats untouched by the pass
        assert not model.training
