"""Forward segments: the chain a resumed forward restarts from.

``Module.segments()`` splits a model's forward into ``(fn, modules)``
links.  Composing them must reproduce ``forward`` byte for byte, every
quantized layer must belong to exactly one link, and a
:class:`QuantizedModel` forward resumed from the inputs that
``loss_and_grads`` captured must equal the full forward.
"""

import numpy as np
import pytest

from repro.defenses.software.binarize import (
    SignActivation,
    enable_weight_binarization,
)
from repro.nn import (
    QuantizedModel,
    Tensor,
    make_resnet18,
    make_resnet20,
    make_resnet34,
    make_vgg11,
)
from repro.nn.tensor import no_grad
from repro.nn.train import loss_and_grads


def _binarized_resnet20():
    model = make_resnet20(num_classes=10, width_scale=0.5, seed=4)
    enable_weight_binarization(model)
    return model


MODELS = {
    "resnet20": lambda: make_resnet20(num_classes=10, width_scale=0.5, seed=1),
    "resnet18": lambda: make_resnet18(num_classes=10, width_scale=0.125, seed=2),
    "resnet34": lambda: make_resnet34(num_classes=10, width_scale=0.125, seed=3),
    "rabnn-resnet20": lambda: make_resnet20(
        num_classes=10, width_scale=0.5, seed=5,
        activation_factory=SignActivation,
    ),
    "binarized-resnet20": _binarized_resnet20,
}


def _batch(n=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 10, size=n)
    return x, y


@pytest.fixture(params=sorted(MODELS))
def model(request):
    return MODELS[request.param]().eval()


class TestSegments:
    def test_composition_reproduces_forward_bytes(self, model):
        x, _ = _batch()
        with no_grad():
            expected = model(Tensor(x)).data
            out = Tensor(x)
            for fn, _ in model.segments():
                out = fn(out)
        assert out.data.tobytes() == expected.tobytes()

    def test_every_quantized_layer_in_exactly_one_segment(self, model):
        qmodel = QuantizedModel(model)
        segments = model.segments()
        assert len(segments) > 2  # stem, blocks, head
        for index, layer in enumerate(qmodel.layers):
            owners = [
                s for s, (_, modules) in enumerate(segments)
                if any(
                    sub is layer.module
                    for module in modules for sub in module.modules()
                )
            ]
            assert owners == [qmodel.segment_of(index)], layer.name

    def test_resumed_forward_matches_full_forward(self, model):
        qmodel = QuantizedModel(model)
        x, y = _batch()
        inputs = []
        loss_and_grads(model, x, y, inputs=inputs)
        assert len(inputs) == len(model.segments())
        with no_grad():
            expected = qmodel(Tensor(x)).data
            for start, captured in enumerate(inputs):
                out = qmodel(Tensor(captured), start=start).data
                assert out.tobytes() == expected.tobytes(), start

    def test_start_out_of_range_rejected(self, model):
        qmodel = QuantizedModel(model)
        with pytest.raises(ValueError):
            qmodel(Tensor(_batch()[0]), start=len(model.segments()))


def test_default_is_one_segment():
    model = make_vgg11(
        num_classes=10, input_size=8, width_scale=0.125, hidden_scale=0.01
    )
    assert model.segments() == [(model.forward, (model,))]
    qmodel = QuantizedModel(model)
    assert {qmodel.segment_of(i) for i in range(qmodel.num_layers)} == {0}

