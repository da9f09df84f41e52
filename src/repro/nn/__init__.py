"""From-scratch numpy DNN framework.

Provides the DNN substrate the paper's experiments need: autograd tensors,
conv/BN/pool/linear layers, VGG/ResNet models, 8-bit weight quantization
with bit-level access, SGD training, and synthetic datasets standing in for
CIFAR-10/ImageNet (see DESIGN.md for the substitution rationale).
"""

from repro.nn import functional
from repro.nn.data import Dataset, cifar10_like, imagenet_like, synthetic_classification
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.loss import CrossEntropyLoss
from repro.nn.models import (
    VGG,
    BasicBlock,
    ResNet,
    make_resnet18,
    make_resnet20,
    make_resnet34,
    make_vgg11,
)
from repro.nn.module import Module, Sequential
from repro.nn.optim import SGD, default_decay_filter
from repro.nn.seeding import UnseededRngWarning, fallback_rng
from repro.nn.quant import BitLocation, QuantizedLayer, QuantizedModel
from repro.nn.tensor import Parameter, Tensor, no_grad
from repro.nn.train import (
    GradientMemo,
    evaluate,
    fit,
    loss_and_grads,
    predict_logits,
)

__all__ = [
    "functional",
    "Dataset",
    "cifar10_like",
    "imagenet_like",
    "synthetic_classification",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "Identity",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "CrossEntropyLoss",
    "VGG",
    "BasicBlock",
    "ResNet",
    "make_resnet18",
    "make_resnet20",
    "make_resnet34",
    "make_vgg11",
    "Module",
    "Sequential",
    "SGD",
    "default_decay_filter",
    "UnseededRngWarning",
    "fallback_rng",
    "BitLocation",
    "QuantizedLayer",
    "QuantizedModel",
    "Parameter",
    "Tensor",
    "no_grad",
    "GradientMemo",
    "evaluate",
    "fit",
    "loss_and_grads",
    "predict_logits",
]
