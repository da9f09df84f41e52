"""Training and evaluation loops."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.data import Dataset
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.nn.tensor import Tensor, no_grad

__all__ = ["fit", "evaluate", "predict_logits", "loss_and_grads"]


def _iter_batches(
    x: np.ndarray, y: np.ndarray, batch_size: int, rng: np.random.Generator
):
    order = rng.permutation(x.shape[0])
    for start in range(0, x.shape[0], batch_size):
        idx = order[start:start + batch_size]
        yield x[idx], y[idx]


def fit(
    model: Module,
    dataset: Dataset,
    epochs: int = 10,
    batch_size: int = 64,
    lr: float = 0.05,
    momentum: float = 0.9,
    weight_decay: float = 5e-4,
    lr_decay_at: tuple[int, ...] = (),
    seed: int = 0,
    verbose: bool = False,
) -> dict[str, list[float]]:
    """Train ``model`` on ``dataset``; returns per-epoch history."""
    rng = np.random.default_rng(seed)
    optimizer = SGD(model.parameters(), lr=lr, momentum=momentum,
                    weight_decay=weight_decay)
    history: dict[str, list[float]] = {"loss": [], "test_accuracy": []}
    for epoch in range(epochs):
        if epoch in lr_decay_at:
            optimizer.lr *= 0.1
        model.train()
        losses = []
        for xb, yb in _iter_batches(dataset.x_train, dataset.y_train,
                                    batch_size, rng):
            optimizer.zero_grad()
            logits = model(Tensor(xb))
            loss = F.cross_entropy(logits, yb)
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        accuracy = evaluate(model, dataset.x_test, dataset.y_test)
        history["loss"].append(float(np.mean(losses)))
        history["test_accuracy"].append(accuracy)
        if verbose:
            print(
                f"epoch {epoch + 1:3d}/{epochs}  "
                f"loss {history['loss'][-1]:.4f}  "
                f"test acc {accuracy * 100:.2f}%"
            )
    return history


def predict_logits(
    model: Module, x: np.ndarray, batch_size: int = 256
) -> np.ndarray:
    """Inference logits for ``x`` (eval mode, no autograd)."""
    model.eval()
    outputs = []
    with no_grad():
        for start in range(0, x.shape[0], batch_size):
            logits = model(Tensor(x[start:start + batch_size]))
            outputs.append(logits.data)
    return np.concatenate(outputs, axis=0)


def evaluate(
    model: Module, x: np.ndarray, y: np.ndarray, batch_size: int = 256
) -> float:
    """Top-1 accuracy of ``model`` on ``(x, y)``."""
    logits = predict_logits(model, x, batch_size=batch_size)
    return float((logits.argmax(axis=1) == y).mean())


def loss_and_grads(
    model: Module, x: np.ndarray, y: np.ndarray,
    inputs: list[np.ndarray] | None = None,
) -> float:
    """Forward/backward pass in eval mode; returns the loss value.

    Used by the attack and the profiler: eval mode keeps batch-norm
    statistics frozen (the attacker cannot perturb them), while autograd
    still populates ``weight.grad`` for the bit ranking.

    ``inputs``, when given, receives the input of each of
    ``model.segments()`` in segment order:
    :meth:`repro.nn.quant.QuantizedModel.__call__` resumes a forward
    from them.
    """
    model.eval()
    model.zero_grad()
    out = Tensor(x)
    for fn, _ in model.segments():
        if inputs is not None:
            inputs.append(out.data)
        out = fn(out)
    loss = F.cross_entropy(out, y)
    loss.backward()
    return loss.item()
