"""Training and evaluation loops."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.nn import functional as F
from repro.nn.data import Dataset
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.nn.tensor import Parameter, Tensor, no_grad

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


# Accuracies of recently evaluated (model state, data) pairs, keyed by
# _state_key, least recently used first.
_ACCURACIES: dict[bytes, float] = {}
_ACCURACIES_SIZE = 256

# Attribute values whose repr fixes both their type and their value.
_SCALAR_TYPES = (type(None), bool, int, float, str)


def _is_scalar(value) -> bool:
    if type(value) is tuple:
        return all(map(_is_scalar, value))
    return type(value) in _SCALAR_TYPES


def _state_key(
    model: Module, x: np.ndarray, y: np.ndarray, batch_size: int
) -> bytes | None:
    """SHA-256 of everything an eval-mode accuracy depends on, or ``None``.

    That is each module's path and class, then each of its attributes by
    name: parameters and arrays by dtype, shape and bytes, the
    ``_buffers`` dict by sorted key, and scalars (and tuples of them) by
    ``repr``.  Sub-modules are covered by the walk itself, and a batch
    norm's ``BatchNormEvalCache`` is a function of its buffers and
    ``eps``.  Any other attribute, such as a ``weight_transform``
    callable or an RNG, leaves the state without a key.

    Every field goes into one ``repr``, hashed first; it fixes each
    array's byte length, so the array bytes that follow it cannot be
    split another way.
    """
    fields: list[tuple] = []
    arrays: list[np.ndarray] = []

    def add(label, value) -> bool:
        if isinstance(value, Parameter):
            value = value.data
        if isinstance(value, np.ndarray):
            if value.dtype.kind not in "biufc":
                return False
            fields.append((label, value.dtype.str, value.shape))
            arrays.append(value)
            return True
        if _is_scalar(value):
            fields.append((label, value))
            return True
        return False

    for path, module in model._named_modules():
        cls = type(module)
        fields.append((path, cls.__module__, cls.__qualname__))
        for name, value in vars(module).items():
            if isinstance(value, (Module, F.BatchNormEvalCache)) or (
                isinstance(value, (list, tuple))
                and all(isinstance(item, Module) for item in value)
            ):
                continue
            if name == "_buffers" and type(value) is dict:
                keyed = all(add((name, k), value[k]) for k in sorted(value))
            else:
                keyed = add(name, value)
            if not keyed:
                return None
    if not (add("x", x) and add("y", y) and add("batch_size", batch_size)):
        return None
    h = hashlib.sha256(repr(fields).encode())
    for array in arrays:
        h.update(np.ascontiguousarray(array))
    return h.digest()


def evaluate(
    model: Module, x: np.ndarray, y: np.ndarray, batch_size: int = 256
) -> float:
    """Top-1 accuracy of ``model`` on ``(x, y)``; leaves it in eval mode.

    Accuracies are memoized process-wide on a content key of the model
    and the data (:func:`_state_key`), so evaluating a state again, such
    as the same preset in the next trial or a model whose every flip was
    blocked, runs no forward.  A model without a key always runs one.
    """
    model.eval()
    x = np.asarray(x)
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"labels must be 1-D class indices, got {y.shape}")
    if len(y) != len(x):
        raise ValueError(f"{len(x)} inputs but {len(y)} labels")
    if len(x) == 0:
        raise ValueError("evaluate requires at least one sample (got 0)")
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    key = _state_key(model, x, y, batch_size)
    accuracy = _ACCURACIES.pop(key, None)
    if accuracy is None:
        logits = predict_logits(model, x, batch_size=batch_size)
        accuracy = float((logits.argmax(axis=1) == y).mean())
    if key is not None:
        _ACCURACIES[key] = accuracy  # now the most recently used
        if len(_ACCURACIES) > _ACCURACIES_SIZE:
            del _ACCURACIES[next(iter(_ACCURACIES))]
    return accuracy


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
