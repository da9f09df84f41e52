"""Training and evaluation loops."""

from __future__ import annotations

import hashlib
import operator
from typing import Callable

import numpy as np

from repro.nn import functional as F
from repro.nn.data import Dataset
from repro.nn.module import Module
from repro.nn.optim import SGD
from repro.nn.tensor import Parameter, Tensor, no_grad

__all__ = [
    "fit", "evaluate", "predict_logits", "loss_and_grads", "GradientMemo",
]


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


class _StateWalk:
    """Everything a forward reads from modules, by the rules of
    :func:`_state_key`.

    :meth:`module` adds one module's own attributes: parameters and
    arrays by dtype, shape and bytes, the ``_buffers`` dict by sorted
    key, and scalars (and tuples of them) by ``repr``.  Sub-modules and
    lists of them are left to the walk itself, and a batch norm's
    ``BatchNormEvalCache`` is a function of its buffers and ``eps``.  Any
    other attribute, such as a ``weight_transform`` callable or an RNG,
    has no key: :meth:`add` and :meth:`module` then return ``False``.

    ``fields`` and ``arrays`` receive the keyed values; ``containers``
    receives each object the walk read them through (module ``vars``,
    ``_buffers`` dicts, lists of modules and parameters).  While each of
    those still holds the same objects (:func:`_contents`), walking
    again would give the same fields and read the same arrays.
    """

    def __init__(self):
        self.fields: list[tuple] = []
        self.arrays: list[np.ndarray] = []
        self.containers: list[object] = []

    def add(self, label, value) -> bool:
        if isinstance(value, Parameter):
            self.containers.append(value)
            value = value.data
        if isinstance(value, np.ndarray):
            if value.dtype.kind not in "biufc":
                return False
            self.fields.append((label, value.dtype.str, value.shape))
            self.arrays.append(value)
            return True
        if _is_scalar(value):
            self.fields.append((label, value))
            return True
        return False

    def module(self, path: str, module: Module) -> bool:
        cls = type(module)
        self.fields.append((path, cls.__module__, cls.__qualname__))
        attributes = vars(module)
        self.containers.append(attributes)
        for name, value in attributes.items():
            if isinstance(value, (Module, F.BatchNormEvalCache)):
                continue
            if isinstance(value, (list, tuple)) and all(
                isinstance(item, Module) for item in value
            ):
                self.containers.append(value)
                continue
            if name == "_buffers" and type(value) is dict:
                self.containers.append(value)
                keyed = all(
                    self.add((name, k), value[k]) for k in sorted(value)
                )
            else:
                keyed = self.add(name, value)
            if not keyed:
                return False
        return True


def _contents(container) -> tuple:
    """The objects one of :class:`_StateWalk`'s containers holds now."""
    if isinstance(container, Parameter):
        return (container.data, container.requires_grad)
    if isinstance(container, dict):
        return (*container, *container.values())
    return tuple(container)


def _same(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(map(operator.is_, a, b))


def _digest(arrays: list[np.ndarray]) -> tuple[list[tuple], bytes]:
    """The arrays' dtypes and shapes, and a SHA-256 of their bytes."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array))
    return [(a.dtype, a.shape) for a in arrays], h.digest()


def _state_key(
    model: Module, x: np.ndarray, y: np.ndarray, batch_size: int
) -> bytes | None:
    """SHA-256 of everything an eval-mode accuracy depends on, or ``None``.

    That is each module's path and class, then each of its attributes by
    name (:class:`_StateWalk`), then the data and the batch size.  A
    model with an attribute the walk cannot key has no key.

    Every field goes into one ``repr``, hashed first; it fixes each
    array's byte length, so the array bytes that follow it cannot be
    split another way.
    """
    walk = _StateWalk()
    if not (
        all(walk.module(path, m) for path, m in model._named_modules())
        and walk.add("x", x)
        and walk.add("y", y)
        and walk.add("batch_size", batch_size)
    ):
        return None
    h = hashlib.sha256(repr(walk.fields).encode())
    for array in walk.arrays:
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


class _Link:
    """The key of one ``model.segments()`` link, taken before a pass.

    The link's function and modules by identity, what each container of
    their :class:`_StateWalk` held (``held``), and the layout and digest
    of the arrays it read (``key``).  A link whose ``held`` and ``key``
    are the very objects of the last pass's link has not changed.
    """

    __slots__ = ("fn", "modules", "held", "arrays", "key")

    def __init__(self, fn, modules, held, arrays, key):
        self.fn = fn
        self.modules = modules
        self.held = held
        self.arrays = arrays
        self.key = key

    @classmethod
    def of(cls, fn, modules, last: "_Link | None") -> "_Link | None":
        """Key ``(fn, modules)``; ``None`` when the walk cannot key it.

        When every container of ``last`` still holds the same objects,
        only the arrays are hashed again, and equal keys are kept as
        ``last``'s own objects.  Otherwise the link is walked anew.
        """
        if last is not None and (
            fn == last.fn
            and _same(modules, last.modules)
            and all(_same(_contents(c), held) for c, held in last.held)
        ):
            key = _digest(last.arrays)
            if key == last.key:
                key = last.key
            return cls(fn, modules, last.held, last.arrays, key)
        walk = _StateWalk()
        if not all(
            walk.module(path, sub)
            for i, module in enumerate(modules)
            for path, sub in module._named_modules(str(i))
        ):
            return None
        held = [(c, _contents(c)) for c in walk.containers]
        return cls(fn, modules, held, walk.arrays, _digest(walk.arrays))

    def changed_since(self, last: "_Link") -> bool:
        return self.held is not last.held or self.key is not last.key


class GradientMemo:
    """The last :func:`loss_and_grads` pass of one caller, for its next.

    A pass given a memo keys each link of ``model.segments()`` by
    content (:class:`_StateWalk`'s rules plus each parameter object's
    identity), the batch by its bytes and the objective by itself.  The
    next pass on the same model object then runs only what changed:

    * nothing: it sets copies of the remembered gradients, hands out
      copies of the captured inputs and returns the remembered loss;
    * from link ``k`` on (the labels and the objective together count
      as link ``len(segments)``, objectives compared by ``==``): it
      drops the graph from ``k`` on, resumes the forward from the
      output of link ``k - 1`` and backpropagates through the whole
      graph, whose kept convolutions read the columns they gathered in
      their forward.  A pass with another objective thus runs only the
      loss and the backward.

    The kept graph is the one a fresh forward would build and the
    backward runs the same closures in the same order, so the loss,
    every gradient bit and every captured input equal a fresh pass's.
    A model with an attribute the walk cannot key gets a fresh pass.

    Between passes the memo holds one graph, with its convolutions'
    columns and without non-leaf gradients: a resumed pass gathers
    columns only for the convolutions it runs again.  The caller owns
    it, must not write the arrays a pass hands out while it lives, and
    :meth:`clear` s it when done:
    :meth:`repro.attacks.bfa.BitFlipAttack.steps` keeps one per search.
    """

    def __init__(self):
        self.clear()

    @property
    def ran_nothing(self) -> bool:
        """Whether the last pass found no link and no batch changed since
        the pass before it, and so ran nothing."""
        return self._ran_nothing

    def clear(self) -> None:
        """Forget the last pass and drop its graph."""
        self._ran_nothing = False
        self._model: Module | None = None
        self._links: list[_Link] = []
        self._batch: tuple | None = None    # x's digest; y's and the objective
        self._input: Tensor | None = None
        self._outputs: list[Tensor] = []
        self._grads: list[tuple[Parameter, np.ndarray | None]] = []
        self._loss = 0.0

    def _first_change(self, links: list[_Link], batch: tuple) -> int:
        """Index of the first changed link; ``len(links) + 1`` if none."""
        if not self._links or batch[0] != self._batch[0]:
            return 0
        for index, (link, last) in enumerate(zip(links, self._links)):
            if link.changed_since(last):
                return index
        return len(links) + (batch[1] == self._batch[1])

    def _pass(
        self, model: Module, x, y, inputs: list[np.ndarray] | None,
        objective,
    ) -> float:
        x, y = np.asarray(x), np.asarray(y)
        segments = model.segments()
        if model is not self._model or len(segments) != len(self._links):
            self.clear()
        links = []
        for index, (fn, modules) in enumerate(segments):
            link = _Link.of(
                fn, modules, self._links[index] if self._links else None
            )
            if link is None:
                self.clear()
                return _fresh_pass(model, x, y, inputs, objective)
            links.append(link)
        batch = (_digest([x]), (_digest([y]), objective))
        start = self._first_change(links, batch)
        self._model, self._links, self._batch = model, links, batch
        self._ran_nothing = start > len(segments)
        if self._ran_nothing:
            for param, grad in self._grads:
                param.grad = None if grad is None else grad.copy()
            if inputs is not None:
                inputs.extend(a.data.copy() for a in self._captured())
            return self._loss
        # Drop the stale graph before building its replacement.
        del self._outputs[start:]
        self._grads = []
        if start == 0:
            self._input = Tensor(x)
        out = self._outputs[-1] if self._outputs else self._input
        for fn, _ in segments[start:]:
            out = fn(out)
            self._outputs.append(out)
        loss = objective(out, y)
        loss.backward()
        for node in loss.graph():
            if node._backward_fn is not None:
                node.grad = None
        self._grads = [(p, p.grad) for p in model.parameters()]
        self._loss = loss.item()
        if inputs is not None:
            inputs.extend(a.data for a in self._captured())
        return self._loss

    def _captured(self) -> list[Tensor]:
        """The input of each segment, in segment order."""
        return [self._input, *self._outputs[:-1]]


def _fresh_pass(
    model: Module, x, y, inputs: list[np.ndarray] | None, objective
) -> float:
    out = Tensor(x)
    for fn, _ in model.segments():
        if inputs is not None:
            inputs.append(out.data)
        out = fn(out)
    loss = objective(out, y)
    loss.backward()
    return loss.item()


def loss_and_grads(
    model: Module, x: np.ndarray, y: np.ndarray,
    inputs: list[np.ndarray] | None = None,
    memo: GradientMemo | None = None,
    objective: Callable[[Tensor, np.ndarray], Tensor] | None = None,
) -> float:
    """Forward/backward pass in eval mode; returns the loss value.

    Used by the attack and the profiler: eval mode keeps batch-norm
    statistics frozen (the attacker cannot perturb them), while autograd
    still populates ``weight.grad`` for the bit ranking.

    ``inputs``, when given, receives the input of each of
    ``model.segments()`` in segment order:
    :meth:`repro.nn.quant.QuantizedModel.__call__` resumes a forward
    from them.

    ``memo``, when given, runs only the part of the pass that the
    changes since the memo's last pass reach (:class:`GradientMemo`),
    with every result equal to a fresh pass's.

    ``objective`` is the loss differentiated, a callable
    ``(logits, y) -> scalar Tensor``; ``None`` means cross-entropy.
    """
    objective = objective or F.cross_entropy
    model.eval()
    model.zero_grad()
    if memo is None:
        return _fresh_pass(model, x, y, inputs, objective)
    try:
        return memo._pass(model, x, y, inputs, objective)
    except BaseException:
        memo.clear()
        raise
