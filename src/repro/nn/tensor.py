"""Reverse-mode automatic differentiation over numpy arrays.

The paper's DNN experiments need exactly three capabilities from a deep
learning framework: forward inference, a scalar loss, and gradients of that
loss with respect to every weight (the BFA ranks bits by gradient).  This
module provides them from scratch — PyTorch is not available in the
reproduction environment.

Design: a :class:`Tensor` wraps a numpy array; every differentiable op builds
a node that remembers its parents and a closure that maps the node's output
gradient to parent-gradient contributions.  ``Tensor.backward()`` runs the
closures in reverse topological order.

The engine's contract, which keeps every gradient bit equal to adding each
contribution the moment it is made:

* A non-leaf node's gradient is summed as its contributions arrive, because
  its own closure reads it later in the traversal.  The first one is
  copied unless its source hands it over as owned (a fresh array nothing
  else reads or writes, such as ``relu``'s ``grad * mask``), in which
  case it becomes the gradient.
* Nothing reads a leaf's gradient during the traversal, so contributions to
  leaves are queued and applied in call order after it; the float additions
  into each leaf's ``.grad`` happen in the same order as before.
* Worker threads run only weight-gradient contractions
  (:meth:`Tensor._accumulate_on_worker`, used by ``conv2d`` for leaf
  weights), on operands nothing else writes until their result is
  collected.  ``backward()`` opens one worker per CPU the process may use
  and joins them before it returns or raises, so no thread outlives the
  call and a process forked afterwards inherits none.

Broadcasting follows numpy semantics; gradients are "unbroadcast" (summed
over broadcast axes) when flowing back to a smaller parent.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import os
from typing import Callable, Iterable

import numpy as np

__all__ = ["Tensor", "Parameter", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = [True]
# Leaf-gradient queues of the backward() calls under way, innermost last.
_BACKWARD: list["_LeafQueue"] = []


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def is_grad_enabled() -> bool:
    return _GRAD_ENABLED[-1]


def _as_array(data) -> np.ndarray:
    array = np.asarray(data)
    if array.dtype not in (np.float32, np.float64):
        array = array.astype(np.float32)
    return array


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast from ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove extra leading axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


def _add_grad(
    tensor: "Tensor", grad: np.ndarray, owned: bool = False
) -> None:
    """Add one contribution; an ``owned`` first one becomes the gradient."""
    grad = _unbroadcast(grad, tensor.data.shape)
    if tensor.grad is None:
        if owned and grad.dtype == tensor.data.dtype:
            tensor.grad = grad
        else:
            tensor.grad = grad.astype(tensor.data.dtype, copy=True)
    else:
        tensor.grad += grad


class _LeafQueue:
    """One backward() call's contributions to leaf tensors, in call order.

    An entry holds either an owned array or the future of a worker's
    contraction.
    """

    __slots__ = ("pool", "entries")

    def __init__(self, pool: concurrent.futures.Executor):
        self.pool = pool
        self.entries: list[tuple] = []

    def apply(self) -> None:
        for leaf, grad in self.entries:
            if isinstance(grad, concurrent.futures.Future):
                grad = grad.result()
            # Every entry is owned: _accumulate queued an owned array or
            # a copy, and a worker's contraction returns a fresh one.
            _add_grad(leaf, grad, owned=True)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: tuple["Tensor", ...] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents = parents
        self._backward_fn = backward_fn

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Graph construction helper
    # ------------------------------------------------------------------ #

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        parents = tuple(parents)
        needs_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
        if not needs_grad:
            return Tensor(data)
        return Tensor(data, requires_grad=True, parents=parents,
                      backward_fn=backward_fn)

    @staticmethod
    def _accumulate(
        parent: "Tensor", grad: np.ndarray, owned: bool = False
    ) -> None:
        """Add ``grad`` to ``parent``'s gradient.

        ``owned`` hands over a fresh array that nothing else reads or
        writes: the first contribution then becomes the gradient itself.
        Any other array (shared with another parent, pooled, or a view)
        is copied first.
        """
        if not parent.requires_grad:
            return
        if parent._backward_fn is None and _BACKWARD:
            # A leaf, applied after the traversal.  Copied now unless
            # owned: callers may hand over a view of a buffer they reuse.
            grad = _unbroadcast(grad, parent.data.shape)
            _BACKWARD[-1].entries.append(
                (parent, grad if owned else np.array(grad))
            )
            return
        _add_grad(parent, grad, owned)

    @staticmethod
    def _accumulate_on_worker(
        parent: "Tensor", compute: Callable[[], np.ndarray]
    ) -> None:
        """Add ``compute()``, a fresh gradient of ``parent``'s shape, to
        ``parent``.

        For a leaf inside ``backward()``, ``compute`` runs on a worker
        thread and its result is applied in call order after the
        traversal; ``compute`` must read only operands that nothing
        writes until then.  Otherwise (a computed tensor, whose own
        closure reads its gradient later in the traversal) it runs here
        at once.
        """
        if not parent.requires_grad:
            return
        if parent._backward_fn is None and _BACKWARD:
            queue = _BACKWARD[-1]
            queue.entries.append((parent, queue.pool.submit(compute)))
        else:
            _add_grad(parent, compute(), owned=True)

    # ------------------------------------------------------------------ #
    # Backward pass
    # ------------------------------------------------------------------ #

    def graph(self) -> list["Tensor"]:
        """This tensor and every tensor its gradient reaches, each after
        its parents: the reverse of the order ``backward()`` visits."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        return topo

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that requires no grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        topo = self.graph()
        self.grad = np.asarray(grad, dtype=self.data.dtype)
        # Leaving the block joins the workers, also when a closure raises.
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=_cpu_count(), thread_name_prefix="backward"
        ) as pool:
            _BACKWARD.append(_LeafQueue(pool))
            try:
                for node in reversed(topo):
                    if node._backward_fn is not None and node.grad is not None:
                        node._backward_fn(node.grad)
            finally:
                leaves = _BACKWARD.pop()
        leaves.apply()

    # ------------------------------------------------------------------ #
    # Elementwise arithmetic
    # ------------------------------------------------------------------ #

    @staticmethod
    def _coerce(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad)
            Tensor._accumulate(other, grad)

        return self._make(out_data, (self, other), backward_fn)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(self, -grad)

        return self._make(-self.data, (self,), backward_fn)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * other.data, owned=True)
            Tensor._accumulate(other, grad * self.data, owned=True)

        return self._make(out_data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        exponent = float(exponent)
        out_data = self.data ** exponent

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(
                self, grad * exponent * self.data ** (exponent - 1.0)
            )

        return self._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------ #
    # Matrix multiply
    # ------------------------------------------------------------------ #

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError("matmul requires tensors with ndim >= 2")
        out_data = self.data @ other.data

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(
                self, grad @ other.data.swapaxes(-1, -2), owned=True
            )
            Tensor._accumulate(
                other, self.data.swapaxes(-1, -2) @ grad, owned=True
            )

        return self._make(out_data, (self, other), backward_fn)

    # ------------------------------------------------------------------ #
    # Reductions and shape ops
    # ------------------------------------------------------------------ #

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(grad: np.ndarray) -> None:
            g = grad
            if not keepdims and axis is not None:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                axes = tuple(a % self.data.ndim for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            Tensor._accumulate(self, np.broadcast_to(g, self.data.shape))

        return self._make(out_data, (self,), backward_fn)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad.reshape(self.data.shape))

        return self._make(out_data, (self,), backward_fn)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inverse = np.argsort(axes)
        out_data = self.data.transpose(axes)

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad.transpose(inverse))

        return self._make(out_data, (self,), backward_fn)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward_fn(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            Tensor._accumulate(self, full)

        return self._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities
    # ------------------------------------------------------------------ #

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * mask, owned=True)

        return self._make(out_data, (self,), backward_fn)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * out_data)

        return self._make(out_data, (self,), backward_fn)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad / self.data)

        return self._make(out_data, (self,), backward_fn)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward_fn)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = (self.data >= low) & (self.data <= high)

        def backward_fn(grad: np.ndarray) -> None:
            Tensor._accumulate(self, grad * mask)

        return self._make(out_data, (self,), backward_fn)


class Parameter(Tensor):
    """A tensor registered as a trainable weight of a module."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape})"
