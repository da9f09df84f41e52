"""Module base class: parameter registry, train/eval mode, state dicts."""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.nn.tensor import Parameter

__all__ = ["Module", "Sequential"]


class Module:
    """Base class for layers and models.

    Sub-modules and :class:`Parameter` attributes are discovered by
    attribute scan (the PyTorch convention, without the metaclass
    machinery).  ``forward`` must be overridden; instances are callable.
    """

    def __init__(self):
        self.training = True

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #

    def forward(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.forward(x)

    def segments(self) -> list[tuple[Callable, tuple["Module", ...]]]:
        """The forward pass as a chain of ``(fn, modules)`` segments.

        Feeding each ``fn`` the previous one's output reproduces
        :meth:`forward` byte for byte; ``modules`` are the sub-modules
        whose weights that segment reads.  A segment's output therefore
        depends only on its input and its own modules, so a caller that
        changed weights in one segment can resume the forward there from
        a captured input (:meth:`repro.nn.quant.QuantizedModel.__call__`).
        The default is the whole forward as one segment.
        """
        return [(self.forward, (self,))]

    # ------------------------------------------------------------------ #
    # Registry walks
    # ------------------------------------------------------------------ #

    def children(self) -> Iterator["Module"]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield item

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self.children():
            yield from child.modules()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}" if prefix else name
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------ #
    # Modes
    # ------------------------------------------------------------------ #

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    # ------------------------------------------------------------------ #
    # State persistence
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for name, module in self._named_modules():
            for buf_name, buffer in getattr(module, "_buffers", {}).items():
                key = f"{name}.{buf_name}" if name else buf_name
                state[key] = buffer.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        buffers: dict[str, np.ndarray] = {}
        for name, module in self._named_modules():
            for buf_name, buffer in getattr(module, "_buffers", {}).items():
                key = f"{name}.{buf_name}" if name else buf_name
                buffers[key] = buffer
        missing = (set(params) | set(buffers)) - set(state)
        if missing:
            raise KeyError(f"state dict is missing keys: {sorted(missing)}")
        for name, param in params.items():
            if param.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {state[name].shape}"
                )
            param.data[...] = state[name]
        for name, buffer in buffers.items():
            buffer[...] = state[name]

    def _named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, value in vars(self).items():
            full = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Module):
                yield from value._named_modules(full)
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._named_modules(f"{full}.{i}")


class Sequential(Module):
    """Apply sub-modules in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self):
        return len(self.layers)

    def __getitem__(self, index):
        return self.layers[index]
