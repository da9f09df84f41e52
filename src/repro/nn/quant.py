"""8-bit weight quantization and bit-level weight manipulation.

Following the BFA paper [15], each quantizable layer (conv / linear) gets a
symmetric per-layer scale ``s = max|W| / 127`` and integer weights
``W_int = clip(round(W / s), -127, 127)`` stored in two's complement.  The
deployed model computes with ``W_int * s``; an attacker flipping bit ``b`` of
a weight byte changes the weight by ``+-2^b * s`` (``-+128 * s`` for the sign
bit), which is exactly the lever the bit-flip attack exploits.

:class:`QuantizedModel` is the single authority over the integer weights:
attacks flip bits through it, the DRAM mapping reads/writes its packed bytes,
and it keeps the float model's parameters in sync so inference and gradients
always see the dequantized values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.utils.bits import (
    flip_bit_in_byte,
    int8_to_twos_complement,
    twos_complement_to_int8,
)

__all__ = ["BitLocation", "QuantizedLayer", "QuantizedModel"]


@dataclass(frozen=True, order=True)
class BitLocation:
    """Canonical coordinates of one weight bit.

    Attributes:
        layer: index into :attr:`QuantizedModel.layers`.
        index: flat weight index within that layer.
        bit: bit position 0..7 (bit 7 is the two's-complement sign bit).
    """

    layer: int
    index: int
    bit: int


class QuantizedLayer:
    """One quantized conv/linear layer: integer weights + scale."""

    def __init__(self, name: str, module: Module, qmax: int = 127):
        weight = getattr(module, "weight", None)
        if weight is None:
            raise ValueError(f"module {name} has no weight to quantize")
        self.name = name
        self.module = module
        self.qmax = qmax
        w = module.weight.data
        max_abs = float(np.max(np.abs(w))) if w.size else 0.0
        self.scale = max_abs / qmax if max_abs > 0 else 1.0
        q = np.clip(np.round(w / self.scale), -qmax, qmax)
        self.weight_int = q.astype(np.int8)
        # Monotonic mutation counter: bumped on every integer-weight change
        # so derived caches (e.g. the BFA's per-layer bit-delta tables) can
        # detect staleness without hashing the weights.
        self.version = 0
        self._sync_float()

    def _dequantize(self, ints: np.ndarray) -> np.ndarray:
        """Float weights of ``ints``, the one formula every writer uses.

        The scale is rounded to float32 before the product, so a weight's
        float value depends only on its integer value: a flip followed by
        its revert restores the float weights exactly, and the DRAM sync
        path writes the same floats as the bit-flip path.
        """
        return ints.astype(np.float32) * self.scale

    def _sync_float(self) -> None:
        self.module.weight.data[...] = self._dequantize(self.weight_int)

    @property
    def num_weights(self) -> int:
        return int(self.weight_int.size)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.weight_int.shape

    def get_int(self, index: int) -> int:
        return int(self.weight_int.flat[index])

    def set_int(self, index: int, value: int) -> None:
        if not -128 <= value <= 127:
            raise ValueError(f"int8 value out of range: {value}")
        self.weight_int.flat[index] = np.int8(value)
        self.module.weight.data.flat[index] = self._dequantize(
            self.weight_int.flat[index]
        )
        self.version += 1

    def flip_bit(self, index: int, bit: int) -> float:
        """Flip one bit of one weight; returns the float weight delta."""
        old = self.get_int(index)
        byte = int(int8_to_twos_complement(np.array(old, dtype=np.int8))[()])
        new_byte = flip_bit_in_byte(byte, bit)
        new = int(twos_complement_to_int8(np.array(new_byte, dtype=np.uint8))[()])
        self.set_int(index, new)
        return (new - old) * self.scale

    def packed_bytes(self) -> np.ndarray:
        """Two's-complement bytes of the flat weight vector (for DRAM)."""
        return int8_to_twos_complement(self.weight_int.reshape(-1))

    def load_packed_bytes(self, data: np.ndarray) -> None:
        """Overwrite integer weights from packed bytes (DRAM read-back)."""
        data = np.asarray(data, dtype=np.uint8)
        if data.size != self.num_weights:
            raise ValueError(
                f"expected {self.num_weights} bytes, got {data.size}"
            )
        self.weight_int = twos_complement_to_int8(data).reshape(self.shape)
        self.version += 1
        self._sync_float()

    def load_packed_slice(self, offset: int, data: np.ndarray) -> None:
        """Overwrite ``data.size`` weights starting at flat index ``offset``.

        The partial counterpart of :meth:`load_packed_bytes`: one DRAM
        row's worth of bytes updates only its slice of the integer weights
        and the dequantized float weights, so an incremental post-window
        sync costs O(touched rows) instead of O(model).
        """
        data = np.asarray(data, dtype=np.uint8)
        stop = offset + data.size
        if offset < 0 or stop > self.num_weights:
            raise ValueError(
                f"byte slice [{offset}, {stop}) out of range for "
                f"{self.num_weights} weights"
            )
        if data.size == 0:
            return
        ints = twos_complement_to_int8(data)
        self.weight_int.flat[offset:stop] = ints
        self.module.weight.data.flat[offset:stop] = self._dequantize(ints)
        self.version += 1

    def grad_flat(self) -> np.ndarray:
        """Flat gradient of the loss w.r.t. this layer's (float) weights."""
        grad = self.module.weight.grad
        if grad is None:
            raise RuntimeError(
                f"layer {self.name} has no gradient; run backward() first"
            )
        return grad.reshape(-1)


class QuantizedModel:
    """A deployed (frozen, 8-bit) model plus bit-level weight access."""

    QUANTIZABLE = (Conv2d, Linear)

    def __init__(self, model: Module, qmax: int = 127):
        self.model = model
        self.layers: list[QuantizedLayer] = []
        seen: set[int] = set()
        for name, module in model._named_modules():
            if isinstance(module, self.QUANTIZABLE) and id(module) not in seen:
                seen.add(id(module))
                self.layers.append(QuantizedLayer(name, module, qmax=qmax))
        if not self.layers:
            raise ValueError("model contains no quantizable layers")
        # Segment of the model's forward that owns each layer: a change to
        # layer k leaves the inputs of segments before segment_of(k) alone.
        owner: dict[int, int] = {}
        for index, (_, modules) in enumerate(model.segments()):
            for module in modules:
                for sub in module.modules():
                    owner.setdefault(id(sub), index)
        missing = [
            layer.name for layer in self.layers if id(layer.module) not in owner
        ]
        if missing:
            raise ValueError(f"no forward segment owns layers {missing}")
        self._segments = [owner[id(layer.module)] for layer in self.layers]

    # ------------------------------------------------------------------ #
    # Shape queries
    # ------------------------------------------------------------------ #

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def total_weights(self) -> int:
        return sum(layer.num_weights for layer in self.layers)

    @property
    def total_bits(self) -> int:
        return self.total_weights * 8

    def layer(self, index: int) -> QuantizedLayer:
        if not 0 <= index < len(self.layers):
            raise ValueError(f"layer {index} out of range [0, {len(self.layers)})")
        return self.layers[index]

    def segment_of(self, index: int) -> int:
        """Index into ``model.segments()`` of the segment owning layer
        ``index``."""
        self.layer(index)  # range check
        return self._segments[index]

    # ------------------------------------------------------------------ #
    # Bit manipulation
    # ------------------------------------------------------------------ #

    def flip_bit(self, location: BitLocation) -> float:
        """Flip one weight bit; returns the float weight delta."""
        return self.layer(location.layer).flip_bit(location.index, location.bit)

    def get_int(self, location: BitLocation) -> int:
        return self.layer(location.layer).get_int(location.index)

    def bit_value(self, location: BitLocation) -> int:
        byte = int(
            int8_to_twos_complement(
                np.array(self.get_int(location), dtype=np.int8)
            )[()]
        )
        return (byte >> location.bit) & 1

    # ------------------------------------------------------------------ #
    # Snapshots (attack rounds flip bits back; Section 4's profiler)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> list[np.ndarray]:
        return [layer.weight_int.copy() for layer in self.layers]

    def restore(self, snapshot: list[np.ndarray]) -> None:
        if len(snapshot) != len(self.layers):
            raise ValueError(
                f"snapshot has {len(snapshot)} layers, model has "
                f"{len(self.layers)}"
            )
        for layer, saved in zip(self.layers, snapshot):
            if saved.shape != layer.shape:
                raise ValueError(
                    f"snapshot shape mismatch for {layer.name}: "
                    f"{saved.shape} vs {layer.shape}"
                )
            layer.weight_int = saved.copy()
            layer.version += 1
            layer._sync_float()

    def hamming_distance_from(self, snapshot: list[np.ndarray]) -> int:
        """Total flipped bits relative to a snapshot (the BFA budget metric)."""
        total = 0
        for layer, saved in zip(self.layers, snapshot):
            a = int8_to_twos_complement(layer.weight_int.reshape(-1))
            b = int8_to_twos_complement(saved.reshape(-1))
            total += int(
                np.unpackbits(np.bitwise_xor(a, b)).sum()
            )
        return total

    # ------------------------------------------------------------------ #
    # Forward helpers
    # ------------------------------------------------------------------ #

    def __call__(self, x, start: int = 0):
        """Forward pass from segment ``start`` of ``model.segments()``.

        ``start=0`` is the full forward on the model input.  A larger
        ``start`` resumes the forward with ``x`` the input of that segment,
        as :func:`repro.nn.train.loss_and_grads` captures it: when only
        layers of segment ``start`` or later changed since the capture,
        the output equals the full forward's byte for byte.
        """
        segments = self.model.segments()
        if not 0 <= start < len(segments):
            raise ValueError(
                f"start {start} out of range [0, {len(segments)})"
            )
        for fn, _ in segments[start:]:
            x = fn(x)
        return x

    def zero_grad(self) -> None:
        self.model.zero_grad()
