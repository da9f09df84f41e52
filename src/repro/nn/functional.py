"""Neural-network primitives with custom backward passes.

Convolution uses the im2col formulation so the heavy lifting happens in one
matrix multiply per layer; pooling supports the disjoint-window case
(``kernel == stride``) used by the VGG/ResNet configurations in this
reproduction; cross-entropy fuses log-softmax and NLL with the standard
``softmax - onehot`` gradient.

The kernels are vectorized: im2col and col2im are ``np.take`` gathers
through flat index tables cached per conv geometry, scratch buffers are
pooled across calls, matmuls run in place/``out=``, the weight gradient's
short dots are einsum's own additions done as whole-array ops, eval-mode
batch norm is one fused node with cached constants, and backward
preparation is lazy (pooling argmax masks are only built when a gradient
can actually flow).  They only change data movement and fuse elementwise
chains in the exact evaluation order of the per-op graph, never the
floating-point reduction order, so outputs and gradients are
byte-identical to the straightforward loop/per-op formulation (the
parity tests keep such a reference).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.nn.tensor import Tensor, _unbroadcast, is_grad_enabled

__all__ = [
    "BatchNormEvalCache",
    "im2col",
    "col2im",
    "conv2d",
    "linear",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "batch_norm2d",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "dropout",
]


def _pair(value) -> tuple[int, int]:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"expected a pair, got {value!r}")
        return int(value[0]), int(value[1])
    return int(value), int(value)


# ---------------------------------------------------------------------- #
# Scratch-buffer pool
# ---------------------------------------------------------------------- #

class _BufferPool:
    """Free-list of scratch arrays keyed by ``(shape, dtype)``.

    Every convolution needs multi-megabyte scratch arrays: the im2col
    columns and the zero-slotted input copy its gather reads from, and in
    the backward the zero-slotted column gradient (the matmul writes it
    in place for col2im to gather from), col2im's tap buffer and its
    output.
    Page-faulting fresh ones in on each call would dominate the kernels'
    time.  The pool recycles them: ``acquire`` pops a previously
    released array (contents are garbage — callers must overwrite or
    ``fill``), ``release`` returns it.  Arrays handed to callers that
    never release (e.g. a conv graph discarded before ``backward``) are
    simply garbage-collected; the pool only ever misses, never corrupts.

    Only the main thread touches the pool: ``backward()``'s worker
    threads run just the weight-gradient contraction on columns handed
    to them, and ``conv2d`` returns those columns here on the main
    thread after collecting the result.  Process pools fork fresh
    interpreters and therefore fresh pools.
    """

    def __init__(self, max_per_key: int = 4):
        self.max_per_key = max_per_key
        self._free: dict[tuple, list[np.ndarray]] = {}

    def acquire(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype).str)
        free = self._free.get(key)
        if free:
            return free.pop()
        return np.empty(shape, dtype=dtype)

    def release(self, array: np.ndarray) -> None:
        if array.base is not None:
            return  # only whole allocations are poolable, never views
        key = (array.shape, array.dtype.str)
        free = self._free.setdefault(key, [])
        if len(free) < self.max_per_key:
            free.append(array)


_POOL = _BufferPool()


def _conv_geometry(
    h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> tuple[int, int]:
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}, stride={stride}, padding={padding}) does not "
            f"fit input {h}x{w}"
        )
    return oh, ow


# ---------------------------------------------------------------------- #
# im2col / col2im
# ---------------------------------------------------------------------- #

@functools.lru_cache(maxsize=64)
def _unfold_index(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """im2col's gather index for one conv geometry, any batch size.

    Flat in ``(c, kh, kw, oh, ow)`` order: entry ``(ci, i, j, oy, ox)`` is
    the position of pixel ``(ci, oy*stride + i - padding,
    ox*stride + j - padding)`` in a sample flattened to ``c*h*w`` values
    followed by one zero slot, and every tap that lands in the padding
    points at that slot, ``c*h*w``.  Read-only: every caller shares it.
    """
    oh, ow = _conv_geometry(h, w, kh, kw, stride, padding)
    y = (np.arange(kh, dtype=np.intp)[:, None, None, None]
         + stride * np.arange(oh, dtype=np.intp)[:, None] - padding)
    x = (np.arange(kw, dtype=np.intp)[:, None, None]
         + stride * np.arange(ow, dtype=np.intp) - padding)
    inside = (y >= 0) & (y < h) & (x >= 0) & (x < w)    # (kh, kw, oh, ow)
    channel = np.arange(c, dtype=np.intp)[:, None, None, None, None] * (h * w)
    index = np.where(inside, channel + y * w + x, c * h * w).ravel()
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=64)
def _fold_index(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """col2im's per-tap gather index for one conv geometry, any batch size.

    Row ``i*kw + j`` inverts tap ``(i, j)`` of :func:`_unfold_index`: for
    each of a sample's ``c*h*w`` pixels, the column entry that tap read
    from it, or the zero slot ``c*kh*kw*oh*ow`` after the columns where
    the tap missed it.  Read-only: every caller shares it.
    """
    taps = kh * kw
    unfold = _unfold_index(c, h, w, kh, kw, stride, padding).reshape(
        c, taps, -1
    )
    index = np.full((taps, c * h * w + 1), unfold.size, dtype=np.intp)
    # Padding taps all write the extra last column, which is dropped.
    index[np.arange(taps)[:, None], unfold] = np.arange(unfold.size).reshape(
        unfold.shape
    )
    index = np.ascontiguousarray(index[:, :-1])
    index.flags.writeable = False
    return index


def _zero_slotted(a: np.ndarray) -> np.ndarray:
    """Copy ``a`` into a pooled ``(n, a[0].size + 1)`` buffer whose last
    column is the zero the gather indices point padding taps at."""
    n, size = a.shape[0], math.prod(a.shape[1:])
    buf = _POOL.acquire((n, size + 1), a.dtype)
    np.copyto(buf[:, :-1], a.reshape(n, size))
    buf[:, -1] = 0
    return buf


def _im2col_into(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
    oh: int, ow: int, cols6: np.ndarray,
) -> np.ndarray:
    """im2col into a caller-supplied contiguous ``(n,c,kh,kw,oh,ow)``
    buffer, by one gather; returns it reshaped to ``(n, c*kh*kw, oh*ow)``."""
    n, c, h, w = x.shape
    src = _zero_slotted(x)
    index = _unfold_index(c, h, w, kh, kw, stride, padding)
    # mode="clip" lets take write straight into ``out``; "raise" would
    # buffer it.  No index needs clipping: all lie in [0, c*h*w].
    np.take(src, index, axis=1, out=cols6.reshape(n, index.size), mode="clip")
    _POOL.release(src)
    return cols6.reshape(n, c * kh * kw, oh * ow)


def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Unfold ``(N, C, H, W)`` into ``(N, C*kh*kw, OH*OW)`` patch columns."""
    n, c, h, w = x.shape
    oh, ow = _conv_geometry(h, w, kh, kw, stride, padding)
    cols6 = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    return _im2col_into(x, kh, kw, stride, padding, oh, ow, cols6)


def _col2im_into(
    src: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    out: np.ndarray,
) -> np.ndarray:
    """Fold zero-slotted columns into a caller-supplied contiguous
    ``x_shape`` buffer (zeroed here).

    ``src`` is ``(n, c*kh*kw*oh*ow + 1)``: each sample's columns, then
    the zero slot.  Tap by tap in row-major ``(i, j)`` order, one gather
    picks that tap's column entry for every pixel (the zero where it has
    none) and one ``+=`` adds it.  These are the additions of a strided
    ``+=`` per tap into a zeroed padded buffer, in the same order from
    the same ``+0.0``: a sum that never held ``-0.0`` is unchanged by
    adding ``+0.0``.  One tap at a time keeps a single tap buffer live,
    not ``kh*kw`` of them.
    """
    n, c, h, w = x_shape
    tap = _POOL.acquire((n, c * h * w), src.dtype)
    acc = out.reshape(n, c * h * w)
    acc.fill(0)
    for index in _fold_index(c, h, w, kh, kw, stride, padding):
        np.take(src, index, axis=1, out=tap, mode="clip")
        acc += tap
    _POOL.release(tap)
    return out


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold patch columns back to an input-shaped array (adjoint of im2col)."""
    src = _zero_slotted(cols)
    out = np.empty(x_shape, dtype=cols.dtype)
    _col2im_into(src, x_shape, kh, kw, stride, padding, out)
    _POOL.release(src)
    return out


# ---------------------------------------------------------------------- #
# Convolution / linear
# ---------------------------------------------------------------------- #

# Products per block of samples in :func:`_weight_grad`'s short-dot
# kernel: its scratch stays under 1.5 MiB per call whatever the batch
# size, unless one sample's products alone need more.
_SHORT_DOT_BLOCK = 1 << 18


def _weight_grad(grad2d: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``np.einsum("nfl,nkl->fk", grad2d, cols)``, bit for bit.

    einsum makes one inner-loop call per ``(n, f, k)``, a dot of length
    ``l = oh*ow``; for ``l`` of 2 to 4 the call costs more than the dot.
    There this kernel does einsum's own arithmetic as whole-array ops.
    numpy 2.4's einsum loads such a dot as one zero-padded 128-bit
    vector of float32 products, sums its four lanes as
    ``(p0+p1)+(p2+p3)``, and adds the dots into ``out[f, k]`` in sample
    order from ``+0.0``.  Here each block of samples writes its dots
    below the running sum, and one ``np.add.reduce`` over axis 0, which
    numpy does row by row, adds them in that order.  einsum's zero lanes
    can only turn a ``-0.0`` dot into ``+0.0``, which a sum that starts
    at ``+0.0`` never tells apart.

    Every other input keeps einsum: longer dots, where its SIMD loop
    wins; ``l == 1``, where its loop runs along ``k``, not per dot;
    ``f == k == 1``, where numpy merges the sample and pixel axes into
    one long dot; other dtypes; and non-contiguous operands, whose
    strides set einsum's loop order.
    """
    n, f, l = grad2d.shape
    k = cols.shape[1]
    if not (
        2 <= l <= 4 and f * k > 1
        and grad2d.dtype == cols.dtype == np.float32
        and grad2d.flags.c_contiguous and cols.flags.c_contiguous
    ):
        return np.einsum("nfl,nkl->fk", grad2d, cols)
    g = grad2d.transpose(0, 2, 1)[:, :, :, None]     # (n, l, f, 1)
    m = max(1, min(n, _SHORT_DOT_BLOCK // (l * f * k)))
    lanes = np.empty((m, l, 1, k), np.float32)      # columns, lane-major
    products = np.empty((m, l, f, k), np.float32)
    sums = np.empty((m + 1, f, k), np.float32)      # running sum, then dots
    out = np.zeros((f, k), np.float32)
    # einsum reports no floating-point error; neither does its stand-in.
    with np.errstate(all="ignore"):
        for start in range(0, n, m):
            b = min(m, n - start)
            c, p, dots = lanes[:b], products[:b], sums[1:b + 1]
            np.copyto(c[:, :, 0], cols[start:start + b].transpose(0, 2, 1))
            np.multiply(g[start:start + b], c, out=p)
            np.add(p[:, 0], p[:, 1], out=dots)
            if l == 4:
                np.add(p[:, 2], p[:, 3], out=p[:, 2])
            if l > 2:
                np.add(dots, p[:, 2], out=dots)
            sums[0] = out
            np.add.reduce(sums[:b + 1], axis=0, out=out)
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D convolution: x ``(N,C,H,W)``, weight ``(F,C,KH,KW)``."""
    n, c, h, w = x.shape
    f, wc, kh, kw = weight.shape
    if wc != c:
        raise ValueError(f"input has {c} channels but weight expects {wc}")
    oh, ow = _conv_geometry(h, w, kh, kw, stride, padding)
    parents = (x, weight) if bias is None else (x, weight, bias)
    needs_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
    w2d = weight.data.reshape(f, -1)                      # (F, CKK)

    cols6 = _POOL.acquire((n, c, kh, kw, oh, ow), x.dtype)
    cols = _im2col_into(x.data, kh, kw, stride, padding, oh, ow, cols6)
    out = w2d @ cols                                      # (N, F, L)
    out = out.reshape(n, f, oh, ow)
    if bias is not None:
        np.add(out, bias.data.reshape(1, f, 1, 1), out=out)

    if not needs_grad:
        _POOL.release(cols6)
        return Tensor(out)

    x_shape = x.data.shape

    def backward_fn(grad: np.ndarray) -> None:
        nonlocal cols, cols6
        if cols is None:
            # Released to the pool by a previous backward; rebuild from
            # the still-live input so a second backward still works.
            cols6 = _POOL.acquire((n, c, kh, kw, oh, ow), x.data.dtype)
            cols = _im2col_into(
                x.data, kh, kw, stride, padding, oh, ow, cols6
            )
        # The weight gradient owns this pass's columns from here on.
        pass_cols, pass_cols6 = cols, cols6
        cols = cols6 = None
        grad2d = grad.reshape(n, f, oh * ow)              # (N, F, L)
        # Sum over batch of dout @ cols^T, on a backward worker when the
        # weight is a leaf; the columns return to the pool only after
        # the result is collected.
        Tensor._accumulate_on_worker(
            weight,
            lambda: _weight_grad(grad2d, pass_cols).reshape(weight.shape),
            lambda: _POOL.release(pass_cols6),
        )
        if bias is not None and bias.requires_grad:
            Tensor._accumulate(bias, grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            # The column gradient goes straight into col2im's zero-slotted
            # gather source: (N, CKK, L) columns, then the zero slot.
            grad_src = _POOL.acquire(
                (n, c * kh * kw * oh * ow + 1), grad.dtype
            )
            grad_src[:, -1] = 0
            np.matmul(w2d.T, grad2d, out=grad_src[:, :-1].reshape(
                pass_cols.shape, copy=False
            ))
            grad_x = _POOL.acquire(x_shape, grad.dtype)
            Tensor._accumulate(x, _col2im_into(
                grad_src, x_shape, kh, kw, stride, padding, grad_x
            ))
            _POOL.release(grad_src)
            _POOL.release(grad_x)

    return Tensor._make(out, parents, backward_fn)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map: x ``(N, in)``, weight ``(out, in)`` -> ``(N, out)``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


# ---------------------------------------------------------------------- #
# Pooling
# ---------------------------------------------------------------------- #

def _check_disjoint(h: int, w: int, kh: int, kw: int) -> None:
    if h % kh or w % kw:
        raise ValueError(
            f"disjoint pooling requires the kernel ({kh}x{kw}) to tile the "
            f"input ({h}x{w}) exactly"
        )


def max_pool2d(x: Tensor, kernel_size) -> Tensor:
    """Max pooling with disjoint windows (``stride == kernel_size``)."""
    kh, kw = _pair(kernel_size)
    n, c, h, w = x.shape
    _check_disjoint(h, w, kh, kw)
    oh, ow = h // kh, w // kw
    windows = x.data.reshape(n, c, oh, kh, ow, kw)
    out = windows.max(axis=(3, 5))
    if not (is_grad_enabled() and x.requires_grad):
        # Inference: the argmax mask is backward-only state — skip it.
        return Tensor(out)
    # Mask of argmax positions for the backward pass; axes reordered so each
    # window's kh*kw elements are contiguous, then ties broken to the first
    # maximum per window (np.argmax returns the first maximal element).
    flat = windows.transpose(0, 1, 2, 4, 3, 5).reshape(-1, kh * kw)
    first = np.argmax(flat, axis=1)
    tie = np.zeros(flat.shape, dtype=bool)
    tie[np.arange(tie.shape[0]), first] = True
    tie_mask = (
        tie.reshape(n, c, oh, ow, kh, kw).transpose(0, 1, 2, 4, 3, 5)
    )

    def backward_fn(grad: np.ndarray) -> None:
        g = grad[:, :, :, None, :, None] * tie_mask
        Tensor._accumulate(x, g.reshape(x.data.shape))

    return Tensor._make(out, (x,), backward_fn)


def avg_pool2d(x: Tensor, kernel_size) -> Tensor:
    """Average pooling with disjoint windows."""
    kh, kw = _pair(kernel_size)
    n, c, h, w = x.shape
    _check_disjoint(h, w, kh, kw)
    oh, ow = h // kh, w // kw
    windows = x.data.reshape(n, c, oh, kh, ow, kw)
    out = windows.mean(axis=(3, 5))
    scale = 1.0 / (kh * kw)

    def backward_fn(grad: np.ndarray) -> None:
        g = np.broadcast_to(
            grad[:, :, :, None, :, None] * scale, (n, c, oh, kh, ow, kw)
        )
        Tensor._accumulate(x, g.reshape(x.data.shape))

    return Tensor._make(out, (x,), backward_fn)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Mean over the spatial dimensions: ``(N,C,H,W)`` -> ``(N,C)``."""
    return x.mean(axis=(2, 3))


# ---------------------------------------------------------------------- #
# Batch normalisation
# ---------------------------------------------------------------------- #

class BatchNormEvalCache:
    """Eval-mode batch-norm constants, cached between forwards.

    Eval-mode batch norm uses the frozen running statistics, so
    ``mean.reshape(1, C, 1, 1)`` and ``1/sqrt(var + eps)`` are loop
    invariants across every inference/attack forward.  The cache holds
    them as plain ndarrays — they can never require grad or allocate
    grad buffers — and self-invalidates by comparing the bytes of the
    running buffers and the value of ``eps`` with those it was built
    from, so in-place updates (training forwards, ``load_state_dict``)
    are picked up on the next eval forward.  Bytes, not values: ``-0.0``
    and ``+0.0`` compare equal but give different outputs.  The buffers
    are only ever written in place, so their dtype and shape are fixed.
    """

    __slots__ = ("_mean_bytes", "_var_bytes", "_eps", "mean4", "inv_std4")

    def __init__(self):
        self._mean_bytes: bytes | None = None
        self._var_bytes: bytes | None = None
        self._eps: float | None = None
        self.mean4: np.ndarray | None = None
        self.inv_std4: np.ndarray | None = None

    def constants(
        self, running_mean: np.ndarray, running_var: np.ndarray, eps: float
    ) -> tuple[np.ndarray, np.ndarray]:
        mean_bytes = running_mean.tobytes()
        var_bytes = running_var.tobytes()
        if (
            mean_bytes == self._mean_bytes
            and var_bytes == self._var_bytes
            and eps == self._eps
        ):
            return self.mean4, self.inv_std4
        c = running_mean.shape[0]
        self._mean_bytes, self._var_bytes, self._eps = (
            mean_bytes, var_bytes, eps
        )
        self.mean4 = running_mean.reshape(1, c, 1, 1).copy()
        self.inv_std4 = 1.0 / np.sqrt(running_var.reshape(1, c, 1, 1) + eps)
        return self.mean4, self.inv_std4


def _batch_norm2d_eval_fused(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    eps: float,
    cache: BatchNormEvalCache | None,
) -> Tensor:
    """Fused eval-mode batch norm: one graph node instead of four.

    Forward and backward replicate the per-op elementwise chain
    ``((x - mean) * inv_std) * gamma + beta`` operation for operation,
    so outputs and gradients are byte-identical to it; only the
    intermediate graph nodes (and the recomputed constants) are gone.
    """
    c = x.shape[1]
    if cache is None:
        cache = BatchNormEvalCache()
    mean4, inv_std4 = cache.constants(running_mean, running_var, eps)
    gamma4 = gamma.data.reshape(1, c, 1, 1)
    xhat = (x.data - mean4) * inv_std4
    out = xhat * gamma4 + beta.data.reshape(1, c, 1, 1)

    def backward_fn(grad: np.ndarray) -> None:
        if gamma.requires_grad:
            Tensor._accumulate(
                gamma,
                _unbroadcast(grad * xhat, (1, c, 1, 1)).reshape(gamma.shape),
            )
        if beta.requires_grad:
            Tensor._accumulate(
                beta, _unbroadcast(grad, (1, c, 1, 1)).reshape(beta.shape)
            )
        if x.requires_grad:
            Tensor._accumulate(x, (grad * gamma4) * inv_std4)

    return Tensor._make(out, (x, gamma, beta), backward_fn)


def batch_norm2d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
    eval_cache: BatchNormEvalCache | None = None,
) -> Tensor:
    """Per-channel batch norm over ``(N, C, H, W)``.

    In training mode the batch statistics are used (and the running buffers
    updated in place); in eval mode the running statistics are constants,
    so only the affine part participates in autograd.  ``eval_cache`` (see
    :class:`BatchNormEvalCache`) lets a layer reuse the eval constants
    across forwards.
    """
    if not training:
        return _batch_norm2d_eval_fused(
            x, gamma, beta, running_mean, running_var, eps, eval_cache
        )
    c = x.shape[1]
    gamma4 = gamma.reshape(1, c, 1, 1)
    beta4 = beta.reshape(1, c, 1, 1)
    mean = x.mean(axis=(0, 2, 3), keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean.data.reshape(c)
    n = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
    unbiased = var.data.reshape(c) * (n / max(n - 1, 1))
    running_var *= 1.0 - momentum
    running_var += momentum * unbiased
    inv_std = (var + eps) ** -0.5
    xhat = centered * inv_std
    return xhat * gamma4 + beta4


# ---------------------------------------------------------------------- #
# Softmax / losses
# ---------------------------------------------------------------------- #

def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_sum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_sum
    softmax_vals = np.exp(out)

    def backward_fn(grad: np.ndarray) -> None:
        g = grad - softmax_vals * grad.sum(axis=axis, keepdims=True)
        Tensor._accumulate(x, g)

    return Tensor._make(out, (x,), backward_fn)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``(N, K)`` logits and integer targets."""
    targets = np.asarray(targets)
    if targets.ndim != 1:
        raise ValueError(
            f"targets must be 1-D class indices, got {targets.shape}"
        )
    n, k = logits.shape
    if targets.shape[0] != n:
        raise ValueError(f"{n} logits rows but {targets.shape[0]} targets")
    if n == 0:
        raise ValueError(
            "cross_entropy requires a non-empty batch (got 0 samples); "
            "the mean loss of an empty batch is undefined"
        )
    if targets.min() < 0 or targets.max() >= k:
        raise ValueError("target class index out of range")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss_value = -log_probs[np.arange(n), targets].mean()
    probs = np.exp(log_probs)

    def backward_fn(grad: np.ndarray) -> None:
        g = probs.copy()
        g[np.arange(n), targets] -= 1.0
        g *= float(grad) / n
        Tensor._accumulate(logits, g)

    return Tensor._make(np.asarray(loss_value, dtype=logits.dtype),
                        (logits,), backward_fn)


def dropout(x: Tensor, p: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout; identity when evaluating or ``p == 0``.

    Pass a seeded ``rng`` for reproducible masks; omitting it falls back
    to OS entropy with an :class:`repro.nn.seeding.UnseededRngWarning`
    (trial determinism depends on every random draw being seeded).
    """
    from repro.nn.seeding import fallback_rng

    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    rng = fallback_rng("functional.dropout", rng)
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)

    def backward_fn(grad: np.ndarray) -> None:
        Tensor._accumulate(x, grad * mask)

    return Tensor._make(x.data * mask, (x,), backward_fn)
