"""Parity and regression tests for the vectorized ``nn.functional`` kernels.

The kernels must be byte-identical to a straightforward formulation —
same forward values, same loss, same gradients — because they only
change data movement and graph fusion, never floating-point evaluation
order.  That formulation lives here as small test-local oracles: a loop
im2col and a loop col2im, a reference ``conv2d`` built on them (fresh
buffers, the weight gradient by ``np.einsum``), the per-op Tensor chain
for eval batch norm, and a loop max-pool.  :func:`_reference_and_library`
patches the oracles into ``repro.nn.functional`` so whole models run on
them.  The weight gradient's short-dot kernel is checked against
``np.einsum`` directly, and a convolution that builds no graph, which
gathers a block of samples at a time, against the loop im2col and one
whole-batch matmul.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    make_resnet20,
)
from repro.nn import functional as F
from repro.nn.tensor import Parameter, Tensor, no_grad
from repro.nn.train import loss_and_grads, predict_logits
from repro.presets import PRESET_NAMES, preset_spec

_batch_norm2d = F.batch_norm2d


def _im2col_loop(x, kh, kw, stride, padding):
    """Oracle im2col: one strided copy per kernel offset ``(i, j)``."""
    n, c, h, w = x.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = x[
                :, :, i:i + stride * oh:stride, j:j + stride * ow:stride
            ]
    return cols.reshape(n, c * kh * kw, oh * ow)


def _col2im_loop(cols, x_shape, kh, kw, stride, padding):
    """Oracle col2im: a fresh zeroed padded buffer and one strided ``+=``
    per kernel offset ``(i, j)``, in row-major order."""
    n, c, h, w = x_shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    padded = np.zeros(
        (n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype
    )
    for i in range(kh):
        for j in range(kw):
            padded[
                :, :, i:i + stride * oh:stride, j:j + stride * ow:stride
            ] += cols6[:, :, i, j]
    return padded[:, :, padding:padding + h, padding:padding + w]


def _conv2d_reference(x, weight, bias=None, stride=1, padding=0):
    """Oracle conv2d: loop im2col, fresh buffers, loop col2im backward."""
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    cols = _im2col_loop(x.data, kh, kw, stride, padding)
    w2d = weight.data.reshape(f, -1)
    out = (w2d @ cols).reshape(n, f, oh, ow)
    if bias is not None:
        out = out + bias.data.reshape(1, f, 1, 1)
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward_fn(grad):
        grad2d = grad.reshape(n, f, oh * ow)
        if weight.requires_grad:
            grad_w = np.einsum("nfl,nkl->fk", grad2d, cols)
            Tensor._accumulate(weight, grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            Tensor._accumulate(bias, grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            Tensor._accumulate(x, _col2im_loop(
                w2d.T @ grad2d, x.shape, kh, kw, stride, padding
            ))

    return Tensor._make(out, parents, backward_fn)


def _batch_norm2d_reference(x, gamma, beta, running_mean, running_var,
                            training, momentum=0.1, eps=1e-5,
                            eval_cache=None):
    """Oracle eval batch norm: the per-op Tensor chain, constants rebuilt
    every call; training mode is the library's own (un-fused) path."""
    if training:
        return _batch_norm2d(x, gamma, beta, running_mean, running_var,
                             training, momentum, eps)
    c = x.shape[1]
    gamma4 = gamma.reshape(1, c, 1, 1)
    beta4 = beta.reshape(1, c, 1, 1)
    mean = running_mean.reshape(1, c, 1, 1)
    inv_std = 1.0 / np.sqrt(running_var.reshape(1, c, 1, 1) + eps)
    return (x - mean) * Tensor(inv_std) * gamma4 + beta4


def _max_pool_reference(data, k):
    """Oracle max pool: per-window loop; the gradient mask marks each
    window's first maximum in row-major order."""
    n, c, h, w = data.shape
    out = np.empty((n, c, h // k, w // k), dtype=data.dtype)
    mask = np.zeros_like(data)
    for b in range(n):
        for ch in range(c):
            for i in range(0, h, k):
                for j in range(0, w, k):
                    window = data[b, ch, i:i + k, j:j + k]
                    r, s = divmod(int(np.argmax(window)), k)
                    out[b, ch, i // k, j // k] = window[r, s]
                    mask[b, ch, i + r, j + s] = 1
    return out, mask


def _reference_and_library(run):
    """``run()`` once with the oracle ``conv2d`` / ``batch_norm2d`` patched
    into ``F``, then once on the library kernels."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(F, "conv2d", _conv2d_reference)
        patch.setattr(F, "batch_norm2d", _batch_norm2d_reference)
        expected = run()
    return expected, run()


def _small_convnet(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Conv2d(3, 8, 3, padding=1, rng=rng),
        BatchNorm2d(8),
        ReLU(),
        MaxPool2d(2),
        Conv2d(8, 12, 3, stride=2, padding=1, rng=rng),
        ReLU(),
        Flatten(),
        Linear(12 * 2 * 2, 10, rng=rng),
    )


def _grads(model):
    return [
        (name, param.grad.copy())
        for name, param in sorted(model.named_parameters())
    ]


def _grad_bytes(model):
    return [g.tobytes() for _, g in _grads(model)]


class TestForwardBackwardParity:
    def test_loss_and_grads_byte_identical(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((16, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 10, size=16)

        def run():
            model = _small_convnet()
            model.eval()
            loss = loss_and_grads(model, x, y)
            return loss, _grads(model)

        (loss_ref, grads_ref), (loss_lib, grads_lib) = (
            _reference_and_library(run)
        )
        assert loss_lib == loss_ref
        for (name_r, grad_r), (name_l, grad_l) in zip(grads_ref, grads_lib):
            assert name_r == name_l
            assert grad_r.tobytes() == grad_l.tobytes(), name_r

    def test_training_forward_byte_identical(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)

        def run():
            model = _small_convnet()
            model.train()
            return model(Tensor(x)).data.tobytes()

        expected, actual = _reference_and_library(run)
        assert actual == expected

    def test_inference_forward_byte_identical(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)

        def run():
            model = _small_convnet()
            model.eval()
            with no_grad():
                return model(Tensor(x)).data.tobytes()

        expected, actual = _reference_and_library(run)
        assert actual == expected

    def test_repeated_passes_stable_with_buffer_pool(self):
        """Pooled scratch buffers must not leak state across passes."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 10, size=8)
        model = _small_convnet()
        first = loss_and_grads(model, x, y)
        first_grads = _grad_bytes(model)
        for _ in range(3):
            again = loss_and_grads(model, x, y)
            assert again == first
            assert _grad_bytes(model) == first_grads

    def test_interleaved_forwards_before_backward(self):
        """Two same-shape graphs built before either backward must not
        share column buffers (the tbfa targeted loss does exactly this)."""
        rng = np.random.default_rng(11)
        xa = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        xb = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
        ya = rng.integers(0, 10, size=4)
        yb = rng.integers(0, 10, size=4)

        def run():
            model = _small_convnet()
            model.eval()
            model.zero_grad()
            loss = F.cross_entropy(model(Tensor(xa)), ya)
            keep = F.cross_entropy(model(Tensor(xb)), yb)
            (loss + keep * 0.5).backward()
            return _grad_bytes(model)

        expected, actual = _reference_and_library(run)
        assert actual == expected


class TestConv2d:
    @pytest.mark.parametrize("stride,padding,bias", [
        (1, 0, False),
        (1, 1, True),
        (2, 1, True),
        (2, 0, False),
    ])
    def test_matches_reference_with_grads(self, stride, padding, bias):
        """Forward values and input/weight/bias gradients of one conv,
        byte-compared against the loop-im2col oracle."""
        rng = np.random.default_rng(37)
        x0 = rng.standard_normal((3, 4, 9, 7)).astype(np.float32)
        w0 = rng.standard_normal((5, 4, 3, 3)).astype(np.float32)
        b0 = rng.standard_normal(5).astype(np.float32) if bias else None

        def run(conv):
            x = Tensor(x0.copy(), requires_grad=True)
            w = Tensor(w0.copy(), requires_grad=True)
            b = None if b0 is None else Tensor(b0.copy(), requires_grad=True)
            out = conv(x, w, b, stride=stride, padding=padding)
            (out * out).sum().backward()
            grads = [t.grad.tobytes() for t in (x, w, b) if t is not None]
            return out.data.tobytes(), grads

        assert run(F.conv2d) == run(_conv2d_reference)


def _preset_conv_geometries():
    """``(c, h, w, f, kh, kw, stride, padding)`` of every convolution in
    the presets' models, recorded from a one-sample forward of each."""
    geometries = set()
    conv2d = F.conv2d

    def recording(x, weight, bias=None, stride=1, padding=0):
        geometries.add(
            (*x.shape[1:], *weight.shape[:1], *weight.shape[2:],
             stride, padding)
        )
        return conv2d(x, weight, bias, stride=stride, padding=padding)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(F, "conv2d", recording)
        for name in PRESET_NAMES:
            spec = preset_spec(name)
            x = np.zeros((1, 3, spec.image_hw, spec.image_hw), np.float32)
            with no_grad():
                spec.make_factory()().eval()(Tensor(x))
    return sorted(geometries)


class TestNoGradConv2d:
    """A convolution that builds no graph gathers its columns and runs its
    matmul a block of samples at a time; every output byte must equal
    the loop im2col's columns times the weight in one whole-batch
    matmul, whatever the batch."""

    def test_every_preset_geometry_at_every_block_edge(self):
        geometries = _preset_conv_geometries()
        spatial = {
            F._conv_geometry(h, w, kh, kw, stride, padding)
            for c, h, w, f, kh, kw, stride, padding in geometries
        }
        assert (1, 1) in spatial                        # oh*ow == 1
        assert any(
            (kh, kw, stride) == (1, 1, 2)               # shortcuts
            for c, h, w, f, kh, kw, stride, padding in geometries
        )
        rng = np.random.default_rng(53)
        for c, h, w, f, kh, kw, stride, padding in geometries:
            oh, ow = F._conv_geometry(h, w, kh, kw, stride, padding)
            block = max(1, F._CONV_BLOCK // max(
                c * kh * kw * oh * ow, c * h * w + 1
            ))
            weight = rng.standard_normal((f, c, kh, kw)).astype(np.float32)
            bias = rng.standard_normal(f).astype(np.float32)
            batches = {1, block - 1, block, block + 1, 96, 256, 384} - {0}
            for n in sorted(batches):
                x = rng.standard_normal((n, c, h, w)).astype(np.float32)
                cols = _im2col_loop(x, kh, kw, stride, padding)
                product = (weight.reshape(f, -1) @ cols).reshape(
                    n, f, oh, ow
                )
                for b in (None, bias):
                    expected = product if b is None else (
                        product + b.reshape(1, f, 1, 1)
                    )
                    with no_grad():
                        out = F.conv2d(
                            Tensor(x), Parameter(weight),
                            None if b is None else Parameter(b),
                            stride=stride, padding=padding,
                        )
                    assert out.data.tobytes() == expected.tobytes(), (
                        (c, h, w, f, kh, kw, stride, padding), n, b is None
                    )

    def test_predict_logits_bytes_and_block_sized_scratch(self, monkeypatch):
        """The ``resnet20_cifar`` model as its factory builds it, on the
        preset's test split (384 samples, batches of 256 and 128): the
        logits equal the oracle's byte for byte, and the pool keeps no
        buffer larger than one block.  The oracle runs in the same
        process, because a pinned digest would also pin the host's BLAS
        kernels."""
        pool = F._BufferPool()
        monkeypatch.setattr(F, "_POOL", pool)
        spec = preset_spec("resnet20_cifar")
        x = spec.make_dataset().x_test

        def run():
            return predict_logits(spec.make_factory()(), x).tobytes()

        expected, actual = _reference_and_library(run)
        assert actual == expected
        pooled = [a for free in pool._free.values() for a in free]
        assert pooled
        assert max(a.size for a in pooled) <= F._CONV_BLOCK


_GEOMETRIES = [
    (1, 0, 3, 3),
    (1, 1, 3, 3),
    (2, 1, 3, 3),
    (3, 2, 5, 5),
    (2, 0, 1, 1),
    (1, 2, 2, 4),
]


def _special_columns(shape, dtype, rng):
    """Random columns with every special value, one NaN payload per sample.

    Sample 0 is all ``-0.0``: a fold must start from ``+0.0``, so each of
    its pixels sums to ``+0.0``.  Sample 1 holds NaN, sample 2 ``+-inf``
    (whose sum is the other NaN), sample 3 stray ``-0.0``.  Which NaN an
    addition of two different NaNs returns is not fixed by IEEE 754, and
    numpy's float add picks by an element's place in its vector loop, so
    no sample mixes the two.
    """
    cols = rng.standard_normal(shape).astype(dtype)
    cols[0] = -0.0
    for sample, values in ((1, (np.nan, -0.0)), (2, (np.inf, -np.inf, -0.0)),
                           (3, (-0.0,))):
        flat = cols[sample].reshape(-1)
        for value in values:
            flat[rng.integers(0, flat.size, size=flat.size // 8 + 1)] = value
    return cols


class TestIm2colCol2im:
    @pytest.mark.parametrize("stride,padding,kh,kw", _GEOMETRIES)
    def test_matches_loop_reference(self, stride, padding, kh, kw):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4, 11, 13)).astype(np.float32)
        oh = (11 + 2 * padding - kh) // stride + 1
        ow = (13 + 2 * padding - kw) // stride + 1
        if oh <= 0 or ow <= 0:
            pytest.skip("geometry does not fit")
        cols = F.im2col(x, kh, kw, stride, padding)
        assert cols.tobytes() == _im2col_loop(x, kh, kw, stride, padding).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride,padding,kh,kw", _GEOMETRIES)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_col2im_matches_loop_reference(self, stride, padding, kh, kw,
                                           dtype):
        """The fold adds each tap in row-major order from ``+0.0``, byte
        for byte, through ``-0.0``, ``+-inf`` and NaN."""
        x_shape = (4, 4, 11, 13)
        oh = (11 + 2 * padding - kh) // stride + 1
        ow = (13 + 2 * padding - kw) // stride + 1
        if oh <= 0 or ow <= 0:
            pytest.skip("geometry does not fit")
        cols = _special_columns(
            (4, 4 * kh * kw, oh * ow), dtype, np.random.default_rng(19)
        )
        folded = F.col2im(cols, x_shape, kh, kw, stride, padding)
        expected = _col2im_loop(cols, x_shape, kh, kw, stride, padding)
        assert folded.dtype == expected.dtype
        assert folded.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("stride,padding,kh,kw", [
        (1, 1, 3, 3),
        (2, 1, 3, 3),
        (3, 2, 5, 3),
        (2, 0, 2, 2),
    ])
    def test_adjointness(self, stride, padding, kh, kw):
        """<u, im2col(x)> == <col2im(u), x>: col2im is the exact adjoint,
        checked on odd stride/padding combinations (float64)."""
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 3, 9, 7))
        oh = (9 + 2 * padding - kh) // stride + 1
        ow = (7 + 2 * padding - kw) // stride + 1
        if oh <= 0 or ow <= 0:
            pytest.skip("geometry does not fit")
        cols = F.im2col(x, kh, kw, stride, padding)
        u = rng.standard_normal(cols.shape)
        folded = F.col2im(u, x.shape, kh, kw, stride, padding)
        lhs = float((u * cols).sum())
        rhs = float((folded * x).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestGatherIndex:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3), c=st.integers(1, 3),
        h=st.integers(1, 9), w=st.integers(1, 9),
        kh=st.integers(1, 4), kw=st.integers(1, 4),
        stride=st.integers(1, 3), padding=st.integers(0, 2),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gather_matches_loops_on_any_geometry(
        self, n, c, h, w, kh, kw, stride, padding, dtype, seed
    ):
        """im2col and col2im equal the loop oracles byte for byte; their
        cached tables index only ``[0, zero slot]`` (so ``mode="clip"``
        never clamps), are read-only, and serve every batch size."""
        oh = (h + 2 * padding - kh) // stride + 1
        ow = (w + 2 * padding - kw) // stride + 1
        assume(oh > 0 and ow > 0)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        cols = F.im2col(x, kh, kw, stride, padding)
        assert cols.tobytes() == _im2col_loop(
            x, kh, kw, stride, padding
        ).tobytes()
        u = rng.standard_normal(cols.shape).astype(dtype)
        u[0, ::2] = -0.0
        assert F.col2im(u, x.shape, kh, kw, stride, padding).tobytes() == (
            _col2im_loop(u, x.shape, kh, kw, stride, padding).tobytes()
        )

        geometry = (c, h, w, kh, kw, stride, padding)
        unfold = F._unfold_index(*geometry)
        fold = F._fold_index(*geometry)
        assert unfold.shape == (c * kh * kw * oh * ow,)
        assert fold.shape == (kh * kw, c * h * w)
        assert 0 <= unfold.min() and unfold.max() <= c * h * w
        assert 0 <= fold.min() and fold.max() <= c * kh * kw * oh * ow
        assert not unfold.flags.writeable and not fold.flags.writeable

        misses = (F._unfold_index.cache_info().misses,
                  F._fold_index.cache_info().misses)
        wider = np.zeros((n + 2, c, h, w), dtype)
        F.col2im(F.im2col(wider, kh, kw, stride, padding), wider.shape,
                 kh, kw, stride, padding)
        assert (F._unfold_index.cache_info().misses,
                F._fold_index.cache_info().misses) == misses
        assert F._unfold_index(*geometry) is unfold
        assert F._fold_index(*geometry) is fold


def _weight_grad_operands(n, f, k, l, dtype, special, strided, rng):
    """Random ``(grad2d, cols)`` of a conv's weight gradient.

    Every case holds ``-0.0`` and subnormals; ``special`` adds ``+-inf``
    or NaN, never both.  Which NaN an addition of two different NaNs
    returns is not fixed by IEEE 754, and numpy's float add picks by an
    element's place in its vector loop.  Every sample's dots add into the
    same ``(f, k)`` entries, so a case holds one NaN payload at most: its
    NaN entries', or the one an invalid product of an infinity makes.
    ``strided`` hands both operands over as every other element of a
    wider array.
    """
    tiny = np.finfo(dtype).smallest_subnormal
    operands = []
    for rows in (f, k):
        a = rng.standard_normal((n, rows, l * (1 + strided)))
        a = (a * 10.0 ** rng.uniform(-4, 4)).astype(dtype)
        a[rng.random(a.shape) < 0.1] = -0.0
        a[rng.random(a.shape) < 0.05] = tiny * rng.integers(1, 100)
        if special != "none":
            hit = rng.random(a.shape) < 0.05
            a[hit] = (np.nan if special == "nan"
                      else rng.choice([np.inf, -np.inf], size=hit.sum()))
        operands.append(a[:, :, ::2] if strided else a)
    return operands


class TestWeightGrad:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 40), f=st.integers(1, 12), k=st.integers(1, 40),
        l=st.one_of(st.integers(2, 4), st.integers(1, 8)),
        dtype=st.sampled_from([np.float32, np.float64]),
        special=st.sampled_from(["none", "inf", "nan"]),
        strided=st.booleans(), block=st.sampled_from([1, 1000, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    # Each mutation of the kernel fails one of these: a dot summed
    # ((p0+p1)+p2)+p3, blocks reduced alone and then added, and a kernel
    # that takes strided operands or f = k = 1.
    @example(n=9, f=5, k=7, l=4, dtype=np.float32, special="none",
             strided=False, block=None, seed=1)
    @example(n=20, f=5, k=7, l=4, dtype=np.float32, special="none",
             strided=False, block=1000, seed=2)
    @example(n=9, f=5, k=7, l=4, dtype=np.float32, special="none",
             strided=True, block=None, seed=3)
    @example(n=33, f=1, k=1, l=4, dtype=np.float32, special="none",
             strided=False, block=None, seed=4)
    def test_equals_einsum_byte_for_byte(
        self, n, f, k, l, dtype, special, strided, block, seed
    ):
        """``_weight_grad`` is ``einsum("nfl,nkl->fk")`` on both sides of
        its selection (``oh*ow`` of 2 to 4 on contiguous float32 with
        ``f*k > 1``, einsum otherwise), for blocks of one sample, of a
        few, and of the default size."""
        grad2d, cols = _weight_grad_operands(
            n, f, k, l, dtype, special, strided, np.random.default_rng(seed)
        )
        with pytest.MonkeyPatch.context() as patch:
            if block is not None:
                patch.setattr(F, "_SHORT_DOT_BLOCK", block)
            actual = F._weight_grad(grad2d, cols)
        expected = np.einsum("nfl,nkl->fk", grad2d, cols)
        assert actual.dtype == expected.dtype
        assert actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()

    def test_resnet20_stage3_runs_without_einsum(self, monkeypatch):
        """A benchmark-shaped ResNet-20 pass (8 px, batch 96) calls einsum
        for the 14 convs with ``oh*ow`` of 64 or 16 only: the 7 stage-3
        convs (``oh*ow = 4``) run the short-dot kernel."""
        calls = []
        einsum = np.einsum

        def spy(subscripts, *operands, **kwargs):
            calls.append(operands[0].shape)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(F.np, "einsum", spy)
        rng = np.random.default_rng(47)
        x = rng.standard_normal((96, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 10, size=96)
        loss_and_grads(make_resnet20(width_scale=0.5, seed=0), x, y)
        assert len(calls) == 14
        assert all(shape[2] > 4 for shape in calls)


class TestScratchPool:
    def test_pool_steady_across_gradient_passes(self, monkeypatch):
        """Three gradient passes on a benchmark-shaped ResNet-20 leave
        the pool as the second left it, hold no view, and hold every
        conv's zero-slotted gather sources and col2im's tap buffers."""
        pool = F._BufferPool()
        monkeypatch.setattr(F, "_POOL", pool)
        conv2d = F.conv2d
        gather_keys = set()

        def recording_conv2d(x, weight, bias=None, stride=1, padding=0):
            n, c, h, w = x.shape
            kh, kw = weight.shape[2:]
            dtype = x.data.dtype.str
            gather_keys.add(((n, c * h * w + 1), dtype))           # im2col
            if x.requires_grad:
                oh, ow = F._conv_geometry(h, w, kh, kw, stride, padding)
                gather_keys.add(((n, c * kh * kw * oh * ow + 1), dtype))
                gather_keys.add(((n, c * h * w), dtype))           # tap
            return conv2d(x, weight, bias, stride=stride, padding=padding)

        monkeypatch.setattr(F, "conv2d", recording_conv2d)
        rng = np.random.default_rng(43)
        x = rng.standard_normal((96, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 10, size=96)
        model = make_resnet20(width_scale=0.5, seed=0)

        def counts():
            loss_and_grads(model, x, y)
            return {key: len(free) for key, free in pool._free.items()}

        counts()
        second = counts()
        assert counts() == second
        assert gather_keys and gather_keys <= set(second)
        assert all(
            array.base is None
            for free in pool._free.values() for array in free
        )


class TestMaxPoolTies:
    def test_gradient_goes_to_first_maximum(self):
        """Under ties, the gradient flows to exactly the first maximum in
        each window (row-major within the window)."""
        x = Tensor(np.zeros((1, 1, 4, 4), dtype=np.float64),
                   requires_grad=True)
        # Window (0,0): all equal -> first element. Window (0,1): tie on
        # the two elements of the second row -> first of those.
        x.data[0, 0, 1, 2] = 5.0
        x.data[0, 0, 1, 3] = 5.0
        out = F.max_pool2d(x, 2)
        out.sum().backward()
        grad = x.grad[0, 0]
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0          # all-tie window: first element
        expected[1, 2] = 1.0          # row tie: first maximum
        expected[2, 0] = 1.0
        expected[2, 2] = 1.0
        assert np.array_equal(grad, expected)

    def test_backward_matches_loop_reference(self):
        rng = np.random.default_rng(23)
        data = rng.integers(0, 3, size=(2, 3, 6, 6)).astype(np.float32)
        x = Tensor(data.copy(), requires_grad=True)
        out = F.max_pool2d(x, 3)
        out.sum().backward()
        expected_out, expected_grad = _max_pool_reference(data, 3)
        assert out.data.tobytes() == expected_out.tobytes()
        assert np.array_equal(x.grad, expected_grad)

    def test_inference_skips_mask_but_values_match(self):
        rng = np.random.default_rng(29)
        data = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        with no_grad():
            out = F.max_pool2d(Tensor(data), 2)
        assert out._parents == ()
        expected, _ = _max_pool_reference(data, 2)
        assert out.data.tobytes() == expected.tobytes()


class TestBatchNormEvalCache:
    def _bn_inputs(self, seed=31):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((4, 6, 5, 5)).astype(np.float32))
        bn = BatchNorm2d(6)
        bn.running_mean[:] = rng.standard_normal(6).astype(np.float32)
        bn.running_var[:] = rng.uniform(0.5, 2.0, 6).astype(np.float32)
        bn.gamma.data[:] = rng.uniform(0.5, 1.5, 6).astype(np.float32)
        bn.beta.data[:] = rng.standard_normal(6).astype(np.float32)
        bn.eval()
        return x, bn

    def test_fused_matches_per_op_chain(self):
        x, bn = self._bn_inputs()
        x.requires_grad = True
        upstream = np.random.default_rng(41).standard_normal(x.shape)

        def run():
            bn.zero_grad()
            x.grad = None
            out = bn(x)
            (out * Tensor(upstream.astype(np.float32))).sum().backward()
            return (out.data.tobytes(), x.grad.tobytes(),
                    bn.gamma.grad.tobytes(), bn.beta.grad.tobytes())

        expected, actual = _reference_and_library(run)
        assert actual == expected

    def test_constants_cached_between_forwards(self):
        x, bn = self._bn_inputs()
        with no_grad():
            bn(x)
        inv_std_first = bn._eval_cache.inv_std4
        assert isinstance(inv_std_first, np.ndarray)
        with no_grad():
            bn(x)
        assert bn._eval_cache.inv_std4 is inv_std_first

    def test_cache_invalidated_when_buffers_change(self):
        x, bn = self._bn_inputs()
        with no_grad():
            before = bn(x).data.copy()
        stale = bn._eval_cache.inv_std4
        bn.running_var[:] *= 4.0       # in-place update, as training does
        with no_grad():
            after = bn(x).data.copy()
        assert bn._eval_cache.inv_std4 is not stale
        assert not np.allclose(before, after)

    def test_cache_tells_signed_zeros_apart(self):
        """``-0.0 == +0.0``, but ``x - mean`` differs between them at
        ``x = -0.0``: a cached layer must match a fresh one byte for
        byte."""
        x = Tensor(np.full((1, 1, 1, 1), -0.0, dtype=np.float32))

        def layer():
            bn = BatchNorm2d(1)
            bn.beta.data[:] = -0.0
            return bn.eval()

        cached = layer()
        with no_grad():
            cached(x)
            cached.running_mean[...] = -0.0
            fresh = layer()
            fresh.running_mean[...] = -0.0
            expected = fresh(x).data
            assert not np.signbit(expected).any()
            assert cached(x).data.tobytes() == expected.tobytes()

    def test_eval_forward_allocates_no_grad_buffers(self):
        """The fused eval node's only grad-capable parents are the input
        and the affine parameters — no throwaway constant joins the
        graph, and the constants themselves can never hold a grad."""
        x, bn = self._bn_inputs()
        x.requires_grad = True
        out = bn(x)
        assert set(map(id, out._parents)) == {id(x), id(bn.gamma), id(bn.beta)}
        out.sum().backward()
        for node in out._parents:
            assert node.grad is not None
        assert isinstance(bn._eval_cache.inv_std4, np.ndarray)
        assert isinstance(bn._eval_cache.mean4, np.ndarray)

    def test_no_grad_eval_builds_no_graph(self):
        x, bn = self._bn_inputs()
        with no_grad():
            out = bn(x)
        assert out._parents == ()
        assert not out.requires_grad


class TestCrossEntropyEdges:
    def test_empty_batch_raises_value_error(self):
        logits = Tensor(np.zeros((0, 10), dtype=np.float32))
        targets = np.zeros(0, dtype=np.int64)
        with pytest.raises(ValueError, match="non-empty batch"):
            F.cross_entropy(logits, targets)

    def test_size_one_batch(self):
        logits = Tensor(
            np.array([[2.0, 0.0, -1.0]], dtype=np.float32),
            requires_grad=True,
        )
        loss = F.cross_entropy(logits, np.array([0]))
        loss.backward()
        assert np.isfinite(loss.item())
        assert logits.grad.shape == (1, 3)

    def test_size_one_batch_through_batch_norm_training(self):
        """A singleton batch with 1x1 spatial extent exercises the
        unbiased-variance ``max(n - 1, 1)`` guard (n == 1)."""
        bn = BatchNorm2d(3)
        bn.train()
        x = Tensor(
            np.arange(3, dtype=np.float32).reshape(1, 3, 1, 1),
            requires_grad=True,
        )
        out = bn(x)
        out.sum().backward()
        assert np.all(np.isfinite(out.data))
        assert np.all(np.isfinite(bn.running_var))
        assert np.all(np.isfinite(x.grad))
