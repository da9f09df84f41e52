"""Parity and regression tests for the vectorized ``nn.functional`` kernels.

The kernels must be byte-identical to a straightforward formulation —
same forward values, same loss, same gradients — because they only
change data movement and graph fusion, never floating-point evaluation
order.  That formulation lives here as small test-local oracles: a loop
im2col, a reference ``conv2d`` built on it (``col2im`` backward, fresh
buffers), the per-op Tensor chain for eval batch norm, and a loop
max-pool.  :func:`_reference_and_library` patches the oracles into
``repro.nn.functional`` so whole models run on them.
"""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn import functional as F
from repro.nn.tensor import Tensor, no_grad
from repro.nn.train import loss_and_grads

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


def _conv2d_reference(x, weight, bias=None, stride=1, padding=0):
    """Oracle conv2d: loop im2col, fresh buffers, ``col2im`` backward."""
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
            Tensor._accumulate(x, F.col2im(
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


class TestIm2colCol2im:
    @pytest.mark.parametrize("stride,padding,kh,kw", [
        (1, 0, 3, 3),
        (1, 1, 3, 3),
        (2, 1, 3, 3),
        (3, 2, 5, 5),
        (2, 0, 1, 1),
        (1, 2, 2, 4),
    ])
    def test_matches_loop_reference(self, stride, padding, kh, kw):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((3, 4, 11, 13)).astype(np.float32)
        oh = (11 + 2 * padding - kh) // stride + 1
        ow = (13 + 2 * padding - kw) // stride + 1
        if oh <= 0 or ow <= 0:
            pytest.skip("geometry does not fit")
        cols = F.im2col(x, kh, kw, stride, padding)
        assert cols.tobytes() == _im2col_loop(x, kh, kw, stride, padding).tobytes()

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
