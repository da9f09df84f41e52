"""Backward passes with worker-thread weight gradients, against a
sequential engine.

``Tensor.backward()`` runs each leaf conv weight's gradient contraction
on a worker thread and applies every leaf contribution in call order
after the traversal.  Neither changes a float operation or its order,
so every gradient must equal, bit for bit, the sequential engine kept
here as the oracle: ``conv2d`` with its einsum inline, patched into
``repro.nn.functional``, and a traversal that adds each contribution the
moment it is made.
"""

import contextlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.attacks import BfaConfig, BitFlipAttack
from repro.defenses.software.binarize import enable_weight_binarization
from repro.nn import (
    SGD,
    Conv2d,
    Parameter,
    QuantizedModel,
    cifar10_like,
    fit,
    make_resnet20,
    make_vgg11,
)
from repro.nn import functional as F
from repro.nn import tensor as tensor_module
from repro.nn.tensor import Tensor, _unbroadcast, is_grad_enabled
from repro.nn.train import loss_and_grads

REPO = pathlib.Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------------- #
# The sequential oracle
# ---------------------------------------------------------------------- #

def _conv2d_inline(x, weight, bias=None, stride=1, padding=0):
    """``conv2d`` with the weight gradient computed inline."""
    n, c, h, w = x.shape
    f, wc, kh, kw = weight.shape
    oh, ow = F._conv_geometry(h, w, kh, kw, stride, padding)
    parents = (x, weight) if bias is None else (x, weight, bias)
    needs_grad = is_grad_enabled() and any(p.requires_grad for p in parents)
    w2d = weight.data.reshape(f, -1)
    cols6 = F._POOL.acquire((n, c, kh, kw, oh, ow), x.dtype)
    cols = F._im2col_into(x.data, kh, kw, stride, padding, oh, ow, cols6)
    out = (w2d @ cols).reshape(n, f, oh, ow)
    if bias is not None:
        np.add(out, bias.data.reshape(1, f, 1, 1), out=out)
    if not needs_grad:
        F._POOL.release(cols6)
        return Tensor(out)

    def backward_fn(grad):
        nonlocal cols, cols6
        if cols is None:
            cols6 = F._POOL.acquire((n, c, kh, kw, oh, ow), x.data.dtype)
            cols = F._im2col_into(
                x.data, kh, kw, stride, padding, oh, ow, cols6
            )
        grad2d = grad.reshape(n, f, oh * ow)
        if weight.requires_grad:
            grad_w = np.einsum("nfl,nkl->fk", grad2d, cols)
            Tensor._accumulate(weight, grad_w.reshape(weight.shape))
        if bias is not None and bias.requires_grad:
            Tensor._accumulate(bias, grad.sum(axis=(0, 2, 3)))
        if x.requires_grad:
            grad_src = F._POOL.acquire(
                (n, c * kh * kw * oh * ow + 1), grad.dtype
            )
            grad_src[:, -1] = 0
            np.matmul(w2d.T, grad2d, out=grad_src[:, :-1].reshape(
                cols.shape, copy=False
            ))
            grad_x = F._POOL.acquire(x.data.shape, grad.dtype)
            Tensor._accumulate(x, F._col2im_into(
                grad_src, x.data.shape, kh, kw, stride, padding, grad_x
            ))
            F._POOL.release(grad_src)
            F._POOL.release(grad_x)
        F._POOL.release(cols6)
        cols = None
        cols6 = None

    return Tensor._make(out, parents, backward_fn)


def _accumulate_now(parent, grad, owned=False):
    """Add a contribution at once, always through a copy."""
    if not parent.requires_grad:
        return
    grad = _unbroadcast(grad, parent.data.shape)
    if parent.grad is None:
        parent.grad = grad.astype(parent.data.dtype, copy=True)
    else:
        parent.grad += grad


def _backward_sequential(self, grad=None):
    if grad is None:
        grad = np.ones_like(self.data)
    topo, visited = [], set()
    stack = [(self, False)]
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
    self.grad = np.asarray(grad, dtype=self.data.dtype)
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


@contextlib.contextmanager
def sequential_engine():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(F, "conv2d", _conv2d_inline)
        patch.setattr(Tensor, "_accumulate", staticmethod(_accumulate_now))
        patch.setattr(Tensor, "backward", _backward_sequential)
        yield


def oracle_and_engine(run):
    """``run()`` on the sequential oracle, then on the library engine."""
    with sequential_engine():
        expected = run()
    return expected, run()


def grad_bytes(model):
    """Every parameter's gradient by name; ``None`` where it has none."""
    return {
        name: None if p.grad is None else p.grad.tobytes()
        for name, p in model.named_parameters()
    }


def conv_weights(model):
    return [m.weight for m in model.modules() if isinstance(m, Conv2d)]


def batch(n, seed=0, hw=8):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3, hw, hw)).astype(np.float32)
    return x, rng.integers(0, 10, size=n)


def resnet20(seed=0):
    return make_resnet20(width_scale=0.5, seed=seed)


# ---------------------------------------------------------------------- #
# Bit parity
# ---------------------------------------------------------------------- #

class TestGradientParity:
    def test_resnet20_loss_and_grads(self):
        x, y = batch(24)

        def run():
            model = resnet20()
            inputs = []
            loss = loss_and_grads(model, x, y, inputs=inputs)
            assert len(inputs) == len(model.segments())
            return loss, grad_bytes(model)

        expected, actual = oracle_and_engine(run)
        assert None not in expected[1].values()
        assert actual == expected

    def test_vgg11(self):
        x, y = batch(16, seed=1)

        def run():
            model = make_vgg11(input_size=8, width_scale=0.25, seed=0)
            return loss_and_grads(model, x, y), grad_bytes(model)

        expected, actual = oracle_and_engine(run)
        assert actual == expected

    def test_training_step_with_binarized_weights(self):
        """A computed weight keeps its own backward node: its conv
        contribution must land before that node runs, or the leaf under
        it gets no gradient at all."""
        x, y = batch(16, seed=2)

        def run():
            model = resnet20(seed=1)
            enable_weight_binarization(model)
            model.train()
            optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
            optimizer.zero_grad()
            F.cross_entropy(model(Tensor(x)), y).backward()
            grads = grad_bytes(model)
            optimizer.step()
            return grads, {
                k: v.tobytes() for k, v in model.state_dict().items()
            }

        expected, actual = oracle_and_engine(run)
        assert None not in actual[0].values()
        assert actual == expected

    def test_each_weight_used_twice(self):
        """T-BFA's ``source + keep * preserve_weight``: two forwards
        through the same weights, so each conv weight gets two worker
        contributions in one backward."""
        xa, ya = batch(8, seed=3)
        xb, yb = batch(12, seed=4)

        def run():
            model = resnet20()
            model.eval()
            model.zero_grad()
            loss = F.cross_entropy(model(Tensor(xa)), ya)
            keep = F.cross_entropy(model(Tensor(xb)), yb)
            (loss + keep * 0.5).backward()
            return grad_bytes(model)

        expected, actual = oracle_and_engine(run)
        assert actual == expected

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_parameter_with_three_contributions(self, order):
        """A conv contraction, ``(w*w).sum()`` and ``w.sum()`` into one
        Parameter: the additions into ``w.grad`` keep their call order
        whichever of the three comes first."""
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((6, 4, 6, 6)).astype(np.float32)
        w0 = rng.standard_normal((8, 4, 3, 3)).astype(np.float32)

        def run():
            w = Parameter(w0.copy())
            terms = [
                lambda: F.conv2d(Tensor(x0), w, padding=1).sum(),
                lambda: (w * w).sum(),
                lambda: w.sum(),
            ]
            loss = terms[order[0]]()
            for i in order[1:]:
                loss = loss + terms[i]()
            loss.backward()
            return w.grad.tobytes()

        expected, actual = oracle_and_engine(run)
        assert actual == expected

    def test_leaf_input_feeding_two_convs(self):
        """Both convs hand the shared leaf input a view of the same
        pooled scratch buffer; the queued contribution must not see it
        reused."""
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((4, 3, 6, 6)).astype(np.float32)
        w0 = rng.standard_normal((2, 5, 3, 3, 3)).astype(np.float32)

        def run():
            x = Tensor(x0.copy(), requires_grad=True)
            w1, w2 = Parameter(w0[0].copy()), Parameter(w0[1].copy())
            out = F.conv2d(x, w1, padding=1) * F.conv2d(x, w2, padding=1)
            out.sum().backward()
            return x.grad.tobytes(), w1.grad.tobytes(), w2.grad.tobytes()

        expected, actual = oracle_and_engine(run)
        assert actual == expected

    def test_second_backward_through_one_graph(self):
        """The second pass rebuilds each conv's columns while earlier
        layers' contractions may still be running, so a column buffer
        returned to the pool before its result is collected gets
        overwritten under the worker reading it."""
        x, y = batch(32, seed=7)

        def run():
            results = []
            for _ in range(3):
                model = resnet20()
                model.eval()
                loss = F.cross_entropy(model(Tensor(x)), y)
                loss.backward()
                loss.backward()
                results.append(grad_bytes(model))
            return results

        expected, actual = oracle_and_engine(run)
        assert actual == expected

    def test_state_dict_after_one_fit_epoch(self):
        data = cifar10_like(n_train=96, n_test=32, image_hw=8, seed=0)

        def run():
            model = resnet20(seed=2)
            fit(model, data, epochs=1, batch_size=32, seed=0)
            return {k: v.tobytes() for k, v in model.state_dict().items()}

        expected, actual = oracle_and_engine(run)
        assert actual == expected


# ---------------------------------------------------------------------- #
# Threads
# ---------------------------------------------------------------------- #

def _in_thread(fn, timeout):
    """Run ``fn`` on a daemon thread; fail if it is still running after
    ``timeout`` seconds, re-raise what it raised."""
    outcome = {}

    def target():
        try:
            outcome["value"] = fn()
        except BaseException as exc:  # handed to the test thread below
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestConcurrency:
    def test_stress_more_workers_than_cores(self, monkeypatch):
        x, y = batch(16, seed=8)

        def passes():
            model = resnet20()
            return [
                (loss_and_grads(model, x, y), grad_bytes(model))
                for _ in range(20)
            ]

        with sequential_engine():
            expected = passes()
        monkeypatch.setattr(tensor_module, "_cpu_count", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            actual = _in_thread(passes, timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert actual == expected

    def test_no_thread_outlives_backward(self):
        x, y = batch(8, seed=9)
        model = resnet20()
        before = threading.active_count()
        loss_and_grads(model, x, y)
        assert threading.active_count() == before
        assert all(w.grad is not None for w in conv_weights(model))

    def test_workers_joined_before_an_error_propagates(self):
        """A closure raising mid-graph, after a conv below it handed
        its contraction to a worker: the exception reaches the caller
        only once that worker is gone."""
        rng = np.random.default_rng(10)
        x = Parameter(rng.standard_normal((4, 3, 6, 6)).astype(np.float32))
        w = Parameter(rng.standard_normal((5, 3, 3, 3)).astype(np.float32))
        during = []

        def explode(grad):
            during.append(threading.active_count())
            raise RuntimeError("closure failed")

        below = Tensor._make(x.data * 1.0, (x,), explode)
        loss = F.conv2d(below, w, padding=1).sum()
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="closure failed"):
            loss.backward()
        assert during and during[0] > before
        assert threading.active_count() == before
        assert tensor_module._BACKWARD == []

        loss = F.conv2d(Tensor(x.data), w, padding=1).sum()
        w.grad = None
        loss.backward()
        assert w.grad is not None

    def test_fork_pool_after_backward(self, tmp_path):
        """A process that has run backward passes forks a
        ``ProcessPoolBackend`` whose workers run their own; the run
        finishes in time and writes the serial run's bytes."""
        script = textwrap.dedent("""
            import pathlib, sys, threading
            sys.path[:0] = [sys.argv[1]]
            from tests.nn import test_backward_overlap as t
            from repro.experiments import (
                ProcessPoolBackend, SerialBackend, run_scenario, scenario,
                write_artifact,
            )

            # Registered before the fork, so the workers inherit it.
            scenario(t.FORK_SCENARIO, default_trials=4)(t.bfa_trial)
            out = pathlib.Path(sys.argv[2])
            for label, backend in (
                ("serial", SerialBackend()), ("pool", ProcessPoolBackend(2)),
            ):
                # The serial run ran backward passes in this process.
                assert threading.active_count() == 1, threading.enumerate()
                result = run_scenario(
                    t.FORK_SCENARIO, trials=4, seed=3, backend=backend,
                )
                write_artifact(result, directory=out / label)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), env.get("PYTHONPATH", "")]
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(REPO), str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=240,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        serial = (tmp_path / "serial" / f"{FORK_SCENARIO}.json").read_bytes()
        pool = (tmp_path / "pool" / f"{FORK_SCENARIO}.json").read_bytes()
        assert serial == pool
        assert all(
            trial["attempts"] > 0
            for trial in json.loads(serial)["per_trial_metrics"]
        )


FORK_SCENARIO = "backward-fork-bfa"


def bfa_trial(ctx):
    """A short BFA on a small untrained ResNet-20: gradient passes only."""
    data = cifar10_like(n_train=8, n_test=32, image_hw=8, seed=ctx.seed)
    model = resnet20(seed=ctx.trial_index)
    model.eval()
    attack = BitFlipAttack(
        QuantizedModel(model), data.x_test, data.y_test,
        config=BfaConfig(max_iterations=3, exact_eval_top=2),
        eval_x=data.x_test, eval_y=data.y_test,
    )
    result = attack.run_endpoints()
    return {
        "metrics": {
            "final_accuracy": result.final_accuracy,
            "attempts": float(len(result.attempts)),
            "estimated_gain": float(
                sum(a.estimated_gain for a in result.attempts)
            ),
        },
        "detail": {
            "flips": [
                [a.location.layer, a.location.index, a.location.bit]
                for a in result.attempts
            ],
        },
    }
