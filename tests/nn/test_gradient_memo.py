"""``GradientMemo``: a memoized gradient pass is a fresh pass, bit for bit.

A pass given a memo runs only what changed since the memo's last pass:
nothing when nothing changed, otherwise the forward from the first
changed segment on, then the whole backward.  Whatever it runs, its loss,
every parameter's gradient bytes and every captured input must equal a
pass without a memo, and it must start the forward at exactly the first
changed segment.  Between passes it keeps one graph, with its
convolutions' columns, so a pass gathers columns only for the
convolutions it runs again; a pass must never hold two graphs.
"""

import concurrent.futures
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import BatchNorm2d, Conv2d, Parameter, make_resnet20
from repro.nn import functional
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.nn.train import GradientMemo, loss_and_grads


class Spy:
    """Records the segments and losses each gradient pass runs.

    Replaces ``model.segments`` with a fixed list of wrapped links and
    counts ``cross_entropy`` calls; forwards under ``no_grad`` (the
    search's candidate evaluations) are not recorded.
    """

    def __init__(self, model, monkeypatch):
        self.segments: list[int] = []
        self.losses = 0
        self.links = [
            (self._wrap(index, fn), modules)
            for index, (fn, modules) in enumerate(model.segments())
        ]
        model.segments = lambda: list(self.links)
        cross_entropy = functional.cross_entropy

        def loss(logits, targets):
            self.losses += is_grad_enabled()
            return cross_entropy(logits, targets)

        monkeypatch.setattr(functional, "cross_entropy", loss)

    def _wrap(self, index, fn):
        def run(x):
            if is_grad_enabled():
                self.segments.append(index)
            return fn(x)
        return run

    def reset(self):
        self.segments.clear()
        self.losses = 0


def pass_result(model, x, y, memo=None, objective=None):
    """Loss, every gradient's bytes and every captured input's bytes."""
    inputs = []
    loss = loss_and_grads(
        model, x, y, inputs=inputs, memo=memo, objective=objective
    )
    grads = [
        (name, None if p.grad is None else p.grad.tobytes())
        for name, p in model.named_parameters()
    ]
    return (
        np.float64(loss).tobytes(), grads, [a.tobytes() for a in inputs],
    ), inputs


def owners(model):
    """Segment index of every module reachable from a segment."""
    owner = {}
    for index, (_, modules) in enumerate(model.segments()):
        for module in modules:
            for sub in module.modules():
                owner.setdefault(id(sub), index)
    return owner


def build(seed, n, width_scale=0.25):
    model = make_resnet20(num_classes=10, width_scale=width_scale, seed=seed)
    rng = np.random.default_rng(seed)
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            c = module.num_features
            module.gamma.data[:] = rng.uniform(0.5, 1.5, c)
            module.beta.data[:] = rng.standard_normal(c)
            module.running_mean[:] = rng.standard_normal(c)
            module.running_var[:] = rng.uniform(0.5, 2.0, c)
    x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 10, size=n)
    return model.eval(), x, y


def weight_sites(model):
    """The convolutions and the classifier, by where they sit."""
    blocks = list(model.stages)
    return {
        "stem": [model.stem_conv],
        "block conv": [c for b in blocks for c in (b.conv1, b.conv2)],
        "shortcut": [
            m for b in blocks for m in b.shortcut.modules()
            if isinstance(m, Conv2d)
        ],
        "classifier": [model.fc],
    }


def _flip_weight_bit(model, data):
    """Flip one bit of one weight's float32 bytes in place; returns a
    function that flips it back and the module it sits in."""
    where = data.draw(st.sampled_from(sorted(weight_sites(model))))
    module = data.draw(st.sampled_from(weight_sites(model)[where]))
    raw = module.weight.data.reshape(-1).view(np.uint8)
    i = data.draw(st.integers(0, raw.size - 1))
    mask = np.uint8(1 << data.draw(st.integers(0, 7)))

    def flip():
        raw[i] ^= mask

    flip()
    return flip, module


# Each change edits the model or the batch in place and returns the
# first segment a fresh pass would now see differently: ``None`` when
# nothing changed, ``len(segments)`` when only the labels did.

def commit_flip(model, x, y, data, inputs):
    _, module = _flip_weight_bit(model, data)
    return owners(model)[id(module)]


def flip_and_revert(model, x, y, data, inputs):
    """A candidate evaluation: flip, forward without a graph from the
    captured input of the flipped segment, revert."""
    revert, module = _flip_weight_bit(model, data)
    start = owners(model)[id(module)]
    with no_grad():
        out = Tensor(inputs[start])
        for fn, _ in model.segments()[start:]:
            out = fn(out)
    revert()
    return None


def set_buffer_entry(model, x, y, data, inputs):
    bns = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    bn = data.draw(st.sampled_from(bns))
    buffer = bn._buffers[data.draw(st.sampled_from(sorted(bn._buffers)))]
    i = data.draw(st.integers(0, buffer.size - 1))
    old = buffer[i].tobytes()
    kind = data.draw(st.sampled_from(["zero", "negated", "drawn"]))
    if kind == "zero":
        buffer[i] = 0.0
    elif kind == "negated":
        buffer[i] = -buffer[i]      # a zero becomes the other zero
    else:
        buffer[i] = data.draw(st.floats(-4, 4, width=32))
    return owners(model)[id(bn)] if buffer[i].tobytes() != old else None


def set_input(model, x, y, data, inputs):
    flat = x.reshape(-1)
    i = data.draw(st.integers(0, flat.size - 1))
    old = flat[i].tobytes()
    flat[i] = data.draw(st.floats(-4, 4, width=32))
    return 0 if flat[i].tobytes() != old else None


def set_label(model, x, y, data, inputs):
    i = data.draw(st.integers(0, y.size - 1))
    old = y[i]
    y[i] = data.draw(st.integers(0, 9))
    return len(model.segments()) if y[i] != old else None


def replace_parameter(model, x, y, data, inputs):
    """Swap a parameter for a new object holding the same values."""
    owned = [
        (module, name)
        for module in model.modules()
        for name, value in vars(module).items()
        if isinstance(value, Parameter)
    ]
    module, name = data.draw(st.sampled_from(owned))
    setattr(module, name, Parameter(getattr(module, name).data.copy()))
    return owners(model)[id(module)]


def no_change(model, x, y, data, inputs):
    return None


CHANGES = {
    "commit flip": commit_flip,
    "flip and revert": flip_and_revert,
    "buffer entry": set_buffer_entry,
    "input": set_input,
    "label": set_label,
    "replace parameter": replace_parameter,
    "nothing": no_change,
}


class TestExactness:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 3),
        n=st.integers(1, 16),
        changes=st.lists(st.sampled_from(sorted(CHANGES)), max_size=8),
        data=st.data(),
    )
    def test_every_pass_equals_a_fresh_pass_and_starts_at_the_change(
        self, seed, n, changes, data
    ):
        model, x, y = build(seed, n)
        memo = GradientMemo()
        with pytest.MonkeyPatch.context() as patch:
            spy = Spy(model, patch)
            segments = len(spy.links)
            # A flipped exponent bit may overflow; both passes see it alike.
            with np.errstate(all="ignore"):
                start = 0
                for change in [None, *changes]:
                    if change is not None:
                        start = CHANGES[change](model, x, y, data, inputs)
                    spy.reset()
                    memoized, inputs = pass_result(model, x, y, memo)
                    ran, losses = list(spy.segments), spy.losses
                    fresh, _ = pass_result(model, x, y)
                    assert memoized == fresh, change
                    assert memo.ran_nothing == (start is None), change
                    if start is None:
                        assert (ran, losses) == ([], 0), change
                    else:
                        assert ran == list(range(start, segments)), change
                        assert losses == 1, change
        memo.clear()

    def test_unkeyable_attribute_means_a_fresh_pass(self, monkeypatch):
        model, x, y = build(0, 4)
        model.stages[2].conv1.weight_transform = lambda w: w
        spy = Spy(model, monkeypatch)
        memo = GradientMemo()
        first, _ = pass_result(model, x, y, memo)
        spy.reset()
        again, _ = pass_result(model, x, y, memo)
        assert again == first
        assert spy.segments == list(range(len(spy.links)))
        assert not memo.ran_nothing

    def test_ran_nothing_describes_the_last_pass(self):
        model, x, y = build(0, 4)
        memo = GradientMemo()
        assert not memo.ran_nothing
        pass_result(model, x, y, memo)
        assert not memo.ran_nothing
        pass_result(model, x, y, memo)
        assert memo.ran_nothing
        memo.clear()
        assert not memo.ran_nothing

    def test_another_objective_reruns_only_the_loss(self, monkeypatch):
        """A pass with another objective equals a fresh pass with it and
        runs no segment: the logits are the kept graph's."""
        model, x, y = build(2, 8)
        spy = Spy(model, monkeypatch)

        def targeted(logits, labels):
            source = labels == labels[0]
            return -functional.cross_entropy(
                logits[source], np.ones(source.sum(), dtype=np.int64)
            )

        memo = GradientMemo()
        pass_result(model, x, y, memo)
        for objective in (targeted, None, targeted):
            spy.reset()
            memoized, _ = pass_result(model, x, y, memo, objective)
            assert spy.segments == []
            assert not memo.ran_nothing
            assert memoized == pass_result(model, x, y, objective=objective)[0]
        pass_result(model, x, y, memo, targeted)
        assert memo.ran_nothing
        memo.clear()

    def test_another_model_means_a_fresh_pass(self):
        memo = GradientMemo()
        a, x, y = build(1, 4)
        b, _, _ = build(1, 4)
        expected, _ = pass_result(b, x, y)
        pass_result(a, x, y, memo)
        assert pass_result(b, x, y, memo)[0] == expected


# ---------------------------------------------------------------------- #
# Columns: gathered once per forward, never in a backward
# ---------------------------------------------------------------------- #

@pytest.fixture
def gathers(monkeypatch):
    """Every column gather, as ``(conv weight, inside a backward)``."""
    log: list[tuple[Parameter, bool]] = []
    state = {"weight": None, "backward": False}
    conv2d, gather, backward = (
        functional.conv2d, functional._im2col_into, Tensor.backward
    )

    def spied_conv2d(x, weight, *args, **kwargs):
        state["weight"] = weight
        return conv2d(x, weight, *args, **kwargs)

    def spied_gather(*args, **kwargs):
        log.append((state["weight"], state["backward"]))
        return gather(*args, **kwargs)

    def spied_backward(self, *args, **kwargs):
        state["backward"] = True
        try:
            return backward(self, *args, **kwargs)
        finally:
            state["backward"] = False

    monkeypatch.setattr(functional, "conv2d", spied_conv2d)
    monkeypatch.setattr(functional, "_im2col_into", spied_gather)
    monkeypatch.setattr(Tensor, "backward", spied_backward)
    return log


class TestKeptColumns:
    def test_a_pass_gathers_only_for_the_convolutions_it_reruns(
        self, gathers
    ):
        """Resumed at the classifier, a pass gathers no columns: its
        backward reads the kept convolutions' own.  After a stem flip it
        gathers each convolution's columns once, in the forward."""
        model, x, y = build(0, 8)
        convs = sorted(
            id(m.weight) for m in model.modules() if isinstance(m, Conv2d)
        )
        memo = GradientMemo()
        loss_and_grads(model, x, y, memo=memo)
        assert sorted(id(w) for w, _ in gathers) == convs
        gathers.clear()
        model.fc.weight.data[0, 0] += 1.0
        loss_and_grads(model, x, y, memo=memo)
        assert gathers == []
        model.stem_conv.weight.data[0, 0, 0, 0] += 1.0
        loss_and_grads(model, x, y, memo=memo)
        assert not any(inside for _, inside in gathers)
        assert sorted(id(w) for w, _ in gathers) == convs
        memo.clear()


# ---------------------------------------------------------------------- #
# Memory: one graph at a time
# ---------------------------------------------------------------------- #

def traced_peak(run) -> int:
    """Peak traced bytes while ``run()`` runs, above those traced before."""
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    run()
    return tracemalloc.get_traced_memory()[1] - base


# What a memo pass, the graph it kept included, may hold beyond a fresh
# pass's arrays: the memo's keys (about 30 KB of small Python objects for
# this model) and views and futures made in another order.  The kept
# graph holds its convolutions' columns, as a fresh pass's graph does
# until it is freed; a second graph, its non-leaf gradients or a second
# set of columns would be megabytes.
PYTHON_OBJECTS = 64 * 1024


class SerialExecutor(concurrent.futures.Executor):
    """Runs each backward job as it is submitted, on the calling thread.

    Worker threads allocate their scratch while the traversal allocates
    its own, in an order that moves a pass's traced peak by up to a
    tenth.  Run in line, every pass allocates in one order; results are
    still applied after the traversal, so the same arrays stay alive.
    """

    def __init__(self, max_workers=None, thread_name_prefix=""):
        pass

    def submit(self, fn, /, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


class TestMemory:
    @pytest.fixture
    def traced(self, monkeypatch):
        """The bench-sized model and batch, every pass traced from the
        first into an empty scratch-buffer pool, warm before any peak.

        A pooled buffer made before tracing would not count when taken
        and freed, so every pooled buffer is made here."""
        model, x, y = build(0, 96, width_scale=0.5)
        monkeypatch.setattr(functional, "_POOL", functional._BufferPool())
        monkeypatch.setattr(
            concurrent.futures, "ThreadPoolExecutor", SerialExecutor
        )
        tracemalloc.start()
        try:
            for _ in range(2):
                loss_and_grads(model, x, y)
            yield model, x, y
        finally:
            tracemalloc.stop()

    def peaks(self, model, x, y, change):
        """Peak of a fresh pass, and of a memo's pass after ``change``;
        both above the memory traced with no graph alive, so the graph
        the memo kept from its pass before counts.  Also returns what the
        memo kept."""
        fresh = traced_peak(lambda: loss_and_grads(model, x, y))
        memo = GradientMemo()
        base = tracemalloc.get_traced_memory()[0]
        loss_and_grads(model, x, y, memo=memo)
        change()
        kept = tracemalloc.get_traced_memory()[0] - base
        memoized = kept + traced_peak(
            lambda: loss_and_grads(model, x, y, memo=memo)
        )
        memo.clear()
        return fresh, kept, memoized

    def test_resumed_at_the_classifier_peaks_no_higher(self, traced):
        model, x, y = traced

        def flip():
            model.fc.weight.data[0, 0] += 1.0

        fresh, _, resumed = self.peaks(model, x, y, flip)
        assert resumed <= fresh + PYTHON_OBJECTS

    def test_after_a_stem_flip_one_graph_is_alive(self, traced):
        model, x, y = traced

        def flip():
            model.stem_conv.weight.data[0, 0, 0, 0] += 1.0

        fresh, kept, rebuilt = self.peaks(model, x, y, flip)
        # The kept graph alone is over a fifth of a fresh pass's peak: a
        # pass that built the new graph beside it would overshoot by that.
        assert kept > 0.2 * fresh
        assert rebuilt <= fresh + PYTHON_OBJECTS
