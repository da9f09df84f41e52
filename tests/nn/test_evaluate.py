"""``evaluate()``: its input checks and its process-wide accuracy memo.

Every call must return what a forward returns (the oracle below reads
the logits itself, past the memo) and run a forward exactly when its
(model state, data) pair is new to the process.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.attacks.executor import LogicalDefenseExecutor
from repro.attacks.protocol import replay
from repro.attacks.random_attack import sample_random_bits
from repro.defenses.software.binarize import binarize_ste
from repro.nn import BatchNorm2d, Conv2d, Linear, evaluate, make_resnet20
from repro.nn import train

predict_logits = train.predict_logits


def oracle(model, x, y, batch_size):
    logits = predict_logits(model, x, batch_size)
    return float((logits.argmax(1) == y).mean())


@contextlib.contextmanager
def counted_forwards():
    """Yields a list that gains an entry for each forward ``evaluate`` runs."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return predict_logits(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(train, "predict_logits", spy)
        yield calls


def build(kind, seed, n=12):
    from tests.conftest import make_tiny_model

    model = (
        make_tiny_model(seed) if kind == "tiny"
        else make_resnet20(width_scale=0.25, seed=seed)
    )
    rng = np.random.default_rng(seed)
    for module in model.modules():
        if isinstance(module, BatchNorm2d):
            c = module.num_features
            module.gamma.data[:] = rng.uniform(0.5, 1.5, c)
            module.beta.data[:] = rng.standard_normal(c)
            module.running_var[:] = rng.uniform(0.5, 2.0, c)
    x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 10, size=n)
    return model, x, y


def of_type(model, cls):
    return [m for m in model.modules() if isinstance(m, cls)]


# ---------------------------------------------------------------------- #
# Input checks
# ---------------------------------------------------------------------- #

class TestInputChecks:
    @pytest.fixture
    def case(self):
        return build("tiny", 0)

    def test_one_label_for_five_inputs(self, case):
        model, x, y = case
        with pytest.raises(ValueError, match="5 inputs but 1 labels"):
            evaluate(model, x[:5], y[:1])

    def test_more_labels_than_inputs(self, case):
        model, x, y = case
        with pytest.raises(ValueError, match="3 inputs but 4 labels"):
            evaluate(model, x[:3], y[:4])

    def test_labels_not_1d(self, case):
        model, x, y = case
        with pytest.raises(ValueError, match="1-D"):
            evaluate(model, x, y[:, None])

    def test_empty_inputs(self, case):
        model, x, y = case
        with pytest.raises(ValueError, match="at least one sample"):
            evaluate(model, x[:0], y[:0])

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one(self, case, batch_size):
        model, x, y = case
        with pytest.raises(ValueError, match="batch_size"):
            evaluate(model, x, y, batch_size=batch_size)


# ---------------------------------------------------------------------- #
# The memo
# ---------------------------------------------------------------------- #
#
# Each change is drawn before the base state is evaluated, and returns
# ``(apply, revert, changed)``: ``changed`` says whether ``apply`` gives
# a state other than the base.

def _set_entry(array, i, value):
    old = array[i].copy()
    new = np.asarray(value, array.dtype)

    def apply():
        array[i] = new

    def revert():
        array[i] = old

    return apply, revert, new.tobytes() != old.tobytes()


def _set_attribute(owner, name, value):
    old = getattr(owner, name)

    def apply():
        setattr(owner, name, value)

    def revert():
        setattr(owner, name, old)

    return apply, revert, repr(value) != repr(old)


def _flip_bit(model, x, y, data):
    params = list(model.parameters())
    param = params[data.draw(st.integers(0, len(params) - 1))]
    raw = param.data.reshape(-1).view(np.uint8)
    i = data.draw(st.integers(0, raw.size - 1))
    return _set_entry(raw, i, raw[i] ^ (1 << data.draw(st.integers(0, 7))))


def _set_buffer_entry(model, x, y, data):
    bn = data.draw(st.sampled_from(of_type(model, BatchNorm2d)))
    buffer = bn._buffers[data.draw(st.sampled_from(sorted(bn._buffers)))]
    i = data.draw(st.integers(0, buffer.size - 1))
    if data.draw(st.booleans()):
        buffer[i] = data.draw(st.sampled_from([0.0, -0.0]))
        return _set_entry(buffer, i, -buffer[i])    # the sign-flipped zero
    return _set_entry(buffer, i, data.draw(st.floats(-4, 4, width=32)))


def _set_eps(model, x, y, data):
    bn = data.draw(st.sampled_from(of_type(model, BatchNorm2d)))
    eps = data.draw(st.sampled_from([1e-5, 1e-3, 0.1, 2.0]))
    return _set_attribute(bn, "eps", eps)


def _set_conv_geometry(model, x, y, data):
    conv = data.draw(st.sampled_from(of_type(model, Conv2d)))
    if data.draw(st.booleans()):
        return _set_attribute(conv, "stride", data.draw(st.integers(1, 2)))
    return _set_attribute(conv, "padding", data.draw(st.integers(0, 2)))


def _set_weight_transform(model, x, y, data):
    layer = data.draw(st.sampled_from(of_type(model, (Conv2d, Linear))))
    return _set_attribute(layer, "weight_transform", binarize_ste)


def _set_input(model, x, y, data):
    flat = x.reshape(-1)
    i = data.draw(st.integers(0, flat.size - 1))
    return _set_entry(flat, i, data.draw(st.floats(-4, 4, width=32)))


def _set_label(model, x, y, data):
    i = data.draw(st.integers(0, y.size - 1))
    return _set_entry(y, i, data.draw(st.integers(0, 9)))


CHANGES = {
    "parameter bit": _flip_bit,
    "batch-norm buffer": _set_buffer_entry,
    "eps": _set_eps,
    "conv geometry": _set_conv_geometry,
    "weight_transform": _set_weight_transform,
    "input": _set_input,
    "label": _set_label,
}


class TestMemo:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["tiny", "resnet"]),
        seed=st.integers(0, 3),
        batch_size=st.integers(3, 16),
        change=st.sampled_from(sorted(CHANGES) + ["batch_size"]),
        data=st.data(),
    )
    def test_matches_a_forward_and_runs_one_only_for_a_new_state(
        self, kind, seed, batch_size, change, data
    ):
        train._ACCURACIES.clear()
        model, x, y = build(kind, seed)
        if change == "batch_size":
            new_size = data.draw(st.integers(1, 16))
            apply = revert = lambda: None
            changed = new_size != batch_size
        else:
            apply, revert, changed = CHANGES[change](model, x, y, data)
            new_size = batch_size
        base = (x.copy(), y.copy(), batch_size)
        keyed = change != "weight_transform"

        def check(args, ran):
            before = len(forwards)
            assert evaluate(model, *args) == oracle(model, *args)
            assert len(forwards) - before == ran

        # Flipped bits and drawn buffers may overflow or go negative.
        with np.errstate(all="ignore"), counted_forwards() as forwards:
            check(base, 1)
            check(base, 0)
            apply()
            try:
                oracle(model, x, y, new_size)
            except ValueError:          # the changed model no longer runs
                assume(False)
            check((x, y, new_size), int(changed or not keyed))
            check((x, y, new_size), int(not keyed))
            revert()
            check(base, 0)

    def test_a_hit_leaves_every_module_in_eval_mode(self):
        model, x, y = build("resnet", 0)
        accuracy = evaluate(model, x, y)
        model.train()
        with counted_forwards() as forwards:
            assert evaluate(model, x, y) == accuracy
        assert forwards == []
        assert not any(m.training for m in model.modules())

    def test_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(train, "_ACCURACIES_SIZE", 2)
        model, x, y = build("tiny", 2)
        a, b, c = (x[i:i + 1] for i in range(3))
        with counted_forwards() as forwards:
            for inputs in (a, b, a, c):     # the hit on a makes b the oldest
                evaluate(model, inputs, y[:1])
            assert len(forwards) == 3
            evaluate(model, a, y[:1])
            assert len(forwards) == 3
            evaluate(model, b, y[:1])
            assert len(forwards) == 4

    def test_blocked_replay_runs_one_forward(self, quantized_factory,
                                             tiny_dataset):
        """Every flip blocked: the floor is the clean state.  A second
        trial on a fresh copy of the same model runs none."""
        eval_x, eval_y = tiny_dataset.x_test[:128], tiny_dataset.y_test[:128]

        def trial():
            qmodel = quantized_factory()
            planned = sample_random_bits(qmodel, 8, np.random.default_rng(3))
            executor = LogicalDefenseExecutor(qmodel, set(planned))
            return replay("probe", qmodel, planned, executor, eval_x, eval_y)

        with counted_forwards() as forwards:
            first = trial()
            assert first.blocked == 8
            assert first.final_accuracy == first.initial_accuracy
            assert len(forwards) == 1
            second = trial()
            assert len(forwards) == 1
        assert second.final_accuracy == first.final_accuracy
        model = quantized_factory().model
        assert first.initial_accuracy == oracle(model, eval_x, eval_y, 256)
