"""The search's gradient memo: same search, one graph, gone when it ends.

:meth:`BitFlipAttack.steps` keeps its last gradient pass in a
:class:`GradientMemo`.  A search with it must attempt exactly what a
search without it attempts, and no tensor of its graph, nor the columns
its convolutions keep, may outlive the search, however the search ends:
a freed convolution's columns may only wait in the scratch pool.  After a pass that ran nothing, a step
keeps the last step's champions and exact losses: it must rank only the
tried bit's layer and evaluate at most one candidate, and rank and
evaluate everything after any change.
"""

import gc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import LogicalDefenseExecutor
from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.nn import BatchNorm2d, QuantizedModel, functional, make_resnet20
from repro.nn.quant import BitLocation
from repro.nn.tensor import Tensor, is_grad_enabled


class FreshPassAttack(BitFlipAttack):
    """Oracle: every gradient pass runs from scratch, without a memo."""

    def _select_flip(self, memo=None):
        return super()._select_flip(None)


class ExecutorFault(Exception):
    pass


class FaultyExecutor:
    """Lets ``fail_after`` flips land, then raises."""

    def __init__(self, qmodel, fail_after):
        self.qmodel = qmodel
        self.fail_after = fail_after

    def execute(self, location):
        if self.fail_after == 0:
            raise ExecutorFault(location)
        self.fail_after -= 1
        self.qmodel.flip_bit(location)
        return True


class SpiedAttack(BitFlipAttack):
    """Logs, per search step, the layers it ranked, how many of them had
    a candidate and how many exact evaluations it ran."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log: list[SimpleNamespace] = []

    def _select_flip(self, memo=None):
        self.log.append(SimpleNamespace(ranked=[], found=0, evaluated=0))
        return super()._select_flip(memo)

    def _layer_best_candidate(self, layer_index):
        candidate = super()._layer_best_candidate(layer_index)
        self.log[-1].ranked.append(layer_index)
        self.log[-1].found += candidate is not None
        return candidate

    def _candidate_loss(self, location, inputs):
        self.log[-1].evaluated += 1
        return super()._candidate_loss(location, inputs)


def _location(qmodel, flat):
    """The bit at ``flat`` modulo the model's bits, layer by layer."""
    flat %= qmodel.total_bits
    for layer_index, layer in enumerate(qmodel.layers):
        if flat < layer.num_weights * 8:
            return BitLocation(layer_index, flat // 8, flat % 8)
        flat -= layer.num_weights * 8
    raise AssertionError("unreachable")


class MixedExecutor:
    """Cycles through ``kinds`` of attempt:

    * ``land``: the flip lands;
    * ``block``: nothing changes;
    * ``collateral``: blocked, but the next bit of ``collateral`` flips;
    * ``buffer``: blocked, after entry ``buffer`` of a batch norm's
      running variance is changed and restored in place.
    """

    def __init__(self, qmodel, kinds, collateral, buffer):
        self.qmodel = qmodel
        self.kinds = kinds
        self.collateral = [_location(qmodel, flat) for flat in collateral]
        norms = [m for m in qmodel.model.modules() if isinstance(m, BatchNorm2d)]
        norm = norms[buffer % len(norms)]
        self.buffer = (norm.running_var, buffer % norm.num_features)
        self.log: list[str] = []

    def execute(self, location):
        kind = self.kinds[len(self.log) % len(self.kinds)]
        self.log.append(kind)
        if kind == "land":
            self.qmodel.flip_bit(location)
            return True
        if kind == "collateral":
            self.qmodel.flip_bit(
                self.collateral[len(self.log) % len(self.collateral)]
            )
        elif kind == "buffer":
            array, entry = self.buffer
            saved = array[entry]
            array[entry] = saved * 2 + 1
            array[entry] = saved
        return False


def _qmodel():
    return QuantizedModel(
        make_resnet20(num_classes=10, width_scale=0.25, seed=3).eval()
    )


def _attack(dataset, qmodel=None, config=None, **kwargs):
    x, y = dataset.attack_batch(32, np.random.default_rng(5))
    return BitFlipAttack(
        qmodel or _qmodel(), x, y,
        config=config or BfaConfig(max_iterations=4, exact_eval_top=3),
        **kwargs,
    )


@pytest.fixture
def graphs(monkeypatch):
    """Weak references to the array of every tensor of every gradient
    pass's graph, parameters aside, taken as each pass builds its loss,
    and to the column buffer each of its convolutions gathered into.  A
    tensor that survives keeps its array alive, and a convolution node
    its columns."""
    refs: dict[str, list[weakref.ref]] = {"graph arrays": [], "columns": []}
    cross_entropy, gather = functional.cross_entropy, functional._im2col_into

    def spy(logits, targets):
        loss = cross_entropy(logits, targets)
        if is_grad_enabled():
            refs["graph arrays"].extend(
                weakref.ref(t.data) for t in loss.graph()
                if type(t) is Tensor
            )
        return loss

    def spied_gather(*args, **kwargs):
        cols = gather(*args, **kwargs)    # a view of the filled buffer
        if is_grad_enabled():
            refs["columns"].append(weakref.ref(cols.base))
        return cols

    monkeypatch.setattr(functional, "cross_entropy", spy)
    monkeypatch.setattr(functional, "_im2col_into", spied_gather)
    return refs


def assert_all_gone(refs):
    gc.collect()
    pooled = {id(a) for free in functional._POOL._free.values() for a in free}
    for kind, recorded in refs.items():
        assert recorded, f"no {kind} were recorded"
        alive = [
            ref() for ref in recorded
            if ref() is not None
            and not (kind == "columns" and id(ref()) in pooled)
        ]
        assert not alive, f"{len(alive)} of {len(recorded)} {kind} survive"


class TestSameSearch:
    @pytest.mark.parametrize("blocked", [False, True])
    def test_memo_search_matches_fresh_passes(self, blocked, tiny_dataset):
        """With every other flip blocked, half the passes reuse the last
        one whole; the others resume mid-network."""

        def attempts(cls):
            qmodel = _qmodel()
            probe = _attack(tiny_dataset, qmodel)
            executor = None
            if blocked:
                secured = {a.location for a in list(probe.steps())[::2]}
                qmodel = _qmodel()
                executor = LogicalDefenseExecutor(qmodel, secured)
            attack = cls(
                qmodel, probe.attack_x, probe.attack_y,
                config=BfaConfig(max_iterations=6, exact_eval_top=3),
                executor=executor,
            )
            return [
                (a.location, a.estimated_gain, a.succeeded)
                for a in attack.steps()
            ]

        memoized = attempts(BitFlipAttack)
        assert memoized == attempts(FreshPassAttack)
        assert any(not succeeded for *_, succeeded in memoized) == blocked


class TestGraphLifetime:
    def test_gone_when_the_search_finishes(self, graphs, tiny_dataset):
        assert len(list(_attack(tiny_dataset).steps())) == 4
        assert_all_gone(graphs)

    def test_gone_after_an_early_stop(self, graphs, tiny_dataset):
        config = BfaConfig(max_iterations=4, exact_eval_top=3,
                           stop_accuracy=1.0)
        steps = list(_attack(tiny_dataset, config=config).steps())
        assert len(steps) == 1   # every accuracy is <= 1.0
        assert_all_gone(graphs)

    def test_gone_when_the_generator_is_closed(self, graphs, tiny_dataset):
        steps = _attack(tiny_dataset).steps()
        next(steps)
        next(steps)
        steps.close()
        assert_all_gone(graphs)

    def test_gone_after_the_executor_raises(self, graphs, tiny_dataset):
        qmodel = _qmodel()
        attack = _attack(
            tiny_dataset, qmodel, executor=FaultyExecutor(qmodel, 2)
        )
        steps = attack.steps()
        assert len([next(steps), next(steps)]) == 2
        with pytest.raises(ExecutorFault) as raised:
            next(steps)
        # A caller that keeps the exception keeps the search's frame.
        assert raised.traceback
        assert_all_gone(graphs)

    def test_a_second_attack_runs_a_full_first_forward(self, tiny_dataset):
        """Memos are per search: a new attack on the same state and batch
        starts from the stem, not from what the last search kept."""
        qmodel = _qmodel()
        ran: list[int] = []
        links = qmodel.model.segments()

        def spied(index, fn):
            def run(x):
                if is_grad_enabled():
                    ran.append(index)
                return fn(x)
            return run

        spied_links = [(spied(i, fn), m) for i, (fn, m) in enumerate(links)]
        qmodel.model.segments = lambda: list(spied_links)
        snapshot = qmodel.snapshot()
        first = _attack(tiny_dataset, qmodel).steps()
        next(first)
        qmodel.restore(snapshot)
        ran.clear()
        second = _attack(tiny_dataset, qmodel).steps()
        next(second)
        assert ran == list(range(len(links)))
        first.close()
        second.close()


class TestBlockedStepReuse:
    @pytest.fixture(scope="class")
    def attack_batch(self, tiny_dataset):
        return tiny_dataset.attack_batch(32, np.random.default_rng(5))

    @settings(max_examples=12, deadline=None)
    @given(
        kinds=st.lists(
            st.sampled_from(["land", "block", "collateral", "buffer"]),
            min_size=1, max_size=6,
        ),
        collateral=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=3),
        buffer=st.integers(0, 1 << 10),
        skip=st.lists(st.integers(0, 1 << 20), max_size=24),
        skip_bit_positions=st.sets(st.integers(0, 7), max_size=2),
        top=st.integers(1, 4),
    )
    def test_same_search_and_only_the_tried_layer_redone(
        self, attack_batch, kinds, collateral, buffer, skip,
        skip_bit_positions, top,
    ):
        """A search keeping its last step's champions and losses picks
        what fresh-pass searches pick, ranks only the tried layer and
        evaluates at most one candidate after a blocked attempt that
        changed nothing, redoes everything after any change, and leaves
        nothing kept for the next search."""
        x, y = attack_batch
        config = BfaConfig(max_iterations=7, exact_eval_top=top)

        def search(cls):
            qmodel = _qmodel()
            executor = MixedExecutor(qmodel, kinds, collateral, buffer)
            attack = cls(
                qmodel, x, y, config=config, executor=executor,
                skip={_location(qmodel, flat) for flat in skip},
                skip_bit_positions=frozenset(skip_bit_positions),
            )
            attempts = [
                (a.location, a.estimated_gain, a.succeeded)
                for a in attack.steps()
            ]
            weights = [layer.weight_int.tobytes() for layer in qmodel.layers]
            return attack, executor, attempts, weights

        attack, executor, attempts, weights = search(SpiedAttack)
        assert (attempts, weights) == search(FreshPassAttack)[2:]
        assert not attack._champions and not attack._losses

        layers = list(range(attack.qmodel.num_layers))
        for step, spied in enumerate(attack.log):
            if step and executor.log[step - 1] in ("block", "buffer"):
                assert spied.ranked == [attempts[step - 1][0].layer]
                assert spied.evaluated <= 1
            else:
                assert spied.ranked == layers
                assert spied.evaluated == min(top, spied.found)

        second = SpiedAttack(
            attack.qmodel, x, y, config=config, executor=executor
        )
        steps = second.steps()
        next(steps, None)
        steps.close()
        (spied,) = second.log
        assert spied.ranked == layers
        assert spied.evaluated == min(top, spied.found)
