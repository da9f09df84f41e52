"""The search's gradient memo: same search, one graph, gone when it ends.

:meth:`BitFlipAttack.steps` keeps its last gradient pass in a
:class:`GradientMemo`.  A search with it must attempt exactly what a
search without it attempts, and no tensor of its graph may outlive the
search, however the search ends.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.attacks import LogicalDefenseExecutor
from repro.attacks.bfa import BfaConfig, BitFlipAttack
from repro.nn import QuantizedModel, functional, make_resnet20
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
    pass's graph, parameters aside, taken as each pass builds its loss.
    A tensor that survives keeps its array alive."""
    refs: list[weakref.ref] = []
    cross_entropy = functional.cross_entropy

    def spy(logits, targets):
        loss = cross_entropy(logits, targets)
        if is_grad_enabled():
            refs.extend(
                weakref.ref(t.data) for t in loss.graph()
                if type(t) is Tensor
            )
        return loss

    monkeypatch.setattr(functional, "cross_entropy", spy)
    return refs


def assert_all_gone(refs):
    gc.collect()
    assert refs, "no graph was recorded"
    alive = sum(ref() is not None for ref in refs)
    assert alive == 0, f"{alive} of {len(refs)} graph arrays survive"


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
