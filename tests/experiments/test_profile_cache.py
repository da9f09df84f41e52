"""Attack-profile disk cache: cached vs fresh profiles are identical."""

import numpy as np
import pytest

from repro.attacks.bfa import BfaConfig
from repro.attacks.profile import profile_vulnerable_bits
from repro.experiments import ProfileCache
from repro.experiments.cache import default_profile_root
from repro.presets import preset_spec

SPEC = preset_spec(
    "resnet20_cifar", width_scale=0.25, n_train=192, n_test=96, epochs=2,
    min_accuracy=0.0,
)
ATTACK_CONFIG = {"rounds": 2, "config": {"max_iterations": 3}, "extra": {}}


def _compute_profile(qmodel, dataset):
    rng = np.random.default_rng(5)
    x, y = dataset.attack_batch(48, rng)
    return profile_vulnerable_bits(
        qmodel, x, y, rounds=2,
        config=BfaConfig(max_iterations=3, exact_eval_top=2),
    )


class TestProfileCache:
    def test_cached_equals_fresh(self, tmp_path, quantized_factory,
                                 tiny_dataset):
        cache = ProfileCache(tmp_path)
        fresh = _compute_profile(quantized_factory(), tiny_dataset)
        stored = cache.load(
            SPEC, ATTACK_CONFIG,
            lambda: _compute_profile(quantized_factory(), tiny_dataset),
        )
        assert cache.misses == 1
        assert stored.rounds == fresh.rounds
        assert stored.all_bits == fresh.all_bits

        def explode():
            raise AssertionError("cache hit must not recompute")

        warm = ProfileCache(tmp_path).load(SPEC, ATTACK_CONFIG, explode)
        assert warm.rounds == fresh.rounds
        assert warm.bits_up_to_round(1) == fresh.bits_up_to_round(1)

    def test_memo_hit_in_process(self, tmp_path, quantized_factory,
                                 tiny_dataset):
        cache = ProfileCache(tmp_path)
        cache.load(
            SPEC, ATTACK_CONFIG,
            lambda: _compute_profile(quantized_factory(), tiny_dataset),
        )
        cache.load(SPEC, ATTACK_CONFIG, lambda: 1 / 0)
        assert cache.hits == 1 and cache.misses == 1

    def test_key_distinguishes_attack_configs(self, tmp_path):
        cache = ProfileCache(tmp_path)
        other = dict(ATTACK_CONFIG, rounds=3)
        assert cache.key_for(SPEC, ATTACK_CONFIG) != cache.key_for(SPEC, other)
        assert (
            cache.path_for(SPEC, ATTACK_CONFIG)
            != cache.path_for(SPEC, other)
        )

    def test_empty_profile_round_trips(self, tmp_path):
        from repro.attacks.profile import ProfileResult

        cache = ProfileCache(tmp_path)
        stored = cache.load(SPEC, ATTACK_CONFIG, ProfileResult)
        assert stored.rounds == []
        warm = ProfileCache(tmp_path).load(SPEC, ATTACK_CONFIG, lambda: 1 / 0)
        assert warm.rounds == []

    def test_clear(self, tmp_path, quantized_factory, tiny_dataset):
        cache = ProfileCache(tmp_path)
        cache.load(
            SPEC, ATTACK_CONFIG,
            lambda: _compute_profile(quantized_factory(), tiny_dataset),
        )
        assert len(cache.entries()) == 1
        assert cache.clear() == 1
        assert cache.entries() == []

    def test_default_root_nests_under_cache_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert default_profile_root() == tmp_path / "profiles"

    def test_profile_dir_env_pins_root_exactly(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_PROFILE_DIR", str(tmp_path / "pinned"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ignored"))
        assert default_profile_root() == tmp_path / "pinned"


class TestTrialContextIntegration:
    def test_context_uses_provided_cache_memo(self, tmp_path, monkeypatch):
        """run_scenario threads one ProfileCache through all trials, so
        repeated ctx.profile calls must hit its in-process memo."""
        from repro.attacks import profile as profile_module
        from repro.attacks.profile import ProfileResult
        from repro.experiments import TrialContext

        calls = []

        def fake_profile(qmodel, x, y, rounds, config=None):
            calls.append(rounds)
            return ProfileResult()

        monkeypatch.setattr(
            profile_module, "profile_vulnerable_bits", fake_profile
        )
        cache = ProfileCache(tmp_path)
        ctx = TrialContext(
            scenario="t", trial_index=0, seed=0, profile_cache=cache
        )
        kwargs = dict(rounds=2, extra_key={"seed": 0})
        ctx.profile("resnet20_cifar", None, None, None, **kwargs)
        ctx.profile("resnet20_cifar", None, None, None, **kwargs)
        assert calls == [2]  # second call served from the shared memo
        assert cache.hits == 1 and cache.misses == 1

    def test_registry_profile_key_is_pinned(self, tmp_path):
        """The dnn-defender registry inputs must keep hashing to the key
        recorded before ``BfaConfig`` lost a field, so profile caches
        filled by earlier checkouts stay warm."""
        from repro.attacks.profile import ProfileResult
        from repro.experiments import TrialContext

        keys = []

        class RecordingCache(ProfileCache):
            def load(self, spec, attack_config, compute):
                keys.append(self.key_for(spec, attack_config))
                return ProfileResult()

        ctx = TrialContext(
            scenario="t", trial_index=0, seed=0,
            profile_cache=RecordingCache(tmp_path),
        )
        ctx.profile(
            "resnet20_cifar", None, None, None, rounds=4,
            config=BfaConfig(max_iterations=8, exact_eval_top=4),
            extra_key={
                "attack_batch": 96, "seed": 0, "purpose": "defense-registry",
            },
        )
        assert keys == [
            "b5336cb1cd4f3c086cb43f72196e11b8e747354683f9b8b258652d7b807cec89"
        ]
