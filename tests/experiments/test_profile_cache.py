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

    def test_profile_key_keeps_retired_bfa_fields(self, tmp_path):
        """``BfaConfig``'s retired fields stay in the key, each at the
        one value it ever took, so keys from before their removal still
        match."""
        from repro.attacks.profile import ProfileResult
        from repro.experiments import TrialContext

        configs = []

        class RecordingCache(ProfileCache):
            def load(self, spec, attack_config, compute):
                configs.append(attack_config["config"])
                return ProfileResult()

        ctx = TrialContext(
            scenario="t", trial_index=0, seed=0,
            profile_cache=RecordingCache(tmp_path),
        )
        ctx.profile(
            "resnet20_cifar", None, None, None, rounds=2,
            config=BfaConfig(max_iterations=8, exact_eval_top=4),
        )
        assert configs == [{
            "max_iterations": 8,
            "stop_accuracy": None,
            "exact_eval_top": 4,
            "eval_batch_size": 256,
            "min_estimated_gain": 0.0,
            "grad_batch_size": None,
            "fast_scoring": True,
        }]

    def test_retired_fields_never_shadow_live_ones(self):
        """The retired constants are merged over ``asdict(config)``: a
        live field of the same name would be silently overwritten in the
        key, so two different searches would share one profile."""
        import dataclasses

        from repro.experiments.runner import _RETIRED_BFA_FIELDS

        live = {field.name for field in dataclasses.fields(BfaConfig)}
        assert live.isdisjoint(_RETIRED_BFA_FIELDS)

    def test_registry_profile_key_is_pinned(
        self, tmp_path, fresh_model, quantized_factory, tiny_dataset
    ):
        """The dnn-defender registry inputs must keep hashing to the key
        recorded before ``BfaConfig`` lost a field, so profile caches
        filled by earlier checkouts stay warm.  The builder reaches the
        same key on a logical context and on a DRAM deployment, so both
        paths share one profile entry."""
        from repro.attacks.profile import ProfileResult
        from repro.core import DefendedDeployment
        from repro.defenses import DefenseContext, build_defense
        from repro.dram import DramGeometry, TimingParams
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
        build_defense(
            "dnn-defender",
            DefenseContext(
                qmodel=quantized_factory(), dataset=tiny_dataset, seed=0,
                trial=ctx, preset_name="resnet20_cifar",
            ),
        )
        DefendedDeployment.build(
            fresh_model, tiny_dataset,
            geometry=DramGeometry(
                banks=2, subarrays_per_bank=4, rows_per_subarray=64,
                row_bytes=128,
            ),
            timing=TimingParams(t_rh=1000),
            trial=ctx, preset_name="resnet20_cifar",
            defense_params={"profile_rounds": 4},
        )
        assert keys == [
            "b5336cb1cd4f3c086cb43f72196e11b8e747354683f9b8b258652d7b807cec89"
        ] * 3
