"""Registry resolution: built-in catalogue, lookup errors, registration."""

import pytest

from repro.experiments import (
    Scenario,
    get_scenario,
    iter_scenarios,
    register,
    scenario_names,
    unregister,
)


class TestBuiltinCatalogue:
    def test_all_paper_scenarios_registered(self):
        names = scenario_names()
        for expected in (
            "fig1a", "fig1b", "fig6", "fig8a", "fig8b",
            "fig9a", "fig9b", "fig9c",
            "table2", "table3", "power", "ablation", "semi-whitebox",
            "sweep-attack-trh", "sweep-hammer-rate",
            "sweep-refresh-trh",
        ):
            assert expected in names

    def test_catalogue_is_at_least_eight(self):
        assert len(scenario_names()) >= 8

    def test_get_scenario_resolves(self):
        spec = get_scenario("fig8a")
        assert spec.name == "fig8a"
        assert spec.deterministic
        assert callable(spec.trial_fn)

    def test_unknown_name_lists_catalogue(self):
        with pytest.raises(KeyError, match="fig8a"):
            get_scenario("fig99z")

    def test_preset_scenarios_declare_presets(self):
        assert get_scenario("fig9a").presets == ("vgg11_cifar",)
        assert get_scenario("table3").presets == ("resnet20_cifar",)

    def test_tag_filter(self):
        sweeps = [s.name for s in iter_scenarios(tag="sweep")]
        assert "sweep-hammer-rate" in sweeps
        assert "fig1a" not in sweeps


class TestRegistration:
    def test_register_and_unregister(self):
        spec = Scenario(name="toy-registry-test", trial_fn=lambda ctx: {})
        register(spec)
        try:
            assert get_scenario("toy-registry-test") is spec
        finally:
            unregister("toy-registry-test")
        with pytest.raises(KeyError):
            get_scenario("toy-registry-test")

    def test_duplicate_name_rejected(self):
        spec = Scenario(name="toy-duplicate-test", trial_fn=lambda ctx: {})
        register(spec)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register(Scenario(name="toy-duplicate-test",
                                  trial_fn=lambda ctx: {}))
        finally:
            unregister("toy-duplicate-test")

    def test_trial_payload_must_be_dict_of_scalars(self):
        bad_type = Scenario(name="toy-bad", trial_fn=lambda ctx: [1, 2])
        with pytest.raises(TypeError, match="expected dict"):
            bad_type.run_trial(None)
        bad_metric = Scenario(
            name="toy-bad",
            trial_fn=lambda ctx: {"metrics": {"xs": [1, 2]}},
        )
        with pytest.raises(TypeError, match="must be scalars"):
            bad_metric.run_trial(None)
