"""The named-spec registry behind the defense and attacker registries."""

import sys
from dataclasses import dataclass

import pytest

from repro.utils.registry import Registry


@dataclass
class _Spec:
    name: str
    kind: str = "a"


def _registry() -> Registry:
    return Registry(
        "widget", builtins="repro.utils.bits",
        modules_env="REPRO_TEST_WIDGET_MODULES",
    )


class TestRegistry:
    def test_register_get_and_sorted_names(self):
        registry = _registry()
        b = registry.register(_Spec("b"))
        registry.register(_Spec("a"))
        assert registry.get("b") is b
        assert registry.names() == ["a", "b"]

    def test_duplicate_name_rejected(self):
        registry = _registry()
        registry.register(_Spec("a"))
        with pytest.raises(ValueError, match="widget 'a' is already registered"):
            registry.register(_Spec("a", kind="b"))

    def test_miss_lists_the_catalogue(self):
        registry = _registry()
        with pytest.raises(
            KeyError, match="unknown widget 'z'; registered widgets: <none>"
        ):
            registry.get("z")
        registry.register(_Spec("b"))
        registry.register(_Spec("a"))
        with pytest.raises(KeyError, match="registered widgets: a, b"):
            registry.get("z")

    def test_unregister_is_idempotent(self):
        registry = _registry()
        registry.register(_Spec("a"))
        registry.unregister("a")
        registry.unregister("a")
        assert registry.names() == []

    def test_iter_filters_by_kind_in_name_order(self):
        registry = _registry()
        for name, kind in (("c", "x"), ("a", "y"), ("b", "x")):
            registry.register(_Spec(name, kind))
        assert [s.name for s in registry.iter()] == ["a", "b", "c"]
        assert [s.name for s in registry.iter("x")] == ["b", "c"]

    def test_env_names_extra_registration_modules(
        self, monkeypatch, tmp_path
    ):
        (tmp_path / "extra_widgets_mod.py").write_text("")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv("REPRO_TEST_WIDGET_MODULES", " , extra_widgets_mod")
        try:
            assert _registry().names() == []
            assert "extra_widgets_mod" in sys.modules
        finally:
            sys.modules.pop("extra_widgets_mod", None)
