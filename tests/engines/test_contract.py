"""The engine contract: registry soundness, capabilities, selection.

These tests pin the *shape* of the model/engine split — the registry
covers exactly ``platform.ENGINE_NAMES``, every engine implements the
full :class:`ISimEngine` surface, capability flags say what each
engine actually promises, and configuration-time selection rejects
engines that cannot do what was asked of them.
"""

import pytest

from repro.core.platform import (
    ENGINE_NAMES,
    KERNEL_ENGINES,
    Platform,
    PlatformConfig,
)
from repro.cpu.presets import preset_generic
from repro.engines import (
    EngineCapabilities,
    ISimEngine,
    engine_fingerprint,
    engine_names,
    get_engine,
)
from repro.engines.registry import register_engine
from repro.errors import ConfigError


def _two_mesi():
    return PlatformConfig(
        cores=(preset_generic("p0", "MESI"), preset_generic("p1", "MESI")),
        hardware_coherence=True,
    )


class TestRegistry:
    def test_registry_covers_the_platform_vocabulary_exactly(self):
        assert tuple(engine_names()) == ENGINE_NAMES

    def test_kernel_engines_are_a_subset(self):
        assert set(KERNEL_ENGINES) <= set(ENGINE_NAMES)
        assert "batch" not in KERNEL_ENGINES

    def test_unknown_engine_is_a_config_error(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            get_engine("interpretive-dance")

    def test_duplicate_registration_is_rejected(self):
        class Impostor(ISimEngine):
            name = "exact"
            version = 99

            def capabilities(self):  # pragma: no cover - never called
                return EngineCapabilities(True, True, True)

            def run(self, config, accesses):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ConfigError, match="duplicate"):
            register_engine(Impostor)
        # The real engine is still the registered one.
        assert get_engine("exact").version != 99


class TestSurface:
    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_engine_implements_the_full_surface(self, name):
        engine = get_engine(name)
        assert isinstance(engine, ISimEngine)
        assert engine.name == name
        assert isinstance(engine.version, int) and engine.version >= 1
        assert isinstance(engine.capabilities(), EngineCapabilities)

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_fingerprint_carries_cache_key_identity(self, name):
        fp = engine_fingerprint(name)
        assert fp["name"] == name
        assert fp["version"] == get_engine(name).version

    def test_capability_flags_match_the_documented_promises(self):
        exact = get_engine("exact").capabilities()
        assert exact.trace_exact and exact.timing and exact.concurrent
        batch = get_engine("batch").capabilities()
        assert not batch.trace_exact
        assert not batch.timing
        assert not batch.concurrent

    def test_lint_surface_validation_is_clean(self):
        from repro.lint.engine_contract import validate_engine_surface

        assert validate_engine_surface() == []


class TestSelection:
    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            PlatformConfig(
                cores=(preset_generic("p0", "MESI"),), engine="warp"
            )

    def test_platform_rejects_statistics_only_engines(self):
        config = PlatformConfig(
            cores=(preset_generic("p0", "MESI"),
                   preset_generic("p1", "MESI")),
            hardware_coherence=True,
            engine="batch",
        )
        with pytest.raises(ConfigError, match="event kernel"):
            Platform(config)

    @pytest.mark.parametrize("engine", KERNEL_ENGINES)
    def test_platform_accepts_kernel_engines(self, engine):
        config = PlatformConfig(
            cores=(preset_generic("p0", "MESI"),
                   preset_generic("p1", "MESI")),
            hardware_coherence=True,
            engine=engine,
        )
        assert Platform(config).config.engine == engine

    def test_default_engine_is_exact(self):
        assert _two_mesi().engine == "exact"
