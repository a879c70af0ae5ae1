"""The bus presence map, on every fabric.

Every fabric keeps one map of line base -> masters whose cache holds
the line (fed by the controllers' install/remove listeners).  The
snoopy buses filter wrapper probes with it; the directory forwards
snoops by it.  After any workload it must mirror cache occupancy
exactly, with no empty holder sets left behind.
"""

import pytest

from repro.core.platform import FABRIC_NAMES, Platform, PlatformConfig
from repro.cpu.presets import preset_generic
from repro.workloads.tracegen import (
    false_sharing_traces,
    racy_traces,
    replay_parallel,
)


def _platform(fabric, n=4):
    cycle = ("MESI", "MOESI", "MSI", "MEI")
    cores = tuple(
        preset_generic(f"p{i}", cycle[i % len(cycle)]) for i in range(n)
    )
    return Platform(
        PlatformConfig(
            cores=cores,
            hardware_coherence=True,
            drain_policy="window",
            fabric=fabric,
        )
    )


def _valid_lines(platform):
    """master name -> set of valid line base addresses, from the caches."""
    return {
        cfg.name: set(controller.cached_addresses())
        for cfg, controller in zip(platform.config.cores, platform.controllers)
    }


@pytest.mark.parametrize("fabric", FABRIC_NAMES)
class TestPresence:
    def test_presence_mirrors_cache_occupancy_exactly(self, fabric):
        platform = _platform(fabric)
        traces = false_sharing_traces(40, procs=4, lines=2, seed=11)
        replay_parallel(platform, traces)
        presence = platform.bus._presence
        expected = {}
        for master, bases in _valid_lines(platform).items():
            for base in bases:
                expected.setdefault(base, set()).add(master)
        assert expected
        assert presence == expected

    def test_empty_sharer_sets_are_deleted(self, fabric):
        platform = _platform(fabric)
        traces = racy_traces(60, procs=4, footprint_words=8, seed=3)
        replay_parallel(platform, traces)
        assert platform.bus._presence
        assert all(platform.bus._presence.values())
