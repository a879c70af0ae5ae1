"""The exact engine: the discrete-event kernel, golden-trace identical.

A thin adapter: build the platform, drive the serialised trace through
the cache controllers one access at a time (each access completes
before the next begins, exactly like
:func:`repro.workloads.tracegen.replay_trace`), and collect the
counters plus the final line-state occupancy.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence, Tuple

from ..cache.array import CacheArray
from ..core.platform import Platform, PlatformConfig
from .interfaces import EngineCapabilities, EngineRunResult, ISimEngine
from .registry import register_engine

__all__ = ["ExactEngine", "line_state_occupancy"]


def line_state_occupancy(named_arrays: Iterable[Tuple[str, CacheArray]]) -> dict:
    """Final per-master count of valid lines by state letter.

    ``named_arrays`` yields ``(master name, cache array)`` pairs.
    """
    occupancy = {}
    for name, array in named_arrays:
        counts: dict = {}
        for _addr, line in array.valid_lines():
            key = line.state.value
            counts[key] = counts.get(key, 0) + 1
        occupancy[name] = counts
    return occupancy


@register_engine
class ExactEngine(ISimEngine):
    """The event-kernel engine (the default)."""

    name = "exact"
    version = 1

    def capabilities(self) -> EngineCapabilities:
        return EngineCapabilities(trace_exact=True, timing=True, concurrent=True)

    def run(
        self, config: PlatformConfig, accesses: Sequence
    ) -> EngineRunResult:
        platform = self._build(config)
        controllers = platform.controllers
        values: list = []

        def driver():
            for access in accesses:
                controller = controllers[access.proc]
                if access.op == "read":
                    value = yield from controller.read(access.addr)
                    values.append(value)
                elif access.op == "swap":
                    old = yield from controller.swap(access.addr, access.value)
                    values.append(old)
                else:
                    yield from controller.write(access.addr, access.value)
                    values.append(None)

        platform.sim.process(driver(), name=f"{self.name}-driver")
        # Wall time is a benchmark metric here, not simulator state:
        # simulated time is elapsed_ns (sim.now) below.
        start = time.perf_counter()  # repro: lint-ok[determinism]
        platform.sim.run(detect_deadlock=False)
        wall = time.perf_counter() - start  # repro: lint-ok[determinism]
        return EngineRunResult(
            engine=self.name,
            stats=platform.stats.as_dict(),
            accesses=len(accesses),
            events=platform.sim.events_fired,
            elapsed_ns=platform.sim.now,
            wall_s=wall,
            line_states=line_state_occupancy(
                (cfg.name, controller.array)
                for cfg, controller in zip(platform.config.cores, controllers)
            ),
            values=values,
        )

    def _build(self, config: PlatformConfig) -> Platform:
        # Normalise the tag so a config routed here by name builds a
        # kernel platform regardless of what it was tagged with.
        if config.engine != self.name:
            config = config.with_(engine=self.name)
        return Platform(config)

    def events_for(
        self, config: PlatformConfig, accesses: Sequence
    ) -> Optional[int]:
        """Kernel events the exact engine fires for this workload.

        The calibration other engines use to express their throughput
        in ``kernel_events_per_sec``-equivalent terms.
        """
        return self.run(config, accesses).events
