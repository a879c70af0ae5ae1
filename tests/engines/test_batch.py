"""Batch-engine edges: rejections and value semantics.

The batch engine refuses configurations it cannot replay faithfully
(fault injection, non-coherent masters) instead of producing silently
wrong statistics.
"""

import pytest

from repro.core import LOCK_BASE, SHARED_BASE
from repro.core.platform import PlatformConfig
from repro.cpu.presets import preset_arm920t, preset_generic
from repro.engines import get_engine
from repro.errors import ConfigError
from repro.faults import FaultSpec
from repro.workloads.tracegen import TraceAccess


def _two_mesi(**overrides):
    return PlatformConfig(
        cores=(preset_generic("p0", "MESI"), preset_generic("p1", "MESI")),
        hardware_coherence=True,
        **overrides,
    )


class TestRejections:
    def test_fault_injection_is_refused(self):
        config = _two_mesi(faults=(FaultSpec(site="drain.drop"),))
        with pytest.raises(ConfigError, match="fault injection"):
            get_engine("batch").run(config, [])

    def test_non_coherent_masters_are_refused(self):
        config = PlatformConfig(
            cores=(preset_generic("p0", "MESI"), preset_arm920t("p1")),
            hardware_coherence=True,
        )
        with pytest.raises(ConfigError, match="coherent masters only"):
            get_engine("batch").run(config, [])

    def test_out_of_range_processor_is_refused(self):
        access = TraceAccess(7, "read", SHARED_BASE, None)
        with pytest.raises(ConfigError, match="processor"):
            get_engine("batch").run(_two_mesi(), [access])

    def test_unmapped_address_is_refused(self):
        access = TraceAccess(0, "read", 0xDEAD_0000_0000, None)
        with pytest.raises(ConfigError, match="unmapped"):
            get_engine("batch").run(_two_mesi(), [access])


class TestValueSemantics:
    def test_reads_writes_and_swaps(self):
        word = SHARED_BASE + 0x40
        lock = LOCK_BASE  # uncached: atomic exchange is only legal here
        accesses = [
            TraceAccess(0, "read", word, None),       # reset value
            TraceAccess(0, "write", word, 111),
            TraceAccess(1, "read", word, None),       # sees p0's store
            TraceAccess(1, "swap", lock, 1),          # returns pre-swap
            TraceAccess(0, "swap", lock, 1),          # sees p1's claim
            TraceAccess(0, "read", word, None),       # cached value again
        ]
        result = get_engine("batch").run(_two_mesi(), accesses)
        assert result.values == [0, None, 111, 0, 1, 111]
        assert result.accesses == 6
        # Statistics-only engine: no kernel, no simulated time.
        assert result.events == 0
        assert result.elapsed_ns == 0

    def test_empty_trace_runs(self):
        result = get_engine("batch").run(_two_mesi(), [])
        assert result.accesses == 0
        assert result.values == []

