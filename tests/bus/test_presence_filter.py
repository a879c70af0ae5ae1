"""The presence-filtered snoop window is equivalent to broadcast.

The snoopy buses skip a wrapper whose master does not hold the
address-phase line: that probe would have been a MISS answered OK with
no state change, stat bump or trace record.  These tests run the same
platform with the filter on (as built) and off (``Wrapper`` reverted to
an unfiltered snooper) and require every observable to match, and check
that unfiltered snoopers still see every address phase.
"""

import pytest

from repro.bus import BusOp, Snooper, SnoopReply, Transaction
from repro.cache.array import CacheGeometry
from repro.cache.controller import CacheController
from repro.cache.protocols import make_protocol
from repro.core.platform import Platform, PlatformConfig
from repro.core.wrapper import Wrapper
from repro.cpu.presets import preset_generic
from repro.errors import ConfigError
from repro.faults import FaultSpec
from repro.fuzz.case import build_workload
from repro.workloads.microbench import MicrobenchSpec, build_programs, make_platform
from repro.workloads.tracegen import replay_parallel

#: every channel the platform components emit on
ALL_CHANNELS = ("bus", "cache", "irq", "mem", "core")
PROTOCOL_CYCLE = ("MESI", "MOESI", "MSI", "MEI")


def _mixed_platform(n, fabric="atomic", protocols=PROTOCOL_CYCLE, **overrides):
    cores = tuple(
        preset_generic(f"p{i}", protocols[i % len(protocols)]) for i in range(n)
    )
    config = dict(
        cores=cores,
        hardware_coherence=True,
        arbitration="round-robin",
        drain_policy="window",
        fabric=fabric,
        trace_channels=ALL_CHANNELS,
    )
    config.update(overrides)
    return Platform(PlatformConfig(**config))


def _run_contended(fabric, n=16, protocols=PROTOCOL_CYCLE):
    platform = _mixed_platform(n, fabric, protocols)
    _mode, traces = build_workload(
        {"kind": "hotspot", "procs": n, "n": 100, "footprint_words": 64, "seed": 5}
    )
    elapsed = replay_parallel(platform, traces).elapsed_ns
    return platform, elapsed


def _run_pf2():
    # The worst case keeps both tasks on one block, so the ARM920T's
    # snoop logic hits and its nFIQ service routine runs.
    spec = MicrobenchSpec(
        scenario="wcs", solution="proposed", lines=8, exec_time=2,
        iterations=10, seed=3,
    )
    platform = make_platform(spec, trace_channels=ALL_CHANNELS)
    platform.load_programs(build_programs(spec, platform))
    elapsed = platform.run(max_events=500_000)
    return platform, elapsed


def _observables(platform, elapsed):
    lines = {
        controller.name: sorted(
            (base, line.state, tuple(line.data))
            for base, line in controller.array.valid_lines()
        )
        for controller in platform.controllers
    }
    return {
        "stats": platform.stats.as_dict(),
        "elapsed_ns": elapsed,
        "lines": lines,
        "trace": list(platform.tracer.records),
    }


def _counted_run(monkeypatch, run, filtered):
    """Run with the filter on or off; also count ``Wrapper.snoop`` calls."""
    monkeypatch.setattr(Wrapper, "presence_filtered", filtered)
    calls = []
    snoop = Wrapper.snoop

    def counting_snoop(self, txn):
        calls.append(txn)
        return snoop(self, txn)

    monkeypatch.setattr(Wrapper, "snoop", counting_snoop)
    observed = _observables(*run())
    monkeypatch.undo()
    return observed, len(calls)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(lambda: _run_contended("atomic"), id="16-mixed-atomic"),
        pytest.param(lambda: _run_contended("split"), id="16-mixed-split"),
        pytest.param(_run_pf2, id="pf2-ppc755-arm920t"),
        # Identity wrappers: shared copies and cache-to-cache supply.
        pytest.param(
            lambda: _run_contended("atomic", n=8, protocols=("MOESI",)),
            id="8-moesi-atomic",
        ),
        # Word-addressed UPDATE broadcasts: the filter must key on the
        # line base, not the raw address.
        pytest.param(
            lambda: _run_contended("atomic", n=4, protocols=("DRAGON",)),
            id="4-dragon-atomic",
        ),
    ],
)
def test_filtered_window_matches_broadcast(monkeypatch, run):
    filtered, filtered_probes = _counted_run(monkeypatch, run, True)
    broadcast, broadcast_probes = _counted_run(monkeypatch, run, False)
    assert filtered["trace"], "every channel on, yet nothing was traced"
    assert filtered["stats"] == broadcast["stats"]
    assert filtered["elapsed_ns"] == broadcast["elapsed_ns"]
    assert filtered["lines"] == broadcast["lines"]
    assert filtered["trace"] == broadcast["trace"]
    # The filter must actually have skipped probes.
    assert filtered_probes < broadcast_probes


class CountingSnooper(Snooper):
    """An unfiltered snooper that counts what the bus shows it."""

    def __init__(self, name):
        self.master_name = name
        self.snooped = []
        self.observed = []

    def snoop(self, txn):
        self.snooped.append(txn.master)
        return SnoopReply.OK

    def observe(self, txn):
        self.observed.append(txn.master)


def _address_phases(platform):
    return [r.source for r in platform.tracer.find("bus", "address-phase")]


def _contend(platform, seed=9):
    _mode, traces = build_workload(
        {"kind": "hotspot", "procs": 4, "n": 40, "footprint_words": 32, "seed": seed}
    )
    replay_parallel(platform, traces)


class TestUnfilteredSnoopers:
    def test_stub_snooper_sees_every_foreign_address_phase(self):
        platform = _mixed_platform(4, trace_channels=("bus",))
        stub = CountingSnooper("p1")
        platform.bus.attach_snooper(stub)
        _contend(platform)
        phases = _address_phases(platform)
        foreign = [master for master in phases if master != "p1"]
        assert len(foreign) < len(phases)
        assert stub.snooped == foreign
        assert stub.observed == phases

    def test_fault_proxy_with_a_dormant_trigger_sees_every_phase(self):
        spec = FaultSpec("snoop.silent", master="p1", count=None, probability=0.0)
        platform = _mixed_platform(4, trace_channels=("bus",), faults=(spec,))
        _contend(platform)
        (injector,) = platform.fault_engine.injectors
        assert injector.fires == 0
        foreign = [master for master in _address_phases(platform) if master != "p1"]
        assert injector.trigger.occasions == len(foreign)


class TestRegistration:
    def test_mixed_line_sizes_are_refused(self):
        platform = _mixed_platform(2)
        bus = platform.bus
        odd = CacheController(
            "odd", platform.sim, bus, platform.map,
            CacheGeometry(4096, 64, 4), make_protocol("MESI"),
        )
        with pytest.raises(ConfigError, match="one line size"):
            bus.register_master("odd", odd)

    def test_reregistering_a_controller_is_a_no_op(self):
        platform = _mixed_platform(2)
        controller = platform.controllers[0]
        listeners = len(controller.install_listeners)
        platform.bus.register_master("p0", controller)
        assert len(controller.install_listeners) == listeners

    def test_a_second_controller_under_one_name_is_refused(self):
        platform = _mixed_platform(2)
        with pytest.raises(ConfigError, match="registered twice"):
            platform.bus.register_master("p0", platform.controllers[1])

    def test_unheld_line_skips_every_wrapper(self):
        platform = _mixed_platform(4)
        replies = platform.bus._snoop_window(
            Transaction(BusOp.READ_LINE, 0x2000_0000, "p0", line_words=8)
        )
        assert replies == []
