"""The four benchmark workloads and the checks on their outputs.

Each workload turns a seed into inputs, builds what the replay needs,
replays it once, and then checks the outputs with the clock stopped.
Only public ``repro`` calls are used, so the benchmark measures what a
user of the package runs.

A workload's constructor is its set-up, timed as ``setup_s``: input
generation (``gen_s``) plus platform build, up to the first simulated
access.  ``run`` is the timed replay; ``check`` returns the problems
found.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Optional, Sequence

from repro.cache.line import State
from repro.core.platform import SHARED_BASE, Platform, PlatformConfig
from repro.cpu.presets import preset_generic
from repro.engines import get_engine, reference_config, serialize_workload
from repro.fuzz.case import build_workload
from repro.verify.checker import CoherenceChecker
from repro.workloads.microbench import (
    MicrobenchSpec,
    build_programs,
    make_platform,
)
from repro.workloads.tracegen import TraceAccess, replay_parallel, replay_trace

_DIRTY = (State.MODIFIED, State.OWNED)
_PROTOCOL_CYCLE = ("MESI", "MOESI", "MSI", "MEI")


class Rep:
    """One prepared replay of a workload: inputs, platform, results."""

    #: names the op counted by ``ops_per_s`` for this workload
    op_unit = "accesses"
    #: the engine that replays the workload
    engine = "exact"
    #: kernel events one replay may fire before it counts as failed
    event_budget = 0

    def __init__(self):
        self.gen_s = 0.0
        self.setup_s = 0.0
        self.platform: Optional[Platform] = None
        self.stats: Dict[str, int] = {}
        self.sim_ns = 0
        self.ops = 0

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> List[str]:
        raise NotImplementedError

    @property
    def events(self) -> int:
        return self.platform.sim.events_fired if self.platform else 0

    @property
    def retired(self) -> int:
        return sum(c.retired for c in self.platform.cores) if self.platform else 0

    @property
    def isr_entries(self) -> int:
        return sum(c.isr_entries for c in self.platform.cores) if self.platform else 0

    @property
    def arbiter(self):
        return self.platform.bus.arbiter if self.platform else None

    def _platform_problems(self) -> List[str]:
        """Event budget plus the final SWMR / clean-equals-memory audit."""
        problems = []
        if self.events > self.event_budget:
            problems.append(
                f"fired {self.events} events, budget {self.event_budget}"
            )
        checker = CoherenceChecker(self.platform)
        checker.check_all_lines()
        problems.extend(str(v) for v in checker.violations)
        return problems


def sequential_oracle(
    trace: Sequence[TraceAccess], values: Sequence[Optional[int]]
) -> List[str]:
    """Every load returns the latest store to its word in trace order."""
    if len(values) != len(trace):
        return [f"{len(values)} results for {len(trace)} accesses"]
    memory: Dict[int, int] = {}
    for index, (access, value) in enumerate(zip(trace, values)):
        if access.op == "read":
            expected = memory.get(access.addr, 0)
            if value != expected:
                return [
                    f"access {index}: p{access.proc} read {value!r} at "
                    f"0x{access.addr:08x}, latest store wrote {expected}"
                ]
        else:
            memory[access.addr] = access.value
    return []


def coherent_word(platform: Platform, addr: int) -> int:
    """A word's value as the system sees it: a dirty copy, else memory."""
    for controller in platform.controllers:
        line = controller.array.lookup(controller.geom.line_base(addr))
        if line is not None and line.state in _DIRTY:
            return line.data[controller.geom.word_offset(addr)]
    return platform.memory.peek(addr)


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


class HotspotExact(Rep):
    """The reference point on the exact engine (event kernel)."""

    event_budget = 500_000

    def __init__(self, seed: int):
        super().__init__()
        self.trace, self.gen_s = _timed(lambda: serialize_workload(
            {"kind": "hotspot", "n": 5000, "footprint_words": 512,
             "seed": seed, "procs": 2}
        ))
        self.platform, build_s = _timed(lambda: Platform(reference_config()))
        self.setup_s = self.gen_s + build_s
        self.ops = len(self.trace)
        self.values: List[Optional[int]] = []

    def run(self) -> None:
        result = replay_trace(self.platform, self.trace)
        self.values = result.values
        self.sim_ns = result.elapsed_ns

    def check(self) -> List[str]:
        self.stats = self.platform.stats.as_dict()
        return sequential_oracle(self.trace, self.values) + self._platform_problems()


class SweepBatch(Rep):
    """The same generator at sweep scale on the statistics-only engine."""

    engine = "batch"

    def __init__(self, seed: int):
        super().__init__()
        self.trace, self.gen_s = _timed(lambda: serialize_workload(
            {"kind": "hotspot", "n": 50_000, "footprint_words": 4096,
             "seed": seed, "procs": 2}
        ))
        self.config, build_s = _timed(reference_config)
        self.setup_s = self.gen_s + build_s
        self.ops = len(self.trace)
        self.result = None

    def run(self) -> None:
        self.result = get_engine("batch").run(self.config, self.trace)

    def check(self) -> List[str]:
        self.stats = self.result.stats
        return sequential_oracle(self.trace, self.result.values)


class Pf2Tcs(Rep):
    """Fig 7's typical case on the paper's PowerPC755 + ARM920T platform."""

    op_unit = "instructions"
    event_budget = 2_000_000

    def __init__(self, seed: int):
        super().__init__()
        self.spec = MicrobenchSpec(
            scenario="tcs", solution="proposed", lines=16, exec_time=2,
            iterations=60, seed=seed,
        )
        start = time.perf_counter()
        self.platform = make_platform(self.spec)
        programs, self.gen_s = _timed(
            lambda: build_programs(self.spec, self.platform)
        )
        self.platform.load_programs(programs)
        self.setup_s = time.perf_counter() - start

    def run(self) -> None:
        self.sim_ns = self.platform.run(max_events=self.event_budget)
        self.ops = self.retired

    def check(self) -> List[str]:
        self.stats = self.platform.stats.as_dict()
        problems = self._platform_problems()
        for addr, expected in self.expected_words().items():
            value = coherent_word(self.platform, addr)
            if value != expected:
                problems.append(
                    f"shared word 0x{addr:08x} ends at {value}, the block "
                    f"schedule implies {expected}"
                )
                break
        return problems

    def expected_words(self) -> Dict[int, int]:
        """Final value of every block word, from the seeded schedule.

        Task ``t`` picks ``iterations`` blocks with
        ``random.Random(seed * 1000003 + t)``; each pick adds
        ``exec_time`` to every word of the block's lines.
        """
        spec = self.spec
        line_bytes = self.platform.config.line_bytes
        block_bytes = spec.lines * line_bytes
        picks = [0] * spec.tcs_blocks
        for task in range(len(self.platform.cores)):
            rng = random.Random(spec.seed * 1000003 + task)
            for _ in range(spec.iterations):
                picks[rng.randrange(spec.tcs_blocks)] += 1
        return {
            SHARED_BASE + block * block_bytes + offset: count * spec.exec_time
            for block, count in enumerate(picks)
            for offset in range(0, block_bytes, 4)
        }


class Contended16(Rep):
    """16 mixed-protocol masters on one round-robin atomic bus."""

    event_budget = 2_000_000

    def __init__(self, seed: int):
        super().__init__()
        (_mode, self.traces), self.gen_s = _timed(lambda: build_workload(
            {"kind": "hotspot", "procs": 16, "n": 200,
             "footprint_words": 256, "seed": seed}
        ))
        cores = tuple(
            preset_generic(f"p{i}", _PROTOCOL_CYCLE[i % len(_PROTOCOL_CYCLE)])
            for i in range(16)
        )
        config = PlatformConfig(
            cores=cores, hardware_coherence=True,
            arbitration="round-robin", drain_policy="window",
        )
        self.platform, build_s = _timed(lambda: Platform(config))
        self.setup_s = self.gen_s + build_s
        self.ops = sum(len(t) for t in self.traces.values())

    def run(self) -> None:
        self.sim_ns = replay_parallel(self.platform, self.traces).elapsed_ns

    def check(self) -> List[str]:
        """Audit, and each word ends at some master's last store to it.

        Stores to one word are serialised by coherence and each master's
        stores keep program order, so the last store in that order is
        the last store of one of the masters.
        """
        self.stats = self.platform.stats.as_dict()
        problems = self._platform_problems()
        finals: Dict[int, set] = {}
        for trace in self.traces.values():
            last: Dict[int, int] = {}
            for access in trace:
                if access.op == "write":
                    last[access.addr] = access.value
            for addr, value in last.items():
                finals.setdefault(addr, set()).add(value)
        for addr, allowed in sorted(finals.items()):
            value = coherent_word(self.platform, addr)
            if value not in allowed:
                problems.append(
                    f"word 0x{addr:08x} ends at {value}, not any master's "
                    f"last store {sorted(allowed)}"
                )
                break
        return problems


#: workload name -> Rep factory (the reason for each is in BENCHMARK.json)
WORKLOADS = {
    "hotspot-exact": HotspotExact,
    "sweep-batch": SweepBatch,
    "pf2-tcs": Pf2Tcs,
    "contended-16": Contended16,
}
