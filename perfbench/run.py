"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hotspot-exact --seed 1 \
        --seconds 20 --trace 0

One process replays one workload in a closed loop with a single client:
each replay starts when the previous one has ended and been checked.
A replay is set up from the seed (``setup_s``), run with the clock on,
then checked with the clock off; a failed check, an exception or an
exceeded event budget counts the replay as failed.  The first replay
warms the interpreter and is checked but not timed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json over the
timed replays, scaled to host speed 1.0 (see perfbench/README.md).  ``--trace 1`` spends part of the window on
untraced replays and the rest on profiled ones, and reports the
per-layer ledger (see perfbench/README.md).  The last line of standard
output is one JSON object; the lines above it are for people.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

from ledger import LAYERS, fold, nearest_rank, record_waits

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: share of a traced run's window spent on untraced replays
UNTRACED_SHARE = 0.4
#: calibration loop time at host speed 1.0 (CPython 3.11.7, 2-vCPU VM)
CALIBRATION_REF_S = 0.05
#: calibration time after each timed replay, as a share of its run time
CALIBRATION_SHARE = 0.2


class _Line:
    __slots__ = ("tag", "state", "data")

    def __init__(self, tag):
        self.tag = tag
        self.state = 0
        self.data = [0] * 8


def _calibration_process(k, lines, counters, n):
    for i in range(n):
        tag = (i * 2654435761 + k) & 511
        line = lines.get(tag)
        if line is None:
            line = lines[tag] = _Line(tag)
        line.state = (line.state + 1) & 3
        line.data[i & 7] += 1
        counters[k] = counters.get(k, 0) + 1
        yield 1 + (tag & 3)


def calibrate(n: int = 8000) -> float:
    """Host seconds of a fixed pure-Python event loop.

    The loop is the same-host speed reference: generator processes on a
    time heap touching slotted lines and counters, the instruction mix
    of the simulator, in code that no change to ``src/`` can speed up or
    slow down.  Its keys are ints, so string-hash randomisation does not
    move it between processes.  It must stay frozen: changing it
    rescales every time metric.
    """
    start = time.perf_counter()
    lines, counters = {}, {}
    heap = [(0, k, _calibration_process(k, lines, counters, n)) for k in range(8)]
    while heap:
        now, k, proc = heapq.heappop(heap)
        try:
            delay = next(proc)
        except StopIteration:
            continue
        heapq.heappush(heap, (now + delay, k, proc))
    return time.perf_counter() - start


class Measurement:
    """Replays of one workload at one seed, and what they measured."""

    def __init__(self, factory, seed: int):
        self.factory = factory
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.setup_s: List[float] = []
        self.gen_s: List[float] = []
        self.run_s: List[float] = []
        self.ops: List[int] = []
        self.traced_run_s: List[float] = []
        self.ledgers = []
        self.waits: List[int] = []
        self.calibration_s = 0.0
        self.calibration_loops = 0
        self.last = None

    @property
    def speed(self) -> float:
        """Host speed relative to the reference (2.0 = twice as fast)."""
        return CALIBRATION_REF_S * self.calibration_loops / self.calibration_s

    @property
    def unscaled_ops_per_s(self) -> float:
        """Ops of all timed replays ÷ their total run time."""
        return sum(self.ops) / sum(self.run_s)

    def calibrate_after(self, run_s: float) -> None:
        """Sample host speed for a fixed share of the replay just timed."""
        spent = 0.0
        while not spent or spent < CALIBRATION_SHARE * run_s:
            spent += calibrate()
            self.calibration_loops += 1
        self.calibration_s += spent

    def replay(self, timed: bool, traced: bool = False) -> None:
        """Set up, run and check one replay; record it."""
        gc.collect()
        self.attempted += 1
        profile = cProfile.Profile() if traced else None
        try:
            rep = self.factory(self.seed)
            waits = record_waits(rep.arbiter) if traced and rep.arbiter else None
            start = time.perf_counter()
            if profile is not None:
                profile.enable()
            try:
                rep.run()
            finally:
                if profile is not None:
                    profile.disable()
            elapsed = time.perf_counter() - start
            problems = rep.check()
        except Exception:  # a failed replay is counted, the run goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        if traced:
            ledger = fold(profile, SRC / "repro")
            if self.ledgers and ledger.counts != self.ledgers[0].counts:
                problems.append(
                    f"work counters {ledger.counts} differ from the first "
                    f"traced replay's {self.ledgers[0].counts}"
                )
        if problems:
            self.failed += 1
            print(f"replay failed its check: {problems[0]}", file=sys.stderr)
            return
        self.last = rep
        if traced:
            self.ledgers.append(ledger)
            self.traced_run_s.append(elapsed)
            if waits is not None:
                self.waits = waits
        elif timed:
            self.calibrate_after(elapsed)
            self.setup_s.append(rep.setup_s)
            self.gen_s.append(rep.gen_s)
            self.run_s.append(elapsed)
            self.ops.append(rep.ops)


def measure(name: str, seed: int, seconds: float, trace: bool) -> Measurement:
    """Replay workload ``name`` for about ``seconds`` of host time."""
    from workloads import WORKLOADS

    result = Measurement(WORKLOADS[name], seed)
    start = time.perf_counter()
    untraced_until = start + (seconds * UNTRACED_SHARE if trace else seconds)
    result.replay(timed=False)
    while not result.run_s or time.perf_counter() < untraced_until:
        result.replay(timed=True)
        if result.attempted > 2 and not result.run_s:
            break  # every replay fails: nothing to time
    while trace and (not result.ledgers or time.perf_counter() < start + seconds):
        result.replay(timed=False, traced=True)
        if result.attempted > 4 and not result.ledgers:
            break
    return result


def end_to_end(m: Measurement) -> Dict[str, float]:
    """The end-to-end metrics of the timed replays.

    Times are expressed at host speed 1.0: scaled by the speed the
    calibration loop measured between the same replays, so a slower
    phase of a shared host does not read as slower code.
    """
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": m.unscaled_ops_per_s / m.speed,
        "setup_s": statistics.median(m.setup_s) * m.speed,
        "peak_rss_mib": rss_kib / 1024.0,
    }


def per_layer(m: Measurement) -> Dict[str, float]:
    """The per-layer ledger of the traced replays (see README.md)."""
    rep = m.last
    stats = rep.stats
    counts = m.ledgers[0].counts
    n = len(m.ledgers)
    self_s = {
        layer: sum(ledger.self_s[layer] for ledger in m.ledgers) / n
        for layer in LAYERS
    }
    traced_s = sum(m.traced_run_s) / n
    untraced_s = statistics.median(m.run_s)
    ops = rep.ops
    events = rep.events
    retired = rep.retired
    txns = stats.get("bus.txns", 0)
    retries = stats.get("bus.retries", 0)
    config = rep.platform.config if rep.platform is not None else rep.config
    names = [cfg.name for cfg in config.cores]

    def total(suffix: str) -> int:
        return sum(stats.get(f"{core}.{suffix}", 0) for core in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = total("hits")
    misses = total("read_misses") + total("write_misses")
    metrics = {
        "sim_ns": rep.sim_ns,
        "sim.events": events,
        "sim.events_per_op": ratio(events, ops),
        "sim.resumes_per_op": ratio(counts["resumes"], ops),
        "sim.host_ns_per_event": ratio(untraced_s * 1e9, events),
        "stats.bumps_per_op": ratio(counts["bumps"], ops),
        "bus.txns_per_op": ratio(txns, ops),
        "bus.retry_ratio": ratio(retries, txns + retries),
        "bus.busy_frac": ratio(stats.get("bus.busy_ticks", 0), rep.sim_ns),
        "arbiter.grants": rep.arbiter.grants if rep.arbiter else 0,
        "arbiter.wait_ns_p50": nearest_rank(m.waits, 0.50),
        "arbiter.wait_ns_p99": nearest_rank(m.waits, 0.99),
        "arbiter.wait_samples": len(m.waits),
        "cache.lookups_per_op": ratio(counts["lookups"], ops),
        "cache.hit_ratio": ratio(hits, hits + misses),
        "cache.fills_per_op": ratio(total("fills"), ops),
        "cache.drains_per_op": ratio(total("drains"), ops),
        "cache.evictions_per_op": ratio(total("evictions"), ops),
        "protocol.calls_per_op": ratio(counts["protocol_calls"], ops),
        "wrapper.snoops_per_txn": ratio(counts["wrapper_snoops"], txns),
        "snoop_logic.hit_ratio": ratio(total("snoop_logic_hits"), counts["cam_snoops"]),
        "snoop_logic.isr_entries": rep.isr_entries,
        "mem.map_lookups_per_op": ratio(counts["map_lookups"], ops),
        "mem.accesses_per_op": ratio(counts["mem_accesses"], ops),
        "cpu.retired": retired,
        "cpu.host_ns_per_instr": ratio(untraced_s * 1e9, retired),
        "batch.host_ns_per_access": (
            ratio(untraced_s * 1e9, ops) if rep.engine == "batch" else 0.0
        ),
        "workloads.gen_s": statistics.median(m.gen_s),
        "trace.coverage": ratio(sum(self_s.values()), traced_s),
        "trace.overhead_frac": ratio(statistics.median(m.traced_run_s), untraced_s) - 1.0,
        "host.speed": m.speed,
    }
    for layer, seconds in self_s.items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics


def _report(name: str, m: Measurement, metrics: Dict[str, float],
            declared: Dict[str, dict], trace: bool) -> None:
    """Human-readable lines (everything above the JSON result)."""
    rep = m.last
    print(
        f"{name} seed={m.seed}: {m.attempted} replays (1 warm-up), "
        f"{m.failed} failed, failed_frac={m.failed / m.attempted:.4f}"
    )
    if not trace:
        print(f"  ops = {rep.ops} {rep.op_unit} per replay; host speed "
              f"{m.speed:.3f}, unscaled {m.unscaled_ops_per_s:.6g} ops/s")
        for key, value in metrics.items():
            print(f"  {key:<14} {value:>14.6g} {declared[key]['unit']}")
        if rep.platform is not None:
            print(f"  {'sim_ns':<14} {rep.sim_ns:>14d} ns (simulated, deterministic)")
        return
    traced_s = sum(m.traced_run_s) / len(m.traced_run_s)
    print(f"  ledger: self time per traced replay ({traced_s:.3f} s, "
          f"{len(m.ledgers)} replays)")
    for layer in LAYERS:
        seconds = metrics[f"{layer}.self_s"]
        print(f"  {layer:<14} {seconds:>9.4f} s {100 * seconds / traced_s:6.1f}%")
    for key, value in metrics.items():
        if not key.endswith(".self_s"):
            print(f"  {key:<26} {value:>14.6g} {declared[key]['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}

    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if m.last is None or not m.run_s or (args.trace and not m.ledgers):
        print(f"{args.workload}: no replay completed its check", file=sys.stderr)
        return 1
    metrics = per_layer(m) if args.trace else end_to_end(m)
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(declared))} are not both "
            "measured and declared in BENCHMARK.json"
        )
    _report(args.workload, m, metrics, declared, bool(args.trace))
    print(json.dumps({
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            key: {"value": metrics[key], "unit": declared[key]["unit"]}
            for key in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
