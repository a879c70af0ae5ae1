"""Self-test of the benchmark: determinism, ledger shape, checks, contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
Each workload is measured in fresh interpreters (so string hashing
differs between them), twice at one seed and once at another.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import ledger  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Pf2Tcs, coherent_word, sequential_oracle  # noqa: E402

from repro.workloads.tracegen import TraceAccess  # noqa: E402

#: counters that must repeat exactly at one seed and move with the seed
DETERMINISTIC = (
    "events", "resumes", "txns", "lookups", "bumps", "wrapper_snoops",
    "sim_ns", "retired",
)
COVERAGE_SLACK = (0.90, 1.02)
TRACE_WORKLOADS = ("hotspot-exact", "sweep-batch", "contended-16")
EXACT_WORKLOADS = ("hotspot-exact", "pf2-tcs", "contended-16")

_PROBE = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import run
m = run.measure(sys.argv[3], int(sys.argv[4]), 0.0, True)
rep = m.last
counts = dict(
    m.ledgers[0].counts, txns=rep.stats.get("bus.txns", 0),
    events=rep.events, sim_ns=rep.sim_ns, retired=rep.retired,
)
print(json.dumps({"failed": m.failed, "counts": counts,
                  "metrics": run.per_layer(m)}))
"""


def _probe(workload: str, seed: int) -> dict:
    """One traced measurement (shortest window) in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(HERE), str(ROOT / "src"),
         workload, str(seed)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=list(WORKLOADS))
def probes(request):
    name = request.param
    return name, [_probe(name, 1), _probe(name, 1), _probe(name, 2)]


def test_counters_repeat_at_one_seed_and_move_with_it(probes):
    name, (first, again, other) = probes
    assert first["failed"] == again["failed"] == other["failed"] == 0
    same = {k: first["counts"][k] for k in DETERMINISTIC}
    assert same == {k: again["counts"][k] for k in DETERMINISTIC}
    live = [k for k in DETERMINISTIC if first["counts"][k]]
    assert live, f"{name} does no counted work"
    for key in live:
        assert other["counts"][key] != first["counts"][key], (name, key)


def test_layer_shares_have_the_expected_shape(probes):
    name, (first, _again, _other) = probes
    metrics = first["metrics"]
    low, high = COVERAGE_SLACK
    assert low <= metrics["trace.coverage"] <= high
    assert metrics["trace.overhead_frac"] > 0
    if name in TRACE_WORKLOADS:
        assert metrics["cpu.self_s"] == 0
        assert metrics["cpu.retired"] == 0
    if name in EXACT_WORKLOADS:
        assert metrics["batch.self_s"] == 0
        assert metrics["sim_ns"] > 0
    if name == "sweep-batch":
        traced = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        for layer in ("sim", "bus", "arbiter"):
            assert metrics[f"{layer}.self_s"] < 0.01 * traced, layer
        assert metrics["batch.self_s"] > 0.5 * traced
    if name == "pf2-tcs":
        assert metrics["snoop_logic.isr_entries"] > 0
        assert metrics["cpu.self_s"] > 0


def test_every_layer_entry_exists_and_unmapped_modules_fail():
    package = ROOT / "src" / "repro"
    for owned in ledger.LAYER_FILES.values():
        for entry in owned:
            assert (package / entry).exists(), entry
    assert ledger.layer_of("engines/batch.py") == "batch"
    with pytest.raises(ledger.UnmappedModule):
        ledger.layer_of("verify/checker.py")


def test_sequential_oracle_catches_a_stale_read():
    trace = [
        TraceAccess(0, "write", 0x2000_0000, 7),
        TraceAccess(1, "read", 0x2000_0000),
    ]
    assert sequential_oracle(trace, [None, 7]) == []
    assert sequential_oracle(trace, [None, 0])
    assert sequential_oracle(trace, [None])


def test_pf2_check_catches_a_corrupted_block_word():
    rep = Pf2Tcs(3)
    rep.run()
    assert rep.check() == []
    addr = next(a for a, v in rep.expected_words().items() if v)
    for controller in rep.platform.controllers:
        line = controller.array.lookup(controller.geom.line_base(addr))
        if line is not None:
            line.data[controller.geom.word_offset(addr)] += 1
    rep.platform.memory.write_word(addr, coherent_word(rep.platform, addr) + 1)
    assert rep.check()


class _Broken:
    """A workload whose replay raises or whose output check fails."""

    arbiter = None
    setup_s = gen_s = 0.0
    ops = 1

    def __init__(self, seed):
        self.seed = seed

    def run(self):
        if self.seed == 0:
            raise RuntimeError("replay blew up")

    def check(self):
        return ["wrong output"] if self.seed == 1 else []


@pytest.mark.parametrize("seed", [0, 1])
def test_failed_replays_are_counted(seed):
    m = run.Measurement(_Broken, seed)
    m.replay(timed=True)
    assert (m.attempted, m.failed, m.run_s) == (1, 1, [])


def test_result_line_and_refusal_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "contended-16",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["failed"] == 0

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    bare = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "contended-16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert bare.returncode != 0
    assert bare.stdout.strip() == ""
