"""Batch-engine faithfulness: the acceptance sweep, as a tier-1 test.

The batch engine's contract is that on any serialised trace every
counter except the timing-only ``bus.busy*`` keys matches the exact
engine, as do the final per-master line-state occupancy and every
per-access value (loaded words, pre-swap values).  This suite runs
that comparison over all five generated workload families crossed
with all six protocols (homogeneous pairs), plus heterogeneous mixes
that exercise the reduction wrappers, the i486's split
write-back/write-through (MESI + SI) configuration, and seeded random
platforms of two to four masters.

Small caches force evictions and write-backs so the replacement and
drain paths are compared, not just the hit fast path.
"""

import random

import pytest

from repro.core.platform import PlatformConfig
from repro.cpu.presets import preset_generic, preset_intel486
from repro.engines import get_engine, serialize_workload

#: timing-only counters the statistics-only engines do not model
TIMING_PREFIXES = ("bus.busy",)

#: the reducible protocols; SI is write-through-only and enters the
#: sweep through the i486's protocol_wt split below — six in total
PROTOCOLS = ("MEI", "MSI", "MESI", "MOESI", "DRAGON")

FAMILIES = {
    "racy": {"kind": "racy", "n": 120, "footprint_words": 16, "seed": 11},
    "false-sharing": {"kind": "false-sharing", "n": 120, "lines": 3,
                      "seed": 5},
    "lock-contention": {"kind": "lock-contention", "n_acquires": 10,
                        "seed": 3},
    "hotspot": {"kind": "hotspot", "n": 150, "footprint_words": 64,
                "seed": 7},
    "producer-consumer": {"kind": "producer-consumer", "n_items": 30},
}


def _strip_timing(stats):
    return {
        k: v for k, v in stats.items()
        if not any(k.startswith(p) for p in TIMING_PREFIXES)
    }


def _pair_config(p0, p1):
    # 1 KB 2-way caches: tiny enough that every family evicts.
    cores = (
        preset_generic("p0", p0, cache_size=1024).with_(cache_ways=2),
        preset_generic("p1", p1, cache_size=1024).with_(cache_ways=2),
    )
    return PlatformConfig(cores=cores, hardware_coherence=True)


def assert_equivalent(config, workload):
    accesses = serialize_workload(workload)
    exact = get_engine("exact").run(config, accesses)
    batch = get_engine("batch").run(config, accesses)
    assert batch.accesses == exact.accesses == len(accesses)
    assert _strip_timing(batch.stats) == _strip_timing(exact.stats)
    assert batch.line_states == exact.line_states
    assert batch.values == exact.values


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_family_protocol_sweep(protocol, family):
    assert_equivalent(_pair_config(protocol, protocol), FAMILIES[family])


@pytest.mark.parametrize(
    "pair", [("MESI", "MEI"), ("MOESI", "MSI"), ("MOESI", "MEI")]
)
def test_heterogeneous_mixes_through_the_wrappers(pair):
    # Reduction wrappers rewrite bus ops (read -> read-with-intent) and
    # clamp shared modes; the batch engine must replay those conversions.
    assert_equivalent(
        _pair_config(*pair),
        {"kind": "false-sharing", "n": 140, "lines": 4, "seed": 9},
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_i486_split_writeback_writethrough(family):
    # The Enhanced i486 preset runs MESI on write-back lines and SI on
    # write-through regions — the protocol_wt split.
    config = PlatformConfig(
        cores=(
            preset_intel486("i486").with_(cache_size=1024, cache_ways=2),
            preset_generic("p1", "MESI", cache_size=1024).with_(cache_ways=2),
        ),
        hardware_coherence=True,
    )
    assert_equivalent(config, FAMILIES[family])


def test_software_coherence_mode():
    # hardware_coherence=False: no snooping, no wrappers — the batch
    # engine must still agree on hits/misses/fills.
    config = PlatformConfig(
        cores=(
            preset_generic("p0", "MESI", cache_size=1024),
            preset_generic("p1", "MESI", cache_size=1024),
        ),
        hardware_coherence=False,
    )
    assert_equivalent(config, {"kind": "hotspot", "n": 100,
                               "footprint_words": 32, "seed": 2})


# ---------------------------------------------------------------------------
# seeded random platforms
# ---------------------------------------------------------------------------
RANDOM_SEEDS = range(24)


def _random_case(seed):
    """A seeded random platform and workload the batch engine accepts.

    Fault-free, atomic fabric, coherent masters only: two to four
    masters with a random invalidation-protocol mix (or all-Dragon),
    256/512-byte direct-mapped or 2-way caches and footprints of up to
    4 KB, so both evictions and drains happen.
    """
    rng = random.Random(f"equivalence:{seed}")
    n = rng.choice((2, 3, 4))
    if rng.random() < 0.15:
        protocols = ("DRAGON",) * n
    else:
        protocols = tuple(
            rng.choice(("MEI", "MSI", "MESI", "MOESI")) for _ in range(n)
        )
    cores = tuple(
        preset_generic(f"p{i}", protocol, cache_size=rng.choice((256, 512)))
        .with_(cache_ways=rng.choice((1, 2)))
        for i, protocol in enumerate(protocols)
    )
    kind = rng.choice(("racy", "hotspot", "false-sharing"))
    workload = {"kind": kind, "procs": n, "n": rng.randrange(40, 120),
                "seed": rng.randrange(1 << 20)}
    if kind == "false-sharing":
        workload["lines"] = rng.choice((2, 4, 8))
    else:
        workload["footprint_words"] = rng.choice((64, 256, 1024))
    return PlatformConfig(cores=cores, hardware_coherence=True), workload


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_seeded_random_platforms(seed):
    assert_equivalent(*_random_case(seed))


def test_random_platforms_cover_the_hard_cases():
    # The sample must include a heterogeneous platform of 3+ masters
    # and, over the whole sample, evictions and snoop drains.
    cases = [_random_case(seed) for seed in RANDOM_SEEDS]
    assert any(
        len(config.cores) >= 3
        and len({core.protocol for core in config.cores}) > 1
        for config, _workload in cases
    )
    totals = {"evictions": 0, "drains": 0}
    for config, workload in cases:
        stats = get_engine("exact").run(
            config, serialize_workload(workload)
        ).stats
        for key, value in stats.items():
            counter = key.rsplit(".", 1)[-1]
            if counter in totals:
                totals[counter] += value
    assert totals["evictions"] > 0 and totals["drains"] > 0, totals
