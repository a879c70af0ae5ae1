"""Per-layer cost ledger: profiler self time keyed by module -> layer.

The traced run wraps each replay in a ``cProfile.Profile`` and folds
every profiled function into the layer that owns its module.  Functions
outside the ``repro`` package (builtins, the standard library, numpy,
this benchmark) land in ``unattributed``.  A ``repro`` module that maps
to no layer is an error: the ledger must cover the whole program, so a
new module has to be placed before any figure is reported.

Simulated request -> grant waits come from a wrapper around one
platform's ``Arbiter.request``; the wrapper only records ``sim.now`` in
a grant callback, so event order and every counter stay unchanged.
"""

from __future__ import annotations

import cProfile
import math
import pstats
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

#: layer -> files and packages (relative to ``src/repro``) it owns.
#: Entries ending in "/" own a whole package; the first match wins, so
#: single files come before the package that holds them ("engines/").
LAYER_FILES: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim/__init__.py", "sim/kernel.py", "sim/clock.py", "sim/resources.py"),
    "stats": ("sim/tracing.py",),
    "bus": ("bus/__init__.py", "bus/asb.py", "bus/types.py", "fabric/"),
    "arbiter": ("bus/arbiter.py",),
    "cache.array": ("cache/array.py", "cache/line.py"),
    "cache.ctrl": ("cache/__init__.py", "cache/controller.py"),
    "protocol": ("cache/protocols/",),
    "wrapper": ("core/wrapper.py", "core/reduction.py"),
    "snoop_logic": ("core/snoop_logic.py", "core/lock_register.py"),
    "mem": ("mem/",),
    "cpu": (
        "cpu/__init__.py", "cpu/core.py", "cpu/isa.py", "cpu/interrupts.py",
        "cpu/assembler.py",
    ),
    "batch": ("engines/batch.py",),
    "workloads": ("workloads/", "fuzz/case.py", "engines/workloads.py"),
    "platform": (
        "core/__init__.py", "core/platform.py", "cpu/presets.py", "engines/",
        "errors.py",
    ),
}
LAYERS = tuple(LAYER_FILES) + ("unattributed",)

#: (file, function) pairs whose call counts are work counters
COUNTED = {
    "resumes": (("sim/kernel.py", "_resume"),),
    "lookups": (("cache/array.py", "lookup"),),
    "bumps": (("sim/tracing.py", "bump"), ("engines/batch.py", "bump")),
    "wrapper_snoops": (("core/wrapper.py", "snoop"),),
    "cam_snoops": (("core/snoop_logic.py", "snoop"),),
    "map_lookups": (("mem/map.py", "lookup"), ("mem/map.py", "find")),
    "mem_accesses": (("mem/controller.py", "access"),),
}


class UnmappedModule(RuntimeError):
    """A profiled ``repro`` module belongs to no layer."""


def layer_of(rel: str) -> str:
    """The layer owning ``rel`` (a path relative to ``src/repro``)."""
    for layer, owned in LAYER_FILES.items():
        for entry in owned:
            if rel == entry or (entry.endswith("/") and rel.startswith(entry)):
                return layer
    raise UnmappedModule(
        f"repro module {rel!r} maps to no layer; add it to "
        "perfbench/ledger.py LAYER_FILES"
    )


@dataclass
class Ledger:
    """Self time per layer and call counts of one profiled replay."""

    self_s: Dict[str, float] = field(default_factory=dict)
    #: the ``COUNTED`` calls, plus ``protocol_calls`` into the protocol layer
    counts: Dict[str, int] = field(default_factory=dict)


def fold(profile: cProfile.Profile, package_dir: Path) -> Ledger:
    """Fold one profile into per-layer self time and work counters."""
    root = str(package_dir) + "/"
    self_s = dict.fromkeys(LAYERS, 0.0)
    counts = dict.fromkeys(COUNTED, 0)
    counts["protocol_calls"] = 0
    wanted = {key: name for name, keys in COUNTED.items() for key in keys}
    for (filename, _line, func), row in pstats.Stats(profile).stats.items():
        calls, tottime = row[1], row[2]
        if not filename.startswith(root):
            self_s["unattributed"] += tottime
            continue
        rel = filename[len(root):]
        layer = layer_of(rel)
        self_s[layer] += tottime
        if layer == "protocol":
            counts["protocol_calls"] += calls
        name = wanted.get((rel, func))
        if name is not None:
            counts[name] += calls
    return Ledger(self_s=self_s, counts=counts)


def record_waits(arbiter) -> List[int]:
    """Wrap ``arbiter.request``; return the list it fills with waits."""
    waits: List[int] = []
    sim = arbiter.sim
    request = arbiter.request

    def timed_request(master, *args, **kwargs):
        asked = sim.now
        grant = request(master, *args, **kwargs)
        grant.add_callback(lambda _event: waits.append(sim.now - asked))
        return grant

    arbiter.request = timed_request
    return waits


def nearest_rank(values: List[int], q: float) -> float:
    """The ``q`` quantile by nearest rank (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])
