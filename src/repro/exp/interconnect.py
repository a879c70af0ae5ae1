"""Interconnect studies: N masters along two axes of the shared medium.

The paper evaluates two-master platforms; the wrapper methodology
itself never assumes two.  These studies measure what limits an
N-master build of it.  Each runs a fixed contended false-sharing
workload over a mixed-protocol platform (MESI / MOESI / MSI / MEI
cycling across the masters, every one behind its reduction wrapper,
``"window"`` drains) at 2/4/8/16 masters, and varies one axis of the
interconnect while holding the other fixed:

* ``scaleout`` — the NORMAL-band bus service discipline (FCFS, static
  per-master priority, round-robin; cf. arXiv:1004.3560's
  service-discipline comparison on a shared-bus multiprocessor) on the
  paper's atomic snoopy bus;
* ``fabrics`` — the interconnect itself (atomic snoopy ASB,
  split-transaction bus, directory; ``docs/fabrics.md``) under
  round-robin arbitration.  Its headline is the snoopy-vs-directory
  gap: one broadcast bus serialises every address phase, while the
  directory's per-home banks let disjoint lines proceed concurrently.
  With 32-byte lines, 16 masters split into two disjoint 8-master line
  groups, so part of that gap at 16 masters is the workload's doing.

Every point records:

* ``elapsed_ns`` — simulated completion time of the whole workload;
* ``bus_txns`` — completed tenures (coherence traffic volume; atomic
  and split match exactly — the split bus pipelines occupancy, not
  semantics — while the directory's differs because point-to-point
  forwarding changes the ARTRY/drain interleaving);
* ``busy_ticks`` — total channel occupancy;
* ``grant_spread`` — max/min per-master grant counts: 1.0 is perfect
  fairness, large values mean some master is being starved.

Each study's file carries the subset of fields it was baselined with
(:attr:`Study.fields`).  Everything measured is *simulated* and
therefore deterministic: the committed ``BENCH_scaleout.json`` and
``BENCH_fabrics.json`` are golden files, checked exactly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.platform import Platform, PlatformConfig
from ..cpu.presets import preset_generic
from ..workloads.tracegen import false_sharing_traces, replay_parallel
from .benchsuite import Suite, check_exact

__all__ = [
    "FABRICS",
    "DISCIPLINES",
    "MASTER_COUNTS",
    "QUICK_MASTER_COUNTS",
    "STUDIES",
    "SUITES",
    "Study",
    "run_point",
    "render_comparison",
]

DISCIPLINES = ("fcfs", "priority", "round-robin")
FABRICS = ("atomic", "split", "directory")
MASTER_COUNTS = (2, 4, 8, 16)
QUICK_MASTER_COUNTS = (2, 4, 8)

#: protocols cycled across the masters — a genuinely mixed platform
_PROTOCOL_CYCLE = ("MESI", "MOESI", "MSI", "MEI")


def _platform(n_masters: int, fabric: str, discipline: str) -> Platform:
    cores = tuple(
        preset_generic(f"p{i}", _PROTOCOL_CYCLE[i % len(_PROTOCOL_CYCLE)])
        for i in range(n_masters)
    )
    # "window" drains: an N-master platform must push snoop data in the
    # post-ARTRY window or contended dirty lines cross-deadlock (the
    # paper-faithful "retry-first" port model wedges beyond two busy
    # masters — that hazard is the deadlock demo's subject, not ours).
    return Platform(
        PlatformConfig(
            cores=cores,
            hardware_coherence=True,
            arbitration=discipline,
            drain_policy="window",
            fabric=fabric,
        )
    )


def run_point(
    n_masters: int,
    fabric: str = "atomic",
    discipline: str = "round-robin",
    accesses_per_master: int = 40,
) -> Dict[str, Any]:
    """One (master count, fabric, discipline) measurement, every field."""
    platform = _platform(n_masters, fabric, discipline)
    traces = false_sharing_traces(
        accesses_per_master, procs=n_masters, lines=2, seed=11
    )
    result = replay_parallel(platform, traces)
    counts = platform.bus.arbiter.grants_by_master
    spread = (
        max(counts.values()) / min(counts.values()) if counts else 0.0
    )
    return {
        "masters": n_masters,
        "fabric": fabric,
        "discipline": discipline,
        "elapsed_ns": result.elapsed_ns,
        "bus_txns": result.bus_txns,
        "busy_ticks": platform.stats.get("bus.busy_ticks"),
        "grant_spread": round(spread, 3),
    }


@dataclass(frozen=True)
class Study:
    """One axis of the interconnect swept against the master count.

    ``axis`` (``"fabric"`` or ``"discipline"``) takes each of ``values``
    while the other axis stays at ``fixed``.  ``fields`` are the point
    fields the study's file carries besides ``masters`` and the axis;
    ``params`` are the extra ``params`` entries it records.
    """

    name: str
    axis: str
    values: Tuple[str, ...]
    fixed: Mapping[str, str]
    fields: Tuple[str, ...]
    params: Mapping[str, Any] = field(default_factory=dict)
    headline: bool = False

    def run_suite(
        self,
        quick: bool = False,
        master_counts: Optional[Sequence[int]] = None,
        accesses_per_master: int = 40,
    ) -> Dict[str, Any]:
        """The full sweep; returns the result document.

        ``quick`` drops the 16-master column (CI smoke); the per-point
        workload itself is fixed, so the surviving points stay
        comparable to a committed full-mode baseline.
        """
        counts = tuple(
            master_counts
            if master_counts is not None
            else (QUICK_MASTER_COUNTS if quick else MASTER_COUNTS)
        )
        return {
            "schema": 1,
            "suite": self.name,
            "quick": bool(quick),
            "python": sys.version.split()[0],
            "params": {
                "master_counts": list(counts),
                "accesses_per_master": accesses_per_master,
                "protocol_cycle": list(_PROTOCOL_CYCLE),
                **self.params,
            },
            "points": [
                self.point(run_point(
                    n, accesses_per_master=accesses_per_master,
                    **{**self.fixed, self.axis: value},
                ))
                for value in self.values
                for n in counts
            ],
        }

    def point(self, measured: Mapping[str, Any]) -> Dict[str, Any]:
        """``measured`` reduced to the fields this study's file carries."""
        return {
            name: measured[name]
            for name in ("masters", self.axis) + self.fields
        }

    def check(
        self, current: Dict[str, Any], baseline: Dict[str, Any]
    ) -> List[str]:
        """Every field of every shared point must match exactly.

        A baseline point at a master count this run swept must be in
        the run; any drift is a behaviour change someone must have
        intended (and should re-baseline deliberately).
        """
        swept = set(current["params"]["master_counts"])
        return check_exact(
            current,
            baseline,
            records="points",
            key=(self.axis, "masters"),
            expected=lambda point: point["masters"] in swept,
        )


STUDIES = {
    "scaleout": Study(
        name="scaleout",
        axis="discipline",
        values=DISCIPLINES,
        fixed={"fabric": "atomic"},
        fields=("elapsed_ns", "bus_txns", "grant_spread"),
    ),
    "fabrics": Study(
        name="fabrics",
        axis="fabric",
        values=FABRICS,
        fixed={"discipline": "round-robin"},
        fields=("elapsed_ns", "bus_txns", "busy_ticks", "grant_spread"),
        params={"arbitration": "round-robin"},
        headline=True,
    ),
}

#: column header and row format of each recorded field
_COLUMNS = {
    "elapsed_ns": ("elapsed_ns", "{:>12,}"),
    "bus_txns": ("bus_txns", "{:>9,}"),
    "busy_ticks": ("busy_ticks", "{:>11,}"),
    "grant_spread": ("spread", "{:>7.2f}"),
}


def render_comparison(
    current: Dict[str, Any], baseline: Optional[Dict[str, Any]] = None
) -> str:
    """A study's figure, as an aligned text table per axis value."""
    study = STUDIES[current["suite"]]
    width = max(len(study.axis), *(len(v) for v in study.values))
    header = " ".join(
        f"{title:>{len(fmt.format(0))}}"
        for title, fmt in (_COLUMNS[name] for name in study.fields)
    )
    lines = [
        f"{study.name} suite (quick={current.get('quick')}, "
        f"py {current.get('python')})",
        f"  {study.axis:<{width}} {'masters':>7} {header}",
    ]
    base = {
        (p[study.axis], p["masters"]): p
        for p in (baseline or {}).get("points", [])
    }
    for point in current["points"]:
        cells = " ".join(
            _COLUMNS[name][1].format(point[name]) for name in study.fields
        )
        suffix = ""
        want = base.get((point[study.axis], point["masters"]))
        if want is not None:
            ratio = (
                point["elapsed_ns"] / want["elapsed_ns"]
                if want["elapsed_ns"]
                else 0.0
            )
            suffix = f"   {ratio:.2f}x baseline time"
        lines.append(
            f"  {point[study.axis]:<{width}} {point['masters']:>7} "
            f"{cells}{suffix}"
        )
    headline = _headline(current) if study.headline else None
    if headline:
        lines.append(f"  {headline}")
    return "\n".join(lines)


def _headline(document: Dict[str, Any]) -> Optional[str]:
    """The snoopy-vs-directory gap at the largest master count."""
    time = {
        (p["fabric"], p["masters"]): p["elapsed_ns"]
        for p in document["points"]
    }
    for n in sorted({n for _, n in time}, reverse=True):
        snoopy, directory = time.get(("atomic", n)), time.get(("directory", n))
        if snoopy and directory:
            return (
                f"headline: at {n} masters the directory completes the "
                f"contended workload {snoopy / directory:.2f}x faster than "
                f"the snoopy bus ({directory:,} ns vs {snoopy:,} ns)"
            )
    return None


#: the suite table entries :mod:`repro.exp.benchsuite` drives
SUITES = {
    name: Suite(
        name=name,
        run=lambda quick, _repeats, study=study: study.run_suite(quick),
        render=render_comparison,
        check=lambda current, baseline, _tolerance, study=study: study.check(
            current, baseline
        ),
    )
    for name, study in STUDIES.items()
}
