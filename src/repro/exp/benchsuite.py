"""One harness for the committed-baseline bench suites.

Four suites write a ``BENCH_<suite>.json`` result document at the
repository root and compare a fresh run against it:

* ``hotpath`` — host wall clock (:mod:`repro.exp.hotpath`), compared
  within a tolerance and only like-for-like (same engine, same Python
  implementation);
* ``scaleout`` / ``fabrics`` — the two interconnect studies
  (:mod:`repro.exp.interconnect`), simulated and therefore compared
  exactly;
* ``service`` — the campaign-service saturation study
  (:mod:`repro.service.bench`), whose deterministic admission counters
  are compared exactly.

Each suite module describes itself with a :class:`Suite`; this module
holds what they share: the baseline loader, the exact and tolerance
checkers, the writer, and :func:`run_bench`, the ``repro bench <suite>``
driver.  Suite modules are imported only when their suite runs, so
importing :mod:`repro` never pays for them.

Exit codes of :func:`run_bench`: 0 pass (or no ``--check``), 1 a
checked value drifted or regressed, 2 the comparison is impossible
(missing, unreadable, invalid or not comparable baseline).
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError

__all__ = [
    "SUITE_NAMES",
    "Suite",
    "check_exact",
    "check_tolerance",
    "get_suite",
    "load_results",
    "run_bench",
    "write_results",
]

Document = Dict[str, Any]

#: suite name -> the module whose ``SUITES`` mapping describes it
_SUITE_MODULES = {
    "hotpath": "repro.exp.hotpath",
    "scaleout": "repro.exp.interconnect",
    "fabrics": "repro.exp.interconnect",
    "service": "repro.service.bench",
}
SUITE_NAMES = tuple(_SUITE_MODULES)

_REPO_ROOT = Path(__file__).resolve().parents[3]


@dataclass(frozen=True)
class Suite:
    """One committed-baseline suite.

    ``check`` returns the failures of ``current`` against ``baseline``
    (empty = pass); ``mismatch`` the reasons the two are not comparable
    at all.  A suite with a ``tolerance`` is timed: it alone accepts
    ``--repeats`` and ``--tolerance``, and ``tolerance`` is its default
    allowed slowdown.  ``previous`` names the baseline fields the
    writer carries into a ``previous`` block, so a re-baselined file
    keeps the numbers it replaced.
    """

    name: str
    run: Callable[[bool, int], Document]
    render: Callable[[Document, Optional[Document]], str]
    check: Callable[[Document, Document, Optional[float]], List[str]]
    mismatch: Callable[[Document, Document], List[str]] = lambda cur, base: []
    tolerance: Optional[float] = None
    previous: Tuple[str, ...] = ()

    @property
    def bench_file(self) -> str:
        return f"BENCH_{self.name}.json"


def get_suite(name: str) -> Suite:
    """The suite called ``name``, importing its module on first use."""
    return importlib.import_module(_SUITE_MODULES[name]).SUITES[name]


def load_results(path: str, suite: Optional[str] = None) -> Optional[Document]:
    """Parse a result document; ``None`` when the file does not exist.

    A file that exists but cannot be read, is not JSON, is not a result
    document, or belongs to another suite raises :class:`ConfigError`
    naming the file: a corrupt baseline must never pass for an absent
    one.
    """
    try:
        with open(path) as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigError(f"baseline {path} is not a result document")
    if suite is not None and document.get("suite", suite) != suite:
        raise ConfigError(
            f"baseline {path} is a {document['suite']!r} document, "
            f"not {suite!r}"
        )
    return document


def write_results(
    path: str,
    document: Document,
    baseline: Optional[Document] = None,
    previous: Sequence[str] = (),
) -> None:
    """Write ``document``; keep ``previous`` fields of ``baseline``."""
    if baseline is not None and previous:
        document = dict(
            document, previous={key: baseline.get(key) for key in previous}
        )
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def check_exact(
    current: Document,
    baseline: Document,
    records: str,
    key: Sequence[str],
    fields: Optional[Callable[[Mapping[str, Any]], Sequence[str]]] = None,
    expected: Callable[[Mapping[str, Any]], bool] = lambda record: True,
) -> List[str]:
    """Every difference between the records two documents share.

    ``records`` names the list of records (``"points"``, ``"levels"``),
    ``key`` the fields that identify one.  Each shared record is
    compared on ``fields(record)`` — every field either side recorded
    when ``fields`` is None — with ``!=``, so a drift from zero counts.
    A baseline record the run should have produced (``expected``) but
    did not is a failure, and so is a run that shares no record at all.
    """
    def index(document: Document) -> Dict[tuple, Mapping[str, Any]]:
        return {
            tuple(record[k] for k in key): record
            for record in document.get(records, [])
        }

    ran = index(current)
    failures: List[str] = []
    shared = 0
    for ident, want in index(baseline).items():
        label = " ".join(f"{k}={v}" for k, v in zip(key, ident))
        got = ran.get(ident)
        if got is None:
            if expected(want):
                failures.append(f"{label}: in the baseline, missing from this run")
            continue
        shared += 1
        names = fields(want) if fields else sorted(set(want) | set(got))
        for name in names:
            if got.get(name) != want.get(name):
                failures.append(
                    f"{label}: {name} {got.get(name)!r} != baseline "
                    f"{want.get(name)!r}"
                )
    if not shared:
        failures.append(f"no {records} shared with the baseline")
    return failures


def check_tolerance(speedups: Mapping[str, float], tolerance: float) -> List[str]:
    """Metrics whose speedup over the baseline is below ``1 - tolerance``."""
    floor = 1.0 - tolerance
    return [
        f"{key}: {ratio:.2f}x of baseline (floor {floor:.2f}x)"
        for key, ratio in speedups.items()
        if ratio < floor
    ]


def _default_baseline(bench_file: str) -> Optional[str]:
    for candidate in (Path.cwd() / bench_file, _REPO_ROOT / bench_file):
        if candidate.is_file():
            return str(candidate)
    return None


def run_bench(args) -> int:
    """``repro bench <suite>``: run, render, optionally write and check."""
    suite = get_suite(args.scenario)
    where = f"bench {suite.name}"
    if suite.tolerance is None and (
        args.tolerance is not None or args.repeats is not None
    ):
        print(f"{where}: --tolerance and --repeats apply to the timed "
              "hotpath suite only", file=sys.stderr)
        return 2
    rebaseline = (f"python -m repro bench {suite.name} "
                  f"--output {suite.bench_file}")
    path = args.baseline or _default_baseline(suite.bench_file)
    baseline = load_results(path, suite.name) if path else None
    if args.check and baseline is None:
        # A check without a baseline cannot pass vacuously: CI relying
        # on this exit code must notice the missing file.
        print(f"{where} --check: no baseline found at "
              f"{path or suite.bench_file} -- run `{rebaseline}` to "
              "commit one", file=sys.stderr)
        return 2
    current = suite.run(args.quick, args.repeats or 3)
    print(suite.render(current, baseline))
    if args.output:
        write_results(args.output, current, baseline, suite.previous)
        print(f"results written to {args.output}")
    if baseline is None:
        print(f"(no baseline found -- run `{rebaseline}` to commit one)")
        return 0
    if not args.check:
        return 0
    mismatches = suite.mismatch(current, baseline)
    if mismatches:
        # Not a regression: the numbers are simply not comparable.
        for mismatch in mismatches:
            print(f"{where} --check: {mismatch}", file=sys.stderr)
        print(f"{where} --check: re-record the baseline under this "
              "engine/implementation to compare", file=sys.stderr)
        return 2
    tolerance = suite.tolerance if args.tolerance is None else args.tolerance
    failures = suite.check(current, baseline, tolerance)
    if failures:
        label = "REGRESSION" if suite.tolerance is not None else "DRIFT"
        for failure in failures:
            print(f"{label} {failure}", file=sys.stderr)
        return 1
    if suite.tolerance is not None:
        print(f"no regression beyond {tolerance:.0%} tolerance")
    else:
        print("every checked value matches the baseline")
    return 0
