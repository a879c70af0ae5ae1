"""Swappable simulation engines (model/engine split).

The coherence *model* — protocol tables, controllers, bus semantics —
lives in ``repro.cache`` / ``repro.bus`` / ``repro.core``.  This
package holds the two *engines* that drive it: ``exact`` (the event
kernel, golden-trace identical) and ``batch`` (trace-driven functional
replay over the same coherence core, statistics only).  See
``docs/engines.md``.

Select an engine with ``PlatformConfig(engine=...)`` (or ``repro serve
--engine``) and run a workload through it::

    from repro.engines import get_engine
    result = get_engine(config.engine).run(config, accesses)

The import direction is one-way: engines import the model, model code
never imports this package (the ``engine-contract`` lint rule).
"""

from __future__ import annotations

from ..core.platform import ENGINE_NAMES
from .interfaces import EngineCapabilities, EngineRunResult, ISimEngine
from .registry import engine_fingerprint, engine_names, get_engine
from .exact import ExactEngine
from .batch import BatchEngine
from .workloads import (
    reference_config,
    reference_workload,
    serialize_traces,
    serialize_workload,
)

__all__ = [
    "ISimEngine",
    "EngineCapabilities",
    "EngineRunResult",
    "ExactEngine",
    "BatchEngine",
    "get_engine",
    "engine_names",
    "engine_fingerprint",
    "serialize_traces",
    "serialize_workload",
    "reference_config",
    "reference_workload",
]

# The model owns the vocabulary; the registry must cover it exactly.
assert tuple(engine_names()) == ENGINE_NAMES, (
    f"engine registry {engine_names()} disagrees with "
    f"platform.ENGINE_NAMES {ENGINE_NAMES}"
)
