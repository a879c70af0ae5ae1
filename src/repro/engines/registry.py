"""Engine registry: name -> engine singleton.

The *vocabulary* of engine names belongs to the model side
(``repro.core.platform.ENGINE_NAMES``) so configurations validate
without importing this package; the registry here must cover exactly
that vocabulary, which ``repro.engines`` asserts at import and the
``engine-contract`` lint rule re-checks in CI.
"""

from __future__ import annotations

from typing import Dict, List, Type

from ..errors import ConfigError
from .interfaces import ISimEngine

__all__ = [
    "register_engine",
    "get_engine",
    "engine_names",
    "engine_fingerprint",
]

_REGISTRY: Dict[str, ISimEngine] = {}


def register_engine(cls: Type[ISimEngine]) -> Type[ISimEngine]:
    """Class decorator: instantiate and register one engine."""
    engine = cls()
    if engine.name in _REGISTRY:
        raise ConfigError(f"duplicate engine registration {engine.name!r}")
    _REGISTRY[engine.name] = engine
    return cls


def get_engine(name: str) -> ISimEngine:
    """The engine registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def engine_names() -> List[str]:
    """Every registered engine name, in registration order."""
    return list(_REGISTRY)


def engine_fingerprint(name: str) -> Dict[str, object]:
    """Cache-key identity of the engine registered under ``name``."""
    return get_engine(name).fingerprint()
