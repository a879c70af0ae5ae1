"""``engine-contract`` — the model/engine split, statically enforced.

Two obligations come with the swappable-engine architecture
(:mod:`repro.engines`, ``docs/engines.md``):

* **surface completeness** — every name in
  :data:`repro.core.platform.ENGINE_NAMES` is registered, and every
  registered engine implements the full :class:`ISimEngine` surface
  (``name``, ``version``, ``capabilities``, ``run``, ``fingerprint``).
  A partial engine would fail at first use; this rule fails it at lint
  time, with the finding anchored to the class definition.
* **import direction** — model code never imports the engines package.
  The dependency is strictly one-way (engines import the model); a
  model module reaching into ``repro.engines`` would make the "exact
  engine reproduces the kernel byte-for-byte" claim circular and would
  reintroduce the coupling the split removed.  The experiment layer
  (``exp/``), the CLI (``__main__``) and this lint suite are the
  sanctioned consumers.
"""

from __future__ import annotations

import ast
import inspect
from typing import Iterable, List, Tuple

from .core import AstRule, Finding, ModuleSource, Project, register

__all__ = ["EngineContractRule", "validate_engine_surface"]

#: methods/attributes every engine must provide
REQUIRED_SURFACE = ("name", "version", "capabilities", "run", "fingerprint")

#: path fragments allowed to import repro.engines (POSIX, relative to
#: src/repro); everything else in the package is model code
_ENGINE_CONSUMERS = ("engines/", "exp/", "lint/", "__main__")


def validate_engine_surface() -> List[Tuple[str, int, str]]:
    """Problems with the engine registry ([] = sound).

    Returns ``(path, line, message)`` tuples anchored to the offending
    class definitions, importing the live registry so a stub that
    merely parses cannot pass.
    """
    from ..core.platform import ENGINE_NAMES
    from ..engines.interfaces import EngineCapabilities, ISimEngine
    from ..engines.registry import _REGISTRY, engine_names

    problems: List[Tuple[str, int, str]] = []

    def anchor(obj) -> Tuple[str, int]:
        try:
            path = inspect.getsourcefile(type(obj)) or "engines/registry.py"
            line = inspect.getsourcelines(type(obj))[1]
        except (OSError, TypeError):  # pragma: no cover - C extension
            return "engines/registry.py", 1
        marker = "repro/"
        cut = path.rfind(marker)
        return (path[cut + len(marker):] if cut >= 0 else path), line

    registered = tuple(engine_names())
    if registered != tuple(ENGINE_NAMES):
        problems.append((
            "engines/registry.py", 1,
            f"engine registry {registered} does not match "
            f"platform.ENGINE_NAMES {tuple(ENGINE_NAMES)}",
        ))
    for name, engine in _REGISTRY.items():
        path, line = anchor(engine)
        if not isinstance(engine, ISimEngine):
            problems.append((path, line,
                             f"engine {name!r} is not an ISimEngine"))
            continue
        for attr in REQUIRED_SURFACE:
            member = getattr(engine, attr, None)
            if member is None:
                problems.append((
                    path, line,
                    f"engine {name!r} lacks required member {attr!r}",
                ))
            elif attr not in ("name", "version") and not callable(member):
                problems.append((
                    path, line,
                    f"engine {name!r}: {attr!r} must be callable",
                ))
        if getattr(engine, "name", None) != name:
            problems.append((
                path, line,
                f"engine registered as {name!r} reports name "
                f"{getattr(engine, 'name', None)!r}",
            ))
        version = getattr(engine, "version", None)
        if not isinstance(version, int) or version < 1:
            problems.append((
                path, line,
                f"engine {name!r}: version must be a positive int, "
                f"got {version!r}",
            ))
        try:
            caps = engine.capabilities()
        except Exception as exc:  # noqa: BLE001 - report, don't crash lint
            problems.append((path, line,
                             f"engine {name!r}: capabilities() raised {exc!r}"))
            continue
        if not isinstance(caps, EngineCapabilities):
            problems.append((
                path, line,
                f"engine {name!r}: capabilities() returned "
                f"{type(caps).__name__}, not EngineCapabilities",
            ))
        fp = engine.fingerprint()
        if not {"name", "version"} <= set(fp):
            problems.append((
                path, line,
                f"engine {name!r}: fingerprint() must carry name and "
                f"version (cache keys depend on them), got {sorted(fp)}",
            ))
    return problems


@register
class EngineContractRule(AstRule):
    """Engines implement the full surface; model code never imports them."""

    id = "engine-contract"
    description = (
        "every registered engine implements the full ISimEngine surface "
        "and model code never imports repro.engines"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        # Surface completeness: only meaningful when linting the real
        # package (a partial path selection may not include engines/).
        if project.module("engines/registry.py") is not None:
            for path, line, message in validate_engine_surface():
                yield self.finding(path, line, message)
        yield from super().check(project)

    def visit_module(self, module: ModuleSource) -> Iterable[Finding]:
        if any(fragment in module.path for fragment in _ENGINE_CONSUMERS):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "repro.engines" or alias.name.startswith(
                        "repro.engines."
                    ):
                        yield self._import_finding(module, node, alias.name)
            elif isinstance(node, ast.ImportFrom):
                target = node.module or ""
                if node.level == 0 and (
                    target == "repro.engines"
                    or target.startswith("repro.engines.")
                ):
                    yield self._import_finding(module, node, target)
                elif node.level > 0 and (
                    target == "engines" or target.startswith("engines.")
                ):
                    yield self._import_finding(module, node, "." * node.level + target)

    def _import_finding(self, module: ModuleSource, node: ast.AST, name: str) -> Finding:
        return self.finding(
            module.path, node.lineno,
            f"model code imports engine internals ({name}); the "
            "dependency is one-way — engines import the model, never "
            "the reverse",
        )
