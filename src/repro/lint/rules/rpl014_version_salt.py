"""RPL014 — cache keys must be salted with every engine version constant.

The persistent result cache (:mod:`repro.montecarlo.results_cache`)
promises that bumping a version constant invalidates every stale entry.
That only holds if every function hashing key material mixes the right
versions in; an unsalted key silently serves results computed by an old
engine.

Every ``hashlib``-hashing key builder (a function named ``*_key``,
``key`` or ``*cache_key*``) must reference ``ENGINE_VERSION``, the
floor every key owes.  On top of that, the rule uses the project model
to find the modules that actually *call* the builder (those are the
engines whose outputs the key addresses), collects every public
``*_VERSION`` constant defined in or imported by those caller modules,
and requires the builder to fold each one into the key.

Concretely: ``bler_counts_key`` is called from ``bler_mc``, which
imports both the executor (``ENGINE_VERSION``) and the batch datapath
(``DATAPATH_VERSION``) — so the key must reference both, and a future
codec module with its own ``CODEC_VERSION`` is covered the day
``bler_mc`` starts importing it, with no rule change.

A builder nobody in the project calls falls back to its own module's
version surface, so dead-looking helpers still get checked.
"""

from __future__ import annotations

import ast
import fnmatch

from repro.lint.model import FunctionInfo, ModuleInfo, ProjectModel, qualified_name
from repro.lint.rules.base import Rule, Violation

__all__ = ["CacheKeyCompletenessRule"]

#: Modules whose calls make a builder's callers (the engines it keys).
PRODUCTION_CODE = ("src/*",)

#: The version constant every key builder must reference, whoever calls it.
_FLOOR_VERSION = "ENGINE_VERSION"
#: Key-builder function name patterns.
_BUILDER_NAMES = ("*_key", "key", "*cache_key*")


class CacheKeyCompletenessRule(Rule):
    code = "RPL014"
    name = "cache-key-missing-version-constant"
    scope = PRODUCTION_CODE

    def check(self, model: ProjectModel) -> list[Violation]:
        builders = self._find_builders(model)
        if not builders:
            return []
        callers = self._callers_of(model, builders)
        graph = model.import_graph()
        out: list[Violation] = []
        for qualname, (fn, module) in sorted(builders.items()):
            required: dict[str, str] = {}  # constant -> inducing module
            caller_modules = callers.get(qualname) or {module.module}
            for caller in sorted(caller_modules):
                surface = self._version_surface(model, graph, caller)
                for const, origin in surface.items():
                    required.setdefault(const, origin)
            required.setdefault(_FLOOR_VERSION, "required of every key")
            referenced = self._referenced_names(fn)
            missing = sorted(set(required) - referenced)
            if missing:
                detail = ", ".join(
                    f"{name} ({required[name]})" for name in missing
                )
                out.append(
                    self.violation(
                        module,
                        fn.node.lineno,
                        fn.node.col_offset,
                        f"cache-key builder {fn.name}() omits version "
                        f"constant(s) {detail}; stale entries will survive "
                        "changes to those engines — fold every version "
                        "into the key payload",
                    )
                )
        return out

    # -- discovery -----------------------------------------------------
    @staticmethod
    def _find_builders(
        model: ProjectModel,
    ) -> dict[str, tuple[FunctionInfo, ModuleInfo]]:
        out: dict[str, tuple[FunctionInfo, ModuleInfo]] = {}
        for module in model.modules.values():
            for fn in module.functions.values():
                if not any(fnmatch.fnmatch(fn.name, p) for p in _BUILDER_NAMES):
                    continue
                if any(c.name.startswith("hashlib.") for c in fn.calls):
                    out[fn.qualname] = (fn, module)
        return out

    def _callers_of(
        self, model: ProjectModel, builders: dict
    ) -> dict[str, set[str]]:
        """builder qualname -> modules (dotted) with a resolved call to it."""
        callers: dict[str, set[str]] = {}
        for module in self.modules(model):
            for fn in module.functions.values():
                if fn.qualname in builders:
                    continue  # a builder calling hashlib is not a caller
                for call in fn.calls:
                    target = model.resolve(call.name)
                    if target is not None and target.qualname in builders:
                        callers.setdefault(target.qualname, set()).add(
                            module.module
                        )
        return callers

    @staticmethod
    def _version_surface(
        model: ProjectModel, graph: dict[str, set[str]], dotted: str
    ) -> dict[str, str]:
        """``*_VERSION`` constants visible from one caller module."""
        module = model.by_module.get(dotted)
        if module is None:
            return {}
        surface = {c: dotted for c in module.version_constants}
        for target in sorted(graph.get(dotted, ())):
            imported = model.by_module.get(target)
            if imported is None:
                continue
            for const in imported.version_constants:
                surface.setdefault(const, target)
        return surface

    @staticmethod
    def _referenced_names(fn: FunctionInfo) -> set[str]:
        """Final name components referenced anywhere in the builder body."""
        out: set[str] = set()
        for node in ast.walk(fn.node):
            dotted = qualified_name(node)
            if dotted is not None:
                out.add(dotted.split(".")[-1])
        return out
