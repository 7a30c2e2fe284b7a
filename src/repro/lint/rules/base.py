"""The rule protocol shared by every ``repro.lint`` rule."""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.lint.config import path_matches
from repro.lint.model import ModuleInfo, ProjectModel

__all__ = ["Rule", "Violation"]


@dataclasses.dataclass(frozen=True)
class Violation:
    """One finding, anchored to a source position.

    ``line``/``col`` are 1-based line and 0-based column, matching
    :mod:`ast` node coordinates (and clickable ``path:line`` rendering).
    Every violation is an error: a finding either fails the run or
    carries a justified inline waiver.
    """

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class Rule:
    """One invariant, one stable code, one check over the project model.

    Subclasses set ``code``, ``name`` and ``scope`` and implement
    :meth:`check`, a pure function of the pass-1
    :class:`~repro.lint.model.ProjectModel` — no filesystem access, no
    global state — so a run is a deterministic function of the sources.

    ``scope`` holds fnmatch globs over paths relative to the config
    root: the files the rule holds to its invariant.  Each rule sets it
    from a constant in its module; a rule is not configurable, but a
    test may widen ``scope`` on one instance to reach its fixtures.
    """

    code: str = "RPL000"
    name: str = "unnamed-rule"
    scope: tuple[str, ...] = ("*",)

    def check(self, model: ProjectModel) -> list[Violation]:
        raise NotImplementedError

    def modules(self, model: ProjectModel) -> list[ModuleInfo]:
        """The parsed modules under this rule's ``scope``."""
        return [
            m
            for m in model.modules.values()
            if m.tree is not None and path_matches(m.rel_posix, self.scope)
        ]

    def violation(
        self, module: ModuleInfo, line: int, col: int, message: str
    ) -> Violation:
        return Violation(
            path=module.rel_posix,
            line=line,
            col=col,
            code=self.code,
            rule=self.name,
            message=message,
        )
