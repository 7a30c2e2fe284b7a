"""Rule/violation primitives shared by every ``repro.lint`` rule."""

from __future__ import annotations

import ast
import dataclasses
import enum
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lint.config import LintConfig
    from repro.lint.engine import FileContext
    from repro.lint.model import ModuleInfo, ProjectModel

__all__ = ["ProjectRule", "Rule", "Severity", "Violation", "qualified_name"]


class Severity(enum.Enum):
    """How a violation affects the exit status.

    ``ERROR`` violations fail the run; ``WARNING`` violations are
    reported but exit 0.  Severities are per-rule defaults that the
    ``[tool.repro-lint.severity]`` config table can override.
    """

    WARNING = "warning"
    ERROR = "error"


@dataclasses.dataclass(frozen=True)
class Violation:
    """One finding, anchored to a source position.

    ``line``/``col`` are 1-based line and 0-based column, matching
    :mod:`ast` node coordinates (and clickable ``path:line`` rendering).
    """

    path: str
    line: int
    col: int
    code: str
    rule: str
    severity: Severity
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)

    def to_dict(self) -> dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
        }


class Rule:
    """Base class: one invariant, one stable code, one AST pass.

    Subclasses set the class attributes and implement :meth:`check`,
    returning violations for a parsed file.  Rules must be pure
    functions of ``(tree, context)`` — no filesystem access, no global
    state — so a run is a deterministic function of the sources.

    ``default_options`` documents every knob the rule reads from its
    ``[tool.repro-lint.rules.<code>]`` config table; user config is
    merged over it (unknown keys rejected by the config loader).
    """

    code: str = "RPL000"
    name: str = "unnamed-rule"
    severity: Severity = Severity.ERROR
    rationale: str = ""
    default_options: Mapping[str, Any] = {}

    def check(self, tree: ast.Module, ctx: "FileContext") -> list[Violation]:
        raise NotImplementedError

    def options(self, ctx: "FileContext") -> Mapping[str, Any]:
        """This rule's options with config overrides applied."""
        merged = dict(self.default_options)
        merged.update(ctx.config.rule_options.get(self.code, {}))
        return merged

    def violation(self, ctx: "FileContext", node: ast.AST, message: str) -> Violation:
        return Violation(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            rule=self.name,
            severity=ctx.config.severity_for(self.code, self.severity),
            message=message,
        )


class ProjectRule(Rule):
    """Base class for whole-program rules (the pass-2 packs, RPL010+).

    A project rule sees the :class:`~repro.lint.model.ProjectModel`
    built by pass 1 — every module's AST, import edges, and function
    summaries at once — in :meth:`check_project`, instead of one file.

    Implementations stay pure functions of ``(model,)`` — the model owns
    the config — and report through :meth:`project_violation` so path
    rendering, severity overrides, and suppression filtering behave
    exactly like per-file rules.
    """

    def check_project(self, model: "ProjectModel") -> list[Violation]:
        raise NotImplementedError

    def project_options(self, config: "LintConfig") -> Mapping[str, Any]:
        merged = dict(self.default_options)
        merged.update(config.rule_options.get(self.code, {}))
        return merged

    def project_violation(
        self,
        model: "ProjectModel",
        module: "ModuleInfo",
        lineno: int,
        col: int,
        message: str,
    ) -> Violation:
        return Violation(
            path=module.rel_posix,
            line=lineno,
            col=col,
            code=self.code,
            rule=self.name,
            severity=model.config.severity_for(self.code, self.severity),
            message=message,
        )


def qualified_name(node: ast.AST) -> str | None:
    """Dotted name of a Name/Attribute chain (``np.random.default_rng``).

    Returns ``None`` for anything that is not a pure attribute chain
    (calls, subscripts, …), which rules treat as "not statically
    resolvable" rather than guessing.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
