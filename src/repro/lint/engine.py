"""Lint engine: discover files, build the model, run rules, filter, sort.

:func:`build_model` parses every discovered file exactly once into a
:class:`~repro.lint.model.ProjectModel`; every rule then runs over that
one model.  Findings are filtered through ``per-path`` disables and
inline suppressions and sorted by ``(path, line, col, code)``, so
output is deterministic.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from typing import Iterable, Sequence

from repro.lint.config import LintConfig
from repro.lint.model import ProjectModel, build_model, rel_posix_of
from repro.lint.rules import Rule, all_rules
from repro.lint.rules.base import Violation

__all__ = ["LintResult", "discover_files", "run_whole_program"]

#: Code reported for files the parser rejects (not a rule; always on).
PARSE_ERROR_CODE = "RPL000"


@dataclasses.dataclass
class LintResult:
    """Aggregate outcome of one lint run."""

    violations: list[Violation]
    files_checked: int
    suppressed: int

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0


def discover_files(
    paths: Sequence[str | os.PathLike], config: LintConfig
) -> list[pathlib.Path]:
    """Python files under ``paths``, minus config excludes, sorted."""
    root = pathlib.Path(config.root)
    seen: set[pathlib.Path] = set()
    out: list[pathlib.Path] = []
    for entry in paths:
        p = pathlib.Path(entry)
        if p.is_dir():
            candidates: Iterable[pathlib.Path] = sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            candidates = [p]
        else:
            candidates = []
        for c in candidates:
            r = c.resolve()
            # Bytecode cache dirs can shadow sources with stale .py files
            # (editor backups, pytest caches); never lint them.
            if "__pycache__" in c.parts:
                continue
            if r in seen or config.is_excluded(rel_posix_of(c, root)):
                continue
            seen.add(r)
            out.append(c)
    return sorted(out, key=lambda p: rel_posix_of(p, root))


def _parse_errors(model: ProjectModel) -> list[Violation]:
    """One RPL000 finding per file that could not be read or parsed."""
    out: list[Violation] = []
    for mod in model.modules.values():
        exc = mod.parse_error
        if exc is None:
            continue
        if isinstance(exc, SyntaxError):
            line, col, rule = exc.lineno or 1, (exc.offset or 1) - 1, "syntax-error"
            message = f"cannot parse: {exc.msg}"
        else:
            line, col, rule = 1, 0, "unreadable-file"
            message = f"cannot read file: {exc}"
        out.append(
            Violation(mod.rel_posix, line, col, PARSE_ERROR_CODE, rule, message)
        )
    return out


def run_whole_program(
    paths: Sequence[str | os.PathLike],
    config: LintConfig | None = None,
    *,
    rules: Sequence[Rule] | None = None,
    model: ProjectModel | None = None,
) -> LintResult:
    """Discover → build the model → run rules → filter suppressions → sort.

    The model parses each discovered file exactly once, so the parse
    count equals the file count however many rules run.  ``rules``
    defaults to :func:`~repro.lint.rules.all_rules`.  A caller holding a
    prebuilt ``model`` (its config wins) skips discovery and parsing.
    """
    if model is None:
        config = config if config is not None else LintConfig()
        model = build_model(discover_files(paths, config), config)
    config = model.config
    violations: list[Violation] = []
    suppressed = 0
    for rule in rules if rules is not None else all_rules():
        for v in rule.check(model):
            if config.is_disabled(v.code, v.path):
                continue
            if model.modules[v.path].suppressions.is_suppressed(v.code, v.line):
                suppressed += 1
            else:
                violations.append(v)
    violations.extend(_parse_errors(model))
    violations.sort(key=Violation.sort_key)
    return LintResult(
        violations=violations,
        files_checked=len(model.modules),
        suppressed=suppressed,
    )
