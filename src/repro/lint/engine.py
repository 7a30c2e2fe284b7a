"""Lint engine: file discovery and the two-pass whole-program run.

Pass 1 parses every discovered file exactly once into a
:class:`~repro.lint.model.ProjectModel`; pass 2 runs the per-file rules
over the cached ASTs and the project rules over the model.  Findings
are filtered through inline suppressions and sorted by
``(path, line, col, code)``, so output is deterministic.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from typing import Iterable, Sequence

from repro.lint.config import LintConfig
from repro.lint.model import ModuleInfo, ProjectModel, build_model
from repro.lint.rules import ProjectRule, Rule, all_project_rules, all_rules
from repro.lint.rules.base import Severity, Violation

__all__ = [
    "FileContext",
    "LintResult",
    "discover_files",
    "run_whole_program",
]

#: Code reported for files the parser rejects (not a rule; always on).
PARSE_ERROR_CODE = "RPL000"


@dataclasses.dataclass
class FileContext:
    """Everything a rule may look at for one file."""

    path: str
    rel_posix: str
    source: str
    config: LintConfig

    @property
    def display_path(self) -> str:
        return self.rel_posix


@dataclasses.dataclass
class LintResult:
    """Aggregate outcome of one lint run."""

    violations: list[Violation]
    files_checked: int
    suppressed: int

    @property
    def errors(self) -> int:
        return sum(1 for v in self.violations if v.severity is Severity.ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for v in self.violations if v.severity is Severity.WARNING)

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


def _rel_posix(path: pathlib.Path, root: pathlib.Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


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
            if r in seen or config.is_excluded(_rel_posix(c, root)):
                continue
            seen.add(r)
            out.append(c)
    return sorted(out, key=lambda p: _rel_posix(p, pathlib.Path(config.root)))


def _lint_module(
    mod: ModuleInfo, config: LintConfig, rules: Sequence[Rule]
) -> tuple[list[Violation], int]:
    """Per-file rules over a pass-1 module: no re-read, no re-parse."""
    if mod.tree is None:
        exc = mod.parse_error
        if isinstance(exc, SyntaxError):
            v = Violation(
                path=mod.rel_posix,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                rule="syntax-error",
                severity=Severity.ERROR,
                message=f"cannot parse: {exc.msg}",
            )
        else:
            v = Violation(
                path=mod.rel_posix,
                line=1,
                col=0,
                code=PARSE_ERROR_CODE,
                rule="unreadable-file",
                severity=Severity.ERROR,
                message=f"cannot read file: {exc}",
            )
        return [v], 0
    ctx = FileContext(
        path=mod.path, rel_posix=mod.rel_posix, source=mod.source, config=config
    )
    enabled = config.enabled_codes([r.code for r in rules], mod.rel_posix)
    violations: list[Violation] = []
    suppressed = 0
    for rule in rules:
        if rule.code not in enabled:
            continue
        for violation in rule.check(mod.tree, ctx):
            if mod.suppressions.is_suppressed(violation.code, violation.line):
                suppressed += 1
            else:
                violations.append(violation)
    return violations, suppressed


def run_whole_program(
    paths: Sequence[str | os.PathLike],
    config: LintConfig | None = None,
    *,
    file_rules: Sequence[Rule] | None = None,
    project_rules: Sequence[ProjectRule] | None = None,
    model: ProjectModel | None = None,
) -> LintResult:
    """The two-pass analysis: project model, then every rule pack.

    Pass 1 parses each discovered file exactly once into the
    :class:`ProjectModel`; pass 2 runs the per-file rules against the
    cached ASTs and the whole-program rules against the model, so the
    total parse count equals the file count regardless of how many
    rules are enabled.  Inline suppressions and per-path config apply
    to project findings exactly as they do to per-file ones.

    Callers may hand in a prebuilt ``model`` to run several rule
    selections over one parse.
    """
    config = config if config is not None else LintConfig()
    file_rules = list(file_rules) if file_rules is not None else all_rules()
    project_rules = (
        list(project_rules) if project_rules is not None else all_project_rules()
    )
    if model is None:
        files = discover_files(paths, config)
        model = build_model(list(files), config)
    modules = sorted(model.modules.values(), key=lambda m: m.rel_posix)
    violations: list[Violation] = []
    suppressed = 0
    for mod in modules:
        mod_violations, mod_suppressed = _lint_module(mod, config, file_rules)
        violations.extend(mod_violations)
        suppressed += mod_suppressed
    project_codes = [r.code for r in project_rules]
    for rule in project_rules:
        for violation in rule.check_project(model):
            enabled = config.enabled_codes(project_codes, violation.path)
            if violation.code not in enabled:
                continue
            mod = model.modules.get(violation.path)
            if mod is not None and mod.suppressions.is_suppressed(
                violation.code, violation.line
            ):
                suppressed += 1
            else:
                violations.append(violation)
    violations.sort(key=Violation.sort_key)
    return LintResult(
        violations=violations,
        files_checked=len(model.modules),
        suppressed=suppressed,
    )
