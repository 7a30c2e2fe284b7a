"""`repro.lint` — AST-based invariant linter for this repository.

The repo's reproducibility guarantees (bit-identical Monte Carlo results
for any worker count, zero-re-execution campaign resume) rest on code
conventions that ordinary linters cannot see: every generator must come
from the :mod:`repro.montecarlo.rng` SeedSequence fan-out, scheduler
shared state must be mutated under its lock, no coroutine may block the
event loop with a direct call.  This package turns those conventions into
machine-checked invariants:

- rules with stable codes (``RPL001``…), each documented in
  ``docs/LINTING.md`` with the invariant it protects, all implementing
  one protocol: ``check(model) -> list[Violation]``;
- one whole-program run: the engine parses every file once into a
  :class:`~repro.lint.model.ProjectModel` (parsed trees, nodes by
  type, import maps with resolved import edges) and runs every rule
  over it;
- ``# repro-lint: disable=RPLxxx -- reason`` inline suppressions;
- a ``[tool.repro-lint]`` pyproject config block (excludes, per-path
  disables, ``layers`` contracts, default ``paths``);
- text and JSON reporters (schema in ``docs/LINTING.md``).

Style and general bug patterns (bare or swallowing ``except``, shell
subprocess calls, mutable defaults, dropped task handles) belong to
ruff, configured in ``pyproject.toml``.  Run this linter as ``python -m
repro.lint [paths...]``; it exits nonzero iff a violation survives
suppression.
"""

from __future__ import annotations

from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintResult, run_whole_program
from repro.lint.model import ProjectModel, build_model
from repro.lint.rules import Rule, Violation, all_rules

__all__ = [
    "LintConfig",
    "LintResult",
    "ProjectModel",
    "Rule",
    "Violation",
    "all_rules",
    "build_model",
    "load_config",
    "run_whole_program",
]
