"""`repro.lint` — AST-based invariant linter for this repository.

The repo's reproducibility guarantees (bit-identical Monte Carlo results
for any worker count, zero-re-execution campaign resume) rest on code
conventions that ordinary linters cannot see: every generator must come
from the :mod:`repro.montecarlo.rng` SeedSequence fan-out, every cache
key must be salted with ``ENGINE_VERSION``, scheduler shared state must
be mutated under its lock.  This package turns those conventions into
machine-checked invariants:

- per-rule AST visitors with stable codes (``RPL001``…), each documented
  in ``docs/LINTING.md`` with the invariant it protects;
- one two-pass **whole-program** run: pass 1 parses every file once
  into a :class:`~repro.lint.model.ProjectModel` (symbol tables,
  resolved import graph, async/call summaries); pass 2 runs the
  per-file rules over the cached ASTs and the RPL010-015 packs over the
  model — asyncio concurrency, RNG provenance dataflow, cache-key
  completeness, and declarative layering contracts;
- ``# repro-lint: disable=RPLxxx -- reason`` inline suppressions,
  applied identically to per-file and project findings;
- a ``[tool.repro-lint]`` pyproject config block (excludes, per-path
  rule enables, severity and per-rule option overrides, ``layers``
  contracts, default ``paths``);
- text and JSON reporters (schema in ``docs/LINTING.md``).

Run it as ``python -m repro.lint [paths...]``; it exits nonzero iff an
error-severity violation survives suppression.
"""

from __future__ import annotations

# The rule registry loads first: the rules import config, which imports
# rules.base, so entering the cycle at config would fail.
from repro.lint.rules import all_project_rules, all_rules
from repro.lint.rules.base import ProjectRule, Rule, Severity, Violation
from repro.lint.config import LintConfig, load_config
from repro.lint.engine import LintResult, run_whole_program
from repro.lint.model import ProjectModel, build_model

__all__ = [
    "LintConfig",
    "LintResult",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "Severity",
    "Violation",
    "all_project_rules",
    "all_rules",
    "build_model",
    "load_config",
    "run_whole_program",
]
