"""Rule registry: one instance of every shipped rule, ordered by code.

Two registries, matching the two analysis passes:

- :func:`all_rules` — per-file rules (RPL001-007), which look at one
  parsed file with no cross-file knowledge;
- :func:`all_project_rules` — whole-program rules (RPL010-015), which
  run against the pass-1 :class:`repro.lint.model.ProjectModel`.
"""

from __future__ import annotations

from repro.lint.rules.base import ProjectRule, Rule, Severity, Violation
from repro.lint.rules.rpl001_rng import BannedRandomRule
from repro.lint.rules.rpl003_wallclock import WallClockRule
from repro.lint.rules.rpl004_lock import LockDisciplineRule
from repro.lint.rules.rpl005_float_eq import FloatEqualityRule
from repro.lint.rules.rpl006_except import ExceptionSwallowRule
from repro.lint.rules.rpl007_shell import ShellInvocationRule
from repro.lint.rules.rpl010_blocking import BlockingInCoroutineRule
from repro.lint.rules.rpl011_await_lock import AwaitUnderLockRule
from repro.lint.rules.rpl012_task_retention import FireAndForgetTaskRule
from repro.lint.rules.rpl013_rng_provenance import RngProvenanceRule
from repro.lint.rules.rpl014_version_salt import CacheKeyCompletenessRule
from repro.lint.rules.rpl015_layers import LayeringContractRule

__all__ = [
    "ProjectRule",
    "Rule",
    "Severity",
    "Violation",
    "all_project_rules",
    "all_rules",
]

_RULE_CLASSES: tuple[type[Rule], ...] = (
    BannedRandomRule,
    WallClockRule,
    LockDisciplineRule,
    FloatEqualityRule,
    ExceptionSwallowRule,
    ShellInvocationRule,
)

_PROJECT_RULE_CLASSES: tuple[type[ProjectRule], ...] = (
    BlockingInCoroutineRule,
    AwaitUnderLockRule,
    FireAndForgetTaskRule,
    RngProvenanceRule,
    CacheKeyCompletenessRule,
    LayeringContractRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered per-file rule, sorted by code."""
    return sorted((cls() for cls in _RULE_CLASSES), key=lambda r: r.code)


def all_project_rules() -> list[ProjectRule]:
    """Fresh instances of every whole-program rule, sorted by code."""
    return sorted(
        (cls() for cls in _PROJECT_RULE_CLASSES), key=lambda r: r.code
    )
