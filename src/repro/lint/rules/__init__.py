"""Rule registry: one instance of every shipped rule, ordered by code.

Every rule implements one protocol, ``check(model) -> list[Violation]``
over the pass-1 :class:`repro.lint.model.ProjectModel`.  Each rule
looks at one file at a time and simply iterates the model's modules;
RPL015 alone reads a project-wide table (the layer contracts) to judge
each file's import edges.
"""

from __future__ import annotations

from repro.lint.rules.base import Rule, Violation
from repro.lint.rules.rpl001_rng import BannedRandomRule
from repro.lint.rules.rpl003_wallclock import WallClockRule
from repro.lint.rules.rpl005_float_eq import FloatEqualityRule
from repro.lint.rules.rpl010_blocking import BlockingInCoroutineRule
from repro.lint.rules.rpl011_await_lock import AwaitUnderLockRule
from repro.lint.rules.rpl015_layers import LayeringContractRule

__all__ = ["Rule", "Violation", "all_rules"]

_RULE_CLASSES: tuple[type[Rule], ...] = (
    BannedRandomRule,
    WallClockRule,
    FloatEqualityRule,
    BlockingInCoroutineRule,
    AwaitUnderLockRule,
    LayeringContractRule,
)


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, sorted by code."""
    return sorted((cls() for cls in _RULE_CLASSES), key=lambda r: r.code)
