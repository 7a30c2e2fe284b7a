"""RPL003 — wall clock reads in deterministic paths.

Monte Carlo results and campaign job payloads must be pure functions of
``(spec, seed, ENGINE_VERSION)``; a ``time.time()`` or
``datetime.now()`` folded into a result (or a cache key) makes runs
unrepeatable and resume non-byte-equal.  The rule bans wall-clock reads
inside the deterministic packages: the MC and campaign engines, the
fleet, and the service, which simulates in virtual time
(:mod:`repro.service.clock`) so device results stay pure functions of
the request history.  Monotonic clocks for *metrics* — ``perf_counter``,
``monotonic`` — stay allowed: they measure, they never enter results.
Telemetry timestamps (event logs) are the intended use of an inline
``# repro-lint: disable=RPL003 -- <why>`` waiver.

Both calls and bare references are flagged: ``default_factory=time.time``
is as much a wall-clock read as ``time.time()``.
"""

from __future__ import annotations

import ast

from repro.lint.model import ProjectModel
from repro.lint.rules.base import Rule, Violation

__all__ = ["WallClockRule"]

DETERMINISTIC_PATHS = ("*/montecarlo/*", "*/campaign/*", "*/service/*", "*/fleet/*")

_BANNED = {
    "time.time",
    "time.time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class WallClockRule(Rule):
    code = "RPL003"
    name = "wall-clock-in-deterministic-path"
    scope = DETERMINISTIC_PATHS

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in self.modules(model):
            for node in [*module.nodes[ast.Attribute], *module.nodes[ast.Name]]:
                name = module.import_map.canonical(node)
                if name in _BANNED:
                    out.append(
                        self.violation(
                            module,
                            node.lineno,
                            node.col_offset,
                            f"wall-clock read {name} in a deterministic path; "
                            "results must not depend on when they were computed "
                            "(use time.perf_counter for durations, or suppress "
                            "with a justification for telemetry)",
                        )
                    )
        return out
