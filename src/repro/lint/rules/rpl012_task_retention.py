"""RPL012 — fire-and-forget ``asyncio.create_task``.

A task whose handle is dropped has two failure modes, both silent.
Python keeps only a *weak* reference to running tasks, so a dropped
handle can be garbage-collected mid-flight and the work simply stops.
And when the task raises, nobody awaits the exception: it surfaces (if
ever) as a destructor warning long after the cause, which in this
service means a dead flush loop that looks like mysteriously growing
tail latency rather than a traceback.

The rule flags ``asyncio.create_task`` / ``asyncio.ensure_future`` /
``<loop>.create_task`` whose result is used as a bare expression
statement.  Retaining patterns — assignment (``self._task = ...``),
``await``, passing the handle onward — all pass.  The repo idiom for a
genuinely detached task is to retain it and add a done-callback that
logs; a justified inline waiver covers the rare exception.
"""

from __future__ import annotations

from repro.lint.model import ProjectModel
from repro.lint.rules.base import Rule, Violation

__all__ = ["FireAndForgetTaskRule"]

PRODUCTION_CODE = ("src/*",)


class FireAndForgetTaskRule(Rule):
    code = "RPL012"
    name = "fire-and-forget-task"
    scope = PRODUCTION_CODE

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in self.modules(model):
            for fn in module.functions.values():
                for spawn in fn.task_spawns:
                    if spawn.retained:
                        continue
                    out.append(
                        self.violation(
                            module,
                            spawn.lineno,
                            spawn.col,
                            f"{spawn.name}(...) in {fn.name}() discards its "
                            "task handle; the task can be GC'd mid-flight "
                            "and its exception is never retrieved — keep the "
                            "handle and await or done-callback it",
                        )
                    )
        return out
