"""RPL011 — ``await`` while holding a ``threading.Lock``.

A thread lock held across an ``await`` is a deadlock and priority-
inversion machine: the suspension lets any other coroutine on the loop
run, and if one of them (or an engine-thread callback) tries to take
the same lock, the loop blocks forever — the lock's owner can only
release it after the event loop resumes it.  Even short of deadlock,
every event-loop task serializes behind a lock meant to order *thread*
access for microseconds, not I/O waits.

Detection comes from the pass-1 function summaries: a ``with`` (never
``async with`` — asyncio primitives are await-safe) whose context
expression constructs or names a thread lock (``threading.Lock()``,
``self._lock``, any ``*lock*`` name by repo convention) containing an
``await`` in the same function body.  The fix is to compute under the
lock and await outside it, or switch to ``asyncio.Lock``.
"""

from __future__ import annotations

from repro.lint.model import ProjectModel
from repro.lint.rules.base import Rule, Violation

__all__ = ["AwaitUnderLockRule"]

PRODUCTION_CODE = ("src/*",)


class AwaitUnderLockRule(Rule):
    code = "RPL011"
    name = "await-holding-thread-lock"
    scope = PRODUCTION_CODE

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in self.modules(model):
            for fn in module.functions.values():
                for lineno, col, lock in fn.awaits_under_lock:
                    out.append(
                        self.violation(
                            module,
                            lineno,
                            col,
                            f"await inside 'with {lock}:' in {fn.name}(); a "
                            "thread lock held across a suspension point can "
                            "deadlock the loop — release before awaiting or "
                            "use asyncio.Lock",
                        )
                    )
        return out
