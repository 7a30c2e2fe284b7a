"""RPL011 — ``await`` while holding a ``threading.Lock``.

A thread lock held across an ``await`` is a deadlock and priority-
inversion machine: the suspension lets any other coroutine on the loop
run, and if one of them (or a callback on another thread) tries to take
the same lock, the loop blocks forever — the lock's owner can only
release it after the event loop resumes it.  Even short of deadlock,
every event-loop task serializes behind a lock meant to order *thread*
access for microseconds, not I/O waits.

The rule flags an ``await`` inside a ``with`` (never ``async with`` —
asyncio primitives are await-safe) in the same function, whose context
expression constructs or names a thread lock (``threading.Lock()``,
``self._lock``, any ``*lock*`` name by repo convention).  The fix is to
compute under the lock and await outside it, or switch to
``asyncio.Lock``.
"""

from __future__ import annotations

import ast
from typing import Any, Iterator

from repro.lint.model import ImportMap, ProjectModel
from repro.lint.rules.base import Rule, Violation

__all__ = ["AwaitUnderLockRule"]

PRODUCTION_CODE = ("src/*",)

_LOCK_FACTORIES = {"threading.Lock", "threading.RLock", "threading.Condition"}


def _thread_locks(imports: ImportMap, node: ast.With) -> list[str]:
    """The thread locks a ``with`` takes, rendered as dotted names."""
    locks = []
    for item in node.items:
        expr = item.context_expr
        call = isinstance(expr, ast.Call)
        name = imports.canonical(expr.func if call else expr)
        if name is not None and (
            name in _LOCK_FACTORIES if call else "lock" in name.split(".")[-1].lower()
        ):
            locks.append(name)
    return locks


def _awaits_under_lock(
    imports: ImportMap, tree: ast.Module
) -> Iterator[tuple[ast.Await, str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """``(await, lock, def)`` for every ``await`` that a ``with`` in its own
    def holds a thread lock around; ``lock`` is the innermost one.  A
    nested def or lambda holds none: its body runs later."""
    stack: list[tuple[ast.AST, str | None, Any]] = [(tree, None, None)]
    while stack:
        node, lock, fn = stack.pop()
        if isinstance(node, ast.Await) and lock is not None and fn is not None:
            yield node, lock, fn
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            lock, fn = None, fn if isinstance(node, ast.Lambda) else node
        elif isinstance(node, ast.With):
            lock = next(reversed(_thread_locks(imports, node)), lock)
        stack.extend((child, lock, fn) for child in ast.iter_child_nodes(node))


class AwaitUnderLockRule(Rule):
    code = "RPL011"
    name = "await-holding-thread-lock"
    scope = PRODUCTION_CODE

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in self.modules(model):
            assert module.tree is not None  # modules() yields parsed files only
            if not (module.nodes[ast.Await] and module.nodes[ast.With]):
                continue  # nothing to flag: skip the walk
            for node, lock, fn in _awaits_under_lock(module.import_map, module.tree):
                out.append(
                    self.violation(
                        module,
                        node.lineno,
                        node.col_offset,
                        f"await inside 'with {lock}:' in {fn.name}(); a "
                        "thread lock held across a suspension point can "
                        "deadlock the loop — release before awaiting or "
                        "use asyncio.Lock",
                    )
                )
        return out
