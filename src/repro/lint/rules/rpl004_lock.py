"""RPL004 — scheduler shared state is mutated only under its lock.

The campaign scheduler fans jobs out to a thread pool; its ``states`` /
``results`` maps are read by worker threads (dependency results are
snapshotted per job) while the orchestrating thread mutates them.  The
repo's convention is that every mutation happens inside
``with self._lock:`` so the maps can never be observed mid-update —
a torn read turns into a wrong dependency payload, which is exactly the
kind of silent corruption the resume tests cannot catch.

The rule applies to ``*/campaign/scheduler.py``.  Inside any class there, a statement that
mutates ``self.<guarded attr>`` — assignment, augmented assignment,
subscript store/delete, or a mutating method call such as ``.pop()`` —
must be lexically inside a ``with self._lock:`` (or ``async with``)
block in the *same* function.  ``__init__`` is exempt (the object is
not shared yet), and a nested function or lambda does not inherit its
definition site's lock or ``__init__``'s exemption: it runs later, when
the lock may no longer be held and the object may be shared.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.model import ProjectModel, qualified_name, walk_locked
from repro.lint.rules.base import Rule, Violation

__all__ = ["LockDisciplineRule"]

SCHEDULER_FILES = ("*/campaign/scheduler.py",)

_GUARDED = {"states", "results"}
_LOCK = "self._lock"
_EXEMPT_METHODS = {"__init__"}

_MUTATORS = {
    "update", "pop", "popitem", "clear", "setdefault",
    "append", "extend", "insert", "remove", "add", "discard",
}


def _guarded_base(node: ast.AST) -> ast.Attribute | None:
    """The ``self.<attr>`` node a store/delete targets, if guarded."""
    while isinstance(node, (ast.Subscript, ast.Starred)):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and node.attr in _GUARDED
    ):
        return node
    return None


def _runs_with(fn: ast.AST) -> Iterator[ast.AST]:
    """The nodes of ``fn`` that run when it does: not the bodies of the
    defs and lambdas nested in it."""
    stack = [fn]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )


def _lock_of(node: ast.With | ast.AsyncWith) -> list[str]:
    return [_LOCK for item in node.items if qualified_name(item.context_expr) == _LOCK]


def _mutated(node: ast.AST) -> ast.Attribute | None:
    """The guarded ``self.<attr>`` a statement or call mutates, if any."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _MUTATORS:
            return _guarded_base(func.value)
        return None
    if isinstance(node, ast.Delete):
        elts = node.targets
    elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        targets: list[ast.expr] = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        elts = [
            elt
            for target in targets
            for elt in (target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target])
        ]
    else:
        return None
    return next(filter(None, map(_guarded_base, elts)), None)


class LockDisciplineRule(Rule):
    code = "RPL004"
    name = "shared-state-mutation-outside-lock"
    scope = SCHEDULER_FILES

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in self.modules(model):
            assert module.tree is not None  # modules() yields parsed files only
            exempt = {
                id(node)
                for kind in (ast.FunctionDef, ast.AsyncFunctionDef)
                for fn in module.nodes[kind]
                if fn.name in _EXEMPT_METHODS
                for node in _runs_with(fn)
            }
            for node, held, _ in walk_locked(module.tree, _lock_of):
                hit = None if held or id(node) in exempt else _mutated(node)
                if hit is not None:
                    out.append(
                        self.violation(
                            module,
                            getattr(node, "lineno", 1),
                            getattr(node, "col_offset", 0),
                            f"mutation of shared self.{hit.attr} outside "
                            f"'with {_LOCK}:'",
                        )
                    )
        return out
