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
must be lexically inside a ``with self._lock:`` block in the *same*
function.  ``__init__`` is exempt (the object is not shared yet), and a
nested function does not inherit its definition site's lock: it runs
later, when the lock may no longer be held.
"""

from __future__ import annotations

import ast

from repro.lint.model import ModuleInfo, ProjectModel, qualified_name
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


class LockDisciplineRule(Rule):
    code = "RPL004"
    name = "shared-state-mutation-outside-lock"
    scope = SCHEDULER_FILES

    def check(self, model: ProjectModel) -> list[Violation]:
        out: list[Violation] = []
        for module in self.modules(model):
            out.extend(self._check_module(module))
        return out

    def _check_module(self, module: ModuleInfo) -> list[Violation]:
        out: list[Violation] = []

        def visit(node: ast.AST, lock_depth: int) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in _EXEMPT_METHODS:
                    return
                lock_depth = 0  # the body runs later, lock not inherited
            elif isinstance(node, ast.Lambda):
                lock_depth = 0
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                if any(
                    qualified_name(item.context_expr) == _LOCK
                    for item in node.items
                ):
                    lock_depth += 1
            elif lock_depth == 0:
                hit: ast.Attribute | None = None
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        elts = (
                            target.elts
                            if isinstance(target, (ast.Tuple, ast.List))
                            else [target]
                        )
                        for elt in elts:
                            hit = hit or _guarded_base(elt)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        hit = hit or _guarded_base(target)
                elif isinstance(node, ast.Call):
                    if (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATORS
                    ):
                        hit = _guarded_base(node.func.value)
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
            for child in ast.iter_child_nodes(node):
                visit(child, lock_depth)

        assert module.tree is not None  # modules() yields parsed files only
        visit(module.tree, 0)
        return out
