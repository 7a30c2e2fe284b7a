"""Pass 1 of the whole-program analyzer: the project model.

Per-file AST rules (RPL001–007) see one file at a time; the concurrency
and determinism contracts they protect are *program* properties — a
coroutine is only blocking if something it transitively calls blocks, an
RNG is only traceable if the function that built it is known, a layering
violation is a property of the import *graph*.  This module builds the
shared model those whole-program rules (RPL010–015) run against:

- one :class:`ModuleInfo` per file: dotted module name, the parsed AST
  (parsed exactly once — pass 2 reuses it), suppression table, resolved
  import edges (absolute targets, relative imports resolved against the
  module's own package), and module-level ``*_VERSION`` constants;
- one :class:`FunctionInfo` per function/method: coroutine-ness, every
  call site with its canonical dotted target, ``await``-while-holding-a-
  ``threading.Lock`` regions, and ``asyncio.create_task`` retention;
- the :class:`ProjectModel` tying them together: qualified-name
  function lookup (so call edges cross files) and the import graph.

Resolution is lexical and conservative, like the per-file rules: a call
through an object attribute (``device.write_block``) does not resolve,
so no edge is created and no rule guesses.  ``self.method()`` resolves
within the defining class — the one object-dispatch case a linter can
answer soundly.
"""

from __future__ import annotations

import ast
import dataclasses
import fnmatch
import pathlib

from repro.lint.config import LintConfig
from repro.lint.rules.imports import ImportMap, resolve_relative
from repro.lint.suppress import Suppressions

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ImportEdge",
    "ModuleInfo",
    "ProjectModel",
    "TaskSpawn",
    "build_model",
    "module_name_for",
]

#: Module-level constants matching these patterns are tracked as engine
#: version markers (RPL014's completeness domain).
VERSION_PATTERNS = ("*_VERSION",)


def module_name_for(path: pathlib.Path) -> str:
    """Dotted module name of a file, walked up through ``__init__.py`` dirs.

    ``src/repro/service/app.py`` → ``repro.service.app`` because
    ``repro/`` and ``repro/service/`` are packages while ``src/`` is not.
    A loose file (no enclosing package) is just its stem, which keeps
    single-file fixture models working.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.resolve().parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:  # a loose __init__.py with no package parent
        parts = [path.stem]
    return ".".join(reversed(parts))


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One statically-resolvable call expression inside a function."""

    name: str  # canonical dotted target (import-alias resolved)
    lineno: int
    col: int
    awaited: bool  # lexically under an ``await``


@dataclasses.dataclass(frozen=True)
class TaskSpawn:
    """One ``asyncio.create_task``-family call and how its handle fared."""

    name: str
    lineno: int
    col: int
    retained: bool  # assigned/awaited/passed on vs. bare expression stmt


@dataclasses.dataclass
class FunctionInfo:
    """Async/call summary of one function or method."""

    qualname: str  # module-qualified: ``pkg.mod.Class.meth``
    name: str
    module: str
    lineno: int
    col: int
    is_coroutine: bool
    params: list[str]
    calls: list[CallSite]
    awaits_under_lock: list[tuple[int, int, str]]  # (line, col, lock expr)
    task_spawns: list[TaskSpawn]
    node: ast.AST  # the defining FunctionDef/AsyncFunctionDef


@dataclasses.dataclass
class ImportEdge:
    """One import statement edge, with its absolute target module."""

    target: str
    lineno: int
    col: int
    names: tuple[str, ...]  # imported names for ``from x import a, b``


@dataclasses.dataclass
class ModuleInfo:
    """Everything pass 2 may ask about one file."""

    path: str
    rel_posix: str
    module: str
    source: str
    tree: ast.Module | None
    suppressions: Suppressions
    imports: list[ImportEdge]
    import_map: ImportMap | None
    version_constants: set[str]
    functions: dict[str, FunctionInfo]  # key: in-module qualname
    parse_error: Exception | None = None


_TASK_FACTORIES = {"asyncio.create_task", "asyncio.ensure_future"}
_LOCK_FACTORIES = {"threading.Lock", "threading.RLock", "threading.Condition"}


def _is_lockish(expr: ast.AST, imports: ImportMap) -> str | None:
    """Render a ``with`` context expression if it looks like a thread lock.

    Matches a direct ``threading.Lock()`` construction or any name /
    attribute chain whose final component contains ``lock`` (the repo
    convention: ``self._lock``, ``registry_lock``, …).  ``async with``
    never reaches here — asyncio locks are await-safe by design.
    """
    node = expr.func if isinstance(expr, ast.Call) else expr
    name = imports.canonical(node)
    if name is None:
        return None
    if isinstance(expr, ast.Call):
        return name if name in _LOCK_FACTORIES else None
    return name if "lock" in name.split(".")[-1].lower() else None


class _ModuleVisitor(ast.NodeVisitor):
    """One walk collecting functions, calls, and async hazards."""

    def __init__(self, module: str, imports: ImportMap, local_defs: set[str]):
        self.module = module
        self.imports = imports
        self.local_defs = local_defs  # module-level function/class names
        self.functions: dict[str, FunctionInfo] = {}
        self._class_stack: list[str] = []
        self._fn_stack: list[FunctionInfo] = []
        self._lock_stack: list[str] = []
        self._await_depth = 0

    # -- name canonicalization ----------------------------------------
    def _canonical(self, func: ast.AST) -> str | None:
        """Dotted call target in module-absolute terms, or None."""
        name = self.imports.canonical(func)
        if name is None:
            return None
        head = name.split(".", 1)[0]
        if head == "self" and self._class_stack:
            # self.meth() resolves within the lexically enclosing class.
            rest = name.split(".", 1)[1] if "." in name else ""
            return f"{self.module}.{self._class_stack[-1]}.{rest}" if rest else None
        if head in self.local_defs and self.imports.alias_of(head) is None:
            return f"{self.module}.{name}"
        return name

    # -- function scaffolding -----------------------------------------
    def _enter_function(self, node, is_coroutine: bool):
        scope = ".".join(self._class_stack + [node.name])
        args = node.args
        params = [
            a.arg
            for a in [
                *args.posonlyargs, *args.args, *args.kwonlyargs,
                *([args.vararg] if args.vararg else []),
                *([args.kwarg] if args.kwarg else []),
            ]
        ]
        info = FunctionInfo(
            qualname=f"{self.module}.{scope}",
            name=node.name,
            module=self.module,
            lineno=node.lineno,
            col=node.col_offset,
            is_coroutine=is_coroutine,
            params=params,
            calls=[],
            awaits_under_lock=[],
            task_spawns=[],
            node=node,
        )
        self.functions[scope] = info
        self._fn_stack.append(info)
        # A nested def's body runs later: locks held here are not held
        # there, so the stacks reset around the body.
        saved_locks, self._lock_stack = self._lock_stack, []
        saved_await, self._await_depth = self._await_depth, 0
        for child in node.body:
            self.visit(child)
        self._lock_stack = saved_locks
        self._await_depth = saved_await
        self._fn_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node, is_coroutine=False)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node, is_coroutine=True)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def visit_Lambda(self, node: ast.Lambda) -> None:
        saved_locks, self._lock_stack = self._lock_stack, []
        self.generic_visit(node)
        self._lock_stack = saved_locks

    # -- async hazards -------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        locks = [
            rendered
            for item in node.items
            if (rendered := _is_lockish(item.context_expr, self.imports))
        ]
        self._lock_stack.extend(locks)
        for item in node.items:
            self.visit(item.context_expr)
        for child in node.body:
            self.visit(child)
        if locks:
            del self._lock_stack[-len(locks):]

    def visit_Await(self, node: ast.Await) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is not None and self._lock_stack:
            fn.awaits_under_lock.append(
                (node.lineno, node.col_offset, self._lock_stack[-1])
            )
        self._await_depth += 1
        self.generic_visit(node)
        self._await_depth -= 1

    def visit_Expr(self, node: ast.Expr) -> None:
        # A bare create_task(...) statement: the handle is dropped.
        value = node.value
        if isinstance(value, ast.Call):
            self._record_task(value, retained=False)
        self.generic_visit(node)

    def _task_target(self, call: ast.Call) -> str | None:
        name = self._canonical(call.func)
        if name in _TASK_FACTORIES:
            return name
        # loop.create_task / anything.create_task: same hazard.
        if isinstance(call.func, ast.Attribute) and call.func.attr == "create_task":
            return name or "<loop>.create_task"
        return None

    def _record_task(self, call: ast.Call, retained: bool) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        target = self._task_target(call)
        if fn is not None and target is not None:
            fn.task_spawns.append(
                TaskSpawn(target, call.lineno, call.col_offset, retained)
            )

    # -- call sites ----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is not None:
            if self._task_target(node) is not None and not any(
                t.lineno == node.lineno and t.col == node.col_offset
                for t in fn.task_spawns
            ):
                self._record_task(node, retained=True)
            name = self._canonical(node.func)
            if name is not None:
                fn.calls.append(
                    CallSite(name, node.lineno, node.col_offset, self._await_depth > 0)
                )
        self.generic_visit(node)


def _collect_imports(tree: ast.Module, module: str) -> list[ImportEdge]:
    edges: list[ImportEdge] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                edges.append(
                    ImportEdge(alias.name, node.lineno, node.col_offset, ())
                )
        elif isinstance(node, ast.ImportFrom):
            target = resolve_relative(module, node.level, node.module)
            if target is None:
                continue
            edges.append(
                ImportEdge(
                    target,
                    node.lineno,
                    node.col_offset,
                    tuple(alias.name for alias in node.names),
                )
            )
    return edges


def _version_constants(tree: ast.Module) -> set[str]:
    """Public module-level ``*_VERSION`` assignments."""
    out: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and not target.id.startswith("_")
                and any(fnmatch.fnmatch(target.id, p) for p in VERSION_PATTERNS)
            ):
                out.add(target.id)
    return out


def build_module_info(
    path: str | pathlib.Path, config: LintConfig, *, module: str | None = None
) -> ModuleInfo:
    """Parse one file into its :class:`ModuleInfo` (parse errors recorded)."""
    p = pathlib.Path(path)
    root = pathlib.Path(config.root)
    try:
        rel_posix = p.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel_posix = p.resolve().as_posix()
    modname = module if module is not None else module_name_for(p)
    try:
        source = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return ModuleInfo(
            path=str(p), rel_posix=rel_posix, module=modname, source="",
            tree=None, suppressions=Suppressions(), imports=[], import_map=None,
            version_constants=set(), functions={}, parse_error=exc,
        )
    try:
        tree = ast.parse(source, filename=str(p))
    except SyntaxError as exc:
        return ModuleInfo(
            path=str(p), rel_posix=rel_posix, module=modname, source=source,
            tree=None, suppressions=Suppressions.from_source(source), imports=[],
            import_map=None, version_constants=set(), functions={},
            parse_error=exc,
        )
    imports = ImportMap(tree, module=modname)
    local_defs = {
        n.name
        for n in tree.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    visitor = _ModuleVisitor(modname, imports, local_defs)
    for child in tree.body:
        visitor.visit(child)
    return ModuleInfo(
        path=str(p),
        rel_posix=rel_posix,
        module=modname,
        source=source,
        tree=tree,
        suppressions=Suppressions.from_source(source),
        imports=_collect_imports(tree, modname),
        import_map=imports,
        version_constants=_version_constants(tree),
        functions=visitor.functions,
    )


class ProjectModel:
    """The pass-1 output: every module plus cross-module lookups."""

    def __init__(self, modules: list[ModuleInfo], config: LintConfig):
        self.config = config
        self.modules: dict[str, ModuleInfo] = {m.rel_posix: m for m in modules}
        self.by_module: dict[str, ModuleInfo] = {}
        for m in modules:
            # First definition wins on collisions (loose same-stem files).
            self.by_module.setdefault(m.module, m)
        self.functions: dict[str, FunctionInfo] = {}
        for m in modules:
            for info in m.functions.values():
                self.functions.setdefault(info.qualname, info)

    def resolve(self, name: str) -> FunctionInfo | None:
        """Function a canonical call target refers to, if in the project.

        Handles ``pkg.mod.func``, ``pkg.mod.Class.meth``, and package
        re-exports one level deep (``pkg.func`` where ``pkg/__init__``
        imported ``func`` from a project module).
        """
        hit = self.functions.get(name)
        if hit is not None:
            return hit
        # Re-export chase: resolve the module prefix, then ask its
        # import map where the remaining name came from.
        head, _, tail = name.rpartition(".")
        mod = self.by_module.get(head)
        if mod is not None and mod.import_map is not None and tail:
            alias = mod.import_map.alias_of(tail)
            if alias is not None and alias != name:
                return self.functions.get(alias)
        return None

    def module_of(self, rel_posix: str) -> ModuleInfo | None:
        return self.modules.get(rel_posix)

    def import_graph(self) -> dict[str, set[str]]:
        """Module → set of imported project modules (resolved edges)."""
        graph: dict[str, set[str]] = {}
        for m in self.modules.values():
            targets: set[str] = set()
            for edge in m.imports:
                if edge.target in self.by_module:
                    targets.add(edge.target)
                for n in edge.names:
                    sub = f"{edge.target}.{n}"
                    if sub in self.by_module:
                        targets.add(sub)
            graph[m.module] = targets
        return graph

    def import_cycles(self) -> list[list[str]]:
        """Strongly-connected components of size > 1 (import cycles)."""
        graph = self.import_graph()
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        cycles: list[list[str]] = []
        counter = [0]

        def strongconnect(v: str) -> None:
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            for w in sorted(graph.get(v, ())):
                if w not in index:
                    strongconnect(w)
                    low[v] = min(low[v], low[w])
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if low[v] == index[v]:
                comp: list[str] = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                if len(comp) > 1:
                    cycles.append(sorted(comp))

        for v in sorted(graph):
            if v not in index:
                strongconnect(v)
        return sorted(cycles)


def build_model(
    paths: list[str | pathlib.Path], config: LintConfig
) -> ProjectModel:
    """Pass 1: parse every file once and assemble the project model."""
    return ProjectModel([build_module_info(p, config) for p in paths], config)
