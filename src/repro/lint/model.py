"""The project model: every linted file, parsed once, plus cross-file lookups.

Every rule runs against this one model.  Some of the contracts they
protect are *program* properties — a coroutine is only blocking if
something it transitively calls blocks, a layering violation is a
property of the import *graph* — so the model is built for the whole
program at once:

- one :class:`ModuleInfo` per file: dotted module name, the parsed AST
  (parsed exactly once — every rule reuses it), suppression table, the
  :class:`ImportMap` (local-name aliases and resolved import edges from
  one walk over the import statements; relative imports resolve against
  the module's own package), and module-level ``*_VERSION`` constants;
- one :class:`FunctionInfo` per function/method: coroutine-ness and
  every call site with its canonical dotted target;
- the :class:`ProjectModel` tying them together: qualified-name
  function lookup (so call edges cross files) and the import graph.

Questions about one function body that need no cross-file lookup are
answered by the rules walking the parsed tree themselves;
:func:`walk_locked` is the one shared walk, tracking which ``with``
locks are held around each node.

Resolution is lexical and conservative: a call through an object
attribute (``device.write_block``) does not resolve, so no edge is
created and no rule guesses.  ``self.method()`` resolves
within the defining class — the one object-dispatch case a linter can
answer soundly.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import fnmatch
import functools
import pathlib
from typing import Any, Callable, Iterable, Iterator

from repro.lint.config import LintConfig
from repro.lint.suppress import Suppressions

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ImportEdge",
    "ImportMap",
    "ModuleInfo",
    "ProjectModel",
    "build_model",
    "module_name_for",
    "qualified_name",
    "rel_posix_of",
    "resolve_relative",
    "walk_locked",
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


_Def = ast.FunctionDef | ast.AsyncFunctionDef


@dataclasses.dataclass
class FunctionInfo:
    """Call summary of one function or method."""

    qualname: str  # module-qualified: ``pkg.mod.Class.meth``
    name: str
    is_coroutine: bool
    calls: list[CallSite]
    node: _Def  # the defining FunctionDef/AsyncFunctionDef


@dataclasses.dataclass
class ImportEdge:
    """One import statement edge, with its absolute target module."""

    target: str
    lineno: int
    col: int
    names: tuple[str, ...]  # imported names for ``from x import a, b``


def qualified_name(node: ast.AST) -> str | None:
    """Dotted name of a Name/Attribute chain (``np.random.default_rng``).

    Returns ``None`` for anything that is not a pure attribute chain
    (calls, subscripts, …), which rules treat as "not statically
    resolvable" rather than guessing.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_relative(module: str | None, level: int, target: str | None) -> str | None:
    """Absolute module named by a ``from ..x import y`` statement.

    ``module`` is the dotted name of the importing module (``None`` when
    unknown, in which case relative imports stay unresolved).  ``level``
    counts leading dots; one dot anchors at the importer's package.
    """
    if level == 0:
        return target
    if module is None:
        return None
    parts = module.split(".")
    if len(parts) < level:
        return None
    base = parts[: len(parts) - level]
    if target:
        base.append(target)
    return ".".join(base) if base else None


def _import_statements(body: list) -> Iterator[ast.Import | ast.ImportFrom]:
    """Import statements at any depth, in source order.

    Imports are statements, so only statement bodies are descended
    into — never expressions, which hold most of a tree's nodes.
    """
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            yield from _import_statements(getattr(node, field, ()))


class ImportMap:
    """One file's import statements: local-name aliases and import edges.

    ``np.random.default_rng``, ``numpy.random.default_rng`` and ``from
    numpy.random import default_rng`` must all trip the same rule, so
    :meth:`canonical` rewrites an expression's dotted path into
    fully-qualified module terms.  The same walk records one
    :class:`ImportEdge` per statement for the import graph.  ``module``
    — the file's own dotted name — lets relative imports resolve;
    without it they are skipped.  Resolution is purely lexical: a local
    variable shadowing an import alias later in the file is not tracked,
    which is the right trade for a linter — false positives stay
    suppressible, and no code is executed.
    """

    def __init__(self, tree: ast.Module, module: str | None = None):
        self._alias: dict[str, str] = {}
        self.edges: list[ImportEdge] = []
        for node in _import_statements(tree.body):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.edges.append(
                        ImportEdge(alias.name, node.lineno, node.col_offset, ())
                    )
                    if alias.asname is not None:
                        self._alias[alias.asname] = alias.name
                    else:
                        # ``import numpy.random`` binds the *top* name.
                        top = alias.name.split(".", 1)[0]
                        self._alias[top] = top
            else:
                source = resolve_relative(module, node.level, node.module)
                if source is None:
                    continue
                names = tuple(alias.name for alias in node.names)
                self.edges.append(
                    ImportEdge(source, node.lineno, node.col_offset, names)
                )
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._alias[local] = f"{source}.{alias.name}"

    def alias_of(self, local: str) -> str | None:
        """Canonical target a local name was import-bound to, if any."""
        return self._alias.get(local)

    def canonical(self, node: ast.AST) -> str | None:
        """Fully-qualified dotted name of an attribute chain, or None."""
        dotted = qualified_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self._alias.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved


@dataclasses.dataclass
class ModuleInfo:
    """Everything a rule may ask about one file.

    A file that cannot be read or parsed has ``tree`` None, its
    ``parse_error`` set, and an empty import map and summaries.
    """

    rel_posix: str
    module: str
    source: str
    tree: ast.Module | None
    suppressions: Suppressions
    import_map: ImportMap
    version_constants: set[str]
    functions: dict[str, FunctionInfo]  # key: in-module qualname
    parse_error: Exception | None = None

    @functools.cached_property
    def nodes(self) -> dict[type, list[Any]]:
        """Every node of the tree grouped by node type, from one walk.

        Rules that scan a whole file for one node type share this walk
        instead of each walking the tree again.
        """
        grouped: dict[type, list[Any]] = collections.defaultdict(list)
        for node in ast.walk(self.tree) if self.tree is not None else ():
            grouped[type(node)].append(node)
        return grouped


def walk_locked(
    tree: ast.AST, lock_of: Callable[[ast.With | ast.AsyncWith], Iterable[str]]
) -> Iterator[tuple[ast.AST, tuple[str, ...], _Def | None]]:
    """Every node under ``tree`` with the locks held around it, unordered.

    Yields ``(node, held, fn)``: ``fn`` is the innermost def enclosing
    ``node`` (None at module level), and ``held`` names the locks that
    ``with`` statements in that function hold around it, outermost
    first; ``lock_of`` names the locks one ``with`` or ``async with``
    takes.  A nested def or lambda holds none: its body runs later.
    """
    stack: list[tuple[ast.AST, tuple[str, ...], _Def | None]] = [
        (tree, (), None)
    ]
    while stack:
        node, held, fn = stack.pop()
        yield node, held, fn
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            held = ()
            fn = fn if isinstance(node, ast.Lambda) else node
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            held += tuple(lock_of(node))
        stack.extend((child, held, fn) for child in ast.iter_child_nodes(node))


class _ModuleVisitor(ast.NodeVisitor):
    """One walk collecting every function and its call sites."""

    def __init__(self, module: str, imports: ImportMap, local_defs: set[str]):
        self.module = module
        self.imports = imports
        self.local_defs = local_defs  # module-level function/class names
        self.functions: dict[str, FunctionInfo] = {}
        self._class_stack: list[str] = []
        self._fn_stack: list[FunctionInfo] = []

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
    def visit_FunctionDef(self, node: _Def) -> None:
        scope = ".".join(self._class_stack + [node.name])
        info = FunctionInfo(
            qualname=f"{self.module}.{scope}",
            name=node.name,
            is_coroutine=isinstance(node, ast.AsyncFunctionDef),
            calls=[],
            node=node,
        )
        self.functions[scope] = info
        self._fn_stack.append(info)
        for child in node.body:
            self.visit(child)
        self._fn_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    # -- call sites ----------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        fn = self._fn_stack[-1] if self._fn_stack else None
        if fn is not None:
            name = self._canonical(node.func)
            if name is not None:
                fn.calls.append(CallSite(name, node.lineno, node.col_offset))
        self.generic_visit(node)


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


def rel_posix_of(path: pathlib.Path, root: pathlib.Path) -> str:
    """POSIX path of ``path`` relative to ``root`` (absolute if outside)."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def build_module_info(path: str | pathlib.Path, config: LintConfig) -> ModuleInfo:
    """Parse one file into its :class:`ModuleInfo` (parse errors recorded)."""
    p = pathlib.Path(path)
    modname = module_name_for(p)
    source = ""
    tree: ast.Module | None = None
    error: Exception | None = None
    try:
        source = p.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(p))
    except (OSError, UnicodeDecodeError, SyntaxError) as exc:
        error = exc
    body = tree if tree is not None else ast.Module(body=[], type_ignores=[])
    imports = ImportMap(body, module=modname)
    local_defs = {
        n.name
        for n in body.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    visitor = _ModuleVisitor(modname, imports, local_defs)
    for child in body.body:
        visitor.visit(child)
    return ModuleInfo(
        rel_posix=rel_posix_of(p, pathlib.Path(config.root)),
        module=modname,
        source=source,
        tree=tree,
        suppressions=Suppressions.from_source(source),
        import_map=imports,
        version_constants=_version_constants(body),
        functions=visitor.functions,
        parse_error=error,
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
        if mod is not None and tail:
            alias = mod.import_map.alias_of(tail)
            if alias is not None and alias != name:
                return self.functions.get(alias)
        return None

    def import_graph(self) -> dict[str, set[str]]:
        """Module → set of imported project modules (resolved edges)."""
        graph: dict[str, set[str]] = {}
        for m in self.modules.values():
            targets: set[str] = set()
            for edge in m.import_map.edges:
                if edge.target in self.by_module:
                    targets.add(edge.target)
                for n in edge.names:
                    sub = f"{edge.target}.{n}"
                    if sub in self.by_module:
                        targets.add(sub)
            graph[m.module] = targets
        return graph


def build_model(
    paths: list[str | pathlib.Path], config: LintConfig
) -> ProjectModel:
    """Pass 1: parse every file once and assemble the project model."""
    return ProjectModel([build_module_info(p, config) for p in paths], config)
