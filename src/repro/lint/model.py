"""The project model: every linted file, parsed once.

Every rule runs against this one model.  One contract is a *program*
property — a layering violation is a property of the import *graph* —
so the model is built for the whole program at once:

- one :class:`ModuleInfo` per file: dotted module name, the parsed AST
  (parsed exactly once — every rule reuses it, and
  :attr:`ModuleInfo.nodes` groups its nodes by type from one walk),
  suppression table, and the :class:`ImportMap` (local-name aliases and
  resolved import edges from one walk over the import statements;
  relative imports resolve against the module's own package);
- the :class:`ProjectModel` tying them together, keyed by path.

Questions about one function body are answered by the rules walking
the parsed tree themselves.  Name resolution is lexical:
:meth:`ImportMap.canonical` rewrites an attribute chain into
fully-qualified module terms, and a call through an object attribute
(``device.write_block``) stays unresolved rather than guessed.
"""

from __future__ import annotations

import ast
import collections
import dataclasses
import functools
import pathlib
from typing import Any, Iterator

from repro.lint.config import LintConfig
from repro.lint.suppress import Suppressions

__all__ = [
    "ImportEdge",
    "ImportMap",
    "ModuleInfo",
    "ProjectModel",
    "build_model",
    "module_name_for",
    "qualified_name",
    "rel_posix_of",
    "resolve_relative",
]

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
    ``parse_error`` set, and an empty import map.
    """

    rel_posix: str
    module: str
    source: str
    tree: ast.Module | None
    suppressions: Suppressions
    import_map: ImportMap
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
    return ModuleInfo(
        rel_posix=rel_posix_of(p, pathlib.Path(config.root)),
        module=modname,
        source=source,
        tree=tree,
        suppressions=Suppressions.from_source(source),
        import_map=ImportMap(body, module=modname),
        parse_error=error,
    )


class ProjectModel:
    """The pass-1 output: every module, keyed by its relative POSIX path."""

    def __init__(self, modules: list[ModuleInfo], config: LintConfig):
        self.config = config
        self.modules: dict[str, ModuleInfo] = {m.rel_posix: m for m in modules}


def build_model(
    paths: list[str | pathlib.Path], config: LintConfig
) -> ProjectModel:
    """Pass 1: parse every file once and assemble the project model."""
    return ProjectModel([build_module_info(p, config) for p in paths], config)
