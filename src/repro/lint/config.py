"""Configuration for ``repro.lint``: the ``[tool.repro-lint]`` block.

Example (all keys optional)::

    [tool.repro-lint]
    exclude = ["tests/fixtures/**"]          # glob, fnmatch-style
    paths = ["src", "tests"]                 # default roots for pathless runs

    [tool.repro-lint.per-path]
    "tests/**" = { disable = ["RPL005"] }

    [tool.repro-lint.layers]                 # RPL015 contracts
    "repro.montecarlo" = { deny = ["repro.service"] }

Rules take no options: each rule's path scope and tunables are
constants in its own module.  Globs are matched with
:func:`fnmatch.fnmatch` against the file's POSIX path relative to the
config root (the directory holding ``pyproject.toml``), so ``*``
crosses directory separators and ``tests/**`` and ``tests/*`` are
equivalent.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import pathlib
import tomllib
from typing import Any, Iterable, Mapping

__all__ = ["ConfigError", "LintConfig", "load_config", "path_matches"]

_SECTION = "repro-lint"

#: Keys accepted at the top level of ``[tool.repro-lint]``.
_TOP_KEYS = {"exclude", "paths", "per-path", "layers"}


class ConfigError(ValueError):
    """Raised for a malformed ``[tool.repro-lint]`` block."""


def path_matches(rel_posix: str, patterns: Iterable[str]) -> bool:
    """True if the relative POSIX path matches any fnmatch pattern.

    ``**`` is normalized to ``*`` (fnmatch's ``*`` already crosses
    ``/``); a pattern with no slash also matches against the basename,
    so ``conftest.py`` excludes every conftest.
    """
    name = rel_posix.rsplit("/", 1)[-1]
    for pat in patterns:
        pat = pat.replace("**", "*")
        if fnmatch.fnmatch(rel_posix, pat):
            return True
        if "/" not in pat and fnmatch.fnmatch(name, pat):
            return True
    return False


@dataclasses.dataclass
class LintConfig:
    """Resolved linter configuration (defaults == empty config block)."""

    root: str = "."
    exclude: list[str] = dataclasses.field(default_factory=list)
    #: Path glob -> codes disabled for the files it matches.
    per_path: dict[str, list[str]] = dataclasses.field(default_factory=dict)
    #: Default roots for pathless runs.
    paths: list[str] = dataclasses.field(default_factory=list)
    #: RPL015 contracts: module-prefix -> {"deny": [module prefixes]}.
    layers: dict[str, dict[str, list[str]]] = dataclasses.field(
        default_factory=dict
    )

    def is_disabled(self, code: str, rel_posix: str) -> bool:
        """True if a ``per-path`` entry turns ``code`` off for this file."""
        return any(
            code in codes and path_matches(rel_posix, [pattern])
            for pattern, codes in self.per_path.items()
        )

    def is_excluded(self, rel_posix: str) -> bool:
        return path_matches(rel_posix, self.exclude)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(f"[tool.{_SECTION}] {message}")


def _str_list(value: Any, key: str) -> list[str]:
    _require(
        isinstance(value, list) and all(isinstance(v, str) for v in value),
        f"{key!r} must be a list of strings, got {value!r}",
    )
    return list(value)


def _parse(section: Mapping[str, Any], root: pathlib.Path) -> LintConfig:
    unknown = set(section) - _TOP_KEYS
    _require(not unknown, f"unknown keys {sorted(unknown)}")
    cfg = LintConfig(root=str(root))
    if "exclude" in section:
        cfg.exclude = _str_list(section["exclude"], "exclude")
    if "paths" in section:
        cfg.paths = _str_list(section["paths"], "paths")
    per_path = section.get("per-path", {})
    _require(isinstance(per_path, Mapping), "'per-path' must be a table")
    for pattern, override in per_path.items():
        _require(
            isinstance(override, Mapping) and set(override) == {"disable"},
            f"per-path {pattern!r} accepts only a 'disable' list",
        )
        cfg.per_path[pattern] = _str_list(
            override["disable"], f"per-path.{pattern}.disable"
        )
    layers = section.get("layers", {})
    _require(isinstance(layers, Mapping), "'layers' must be a table")
    for module, contract in layers.items():
        _require(
            isinstance(contract, Mapping) and set(contract) <= {"deny"},
            f"layers.{module!r} accepts only a 'deny' list",
        )
        cfg.layers[module] = {
            "deny": _str_list(
                contract.get("deny", []), f"layers.{module}.deny"
            )
        }
    return cfg


def load_config(start: str | pathlib.Path = ".") -> LintConfig:
    """Find and parse ``pyproject.toml`` at/above ``start``.

    Walks up from ``start`` (a file or directory) to the filesystem
    root; the first ``pyproject.toml`` wins even if it has no
    ``[tool.repro-lint]`` block (its directory still anchors relative
    paths).  With no pyproject at all, returns pure defaults rooted at
    ``start``.
    """
    path = pathlib.Path(start).resolve()
    if path.is_file():
        path = path.parent
    for candidate in (path, *path.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            with open(pyproject, "rb") as f:
                data = tomllib.load(f)
            section = data.get("tool", {}).get(_SECTION, {})
            return _parse(section, candidate)
    return LintConfig(root=str(path))
