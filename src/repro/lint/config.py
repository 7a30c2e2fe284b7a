"""Configuration for ``repro.lint``: the ``[tool.repro-lint]`` block.

Example (all keys optional)::

    [tool.repro-lint]
    exclude = ["tests/fixtures/**"]          # glob, fnmatch-style
    select = ["RPL001", "RPL004"]            # default: every rule
    disable = ["RPL005"]
    paths = ["src", "tests"]                 # default roots for pathless runs

    [tool.repro-lint.layers]                 # RPL015 contracts
    "repro.montecarlo" = { deny = ["repro.service"] }

    [tool.repro-lint.severity]
    RPL005 = "warning"                       # or "error"

    [tool.repro-lint.per-path]
    "tests/**" = { disable = ["RPL003"] }

    [tool.repro-lint.rules.RPL001]
    allow = ["src/repro/montecarlo/rng.py"]

Globs are matched with :func:`fnmatch.fnmatch` against the file's
POSIX path relative to the config root (the directory holding
``pyproject.toml``), so ``*`` crosses directory separators and
``tests/**`` and ``tests/*`` are equivalent.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import pathlib
import tomllib
from typing import Any, Mapping

from repro.lint.rules.base import Severity

__all__ = ["ConfigError", "LintConfig", "load_config", "path_matches"]

_SECTION = "repro-lint"

#: Keys accepted at the top level of ``[tool.repro-lint]``.
_TOP_KEYS = {
    "exclude",
    "select",
    "disable",
    "severity",
    "per-path",
    "rules",
    "paths",
    "layers",
}


class ConfigError(ValueError):
    """Raised for a malformed ``[tool.repro-lint]`` block."""


def path_matches(rel_posix: str, patterns: list[str]) -> bool:
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
    select: list[str] | None = None
    disable: list[str] = dataclasses.field(default_factory=list)
    severity: dict[str, str] = dataclasses.field(default_factory=dict)
    per_path: dict[str, dict[str, list[str]]] = dataclasses.field(default_factory=dict)
    rule_options: dict[str, dict[str, Any]] = dataclasses.field(default_factory=dict)
    #: Default roots for pathless runs.
    paths: list[str] = dataclasses.field(default_factory=list)
    #: RPL015 contracts: module-prefix -> {"deny": [module prefixes]}.
    layers: dict[str, dict[str, list[str]]] = dataclasses.field(
        default_factory=dict
    )

    def enabled_codes(self, all_codes: list[str], rel_posix: str) -> set[str]:
        """Codes active for one file after select/disable and per-path."""
        codes = set(self.select) if self.select is not None else set(all_codes)
        codes -= set(self.disable)
        for pattern, override in self.per_path.items():
            if not path_matches(rel_posix, [pattern]):
                continue
            if "select" in override:
                codes &= set(override["select"])
            codes -= set(override.get("disable", []))
        return codes

    def is_excluded(self, rel_posix: str) -> bool:
        return path_matches(rel_posix, self.exclude)

    def severity_for(self, code: str, default: Severity) -> Severity:
        name = self.severity.get(code)
        return Severity(name) if name is not None else default


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
    if "select" in section:
        cfg.select = _str_list(section["select"], "select")
    if "disable" in section:
        cfg.disable = _str_list(section["disable"], "disable")
    for code, level in section.get("severity", {}).items():
        _require(
            level in ("error", "warning"),
            f"severity for {code} must be 'error' or 'warning', got {level!r}",
        )
        cfg.severity[code.upper()] = level
    per_path = section.get("per-path", {})
    _require(isinstance(per_path, Mapping), "'per-path' must be a table")
    for pattern, override in per_path.items():
        _require(
            isinstance(override, Mapping)
            and set(override) <= {"select", "disable"},
            f"per-path {pattern!r} accepts only 'select' and 'disable'",
        )
        cfg.per_path[pattern] = {
            key: _str_list(value, f"per-path.{pattern}.{key}")
            for key, value in override.items()
        }
    rules = section.get("rules", {})
    _require(isinstance(rules, Mapping), "'rules' must be a table")
    for code, options in rules.items():
        _require(
            isinstance(options, Mapping),
            f"rules.{code} must be a table of options",
        )
        cfg.rule_options[code.upper()] = dict(options)
    if "paths" in section:
        cfg.paths = _str_list(section["paths"], "paths")
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
