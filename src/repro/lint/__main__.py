"""CLI entry: ``python -m repro.lint [paths...]``.

Every run is the whole-program pass: the project model is built once
and every rule runs over it.  The report (text, or JSON with
``--format json``) always goes to stdout.

Exit status: 0 — clean; 1 — at least one violation (or an unparseable
file); 2 — usage or configuration error.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.lint.config import ConfigError, LintConfig, load_config
from repro.lint.engine import run_whole_program
from repro.lint.reporters import render_json, render_text

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based invariant linter for the repro codebase: RNG "
            "discipline, wall-clock hygiene, lock discipline, float "
            "equality, asyncio concurrency, and architecture layering, "
            "in one whole-program pass."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="files or directories to lint (default: the config 'paths' "
        "list, else the current directory)",
    )
    parser.add_argument(
        "-f",
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="pyproject.toml (or directory) to read [tool.repro-lint] from "
        "(default: nearest pyproject above the current directory)",
    )
    return parser


def _resolve_paths(args, config: LintConfig) -> list[str]:
    if args.paths:
        return list(args.paths)
    if config.paths:
        root = pathlib.Path(config.root)
        return [str(root / p) for p in config.paths]
    return ["."]


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config if args.config else ".")
    except ConfigError as exc:
        print(f"repro.lint: configuration error: {exc}", file=sys.stderr)
        return 2
    result = run_whole_program(_resolve_paths(args, config), config)
    render = render_json if args.format == "json" else render_text
    print(render(result))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
