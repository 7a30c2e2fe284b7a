"""Reporters: human text and machine JSON.

The JSON document (``schema_version`` 4) is stable for CI consumption;
its shape is documented in ``docs/LINTING.md`` and pinned by
``tests/test_lint_engine.py``::

    {
      "schema_version": 4,
      "tool": "repro.lint",
      "files_checked": <int>,
      "suppressed": <int>,
      "violations": [
        {"path": str, "line": int, "col": int, "code": "RPLnnn",
         "rule": str, "message": str},
        ...
      ],
      "summary": {"total": int, "errors": int,
                  "by_code": {"RPLnnn": int, ...}},
      "exit_code": 0|1
    }
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any

from repro.lint.engine import LintResult

__all__ = ["SCHEMA_VERSION", "render_json", "render_text", "to_json_dict"]

SCHEMA_VERSION = 4


def render_text(result: LintResult) -> str:
    """``path:line:col: CODE message`` lines plus a summary."""
    lines = [
        f"{v.path}:{v.line}:{v.col}: {v.code} {v.message}"
        for v in result.violations
    ]
    summary = f"{result.files_checked} files checked: {len(result.violations)} errors"
    if result.suppressed:
        summary += f", {result.suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)


def to_json_dict(result: LintResult) -> dict[str, Any]:
    by_code = Counter(v.code for v in result.violations)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "repro.lint",
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "violations": [v.to_dict() for v in result.violations],
        "summary": {
            "total": len(result.violations),
            "errors": len(result.violations),
            "by_code": dict(sorted(by_code.items())),
        },
        "exit_code": result.exit_code,
    }


def render_json(result: LintResult) -> str:
    return json.dumps(to_json_dict(result), indent=2, sort_keys=False)
