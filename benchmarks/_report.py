"""Shared rendering for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures and
emits it twice: printed to stdout (visible with ``pytest -s`` or on
failure) and written to ``results/<name>.txt`` so EXPERIMENTS.md can be
refreshed from the artifacts.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import resource
import sys
from typing import Iterable, Sequence

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def peak_rss_bytes() -> int:
    """High-water resident set size of this process tree, in bytes.

    Takes the max over the benchmark process itself and its reaped
    children, so process-pool workers (where fleet shards actually run)
    are counted.  ``ru_maxrss`` is KiB on Linux, bytes on macOS.
    """
    unit = 1 if sys.platform == "darwin" else 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return int(max(own, kids)) * unit


def machine_info() -> dict:
    """The box a record was measured on: cores, Python and numpy."""
    import numpy

    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def render_table(
    title: str,
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    note: str = "",
) -> str:
    rows = [[str(c) for c in row] for row in rows]
    header = [str(h) for h in header]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines) + "\n"


def emit(name: str, text: str) -> None:
    """Print and persist one experiment's output."""
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text)


def emit_json(name: str, payload: dict) -> None:
    """Print and persist one benchmark's machine-readable results."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    print()
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.json").write_text(text + "\n")


def sci(x: float) -> str:
    """Scientific notation matching the paper's 1E-3 style."""
    if x == 0.0:
        return "0"
    return f"{x:.2E}"
