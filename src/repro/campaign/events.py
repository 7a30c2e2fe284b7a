"""Structured campaign events: JSONL log, metrics, terminal progress.

Every state transition the scheduler makes is appended to
``events.jsonl`` as one self-describing JSON object — ``campaign_start``,
``job_start``, ``job_retry``, ``job_done``, ``job_failed``,
``job_blocked``, ``job_cached``, ``campaign_end`` — with a wall-clock
``ts``.  The log is the audit trail the resume tests rely on: a job that
was restored from a previous run emits ``job_cached`` and *no* second
``job_start``, so "zero re-executed jobs" is checkable from the file
alone.

:class:`Metrics` folds transitions into the counters surfaced in the
``campaign_end`` event and the live progress line: jobs by state,
cumulative Monte Carlo samples, samples/sec, and the result-cache hit
rate.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import sys
import threading
import time
from typing import Any, Iterator

from repro.chaos.registry import fault_point

__all__ = ["EventLog", "Metrics", "ProgressLine", "read_events"]


class EventLog:
    """Append-only JSONL event writer (thread-safe, crash-tolerant).

    Each ``emit`` writes one line and flushes, so a killed campaign's log
    is complete up to the crash point; appending on resume preserves the
    full history of the run directory.  A crash *mid-append* can leave a
    torn final line (no trailing newline); the first ``emit`` of a new
    writer repairs it by terminating the fragment, so the resumed run's
    events never merge into the torn one.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = pathlib.Path(path)
        self._lock = threading.Lock()
        self._tail_checked = False

    def _repair_torn_tail(self) -> None:
        """Terminate a torn final line left by a crash mid-append."""
        try:
            with open(self.path, "rb") as f:
                f.seek(-1, os.SEEK_END)
                torn = f.read(1) != b"\n"
        except (OSError, ValueError):
            return  # missing or empty log: nothing to repair
        if torn:
            with open(self.path, "a") as f:
                f.write("\n")

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        record = {
            # repro-lint: disable=RPL003 -- audit-trail timestamp; never enters job results or cache keys
            "ts": time.time(),
            "event": event,
            **fields,
        }
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if not self._tail_checked:
                self._tail_checked = True
                self._repair_torn_tail()
            fault_point("events.append", path=self.path, line=line)
            with open(self.path, "a") as f:
                f.write(line + "\n")
                f.flush()
        return record


def read_events(
    path: str | os.PathLike, strict: bool = False
) -> Iterator[dict[str, Any]]:
    """Parse an event log, tolerating a torn final line.

    A crash mid-append legitimately leaves an unparseable fragment *at
    the end* of the file (no trailing newline); that is always skipped.
    An unparseable line anywhere else means real corruption: with
    ``strict=True`` it raises ``ValueError``, otherwise it is skipped —
    the historical behavior the status/report paths rely on.
    """
    p = pathlib.Path(path)
    if not p.is_file():
        return
    raw = p.read_text()
    ends_complete = raw.endswith("\n")
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1 and not ends_complete:
                return  # torn tail from a crash mid-append
            if strict:
                raise ValueError(
                    f"corrupt event log line {i + 1} in {p}"
                ) from None
            continue


@dataclasses.dataclass
class Metrics:
    """Live counters of one campaign execution."""

    total: int = 0
    done: int = 0
    cached: int = 0
    failed: int = 0
    blocked: int = 0
    running: int = 0
    retries: int = 0
    samples: int = 0
    started_at: float = dataclasses.field(default_factory=time.perf_counter)

    @property
    def finished(self) -> int:
        return self.done + self.cached + self.failed + self.blocked

    @property
    def elapsed_s(self) -> float:
        return max(time.perf_counter() - self.started_at, 1e-9)

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.elapsed_s

    def snapshot(self, cache=None) -> dict[str, Any]:
        """JSON counters, including cache hit rate when a cache is live."""
        snap: dict[str, Any] = {
            "total": self.total,
            "done": self.done,
            "cached": self.cached,
            "failed": self.failed,
            "blocked": self.blocked,
            "running": self.running,
            "retries": self.retries,
            "samples": self.samples,
            "elapsed_s": round(self.elapsed_s, 3),
            "samples_per_s": round(self.samples_per_s, 1),
        }
        if cache is not None:
            hits, misses = cache.stats.hits, cache.stats.misses
            snap["cache_hits"] = hits
            snap["cache_misses"] = misses
            lookups = hits + misses
            snap["cache_hit_rate"] = round(hits / lookups, 4) if lookups else None
        return snap


class ProgressLine:
    """One-line terminal progress indicator (stderr, ``\\r``-refreshed)."""

    def __init__(self, name: str, enabled: bool = True, stream=None):
        self.name = name
        self.enabled = enabled
        self.stream = stream if stream is not None else sys.stderr
        self._dirty = False

    def update(self, metrics: Metrics, cache=None) -> None:
        if not self.enabled:
            return
        parts = [
            f"campaign {self.name}:",
            f"{metrics.done + metrics.cached}/{metrics.total} done",
            f"{metrics.running} running",
        ]
        if metrics.failed or metrics.blocked:
            parts.append(f"{metrics.failed} failed {metrics.blocked} blocked")
        if metrics.samples:
            parts.append(f"{metrics.samples_per_s:,.0f} samples/s")
        if cache is not None:
            lookups = cache.stats.hits + cache.stats.misses
            if lookups:
                parts.append(f"cache {100 * cache.stats.hits / lookups:.0f}% hit")
        self.stream.write("\r" + " | ".join(parts).ljust(78))
        self.stream.flush()
        self._dirty = True

    def close(self) -> None:
        if self.enabled and self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False
