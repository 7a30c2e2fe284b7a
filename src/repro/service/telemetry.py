"""Per-endpoint latency and error telemetry for ``/metrics``.

Telemetry measures the *server*, not the simulation: latencies are
wall-clock (``time.perf_counter``) by design and never feed back into
any simulated result.  That is the one sanctioned use of wall time in
the service — everything the physics sees runs on the virtual clock
(see :mod:`repro.service.clock`).

Percentiles are computed over a bounded reservoir of the most recent
samples per endpoint, so a long-lived server's ``/metrics`` stays O(1)
in memory and reflects recent behaviour rather than the boot spike.
"""

from __future__ import annotations

import collections
import threading
import time

__all__ = ["Telemetry"]

#: Samples kept per endpoint for percentile estimation.
_RESERVOIR = 4096


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted list."""
    idx = min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))
    return samples[idx]


class _EndpointStats:
    __slots__ = ("count", "errors", "samples", "total_s")

    def __init__(self) -> None:
        self.count = 0
        self.errors = 0
        self.total_s = 0.0
        self.samples: collections.deque[float] = collections.deque(maxlen=_RESERVOIR)

    def record(self, elapsed_s: float, *, error: bool) -> None:
        self.count += 1
        self.errors += 1 if error else 0
        self.total_s += elapsed_s
        self.samples.append(elapsed_s)

    def snapshot(self) -> dict:
        ordered = sorted(self.samples)
        out = {
            "count": self.count,
            "errors": self.errors,
            "mean_ms": 1e3 * self.total_s / self.count if self.count else 0.0,
        }
        if ordered:
            out["p50_ms"] = 1e3 * _percentile(ordered, 0.50)
            out["p99_ms"] = 1e3 * _percentile(ordered, 0.99)
        return out


class Telemetry:
    """Thread-safe request counters keyed by endpoint label.

    Labels are route *templates* (``POST /v1/devices/{id}/blocks/{block}/read``),
    not raw paths, so cardinality stays bounded by the route table.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: dict[str, _EndpointStats] = {}
        self.started_at = time.perf_counter()  # /metrics uptime epoch

    def observe(self, endpoint: str, elapsed_s: float, *, error: bool = False) -> None:
        with self._lock:
            stats = self._endpoints.get(endpoint)
            if stats is None:
                stats = self._endpoints[endpoint] = _EndpointStats()
            stats.record(elapsed_s, error=error)

    def timer(self) -> float:
        """Start a latency measurement; pair with :meth:`observe`."""
        return time.perf_counter()

    def elapsed(self, start: float) -> float:
        return time.perf_counter() - start

    def snapshot(self) -> dict:
        with self._lock:
            endpoints = {
                name: stats.snapshot()
                for name, stats in sorted(self._endpoints.items())
            }
        uptime = time.perf_counter() - self.started_at
        return {"uptime_s": uptime, "endpoints": endpoints}
