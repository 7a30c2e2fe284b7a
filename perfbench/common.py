"""Shared pieces of the benchmark: run context, op ledger, host probes."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import statistics
import time
from typing import Any

#: Workload name -> the module that sets it up and runs it.
WORKLOADS = {
    "fleet_fresh": "wl_fleet",
    "fleet_wearout": "wl_fleet",
    "service_rw": "wl_service",
    "mc_paper": "wl_mc",
}

#: End-to-end metrics, printed by every workload with ``--trace 0``.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("throughput_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


@dataclasses.dataclass
class Context:
    """What one pass of a workload is asked to do."""

    seed: int
    seconds: float
    tiny: bool = False
    plant: str | None = None
    tracer: Any = None
    scratch: str = "."
    section_wall_s: float = 0.0

    def planted(self, name: str) -> bool:
        return self.plant == name

    @contextlib.contextmanager
    def timed_section(self):
        """Time the pass's timed section; the root span when traced."""
        span = contextlib.nullcontext() if self.tracer is None else self.tracer.span(
            "bench.workload"
        )
        t0 = time.perf_counter()
        with span:
            yield
        self.section_wall_s = time.perf_counter() - t0


@dataclasses.dataclass
class PassResult:
    """Outcome of one pass: work, time, per-op latencies, checks, digests."""

    work: float = 0.0
    wall_s: float = 0.0
    #: Per-op latencies, grouped in windows of time; an op percentile is
    #: the median over windows of each window's percentile.
    latency_windows_s: list[list[float]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    digest_parts: list[Any] = dataclasses.field(default_factory=list)
    counters: dict[str, float] = dataclasses.field(default_factory=dict)
    peak_rss_mb: float | None = None
    extra: dict[str, Any] = dataclasses.field(default_factory=dict)

    def take_times(self, clock: OpClock) -> None:
        """Host-normalized op times are the pass's latencies (one window)
        and wall."""
        self.latency_windows_s = [list(clock.norm_s)]
        self.wall_s = sum(clock.norm_s)
        self.extra["raw_wall_s"] = sum(clock.raw_s)
        if clock.probes_s:
            self.extra["host_probe_median_s"] = statistics.median(clock.probes_s)

    def op(self, ok: bool, what: str) -> None:
        """Count one attempted op; record why it failed when it did."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def digest(self) -> str:
        blob = json.dumps(self.digest_parts, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


#: Seconds :func:`host_probe_s` takes on the reference host (a 2-vCPU
#: x86 VM in a calm phase).
REF_PROBE_S = 0.010

#: How strongly each workload's op times follow the probe's time: the
#: log-log slope of op time on the mean of the probes bracketing the op,
#: with one intercept per op input, fitted over 15-18 repeated passes of
#: one seed while host phases ran from 5.2 to 9 ms per probe (fleet_wearout
#: 1.03, fleet_fresh 0.77, mc_paper 0.75; service_rw 0.1-0.5, its latency
#: being mostly the batching deadline).  A slope fitted on whole runs, or
#: on ops of several seconds, comes out lower, since a probe at the ends
#: of a long op says little about the host speed inside it.
OP_ELASTICITY = {
    "fleet_fresh": 0.8,
    "fleet_wearout": 1.0,
    "service_rw": 0.5,
    "mc_paper": 0.75,
}
#: Set-up follows the probe fully: with exponent 1 the normalized set-up
#: no longer correlates with the probe.
SETUP_ELASTICITY = 1.0


def host_scale(probe_s: float, elasticity: float) -> float:
    """Factor taking a time measured at host speed ``probe_s`` to the
    reference host speed: ``(REF_PROBE_S / probe_s) ** elasticity``."""
    return (REF_PROBE_S / probe_s) ** elasticity


@functools.cache
def _probe_array():
    import numpy as np

    return np.random.default_rng(0).random(50_000)


def host_probe_s() -> float:
    """Seconds a fixed CPU kernel takes now: the host-speed index.

    The kernel mixes interpreter work and numpy passes over a 400 kB
    array, like the workloads.  On a shared 2-vCPU host its time moved by
    up to 2.7x over an hour, and the workloads' op times followed it
    (correlation about 0.9 with the times of short ops), each workload
    with its own strength: see :data:`OP_ELASTICITY`.
    """
    import numpy as np

    a = _probe_array()
    t0 = time.perf_counter()
    acc = 0
    last = {}
    for i in range(40_000):
        acc += i * i
        last[i & 255] = acc
    for _ in range(4):
        np.exp(-np.cumsum(np.sort(a))[:1000])
    return time.perf_counter() - t0


def setup_probe_s() -> float:
    """Median of three host probes, taken right after a set-up ends."""
    return statistics.median(host_probe_s() for _ in range(3))


class OpClock:
    """Times ops, each bracketed by host probes in the same thread.

    ``norm_s`` holds each op's wall time scaled by :func:`host_scale` of
    the mean of the probes just before and after it, with the workload's
    :data:`OP_ELASTICITY`; ``raw_s`` the wall time itself.
    """

    def __init__(self, workload: str) -> None:
        self.elasticity = OP_ELASTICITY[workload]
        self.raw_s: list[float] = []
        self.norm_s: list[float] = []
        self.probes_s: list[float] = []
        self._prev = self._probe()

    def _probe(self) -> float:
        p = host_probe_s()
        self.probes_s.append(p)
        return p

    @contextlib.contextmanager
    def op(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self.raw_s.append(dt)
            nxt = self._probe()
            probe = 0.5 * (self._prev + nxt)
            self.norm_s.append(dt * host_scale(probe, self.elasticity))
            self._prev = nxt


def op_seeds(seed: int, n: int) -> list[int]:
    """``n`` distinct per-op seeds derived from the run seed."""
    import numpy as np

    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n, np.uint32)]


def n_ops(seconds: float, ops_per_second: float) -> int:
    """Op count sized so a run of ``seconds`` takes about that long."""
    return max(1, round(seconds * ops_per_second))
