"""Sharded fleet campaigns: deterministic fan-out, caching, summaries.

The fleet's unit of work is a fixed-size *device shard*
(:data:`FLEET_SHARD_DEVICES` devices, via
:func:`repro.montecarlo.executor.shard_ranges`).  A shard's count matrix
is a pure function of ``(config, entropy, first_device, n_devices)``:
every device stream is addressed by global index under
:data:`~repro.fleet.config.FLEET_SPAWN_KEY`, so results are
**bit-identical for any worker count and any shard size** — and shard
granularity, like chunk/jobs everywhere else in the Monte Carlo stack,
is deliberately absent from the cache key.

Per-shard entries live in the PR-1 :class:`ResultsCache`, keyed by
:func:`fleet_counts_key` (salted with ``ENGINE_VERSION``,
``DATAPATH_VERSION``, and :data:`~repro.fleet.engine.FLEET_VERSION`).
The stored vector is the *flattened running total* of the
``(n_epochs, N_COUNTERS)`` matrix: per-epoch counters are non-negative,
so the flat cumulative sum is non-decreasing — the structural shape the
cache's integrity check expects — and ``np.diff(..., prepend=0)``
inverts it exactly.

Shards only hold device state while they compute (~64 kB/device at the
default ``n_blocks=3``), so a 1e5-device fleet never materializes at
once; the reduction keeps just one count matrix per shard.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import numpy as np

from repro.analysis.fleet import hazard_curve, lifetime_percentiles, survival_curve
from repro.chaos.registry import fault_point
from repro.coding.batch import DATAPATH_VERSION
from repro.fleet.config import FleetConfig
from repro.fleet.engine import (
    COUNTERS,
    FLEET_VERSION,
    N_COUNTERS,
    PROGRAM_NJ_PER_CELL,
    SENSE_NJ_PER_CELL,
    counter_index,
)
from repro.fleet.soa import FleetEngine
from repro.montecarlo.executor import ENGINE_VERSION, fan_out, shard_ranges
from repro.montecarlo.results_cache import ResultsCache, cached_counts, key_digest
from repro.montecarlo.rng import seed_entropy

__all__ = [
    "FLEET_SHARD_DEVICES",
    "FleetSummary",
    "fleet_counts_key",
    "fleet_mc",
]

#: Devices per shard: the caching/fan-out granularity.  ~64 kB of device
#: state each at the default ``n_blocks=3`` (``FleetEngine.state_nbytes``),
#: so a shard holds about 65 MB per worker; at ~100-200 us per
#: device-epoch a shard is seconds of work — plenty to amortize process
#: dispatch.
FLEET_SHARD_DEVICES = 1024


def fleet_counts_key(
    config: FleetConfig, entropy: int, first_device: int, n_devices: int
) -> str:
    """Stable content hash for one device shard's count matrix.

    Salted with :data:`ENGINE_VERSION` (RNG fan-out contract),
    :data:`DATAPATH_VERSION` (batched codec semantics), and
    :data:`FLEET_VERSION` (epoch phases, heterogeneity draws, counter
    layout): changing any of the three orphans stale entries.  Worker
    count and shard grouping are absent — results are invariant to both.
    """
    payload = {
        "engine": ENGINE_VERSION,
        "datapath": DATAPATH_VERSION,
        "fleet": FLEET_VERSION,
        "kind": "fleet-counts",
        "config": config.key_payload(),
        "shard": {"first": int(first_device), "n": int(n_devices)},
        "seed": {"entropy": int(entropy)},
    }
    return key_digest(payload)


def _encode_counts(counts: np.ndarray) -> np.ndarray:
    """Flatten ``(n_epochs, N_COUNTERS)`` to the cache's cumsum form."""
    return np.cumsum(counts.reshape(-1), dtype=np.int64)


def _decode_counts(vec: np.ndarray, n_epochs: int) -> np.ndarray:
    """Invert :func:`_encode_counts`."""
    flat = np.diff(vec, prepend=np.int64(0))
    return flat.reshape(n_epochs, N_COUNTERS)


@dataclasses.dataclass(frozen=True)
class _FleetTask:
    """One picklable unit: a run of consecutive device shards."""

    item: int
    config: FleetConfig
    entropy: int
    shards: tuple[tuple[int, int], ...]


def _eval_fleet_task(task: _FleetTask) -> list[np.ndarray]:
    """Count matrices of the task's shards, epoch by epoch.

    Epochs advance one at a time with a fault point between, so chaos
    plans can kill a campaign mid-population; the engine itself stays
    chaos-free.
    """
    fault_point("executor.task", item=task.item, first_block=task.shards[0][0])
    out = []
    for first, n in task.shards:
        engine = FleetEngine(task.config, task.entropy, first, n)
        counts = np.zeros((task.config.n_epochs, N_COUNTERS), dtype=np.int64)
        for e in range(task.config.n_epochs):
            fault_point("fleet.epoch", epoch=e, first_device=first)
            counts[e] = engine.advance(1)[0]
        out.append(counts)
    return out


@dataclasses.dataclass(frozen=True)
class FleetSummary:
    """Reduced outcome of one fleet run.

    ``counts`` is the fleet-total ``(n_epochs, N_COUNTERS)`` matrix (see
    :data:`~repro.fleet.engine.COUNTERS`); everything else is derived
    from it, so two runs with equal ``counts`` summarize identically.
    """

    config: FleetConfig
    entropy: int
    counts: np.ndarray

    def per_epoch(self, name: str) -> np.ndarray:
        """One counter's per-epoch vector."""
        return self.counts[:, counter_index(name)].copy()

    def total(self, name: str) -> int:
        """One counter summed over all epochs."""
        return int(self.counts[:, counter_index(name)].sum())

    @property
    def deaths_per_epoch(self) -> np.ndarray:
        return self.per_epoch("deaths")

    @property
    def n_dead(self) -> int:
        return self.total("deaths")

    @property
    def refresh_energy_nj(self) -> float:
        """Energy charged to maintenance: scrub sensing + refresh programs."""
        return (
            self.total("cell_programs_refresh") * PROGRAM_NJ_PER_CELL
            + self.total("cells_sensed") * SENSE_NJ_PER_CELL
        )

    @property
    def write_energy_nj(self) -> float:
        """Energy charged to demand writes."""
        return self.total("cell_programs_write") * PROGRAM_NJ_PER_CELL

    @property
    def silent_error_rate(self) -> float:
        """Silent corruptions per maintenance read."""
        reads = self.total("reads")
        return self.total("silent") / reads if reads else 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary: totals, distributions, energy, hazard."""
        d = self.deaths_per_epoch
        n = self.config.n_devices
        return {
            "n_devices": n,
            "n_epochs": int(self.config.n_epochs),
            "entropy": int(self.entropy),
            "fleet_version": FLEET_VERSION,
            "totals": {name: self.total(name) for name in COUNTERS},
            "per_epoch": {
                name: [int(x) for x in self.per_epoch(name)] for name in COUNTERS
            },
            "lifetime_epochs": lifetime_percentiles(d, n),
            "hazard": hazard_curve(d, n),
            "survival": survival_curve(d, n),
            "n_dead": self.n_dead,
            "silent_error_rate": self.silent_error_rate,
            "refresh_energy_nj": self.refresh_energy_nj,
            "write_energy_nj": self.write_energy_nj,
        }


def fleet_mc(
    config: FleetConfig,
    seed: int | np.random.Generator | None = 0,
    *,
    jobs: int | None = 1,
    cache: ResultsCache | None = None,
    shard_devices: int = FLEET_SHARD_DEVICES,
    shards_per_task: int = 1,
) -> FleetSummary:
    """Simulate the whole fleet, sharded over a process pool.

    With a :class:`ResultsCache`, each shard's count matrix round-trips
    through a :func:`fleet_counts_key` entry: a warm rerun of the same
    ``(config, seed)`` recomputes nothing.  ``shard_devices`` and
    ``shards_per_task`` never change the result (only the fan-out), and
    only ``shard_devices`` changes which cache entries serve it.
    """
    entropy = seed_entropy(seed)
    shards = shard_ranges(config.n_devices, shard_devices)

    def compute(missing: list[tuple[int, int]]) -> list[np.ndarray]:
        group = max(1, int(shards_per_task))
        tasks = [
            _FleetTask(
                item=i,
                config=config,
                entropy=entropy,
                shards=tuple(missing[lo : lo + group]),
            )
            for i, lo in enumerate(range(0, len(missing), group))
        ]
        parts = fan_out(_eval_fleet_task, tasks, jobs)
        return [_encode_counts(counts) for matrices in parts for counts in matrices]

    vectors = cached_counts(
        cache,
        shards,
        lambda shard: fleet_counts_key(config, entropy, *shard),
        config.n_epochs * N_COUNTERS,
        compute,
    )
    total = np.zeros((config.n_epochs, N_COUNTERS), dtype=np.int64)
    for vec in vectors:
        total += _decode_counts(vec, config.n_epochs)
    return FleetSummary(config=config, entropy=entropy, counts=total)
