"""Parallel Monte Carlo execution layer with deterministic RNG fan-out.

The engine's unit of randomness is a fixed-size *block* of
:data:`RNG_BLOCK` cells.  Block ``i`` of a population draws from
``SeedSequence(entropy, spawn_key=prefix + (i,))`` — the same child
generator :func:`repro.montecarlo.rng.spawn_rngs` would produce — so a
block's samples are a pure function of ``(entropy, prefix, i)``.  The
``chunk`` parameter only groups whole blocks into pool tasks.  Within a
task, each block is evaluated as drawn: its uniforms are screened by the
task's :class:`~repro.montecarlo.cer.CellScreen`, the kept samples go
through :func:`~repro.montecarlo.cer.sample_state_cells` and
:func:`~repro.montecarlo.cer.critical_log_times`, are sorted, and one
``searchsorted`` counts the samples at or below each grid point.  Error
counts are sums of per-sample indicators ``L* <= L(t)``, so any grouping
of the blocks yields the same integer counts — results are therefore
**bit-identical for any chunk size and any worker count**, which also
means the persistent result cache never needs chunk/jobs in its keys.

The screen drops only cells whose ``L*`` provably exceeds the grid's
last point (their indicator is 0 at every grid point), and it drops
them *after* the block's draws: the ``lr0`` uniforms, the exponent
uniforms, then the tier normals, as before.  The tier normals, the
block's last draws, are skipped when no cell is kept.  A kept cell
therefore sees the same uniforms and normals as an unscreened run, and
every count is the same integer.

Bump :data:`ENGINE_VERSION` when changing anything that alters a block's
draws (:data:`RNG_BLOCK`, the in-block draw order, the samplers): the
cache salts its keys with the version, so stale entries self-invalidate.
The screen alters no draw and no count, so it left the version at 1.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.cells.drift import PAPER_ESCALATION, TieredDrift
from repro.cells.params import StateParams
from repro.chaos.registry import fault_point
from repro.montecarlo.rng import block_rng

__all__ = [
    "ENGINE_VERSION",
    "RNG_BLOCK",
    "DEFAULT_CHUNK",
    "StateRun",
    "apportion_samples",
    "blocks_evaluated",
    "fan_out",
    "plan_blocks",
    "resolve_jobs",
    "run_counts",
    "shard_ranges",
]

#: Salt for persistent cache keys; bump on any change to the draw scheme.
ENGINE_VERSION = 1

#: Fixed RNG granularity: samples per block (independent of ``chunk``).
RNG_BLOCK = 10_000

#: Default chunk size (samples per pool task): bounds peak memory per
#: worker to ~a few hundred MB.
DEFAULT_CHUNK = 4_000_000

#: Blocks actually evaluated since import (cache hits do not count).
_BLOCKS_EVALUATED = 0


def blocks_evaluated() -> int:
    """Total RNG blocks evaluated by this process since import.

    Cache hits perform no evaluation, so a warm-cache run leaves this
    counter unchanged — the benchmark/test hook for "zero recomputation".
    """
    return _BLOCKS_EVALUATED


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a worker-count spec: ``None``/``0`` means all CPU cores."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1 (or 0/None for all cores), got {jobs}")
    return jobs


_T = TypeVar("_T")
_R = TypeVar("_R")


def fan_out(fn: Callable[[_T], _R], tasks: Sequence[_T], jobs: int | None) -> list[_R]:
    """``[fn(t) for t in tasks]``, over a process pool of up to ``jobs``
    workers; inline for one job or one task."""
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def plan_blocks(n_samples: int, block: int = RNG_BLOCK) -> list[int]:
    """Sizes of the fixed RNG blocks covering ``n_samples`` cells."""
    n_samples = int(n_samples)
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    n_full, rem = divmod(n_samples, block)
    sizes = [block] * n_full
    if rem:
        sizes.append(rem)
    return sizes


def shard_ranges(n_items: int, shard: int) -> list[tuple[int, int]]:
    """``(first, size)`` shards covering ``[0, n_items)`` at fixed granularity.

    The range-valued sibling of :func:`plan_blocks`, for fan-outs whose
    work units are *indexed* (device populations) rather than merely
    counted: the shard layout — and therefore every per-shard cache key —
    depends only on ``(n_items, shard)``, never on chunking or worker
    count.
    """
    n_items = int(n_items)
    if n_items < 0:
        raise ValueError(f"n_items must be >= 0, got {n_items}")
    shard = int(shard)
    if shard < 1:
        raise ValueError(f"shard must be >= 1, got {shard}")
    return [
        (first, min(shard, n_items - first)) for first in range(0, n_items, shard)
    ]


def apportion_samples(n: int, weights: Sequence[float]) -> list[int]:
    """Largest-remainder apportionment of ``n`` samples over ``weights``.

    Returns non-negative integers that sum *exactly* to ``n`` (unlike
    per-entry rounding, which can over- or under-shoot).  Ties in the
    fractional remainders break toward lower indices, deterministically.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    quota = n * w / total
    base = np.floor(quota).astype(np.int64)
    remainder = n - int(base.sum())
    if remainder:
        order = np.argsort(-(quota - base), kind="stable")
        base[order[:remainder]] += 1
    return [int(x) for x in base]


@dataclasses.dataclass(frozen=True)
class StateRun:
    """One state population to evaluate: ``n_samples`` cells against ``tau``.

    ``entropy``/``prefix`` address the run's position in the seed spawn
    tree; its blocks occupy keys ``prefix + (0,) ... prefix + (n_blocks-1,)``.
    """

    state: StateParams
    tau: float
    n_samples: int
    entropy: int
    prefix: tuple[int, ...] = ()


@dataclasses.dataclass(frozen=True, eq=False)
class _Task:
    """A contiguous range of one run's blocks, evaluated by one worker."""

    item: int
    state: StateParams
    tau: float
    n_tiers: int
    first_block: int
    sizes: tuple[int, ...]
    entropy: int
    prefix: tuple[int, ...]
    L_grid: np.ndarray
    schedule: TieredDrift


class _Replay:
    """Stands in for a block's generator: :meth:`random` returns the kept
    cells' already-drawn uniforms, in draw order, so they go through
    :func:`~repro.montecarlo.cer.sample_state_cells` itself."""

    def __init__(self, draws: list[np.ndarray]) -> None:
        self._draws = iter(draws)

    def random(self, size: int) -> np.ndarray:
        u = next(self._draws)
        if u.size != size:
            raise ValueError(f"replayed {u.size} uniforms where {size} were asked for")
        return u


def _eval_task(task: _Task) -> np.ndarray:
    """Error counts of one task's blocks against the sorted ``L_grid``."""
    # Imported here (not at module top) so the import graph stays acyclic:
    # cer.py orchestrates through this module.
    from repro.montecarlo.cer import (
        CellScreen,
        critical_log_times,
        sample_state_cells,
        state_uniforms,
    )

    # Only observable with in-process execution (jobs=1): worker
    # processes do not share the chaos registry's module globals.
    fault_point("executor.task", item=task.item, first_block=task.first_block)

    screen = CellScreen(
        task.state, task.tau, task.schedule, np.max(task.L_grid, initial=0.0)
    )
    counts = np.zeros(len(task.L_grid), dtype=np.int64)
    for offset, size in enumerate(task.sizes):
        rng = block_rng(task.entropy, task.prefix + (task.first_block + offset,))
        u_lr, u_alpha = state_uniforms(task.state, size, rng)
        keep = screen.keep(u_lr, u_alpha, size)
        n_kept = int(np.count_nonzero(keep))
        if not n_kept:
            continue
        # The tier normals are the block's last draws, needed only when
        # some cell is kept.
        tier_z = None
        if task.n_tiers:
            tier_z = [rng.standard_normal(size)[keep] for _ in range(task.n_tiers)]
        draws = [u[keep] for u in (u_lr, u_alpha) if u is not None]
        lr0, alpha, z = sample_state_cells(task.state, n_kept, _Replay(draws))
        L_star = critical_log_times(
            lr0, alpha, z, task.state.drift.mu_alpha, task.tau, task.schedule, tier_z
        )
        # errors by time t  <=>  L* <= L(t): the sorted L* at or below
        # each grid point.
        L_star.sort()
        counts += np.searchsorted(L_star, task.L_grid, side="right")
    return counts


def run_counts(
    runs: Sequence[StateRun],
    L_grid: np.ndarray,
    schedule: TieredDrift = PAPER_ESCALATION,
    chunk: int = DEFAULT_CHUNK,
    jobs: int | None = 1,
) -> list[np.ndarray]:
    """Evaluate several state populations, fanning blocks over a process pool.

    Returns one ``int64`` error-count vector (aligned with the sorted
    ``L_grid``) per run.  All runs share one pool, so a design's states
    load-balance across workers; with ``jobs=1`` everything runs inline.
    """
    global _BLOCKS_EVALUATED
    L = np.ascontiguousarray(L_grid, dtype=float)
    blocks_per_task = max(1, int(chunk) // RNG_BLOCK)

    tasks: list[_Task] = []
    for item, run in enumerate(runs):
        sizes = plan_blocks(run.n_samples)
        n_tiers = 0
        if schedule.mode == "independent" and np.isfinite(run.tau):
            n_tiers = len(schedule.tiers_between(-np.inf, run.tau))
        for start in range(0, len(sizes), blocks_per_task):
            tasks.append(
                _Task(
                    item=item,
                    state=run.state,
                    tau=float(run.tau),
                    n_tiers=n_tiers,
                    first_block=start,
                    sizes=tuple(sizes[start : start + blocks_per_task]),
                    entropy=run.entropy,
                    prefix=tuple(run.prefix),
                    L_grid=L,
                    schedule=schedule,
                )
            )

    out = [np.zeros(L.size, dtype=np.int64) for _ in runs]
    for task, counts in zip(tasks, fan_out(_eval_task, tasks, jobs)):
        out[task.item] += counts
        _BLOCKS_EVALUATED += len(task.sizes)
    return out
