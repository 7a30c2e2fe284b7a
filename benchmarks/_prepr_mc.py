"""Frozen unscreened per-block Monte Carlo evaluator (benchmark baseline only).

The body of ``repro.montecarlo.executor._eval_task`` as it stood before
the exact cell screen (:class:`repro.montecarlo.cer.CellScreen`): every
cell of every RNG block goes through ``sample_state_cells`` and
``critical_log_times``, and the block's sorted critical times are counted
against the grid with one ``searchsorted``.  :func:`unscreened` routes the
executor through it, so ``benchmarks/test_perf_cer_core.py`` and
``benchmarks/test_perf_mc_parallel.py`` can time the pre-screen pipeline
on the same box and assert that both give equal counts.  Do not import
this from library code.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

import numpy as np

import repro.montecarlo.executor as executor
from repro.montecarlo.cer import critical_log_times, sample_state_cells
from repro.montecarlo.rng import block_rng

__all__ = ["eval_task_unscreened", "unscreened"]


def eval_task_unscreened(task) -> np.ndarray:
    """Error counts of one executor task, every cell evaluated."""
    counts = np.zeros(len(task.L_grid), dtype=np.int64)
    for offset, size in enumerate(task.sizes):
        rng = block_rng(task.entropy, task.prefix + (task.first_block + offset,))
        lr0, alpha, z = sample_state_cells(task.state, size, rng)
        tier_z = None
        if task.n_tiers:
            tier_z = [rng.standard_normal(size) for _ in range(task.n_tiers)]
        L_star = critical_log_times(
            lr0, alpha, z, task.state.drift.mu_alpha, task.tau, task.schedule, tier_z
        )
        L_star.sort()
        counts += np.searchsorted(L_star, task.L_grid, side="right")
    return counts


@contextlib.contextmanager
def unscreened() -> Iterator[None]:
    """Run in-process (``jobs=1``) executor tasks through the frozen body."""
    screened = executor._eval_task
    executor._eval_task = eval_task_unscreened
    try:
        yield
    finally:
        executor._eval_task = screened
