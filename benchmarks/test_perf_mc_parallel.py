"""Monte Carlo design CER: serial vs parallel, screened vs unscreened.

Two measurements, recorded in ``results/BENCH_mc.json`` with the box's
core count and numpy version:

1. **Serial vs parallel.**  A 4e6-cell ``design_cer`` of 4LCn once on a
   single core and once with one worker per core; the two runs must
   return *identical* counts (the executor's deterministic RNG fan-out
   guarantees bit-equality, not just statistical agreement).  The >= 2x
   speedup floor is only asserted on machines with at least 4 cores.
2. **The exact cell screen.**  ``design_cer`` of the five Figure-8
   designs at ``mc_paper``'s 3e6 cells, through today's screened
   executor and through the frozen unscreened per-block evaluator
   (``_prepr_mc``), which must return identical counts; plus the share of
   drawn cells the screen keeps and a per-stage split of the screened
   per-block loop (draw / screen / transform + ``L*`` / sort + count,
   with the untimed remainder as ``other``) that adds up to that loop's
   end-to-end time.
"""

import os
import time

import numpy as np

import _prepr_mc
from _report import emit_json, machine_info
from repro.cells.drift import PAPER_ESCALATION
from repro.cells.params import T0_SECONDS
from repro.core.designs import all_designs, four_level_naive
from repro.montecarlo.cer import (
    CellScreen,
    critical_log_times,
    design_cer,
    sample_state_cells,
    state_uniforms,
)
from repro.montecarlo.executor import _Replay, apportion_samples, plan_blocks
from repro.montecarlo.rng import block_rng
from repro.montecarlo.sweep import PAPER_TIME_GRID_S

N_SAMPLES = 4_000_000

#: Small enough that each active state splits into several pool tasks
#: (good load balance), large enough that task overhead stays negligible.
CHUNK = 250_000

#: Cells per design in the screen comparison (``mc_paper``'s size).
SCREEN_SAMPLES = 3_000_000
SCREEN_SEED = 1

STAGES = ("draw", "screen", "transform_and_L_star", "sort_and_count")


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _bench_parallel() -> dict:
    design = four_level_naive()
    jobs = os.cpu_count() or 1
    serial, t_serial = _timed(
        lambda: design_cer(design, PAPER_TIME_GRID_S, N_SAMPLES, seed=0, chunk=CHUNK, jobs=1)
    )
    parallel, t_parallel = _timed(
        lambda: design_cer(
            design, PAPER_TIME_GRID_S, N_SAMPLES, seed=0, chunk=CHUNK, jobs=jobs
        )
    )
    assert np.array_equal(serial.cer, parallel.cer), "parallel counts must be identical"
    assert serial.cer[-1] > 0
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    if jobs >= 4:
        assert speedup >= 2.0, f"expected >=2x on {jobs} cores, got {speedup:.2f}x"
    return {
        "benchmark": "design_cer 4LCn, 9-point paper grid",
        "n_samples": N_SAMPLES,
        "chunk": CHUNK,
        "jobs": jobs,
        "serial_s": round(t_serial, 4),
        "parallel_s": round(t_parallel, 4),
        "speedup": round(speedup, 3),
        "identical_counts": True,
    }


def _staged_design_counts(design, L_grid: np.ndarray, stage_s: dict) -> tuple:
    """``design_cer``'s screened per-block loop, one timer per stage.

    Returns the pooled counts, the cells drawn and the cells kept.
    """
    clock = time.perf_counter
    total = np.zeros(L_grid.size, dtype=np.int64)
    drawn = kept = 0
    shares = apportion_samples(SCREEN_SAMPLES, design.occupancy)
    for i, (state, n_state) in enumerate(zip(design.states, shares)):
        tau = design.upper_threshold(i)
        if not np.isfinite(tau) or n_state == 0:
            continue
        n_tiers = len(PAPER_ESCALATION.tiers_between(-np.inf, tau))
        screen = CellScreen(state, tau, PAPER_ESCALATION, L_grid[-1])
        for b, size in enumerate(plan_blocks(n_state)):
            t0 = clock()
            rng = block_rng(SCREEN_SEED, (i, b))
            u_lr, u_alpha = state_uniforms(state, size, rng)
            t1 = clock()
            keep = screen.keep(u_lr, u_alpha, size)
            n_kept = int(np.count_nonzero(keep))
            t2 = clock()
            stage_s["draw"] += t1 - t0
            stage_s["screen"] += t2 - t1
            drawn += size
            kept += n_kept
            if not n_kept:
                continue
            tier_z = [rng.standard_normal(size)[keep] for _ in range(n_tiers)]
            t3 = clock()
            draws = [u[keep] for u in (u_lr, u_alpha) if u is not None]
            lr0, alpha, z = sample_state_cells(state, n_kept, _Replay(draws))
            L_star = critical_log_times(
                lr0, alpha, z, state.drift.mu_alpha, tau, PAPER_ESCALATION, tier_z
            )
            t4 = clock()
            L_star.sort()
            total += np.searchsorted(L_star, L_grid, side="right")
            t5 = clock()
            stage_s["draw"] += t3 - t2
            stage_s["transform_and_L_star"] += t4 - t3
            stage_s["sort_and_count"] += t5 - t4
    return total, drawn, kept


def _bench_screen() -> dict:
    designs = all_designs()
    times = np.sort(np.asarray(PAPER_TIME_GRID_S))
    L_grid = np.log10(times / T0_SECONDS)

    def run_all():
        return [
            design_cer(d, times, SCREEN_SAMPLES, seed=SCREEN_SEED).cer
            for d in designs.values()
        ]

    with _prepr_mc.unscreened():
        ref, t_unscreened = _timed(run_all)
    got, t_screened = _timed(run_all)
    assert all(np.array_equal(a, b) for a, b in zip(ref, got)), "the screen changed a count"

    stage_s = dict.fromkeys(STAGES, 0.0)
    t0 = time.perf_counter()
    staged = [_staged_design_counts(d, L_grid, stage_s) for d in designs.values()]
    t_staged = time.perf_counter() - t0
    for (counts, _, _), cer in zip(staged, got):
        assert np.array_equal(counts / float(SCREEN_SAMPLES), cer), "staged loop drifted"
    drawn = sum(s[1] for s in staged)
    kept = sum(s[2] for s in staged)
    stage_s["other"] = t_staged - sum(stage_s.values())
    return {
        "benchmark": "design_cer of the 5 Figure-8 designs, 9-point paper grid, jobs=1",
        "designs": list(designs),
        "n_samples_per_design": SCREEN_SAMPLES,
        "seed": SCREEN_SEED,
        "unscreened_s": round(t_unscreened, 4),
        "screened_s": round(t_screened, 4),
        "speedup": round(t_unscreened / t_screened, 3),
        "identical_counts": True,
        "cells_drawn": drawn,
        "kept_fraction": round(kept / drawn, 4),
        "stages_end_to_end_s": round(t_staged, 4),
        "stages": {
            name: {"s": round(s, 4), "share": round(s / t_staged, 3)}
            for name, s in stage_s.items()
        },
    }


def test_mc_parallel_identical_and_fast():
    emit_json(
        "BENCH_mc",
        {
            "machine": machine_info(),
            "serial_vs_parallel": _bench_parallel(),
            "cell_screen": _bench_screen(),
        },
    )
