"""Vectorized CER core vs the pre-PR scalar path (engineering benchmark).

Two comparisons, both against genuinely pre-PR baselines:

1. **Analytic kernels** — the frozen pre-PR scalar quadrature
   (``_prepr_analytic``, one Python-loop quadrature per (state, time) /
   (design, time) pair) vs the batched time-axis/candidate-axis kernels,
   on the Figure-3 state rows, the Figure-8 design set, and an
   optimizer-style 3LC candidate grid.
2. **End-to-end figure sweeps** — the pre-PR Fig-3/Fig-8 pipeline
   (Monte Carlo at the sweep defaults through the frozen unscreened
   per-block evaluator ``_prepr_mc``, plus the scalar analytic floor)
   vs the new ``engine="analytic"`` batched path.  This is where the
   ``REPRO_CER_SPEEDUP_FLOOR`` (default 10x) acceptance floor applies.
   The same sweeps through today's screened executor are timed beside
   it (``*_mc_screened_s``, ``*_screen_speedup``) and must return the
   identical curves.  Each end-to-end time is the median of 3 runs
   taken in alternating rounds (unscreened MC, screened MC, analytic)
   after one untimed warm-up round: one timing of each side put the
   fig8 speedup at 8.4-11.1 on unchanged code, across the floor.  Each
   round's seconds are recorded beside the medians
   (``fig3_rounds_s``, ``fig8_rounds_s``).

Env knobs: ``REPRO_CER_SWEEP_SAMPLES`` (default 10M, the sweep default)
scales the MC baseline; ``REPRO_CER_SPEEDUP_FLOOR`` (default 10) relaxes
the end-to-end floor on noisy shared runners.  The committed
``results/BENCH_cer_core.json`` records the reference-machine numbers.
"""

import os
import time

import numpy as np

import _prepr_analytic as prepr
import _prepr_mc
from _report import emit_json, machine_info
from repro.core.designs import all_designs, four_level_naive
from repro.mapping.constraints import DesignSpace
from repro.mapping.optimizer import design_from_interior_mus
from repro.montecarlo.analytic import (
    analytic_design_cer_batch,
    analytic_state_cer_batch,
)
from repro.montecarlo.sweep import PAPER_TIME_GRID_S, fig3_state_sweep, fig8_design_sweep

SWEEP_SAMPLES = int(os.environ.get("REPRO_CER_SWEEP_SAMPLES", 10_000_000))
SPEEDUP_FLOOR = float(os.environ.get("REPRO_CER_SPEEDUP_FLOOR", 10.0))

#: Figure-3 resolution time grid for the kernel comparison (denser than
#: the 9 paper points, so per-call overhead is amortized on both sides).
FIG3_TIMES = np.logspace(1, 11, 40)


#: Timed rounds of the end-to-end sweeps (after one warm-up round).
END_TO_END_ROUNDS = 3


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _median_timed(sides: dict) -> tuple[dict, dict, dict]:
    """(last output, median seconds, each round's seconds) per side,
    over alternating rounds.

    Each round runs every side once, in order, so drift on a shared box
    hits all sides alike; the first round is an untimed warm-up.
    """
    outs: dict = {}
    times: dict = {name: [] for name in sides}
    for round_ in range(END_TO_END_ROUNDS + 1):
        for name, fn in sides.items():
            outs[name], t = _timed(fn)
            if round_:
                times[name].append(t)
    return outs, {name: float(np.median(ts)) for name, ts in times.items()}, times


def _rounded(rounds: dict) -> dict:
    return {name: [round(t, 4) for t in ts] for name, ts in rounds.items()}


def _bench_fig3_kernel() -> dict:
    design = four_level_naive()
    pairs = [
        (s, design.upper_threshold(i))
        for i, s in enumerate(design.states)
        if np.isfinite(design.upper_threshold(i))
    ]

    def scalar():
        return np.stack(
            [prepr.analytic_state_cer(s, tau, FIG3_TIMES) for s, tau in pairs]
        )

    def batched():
        return analytic_state_cer_batch(
            [s for s, _ in pairs], [tau for _, tau in pairs], FIG3_TIMES
        )

    ref, t_scalar = _timed(scalar)
    new, t_batch = _timed(batched)
    assert np.array_equal(ref, new), "fig3 analytic rows must be bit-identical"
    return {
        "scalar_s": round(t_scalar, 4),
        "batched_s": round(t_batch, 4),
        "speedup": round(t_scalar / t_batch, 1),
        "bit_identical": True,
    }


def _bench_fig8_kernel() -> dict:
    designs = all_designs()
    names = sorted(designs)

    def scalar():
        return np.stack(
            [prepr.analytic_design_cer(designs[n], PAPER_TIME_GRID_S) for n in names]
        )

    def batched():
        return analytic_design_cer_batch([designs[n] for n in names], PAPER_TIME_GRID_S)

    ref, t_scalar = _timed(scalar)
    new, t_batch = _timed(batched)
    assert np.array_equal(ref, new), "fig8 analytic curves must be bit-identical"
    return {
        "scalar_s": round(t_scalar, 4),
        "batched_s": round(t_batch, 4),
        "speedup": round(t_scalar / t_batch, 1),
        "bit_identical": True,
    }


def _bench_optimizer_grid() -> dict:
    """The coarse grid scan of ``optimize_mapping(3, ...)``, both ways."""
    space = DesignSpace(n_levels=3)
    lo = space.mu_lo + 2 * space.margin
    hi = space.mu_hi - 2 * space.margin
    cands = np.linspace(lo, hi, 24)
    designs = [design_from_interior_mus(space, [c]) for c in cands]
    times = [2.0**15, 2.0**25, 2.0**30]

    def scalar():
        return np.stack(
            [prepr.analytic_design_cer(d, times, z_points=301) for d in designs]
        )

    def batched():
        return analytic_design_cer_batch(designs, times, z_points=301)

    ref, t_scalar = _timed(scalar)
    new, t_batch = _timed(batched)
    assert np.array_equal(ref, new), "grid-scan objective must be bit-identical"
    return {
        "candidates": len(designs),
        "scalar_s": round(t_scalar, 4),
        "batched_s": round(t_batch, 4),
        "speedup": round(t_scalar / t_batch, 1),
        "bit_identical": True,
    }


def _bench_end_to_end() -> dict:
    def fig3_mc():
        return fig3_state_sweep(n_samples=SWEEP_SAMPLES, engine="mc")

    def fig8_pre_pr():
        sweep = fig8_design_sweep(
            n_samples=SWEEP_SAMPLES, engine="mc", analytic_floor=False
        )
        # Pre-PR pipeline fills unresolved points with the scalar analytic.
        designs = all_designs()
        for name, curve in sweep.series.items():
            an = prepr.analytic_design_cer(designs[name], sweep.times_s)
            unresolved = curve < sweep.floor
            curve[unresolved] = an[unresolved]
        return sweep

    def unscreened(fn):
        def run():
            with _prepr_mc.unscreened():
                return fn()

        return run

    fig3, t3, rounds3 = _median_timed(
        {
            "mc": unscreened(fig3_mc),
            "screened": fig3_mc,
            "analytic": lambda: fig3_state_sweep(engine="analytic"),
        }
    )
    fig8, t8, rounds8 = _median_timed(
        {
            "mc": unscreened(fig8_pre_pr),
            "screened": fig8_pre_pr,
            "analytic": lambda: fig8_design_sweep(engine="analytic"),
        }
    )

    for sweeps in (fig3, fig8):
        mc, scr, an = sweeps["mc"], sweeps["screened"], sweeps["analytic"]
        for name in mc.series:
            # The screen changes no count.
            assert np.array_equal(mc.series[name], scr.series[name]), name
            # Sanity: the analytic engine agrees with the MC where the MC
            # resolves well (>= 100 errors), for every series.
            m, a = mc.series[name], an.series[name]
            solid = m >= 100.0 * mc.floor
            assert np.allclose(a[solid], m[solid], rtol=0.25), name
    return {
        "n_samples": SWEEP_SAMPLES,
        "rounds": END_TO_END_ROUNDS,
        "fig3_mc_s": round(t3["mc"], 3),
        "fig3_mc_screened_s": round(t3["screened"], 3),
        "fig3_screen_speedup": round(t3["mc"] / t3["screened"], 2),
        "fig3_analytic_s": round(t3["analytic"], 4),
        "fig3_speedup": round(t3["mc"] / t3["analytic"], 1),
        "fig3_rounds_s": _rounded(rounds3),
        "fig8_mc_s": round(t8["mc"], 3),
        "fig8_mc_screened_s": round(t8["screened"], 3),
        "fig8_screen_speedup": round(t8["mc"] / t8["screened"], 2),
        "fig8_analytic_s": round(t8["analytic"], 4),
        "fig8_speedup": round(t8["mc"] / t8["analytic"], 1),
        "fig8_rounds_s": _rounded(rounds8),
    }


def test_cer_core_speedups():
    fig3 = _bench_fig3_kernel()
    fig8 = _bench_fig8_kernel()
    grid = _bench_optimizer_grid()
    end_to_end = _bench_end_to_end()

    emit_json(
        "BENCH_cer_core",
        {
            "benchmark": "vectorized CER core vs pre-PR scalar path",
            "machine": machine_info(),
            "speedup_floor": SPEEDUP_FLOOR,
            "analytic_fig3_kernel": fig3,
            "analytic_fig8_kernel": fig8,
            "optimizer_grid_scan": grid,
            "figure_sweeps_end_to_end": end_to_end,
        },
    )

    assert end_to_end["fig3_speedup"] >= SPEEDUP_FLOOR, end_to_end
    assert end_to_end["fig8_speedup"] >= SPEEDUP_FLOOR, end_to_end
    # The batched quadrature must never lose to the scalar path.
    assert fig3["speedup"] >= 1.0 and fig8["speedup"] >= 1.0 and grid["speedup"] >= 1.0
