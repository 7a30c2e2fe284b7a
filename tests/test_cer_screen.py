"""The executor's exact cell screen (:class:`repro.montecarlo.cer.CellScreen`).

Two promises are held here:

1. **Counts are unchanged.**  Screened ``run_counts`` equals the frozen
   unscreened per-block oracle of ``tests/test_cer_vectorized.py`` for
   every Figure-8 design state and the Figure-3 rows, under every
   escalation reading, on grids that screen lightly and heavily, and for
   degenerate states (no ``lr0`` spread, constant exponents, ``tau``
   inside the write window).
2. **Dropped cells cannot err by the last grid point**, checked cell by
   cell against :func:`critical_log_times`, and the screen does drop most
   of 3LCo's cells on the paper grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.montecarlo.cer as cer
import repro.montecarlo.executor as executor
from repro.cells.drift import ESCALATION_MODES, NO_ESCALATION, escalation_schedule
from repro.cells.params import SIGMA_R, DriftParams, StateParams
from repro.core.designs import all_designs, four_level_naive, three_level_optimal
from repro.montecarlo.cer import (
    CellScreen,
    critical_log_times,
    design_cer,
    sample_state_cells,
    state_uniforms,
)
from repro.montecarlo.executor import StateRun, run_counts
from repro.montecarlo.sweep import PAPER_TIME_GRID_S
from tests.test_cer_vectorized import _eval_blocks_reference

SCHEDULES = {mode: escalation_schedule(mode) for mode in ESCALATION_MODES}
SCHEDULES["none"] = NO_ESCALATION

GRIDS = {
    "paper": PAPER_TIME_GRID_S,
    "short": (2.0, 32.0, 1024.0),
    "to_2^45": PAPER_TIME_GRID_S + (2.0**45,),
}

#: Cells per oracle comparison: two full RNG blocks and a partial one.
N_CELLS = 25_000


def _design_rows() -> list[tuple[StateParams, float]]:
    """``(state, tau)`` of every Figure-8 design state and Figure-3 row."""
    designs = list(all_designs().values()) + [four_level_naive()]
    rows = []
    for design in designs:
        for i, state in enumerate(design.states):
            tau = design.upper_threshold(i)
            if np.isfinite(tau):
                rows.append((state, float(tau)))
    return rows


DEGENERATE_ROWS = [
    (StateParams("no_spread", 4.0, 0.0, DriftParams(0.02, 0.008)), 4.4),
    (StateParams("no_drift", 4.0, SIGMA_R, DriftParams(0.0, 0.0)), 4.3),
    (StateParams("fixed_alpha", 4.0, SIGMA_R, DriftParams(0.02, 0.0)), 4.6),
    (StateParams("tau_in_window", 4.0, SIGMA_R, DriftParams(0.02, 0.008)), 4.3),
    (StateParams("straddles_tier", 4.45, SIGMA_R, DriftParams(0.02, 0.008)), 5.3),
]


def _oracle(run: StateRun, L: np.ndarray, schedule) -> np.ndarray:
    n_tiers = 0
    if schedule.mode == "independent" and np.isfinite(run.tau):
        n_tiers = len(schedule.tiers_between(-np.inf, run.tau))
    task = executor._Task(
        item=0,
        state=run.state,
        tau=float(run.tau),
        n_tiers=n_tiers,
        first_block=0,
        sizes=tuple(executor.plan_blocks(run.n_samples)),
        entropy=run.entropy,
        prefix=run.prefix,
        L_grid=L,
        schedule=schedule,
    )
    return _eval_blocks_reference(task)


def _assert_rows_match(rows, schedule, grid) -> None:
    L = np.log10(np.sort(np.asarray(grid, dtype=float)))
    for k, (state, tau) in enumerate(rows):
        run = StateRun(state, tau, N_CELLS, entropy=1234 + k, prefix=(k,))
        got = run_counts([run], L, schedule=schedule)[0]
        assert np.array_equal(got, _oracle(run, L, schedule)), (state, tau)


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("sched", sorted(SCHEDULES))
def test_design_rows_match_unscreened_oracle(sched, grid):
    _assert_rows_match(_design_rows(), SCHEDULES[sched], GRIDS[grid])


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("sched", sorted(SCHEDULES))
def test_degenerate_rows_match_unscreened_oracle(sched, grid):
    _assert_rows_match(DEGENERATE_ROWS, SCHEDULES[sched], GRIDS[grid])


@settings(max_examples=60, deadline=None)
@given(
    mu_lr=st.floats(3.0, 5.5),
    sigma_lr=st.sampled_from([0.0, SIGMA_R / 2, SIGMA_R, 0.3]),
    mu_alpha=st.sampled_from([0.0, 0.001, 0.02, 0.06, 0.1]),
    alpha_ratio=st.sampled_from([0.0, 0.4, 0.8]),
    tau_gap=st.floats(-0.3, 1.5),
    sched=st.sampled_from(sorted(SCHEDULES)),
    quantile=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31),
)
def test_dropped_cells_cannot_err_by_last_grid_point(
    mu_lr, sigma_lr, mu_alpha, alpha_ratio, tau_gap, sched, quantile, seed
):
    state = StateParams("s", mu_lr, sigma_lr, DriftParams(mu_alpha, alpha_ratio * mu_alpha))
    tau = mu_lr + tau_gap
    schedule = SCHEDULES[sched]
    n = 20_000
    u_lr, u_alpha = state_uniforms(state, n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    lr0, alpha, z = sample_state_cells(state, n, rng)
    tier_z = [rng.standard_normal(n) for _ in schedule.tiers_between(-np.inf, tau)]
    L_star = critical_log_times(lr0, alpha, z, mu_alpha, tau, schedule, tier_z)
    # Put the last grid point among the cells' own critical times, where
    # a loose bound would show.
    finite = L_star[np.isfinite(L_star)]
    L_max = float(np.quantile(finite, quantile)) if finite.size else 20.0 * quantile
    keep = CellScreen(state, tau, schedule, L_max).keep(u_lr, u_alpha, n)
    assert np.all(L_star[~keep] > L_max)


def test_screen_drops_most_3lco_cells_on_paper_grid(monkeypatch):
    """3LCo's evaluated cells stay under a quarter of those drawn, so a
    screen that has quietly switched itself off fails here."""
    evaluated = []
    inner = cer.critical_log_times

    def counting(lr0, *args, **kwargs):
        evaluated.append(np.size(lr0))
        return inner(lr0, *args, **kwargs)

    monkeypatch.setattr(cer, "critical_log_times", counting)
    n = 300_000
    design_cer(three_level_optimal(), PAPER_TIME_GRID_S, n, seed=3)
    assert 0 < sum(evaluated) <= 0.25 * n
