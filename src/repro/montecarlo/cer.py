"""Monte Carlo cell-error-rate (CER) estimation.

The drift law is linear in ``L = log10(t / t0)``, so every sampled cell has
a *critical log-time* ``L*`` at which its resistance first crosses the
error threshold.  A whole time sweep then reduces to one sort of ``L*`` and
a ``searchsorted`` per RNG block — this, plus the parallel block fan-out in
``repro.montecarlo.executor`` and the persistent result cache in
``repro.montecarlo.results_cache``, is what lets the engine reach the
paper's 1e9-sample scale on a laptop.

Tier escalation (Section 5.3's conservative two-phase drift) is folded into
the closed form: the trajectory is piecewise linear in ``L`` with slopes
``alpha_0, alpha_1, ...`` switching at tier boundaries, so

    L* = sum_k (segment height of phase k) / alpha_k .

Cells programmed above a tier boundary keep their own exponent draw (their
state's distribution already reflects that tier); only cells that drift
across a boundary escalate.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.cells.drift import PAPER_ESCALATION, TieredDrift
from repro.cells.params import T0_SECONDS, WRITE_TRUNCATION_SIGMA, StateParams
from repro.core.levels import LevelDesign
from repro.montecarlo.executor import (
    DEFAULT_CHUNK,
    StateRun,
    apportion_samples,
    run_counts,
)
from repro.montecarlo.results_cache import ResultsCache, cached_counts, state_counts_key
from repro.montecarlo.rng import alpha_samples, seed_entropy, truncated_normal

__all__ = [
    "critical_log_times",
    "sample_state_cells",
    "state_cer",
    "design_cer",
    "CERResult",
    "DEFAULT_CHUNK",
]


def sample_state_cells(
    state: StateParams, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample written cells of one state: ``(lr0, alpha, z)``.

    ``lr0`` is the initial log10 resistance after write-and-verify (truncated
    Gaussian), ``alpha`` the per-cell drift exponent (Gaussian truncated at
    zero), and ``z`` its standardized quantile.
    """
    lr0 = truncated_normal(
        rng,
        state.mu_lr,
        state.sigma_lr,
        -WRITE_TRUNCATION_SIGMA,
        WRITE_TRUNCATION_SIGMA,
        n,
    )
    alpha, z = alpha_samples(rng, state.drift.mu_alpha, state.drift.sigma_alpha, n)
    return lr0, alpha, z


def critical_log_times(
    lr0: np.ndarray,
    alpha0: np.ndarray,
    z0: np.ndarray,
    mu_orig: float,
    tau: float,
    schedule: TieredDrift = PAPER_ESCALATION,
    tier_z: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Per-cell ``L* = log10(t*/t0)`` at which resistance first reaches ``tau``.

    ``inf`` means the cell never errs.  ``tier_z`` supplies one array of
    fresh standard-normal quantiles per schedule tier (only consumed in
    ``"independent"`` mode; tiers the cell does not cross are ignored).
    """
    lr0 = np.asarray(lr0, dtype=float)
    cur_alpha = np.asarray(alpha0, dtype=float).copy()
    z0 = np.asarray(z0, dtype=float)
    if not np.isfinite(tau):
        return np.full(lr0.shape, np.inf)

    tiers = schedule.tiers_between(-np.inf, tau)
    if schedule.mode == "independent" and tiers:
        if tier_z is None or len(tier_z) < len(tiers):
            raise ValueError(
                f"independent escalation across {len(tiers)} tier(s) requires tier_z"
            )

    L_star = np.zeros(lr0.shape)
    cur_lr = lr0.copy()

    for k, tier in enumerate(tiers):
        # Cells below the boundary spend part of their budget reaching it.
        below = cur_lr < tier.lr_break
        seg = np.where(below, tier.lr_break - cur_lr, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dL = np.where(seg > 0, seg / cur_alpha, 0.0)
        dL = np.where((seg > 0) & (cur_alpha <= 0), np.inf, dL)
        L_star = L_star + dL
        # Only cells that crossed the boundary (finite budget so far and
        # started below it) escalate; cells programmed above keep their draw.
        crossed = below & np.isfinite(L_star)
        if np.any(crossed):
            z_fresh = tier_z[k] if tier_z is not None else None
            esc = schedule.escalated_alpha(tier, cur_alpha, z0, mu_orig, z_fresh)
            cur_alpha = np.where(crossed, esc, cur_alpha)
        cur_lr = np.maximum(cur_lr, tier.lr_break)

    seg = np.maximum(tau - cur_lr, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        dL = np.where(seg > 0, seg / cur_alpha, 0.0)
    dL = np.where((seg > 0) & (cur_alpha <= 0), np.inf, dL)
    L_star = L_star + dL
    # Cells written at/above tau (possible only if tau intrudes into the
    # write window) err immediately.
    return np.where(lr0 >= tau, 0.0, L_star)


@dataclasses.dataclass(frozen=True)
class CERResult:
    """CER estimates over a time grid, with the MC resolution floor."""

    times_s: np.ndarray
    cer: np.ndarray
    n_samples: int

    @property
    def floor(self) -> float:
        """Smallest resolvable nonzero rate (one error in ``n_samples``)."""
        return 1.0 / self.n_samples


def _prepare_grid(times_s: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Sorted time grid and its log-time image, validated once.

    ``design_cer`` evaluates many states against the same grid; hoisting
    the sort/validation/log here keeps the per-state path free of
    redundant work.
    """
    times = np.sort(np.asarray(times_s, dtype=float))
    if np.any(times < T0_SECONDS):
        raise ValueError("all times must be >= t0")
    return times, np.log10(times / T0_SECONDS)


def _counts_for_runs(
    runs: Sequence[StateRun],
    times: np.ndarray,
    L_grid: np.ndarray,
    schedule: TieredDrift,
    chunk: int,
    jobs: int | None,
    cache: ResultsCache | None,
) -> list[np.ndarray]:
    """Per-run error counts, served from the cache where possible."""
    return cached_counts(
        cache,
        runs,
        lambda run: state_counts_key(run, times, schedule),
        len(times),
        lambda missing: run_counts(missing, L_grid, schedule=schedule, chunk=chunk, jobs=jobs),
    )


def state_cer(
    state: StateParams,
    tau_up: float,
    times_s: Sequence[float],
    n_samples: int,
    seed: int | np.random.Generator = 0,
    schedule: TieredDrift = PAPER_ESCALATION,
    chunk: int = DEFAULT_CHUNK,
    jobs: int | None = 1,
    cache: ResultsCache | None = None,
) -> CERResult:
    """Monte Carlo CER of one state against its upper threshold.

    Sampling is organized in fixed-size RNG blocks (see
    ``repro.montecarlo.executor``), so arbitrarily large ``n_samples`` fit
    in memory and the result is bit-identical for any ``chunk``/``jobs``
    combination.  ``jobs > 1`` fans blocks over a process pool; ``cache``
    (a :class:`~repro.montecarlo.results_cache.ResultsCache`) serves
    previously computed count vectors without re-sampling.
    """
    times, L_grid = _prepare_grid(times_s)
    run = StateRun(
        state=state,
        tau=float(tau_up),
        n_samples=int(n_samples),
        entropy=seed_entropy(seed),
    )
    counts = _counts_for_runs([run], times, L_grid, schedule, chunk, jobs, cache)[0]
    return CERResult(
        times_s=times, cer=counts / float(n_samples), n_samples=int(n_samples)
    )


def design_cer(
    design: LevelDesign,
    times_s: Sequence[float],
    n_samples: int,
    seed: int | np.random.Generator | None = 0,
    schedule: TieredDrift = PAPER_ESCALATION,
    chunk: int = DEFAULT_CHUNK,
    jobs: int | None = 1,
    cache: ResultsCache | None = None,
) -> CERResult:
    """Occupancy-weighted CER of a whole level design over a time grid.

    ``n_samples`` counts total written cells; states receive exact
    largest-remainder occupancy shares (summing to ``n_samples``, so the
    reported MC resolution ``floor`` is honest), and the design CER is the
    pooled error count over the whole written population.  All states'
    blocks share one process pool when ``jobs > 1``, and each state's
    count vector is cached independently so physically identical states
    are reused across designs.
    """
    times, L_grid = _prepare_grid(times_s)
    entropy = seed_entropy(seed)
    shares = apportion_samples(int(n_samples), design.occupancy)
    runs: list[StateRun] = []
    for i, (state, n_state) in enumerate(zip(design.states, shares)):
        tau = design.upper_threshold(i)
        if not np.isfinite(tau) or n_state == 0:
            continue  # top state never drift-errs
        runs.append(
            StateRun(
                state=state,
                tau=float(tau),
                n_samples=n_state,
                entropy=entropy,
                prefix=(i,),
            )
        )
    total = np.zeros(len(times), dtype=np.int64)
    for counts in _counts_for_runs(runs, times, L_grid, schedule, chunk, jobs, cache):
        total += counts
    return CERResult(
        times_s=times, cer=total / float(n_samples), n_samples=int(n_samples)
    )
