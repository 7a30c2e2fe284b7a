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

Every term of that sum is non-negative and the first one is
``(b - lr0) / alpha_0``, where ``b`` is the cell's *first barrier*: the
lowest tier break above ``lr0``, or ``tau``.  Escalation only starts after
a crossing, so under every escalation mode ``L* >= (b - lr0) / alpha_0``.
:class:`CellScreen` turns that bound into an exact pre-filter on a cell's
two uniforms: a cell whose exponent is too small to lift it to its first
barrier by the grid's last point has ``L* > L_max`` and adds nothing to
any count, so the executor drops it before the inverse-CDF transforms.
The draws themselves do not change, so neither do the counts, and
``ENGINE_VERSION`` (the cache-key salt for the draw scheme) stays 1.
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
from repro.montecarlo.rng import (
    alpha_samples,
    seed_entropy,
    truncated_normal,
    truncated_normal_from_uniform,
    uniform_from_alpha,
)

__all__ = [
    "critical_log_times",
    "sample_state_cells",
    "state_uniforms",
    "CellScreen",
    "SCREEN_BINS",
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


#: Bins of :class:`CellScreen`'s table over the ``lr0`` uniform.
SCREEN_BINS = 256

# Slack that makes every screen decision conservative: log-resistance
# edges widen by _LR_SLACK (decades), the exponent bound shrinks by the
# relative _REL_SLACK, and the uniform bound by _U_SLACK.  Each is orders
# of magnitude above the float error of the transforms it covers.
_LR_SLACK = 1e-9
_REL_SLACK = 1e-9
_U_SLACK = 1e-12


def state_uniforms(
    state: StateParams, n: int, rng: np.random.Generator
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The uniforms :func:`sample_state_cells` draws from ``rng``, in its
    order: ``(u_lr, u_alpha)``.

    ``None`` stands for a constant variable (``sigma_lr == 0``, or a
    constant exponent), which makes no draw.  Feeding the drawn arrays, or
    any common subset of them, back to :func:`sample_state_cells` through a
    stand-in generator reproduces its cells bit for bit.
    """
    drift = state.drift
    u_lr = rng.random(n) if state.sigma_lr != 0.0 else None
    constant_alpha = drift.mu_alpha == 0.0 or drift.sigma_alpha == 0.0
    u_alpha = None if constant_alpha else rng.random(n)
    return u_lr, u_alpha


class CellScreen:
    """Exact pre-filter of one state's cells against the last grid point.

    The table bins the ``lr0`` uniform into :data:`SCREEN_BINS` bins (one
    bin when ``lr0`` is constant).  Bin ``j`` holds the critical exponent
    uniform ``crit[j]``: a cell of the bin whose exponent uniform is below
    it cannot lift even the bin's highest ``lr0`` to the first barrier
    above the bin's lowest ``lr0`` by ``L_max``, so its
    :func:`critical_log_times` exceeds ``L_max`` under every escalation
    mode.  A constant exponent screens as uniform ``0`` against a table of
    ``0`` (keep the bin) or ``1`` (drop it).  Every margin errs toward
    keeping a cell.
    """

    def __init__(
        self, state: StateParams, tau: float, schedule: TieredDrift, L_max: float
    ) -> None:
        if state.sigma_lr == 0.0:
            lr_lo = lr_hi = np.array([state.mu_lr])
        else:
            edges = truncated_normal_from_uniform(
                np.linspace(0.0, 1.0, SCREEN_BINS + 1),
                state.mu_lr,
                state.sigma_lr,
                -WRITE_TRUNCATION_SIGMA,
                WRITE_TRUNCATION_SIGMA,
            )
            lr_lo, lr_hi = edges[:-1], edges[1:]
        barriers = np.array(
            [t.lr_break for t in schedule.tiers_between(-np.inf, tau)] + [tau]
        )
        # The first barrier strictly above the bin's lowest lr0; none
        # (-inf: the bin reaches tau and is kept) past tau.
        first = np.append(barriers, -np.inf)[
            np.searchsorted(barriers, lr_lo - _LR_SLACK, side="right")
        ]
        rise = first - (lr_hi + _LR_SLACK)
        with np.errstate(divide="ignore", invalid="ignore"):
            alpha_max = np.where(rise > 0.0, rise / L_max, -np.inf)
        alpha_max = alpha_max * (1.0 - _REL_SLACK)
        drift = state.drift
        if drift.mu_alpha == 0.0 or drift.sigma_alpha == 0.0:
            self.crit = np.where(drift.mu_alpha < alpha_max, 1.0, 0.0)
        else:
            u = uniform_from_alpha(alpha_max, drift.mu_alpha, drift.sigma_alpha)
            self.crit = u - _U_SLACK

    def keep(
        self, u_lr: np.ndarray | None, u_alpha: np.ndarray | None, n: int
    ) -> np.ndarray:
        """Boolean mask of the cells that may err by ``L_max``, from the
        uniforms :func:`state_uniforms` drew for ``n`` cells."""
        if u_lr is None:
            crit = np.full(n, self.crit[0])
        else:
            crit = self.crit[(u_lr * self.crit.size).astype(np.intp)]
        return (np.zeros(n) if u_alpha is None else u_alpha) >= crit


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
