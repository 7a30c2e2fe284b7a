"""Vectorized functional model of an array of PCM cells.

Supports the full write / drift / sense / wearout lifecycle used by the
device model (:mod:`repro.core.device`):

- **program**: iterative write-and-verify draws the initial log-resistance
  from the truncated write distribution and a per-cell drift exponent;
  wear is charged and stuck cells are reported (they ignore the write).
- **sense** at time ``t``: drifted log-resistance (with the paper's tier
  escalation, fresh exponents pre-drawn at program time so sensing is
  deterministic) thresholded by the active :class:`LevelDesign`.
- **force_highest**: RESET-to-S4 used to mark INV pairs; stuck-set cells
  go through reverse-current revival.

Times are absolute seconds; each cell remembers when it was programmed.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cells.drift import PAPER_ESCALATION, TieredDrift
from repro.cells.faults import FaultMode, WearoutModel
from repro.cells.params import T0_SECONDS, WRITE_TRUNCATION_SIGMA
from repro.core.levels import LevelDesign
from repro.montecarlo.rng import make_rng, truncated_normal

__all__ = [
    "CellArray",
    "cell_state_digest",
    "drifted_log_resistance",
    "programmed_alpha",
    "programmed_log_resistance",
    "sensed_log_resistance",
]

_HEALTHY = FaultMode.HEALTHY.value
_STUCK_RESET = FaultMode.STUCK_RESET.value
_STUCK_SET = FaultMode.STUCK_SET.value


def programmed_log_resistance(
    mu: np.ndarray, sigma: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Initial log-resistance of a programmed cell: ``mu + sigma * z``.

    ``mu``/``sigma`` are the per-cell write-distribution parameters
    (already gathered by target state), ``z`` the truncated-normal
    quantile drawn from the cell's physics stream.  :meth:`CellArray.program`
    and the fleet engine's programming rounds evaluate this one
    expression, which is what keeps them bit-identical.
    """
    return mu + sigma * z


def programmed_alpha(
    mu: np.ndarray, sigma: np.ndarray, z: np.ndarray
) -> np.ndarray:
    """Per-cell drift exponent: ``max(mu + sigma * z, 0)`` (gathered params)."""
    return np.maximum(mu + sigma * z, 0.0)


def drifted_log_resistance(
    lr0: np.ndarray,
    alpha: np.ndarray,
    alpha_esc: np.ndarray,
    L: np.ndarray | float,
    lr_break: float,
) -> np.ndarray:
    """Drift law with one-tier escalation, in the log10 domain.

    ``L = log10(dt / t0)`` may be per-cell or a scalar broadcast over the
    cells (a block programmed in one shot shares its program time).
    Cells that drift across ``lr_break`` continue at their pre-drawn
    escalated exponent from the crossing point on; fault pinning is
    :func:`sensed_log_resistance`'s business.
    """
    lr = lr0 + alpha * L
    started_below = lr0 < lr_break
    crossed = started_below & (lr > lr_break)
    if np.any(crossed):
        with np.errstate(divide="ignore", invalid="ignore"):
            L_cross = np.where(
                crossed & (alpha > 0), (lr_break - lr0) / alpha, np.inf
            )
        esc = lr_break + alpha_esc * np.maximum(L - L_cross, 0.0)
        lr = np.where(crossed & np.isfinite(L_cross), esc, lr)
    return lr


def sensed_log_resistance(
    t_now: float | np.ndarray,
    t_prog: np.ndarray,
    lr0: np.ndarray,
    alpha: np.ndarray,
    alpha_esc: np.ndarray,
    fault: np.ndarray,
    design: LevelDesign,
    schedule: TieredDrift,
) -> np.ndarray:
    """The log10 resistance a sense at ``t_now`` measures.

    Takes per-cell state already gathered by the caller
    (:meth:`CellArray.log_resistance` gathers by cell index, the fleet
    engine's scrub by ``(device, block)`` rows): healthy cells follow
    :func:`drifted_log_resistance` from their program time; stuck cells
    pin to the top (stuck-reset) or bottom (stuck-set) state's mean.
    """
    dt = np.maximum(t_now - t_prog, 0.0) + T0_SECONDS
    L = np.log10(dt / T0_SECONDS)
    if schedule.tiers:
        lr = drifted_log_resistance(lr0, alpha, alpha_esc, L, schedule.tiers[0].lr_break)
    else:
        lr = lr0 + alpha * L
    lr = np.where(fault == _STUCK_RESET, design.states[-1].mu_lr, lr)
    return np.where(fault == _STUCK_SET, design.states[0].mu_lr, lr)


def cell_state_digest(state: tuple[np.ndarray, ...]) -> str:
    """SHA-256 over nine per-cell arrays, the format of
    :meth:`CellArray.state_digest`: ``lr0, alpha, alpha_esc, t_prog,
    target, writes, endurance, fault, pending_mode``, with
    :class:`CellArray`'s dtypes."""
    h = hashlib.sha256()
    for arr in state:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class CellArray:
    """An array of ``n`` PCM cells under a fixed level design."""

    def __init__(
        self,
        n: int,
        design: LevelDesign,
        rng: int | np.random.Generator = 0,
        wearout: WearoutModel | None = None,
        schedule: TieredDrift = PAPER_ESCALATION,
    ) -> None:
        if n < 1:
            raise ValueError("need at least one cell")
        if len(schedule.tiers) > 1:
            raise ValueError("CellArray supports at most one escalation tier")
        self.design = design
        self.schedule = schedule
        self.rng = make_rng(rng)
        self.wearout = wearout or WearoutModel()
        self._top = design.n_levels - 1
        self._mu_lr, self._sg_lr, self._mu_a, self._sg_a = design.write_tables

        self.n = n
        self._lr0 = np.full(n, design.states[0].mu_lr)
        self._alpha = np.zeros(n)
        self._alpha_esc = np.zeros(n)  # exponent after tier escalation
        self._t_prog = np.zeros(n)  # absolute program time (s)
        self._target = np.zeros(n, dtype=np.int64)

        self._writes = np.zeros(n, dtype=np.int64)
        self._endurance = self.wearout.sample_endurance(self.rng, n)
        self._fault = np.full(n, _HEALTHY, dtype=np.int8)
        self._pending_mode = self.wearout.sample_modes(self.rng, n)

    # ------------------------------------------------------------------
    @property
    def fault_modes(self) -> np.ndarray:
        return self._fault.copy()

    @property
    def write_counts(self) -> np.ndarray:
        return self._writes.copy()

    def stuck_mask(self) -> np.ndarray:
        return self._fault != _HEALTHY

    def total_writes(self) -> int:
        """Total cell programs charged so far (wear, across all cells)."""
        return int(self._writes.sum())

    def state_digest(self) -> str:
        """SHA-256 over the full per-cell state, for differential checks.

        Two arrays that executed bit-identical program/force sequences
        (regardless of how callers batched the surrounding codec work)
        must produce equal digests.
        """
        return cell_state_digest(
            (
                self._lr0,
                self._alpha,
                self._alpha_esc,
                self._t_prog,
                self._target,
                self._writes,
                self._endurance,
                self._fault,
                self._pending_mode,
            )
        )

    # ------------------------------------------------------------------
    def program(
        self, indices: np.ndarray, states: np.ndarray, t_now: float
    ) -> np.ndarray:
        """Write ``states`` into cells ``indices`` at absolute time ``t_now``.

        Returns the verify-success mask: stuck cells fail verification
        unless the target happens to match their stuck value.  Wear is
        charged to every addressed cell; cells whose budget runs out
        during this write become stuck *before* it takes effect
        (write-and-verify then reports them).
        """
        idx = np.asarray(indices, dtype=np.int64)
        st = np.asarray(states, dtype=np.int64)
        if idx.shape != st.shape:
            raise ValueError("indices and states must have matching shapes")
        if ((st < 0) | (st > self._top)).any():
            raise ValueError("state index out of range for the level design")

        writes = self._writes[idx] + 1
        self._writes[idx] = writes
        fault = self._fault[idx]
        newly_dead = (writes >= self._endurance[idx]) & (fault == _HEALTHY)
        if newly_dead.any():
            dead = idx[newly_dead]
            self._fault[dead] = self._pending_mode[dead]
            fault = self._fault[idx]

        healthy = fault == _HEALTHY
        ok_idx = idx[healthy]
        ok_st = st[healthy]
        if ok_idx.size:
            z_r = truncated_normal(
                self.rng, 0.0, 1.0, -WRITE_TRUNCATION_SIGMA, WRITE_TRUNCATION_SIGMA,
                ok_idx.size,
            )
            self._lr0[ok_idx] = programmed_log_resistance(
                self._mu_lr[ok_st], self._sg_lr[ok_st], z_r
            )
            # Per-cell exponent: one standard draw scaled by the cell's
            # state parameters, clipped at zero.
            z = self.rng.standard_normal(ok_idx.size)
            alpha = programmed_alpha(self._mu_a[ok_st], self._sg_a[ok_st], z)
            self._alpha[ok_idx] = alpha
            if self.schedule.tiers:
                if self.schedule.mode == "offset":
                    raise ValueError(
                        "offset escalation is not supported by CellArray "
                        "(per-cell state mix makes mu_orig ambiguous)"
                    )
                tier = self.schedule.tiers[0]
                fresh = self.rng.standard_normal(ok_idx.size)
                self._alpha_esc[ok_idx] = self.schedule.escalated_alpha(
                    tier, alpha, z, 0.0, z_fresh=fresh
                )
            self._t_prog[ok_idx] = t_now
            self._target[ok_idx] = ok_st

        # A stuck-reset cell passes verify iff the target is the top state.
        return healthy | ((fault == _STUCK_RESET) & (st == self._top))

    def force_highest(self, indices: np.ndarray, t_now: float) -> np.ndarray:
        """RESET cells to the top state (used to mark INV pairs).

        Stuck-set cells get a reverse-current revival attempt; on success
        they become permanently stuck at the top state.  Returns the mask
        of cells now reading as the top state.
        """
        idx = np.asarray(indices, dtype=np.int64)
        stuck_set = self._fault[idx] == _STUCK_SET
        if stuck_set.any():
            revived = self.wearout.revive(self.rng, int(stuck_set.sum()))
            tgt = idx[stuck_set][revived]
            self._fault[tgt] = _STUCK_RESET
        fault = self._fault[idx]
        healthy = fault == _HEALTHY
        h_idx = idx[healthy]
        if h_idx.size:
            self.program(h_idx, np.full(h_idx.size, self._top), t_now)
        return healthy | (fault == _STUCK_RESET)

    # ------------------------------------------------------------------
    def log_resistance(self, t_now: float, indices: np.ndarray | None = None) -> np.ndarray:
        """Drifted log10 resistance at absolute time ``t_now``."""
        idx = (
            np.arange(self.n) if indices is None else np.asarray(indices, dtype=np.int64)
        )
        return sensed_log_resistance(
            t_now,
            self._t_prog[idx],
            self._lr0[idx],
            self._alpha[idx],
            self._alpha_esc[idx],
            self._fault[idx],
            self.design,
            self.schedule,
        )

    def sense(
        self,
        t_now: float,
        indices: np.ndarray | None = None,
        noise_sigma: float = 0.0,
    ) -> np.ndarray:
        """Sensed state indices at absolute time ``t_now``.

        ``noise_sigma`` adds Gaussian sense-amplifier noise (in decades)
        to the measured log-resistance — the disturbance the Section-5.1
        guard band ``delta`` exists to absorb.
        """
        lr = self.log_resistance(t_now, indices)
        if noise_sigma > 0.0:
            lr = lr + self.rng.normal(0.0, noise_sigma, lr.shape)
        return self.design.sense(lr)
