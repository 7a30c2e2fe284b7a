"""Cell level designs: nominal states plus sensing thresholds.

A :class:`LevelDesign` is the paper's notion of a "state mapping"
(Figures 1, 6 and 7): an ordered list of programmed states, each a
truncated Gaussian in log10-resistance, separated by sensing thresholds.
A cell whose log-resistance falls in ``(tau[i-1], tau[i]]`` is sensed as
state ``i``.

The module is deliberately agnostic of *how many* levels there are, so the
same machinery supports 4LC, 3LC and the generalized 5LC/6LC designs of
Section 8.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, Sequence

import numpy as np

from repro.cells.params import (
    GUARD_BAND_DELTA,
    SIGMA_R,
    WRITE_TRUNCATION_SIGMA,
    StateParams,
    state_params_for_levels,
)

__all__ = ["LevelDesign", "uniform_thresholds"]


def uniform_thresholds(mu_lrs: Sequence[float]) -> list[float]:
    """Midpoint thresholds between consecutive nominal levels (naive mapping)."""
    mus = [float(m) for m in mu_lrs]
    if sorted(mus) != mus:
        raise ValueError("nominal levels must be increasing")
    return [(a + b) / 2.0 for a, b in zip(mus[:-1], mus[1:])]


@dataclasses.dataclass(frozen=True)
class LevelDesign:
    """An n-level cell design: states, thresholds, and occupancy weights.

    Parameters
    ----------
    name:
        Identifier such as ``"4LCn"`` or ``"3LCo"``.
    states:
        Programmed states in increasing nominal resistance.
    thresholds:
        ``n - 1`` sensing thresholds in log10-resistance; ``thresholds[i]``
        separates ``states[i]`` from ``states[i + 1]``.
    occupancy:
        Probability that a written cell is programmed to each state.  The
        naive designs use the uniform distribution; the "smart encoding"
        design 4LCs biases occupancy away from the vulnerable middle states
        (Section 5.1).
    """

    name: str
    states: tuple[StateParams, ...]
    thresholds: tuple[float, ...]
    occupancy: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.states)
        if n < 2:
            raise ValueError("a level design needs at least two states")
        if len(self.thresholds) != n - 1:
            raise ValueError(
                f"{n} states require {n - 1} thresholds, got {len(self.thresholds)}"
            )
        if len(self.occupancy) != n:
            raise ValueError("occupancy must have one entry per state")
        if abs(sum(self.occupancy) - 1.0) > 1e-9:
            raise ValueError(f"occupancy must sum to 1, got {sum(self.occupancy)}")
        if any(p < 0 for p in self.occupancy):
            raise ValueError("occupancy probabilities must be non-negative")
        mus = [s.mu_lr for s in self.states]
        if sorted(mus) != mus:
            raise ValueError("states must be in increasing nominal resistance")
        taus = list(self.thresholds)
        if sorted(taus) != taus:
            raise ValueError("thresholds must be increasing")
        for i, tau in enumerate(taus):
            if not (mus[i] < tau < mus[i + 1]):
                raise ValueError(
                    f"threshold {tau} must lie between nominal levels "
                    f"{mus[i]} and {mus[i + 1]}"
                )

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def n_levels(self) -> int:
        return len(self.states)

    @property
    def bits_per_cell_ideal(self) -> float:
        """Ideal information capacity ``log2(n_levels)`` of one cell."""
        return float(np.log2(self.n_levels))

    @property
    def state_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.states)

    @functools.cached_property
    def write_tables(self) -> tuple[np.ndarray, ...]:
        """Per-state ``(mu_lr, sigma_lr, mu_alpha, sigma_alpha)`` arrays,
        gathered by target state on every program.  Read-only: every
        cell engine over this design shares them."""
        tables = (
            np.array([s.mu_lr for s in self.states]),
            np.array([s.sigma_lr for s in self.states]),
            np.array([s.drift.mu_alpha for s in self.states]),
            np.array([s.drift.sigma_alpha for s in self.states]),
        )
        for t in tables:
            t.flags.writeable = False
        return tables

    def upper_threshold(self, state_index: int) -> float:
        """Threshold a drifting cell in ``states[state_index]`` must cross to
        be mis-sensed as the next state, or ``inf`` for the top state."""
        if state_index == self.n_levels - 1:
            return float("inf")
        return self.thresholds[state_index]

    def drift_margin(self, state_index: int) -> float:
        """Gap between the write window's upper edge and the upper threshold
        (the "drift error margin" of Figure 2)."""
        hi = self.states[state_index].write_window[1]
        return self.upper_threshold(state_index) - hi

    def margin_violations(self, delta: float = GUARD_BAND_DELTA) -> list[str]:
        """Check the Section-5.1 feasibility constraints.

        Every threshold must clear the write-window tails of both adjacent
        states by at least ``delta``.  Returns a list of human-readable
        violation descriptions (empty when the design is feasible).
        """
        problems: list[str] = []
        for i, tau in enumerate(self.thresholds):
            lo_state, hi_state = self.states[i], self.states[i + 1]
            if tau < lo_state.write_window[1] + delta:
                problems.append(
                    f"tau{i + 1}={tau:.4f} intrudes into {lo_state.name}'s "
                    f"write window (needs > {lo_state.write_window[1] + delta:.4f})"
                )
            if tau > hi_state.write_window[0] - delta:
                problems.append(
                    f"tau{i + 1}={tau:.4f} intrudes into {hi_state.name}'s "
                    f"write window (needs < {hi_state.write_window[0] - delta:.4f})"
                )
        return problems

    def sense(self, lr: np.ndarray) -> np.ndarray:
        """Map log10-resistances to sensed state indices (vectorized).

        A cell exactly at a threshold reads as the *higher* state,
        consistent with the drift-error convention (crossing tau is an
        error).
        """
        return np.searchsorted(np.asarray(self.thresholds), lr, side="right")

    def pdf(self, lr: np.ndarray) -> np.ndarray:
        """Occupancy-weighted probability density of written log-resistance.

        Reproduces the truncated-Gaussian mixture curves of Figures 1/6/7.
        """
        from scipy.stats import truncnorm

        lr = np.asarray(lr, dtype=float)
        total = np.zeros_like(lr)
        a = -WRITE_TRUNCATION_SIGMA
        b = WRITE_TRUNCATION_SIGMA
        for weight, state in zip(self.occupancy, self.states):
            total += weight * truncnorm.pdf(
                lr, a, b, loc=state.mu_lr, scale=state.sigma_lr
            )
        return total

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_levels(
        cls,
        name: str,
        names: Sequence[str],
        mu_lrs: Sequence[float],
        thresholds: Iterable[float] | None = None,
        occupancy: Sequence[float] | None = None,
        sigma_lr: float | None = None,
    ) -> "LevelDesign":
        """Build a design from nominal levels; thresholds default to midpoints,
        occupancy defaults to uniform, drift params follow the tier map.
        ``sigma_lr`` overrides the write spread (Section-8 tight writes)."""
        from repro.cells.params import SIGMA_R

        states = tuple(
            state_params_for_levels(names, mu_lrs, sigma_lr or SIGMA_R)
        )
        taus = tuple(thresholds) if thresholds is not None else tuple(
            uniform_thresholds(mu_lrs)
        )
        occ = (
            tuple(occupancy)
            if occupancy is not None
            else tuple([1.0 / len(states)] * len(states))
        )
        return cls(name=name, states=states, thresholds=taus, occupancy=occ)

    def with_(
        self,
        name: str | None = None,
        thresholds: Sequence[float] | None = None,
        occupancy: Sequence[float] | None = None,
    ) -> "LevelDesign":
        """Functional update returning a new design."""
        return LevelDesign(
            name=name if name is not None else self.name,
            states=self.states,
            thresholds=tuple(thresholds) if thresholds is not None else self.thresholds,
            occupancy=tuple(occupancy) if occupancy is not None else self.occupancy,
        )


# Re-export for convenience so callers need only one import site.
SIGMA = SIGMA_R
