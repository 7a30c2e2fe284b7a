"""Circuit-level drift mitigations: time-aware and reference-cell sensing.

Section 3 reviews two complementary techniques the paper compares
against (and finds insufficient on their own):

- **Time-aware sensing** (Xu & Zhang [37]): the controller knows how long
  ago each block was written and shifts the sensing thresholds upward by
  the *expected* drift of each state, cancelling the systematic
  component.  Residual errors come from per-cell exponent variation.
- **Reference cells** (Hwang et al. [16]): each block embeds cells
  programmed to known states; at read time their measured drift
  calibrates the thresholds.  This tracks the block's average drift —
  including environmental components — but per-cell variation remains.

Both are modeled as *threshold adjustment policies* on top of a
:class:`LevelDesign`; the ablation benchmark quantifies how far they
push the 4LC error knee (the paper: "limited improvement").
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.cells.params import T0_SECONDS
from repro.core.levels import LevelDesign
from repro.montecarlo.rng import make_rng

__all__ = [
    "SensingPolicy",
    "FixedSensing",
    "TimeAwareSensing",
    "ReferenceCellSensing",
]


class SensingPolicy:
    """Maps raw log-resistances to state indices, given read-time context."""

    def thresholds_at(self, design: LevelDesign, age_s: float) -> np.ndarray:
        raise NotImplementedError

    def sense(
        self, design: LevelDesign, lr: np.ndarray, age_s: float
    ) -> np.ndarray:
        taus = self.thresholds_at(design, age_s)
        return np.searchsorted(taus, np.asarray(lr), side="right")


@dataclasses.dataclass(frozen=True)
class FixedSensing(SensingPolicy):
    """Baseline: the design's static thresholds."""

    def thresholds_at(self, design: LevelDesign, age_s: float) -> np.ndarray:
        return np.asarray(design.thresholds)


@dataclasses.dataclass(frozen=True)
class TimeAwareSensing(SensingPolicy):
    """Shift each threshold by the mean drift of the state *below* it.

    The threshold between states i and i+1 guards against state i
    drifting upward; moving it by ``mu_alpha_i * log10(age/t0)`` cancels
    the average drift while the gap to state i+1's (less-drifted) write
    window shrinks only by the difference of means.  ``headroom_frac``
    caps the shift so the threshold never crosses into the upper state's
    write window.
    """

    headroom_frac: float = 0.9

    def thresholds_at(self, design: LevelDesign, age_s: float) -> np.ndarray:
        L = np.log10(max(age_s, T0_SECONDS) / T0_SECONDS)
        taus = np.asarray(design.thresholds, dtype=float)
        # Each threshold is independent: one broadcast over the level axis.
        shift = np.array([s.drift.mu_alpha for s in design.states[:-1]]) * L
        upper_limit = np.array([s.write_window[0] for s in design.states[1:]])
        max_shift = np.maximum(self.headroom_frac * (upper_limit - taus), 0.0)
        return taus + np.minimum(shift, max_shift)


@dataclasses.dataclass(frozen=True)
class ReferenceCellSensing(SensingPolicy):
    """Calibrate thresholds from embedded reference cells.

    ``n_ref_per_state`` reference cells per state are written alongside
    the data; at read time their *measured* mean log-resistance replaces
    the nominal value, and thresholds sit at the measured midpoints
    (clamped inside the neighbouring write windows).  The measurement is
    simulated from the same drift physics, so block-common drift is
    tracked but per-cell variation is not.
    """

    n_ref_per_state: int = 4
    seed: int = 0

    def measured_means(self, design: LevelDesign, age_s: float) -> np.ndarray:
        from repro.montecarlo.cer import sample_state_cells

        rng = make_rng(self.seed)
        L = np.log10(max(age_s, T0_SECONDS) / T0_SECONDS)
        means = []
        for state in design.states:
            lr0, alpha, _ = sample_state_cells(state, self.n_ref_per_state, rng)
            means.append(float(np.mean(lr0 + alpha * L)))
        return np.asarray(means)

    def thresholds_at(self, design: LevelDesign, age_s: float) -> np.ndarray:
        means = self.measured_means(design, age_s)
        taus = (means[:-1] + means[1:]) / 2.0
        # Clamp inside the static feasibility corridor.
        lo = np.array([s.mu_lr for s in design.states[:-1]]) + 1e-6
        hi = np.array([s.write_window[0] for s in design.states[1:]])
        return np.clip(taus, lo, hi)
