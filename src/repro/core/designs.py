"""Canonical cell designs studied in the paper (Figures 1, 6, 7, 8).

- ``4LCn`` — naive four-level cell: evenly spaced nominal levels with
  midpoint thresholds, uniform state occupancy (Figure 1).
- ``4LCs`` — naive mapping plus *smart encoding*: occupancy skewed away
  from the vulnerable middle states (Section 5.1; the paper assumes
  35% / 15% / 15% / 35%).
- ``4LCo`` — optimal mapping plus smart encoding (Figure 6).
- ``3LCn`` — naive three-level cell: S3 removed from the 4LCn mapping
  (Figure 7, "simple mapping").
- ``3LCo`` — optimal three-level mapping (Figure 7, "optimal mapping").

The optimal mappings are baked in as constants (regenerable via
:func:`repro.mapping.optimizer.optimize_mapping`; see ``recompute=True``).
Both have the threshold-pinned structure ``tau_i = mu_{i+1} - margin``:
for 4LCo the optimizer pushes S2/S3 left and tau3 right exactly as the
paper's Figure 6 shows; for 3LCo the single free level balances S1's
early-time errors against S2's escalated late-time errors.

The canonical 3LCo objective sums the semi-analytic CER at
``t = 2**15, 2**25, 2**30 s``: at the paper's single evaluation time
(2**15 s) every feasible 3LC mapping has CER below ~1e-30, so the paper's
stated procedure (1e6-sample MC at 2**15 s) is degenerate for 3LC — an
observation recorded in EXPERIMENTS.md.
"""

from __future__ import annotations


from repro.core.levels import LevelDesign
from repro.mapping.constraints import MARGIN

__all__ = [
    "SMART_OCCUPANCY",
    "four_level_naive",
    "four_level_smart",
    "four_level_optimal",
    "three_level_naive",
    "three_level_optimal",
    "all_designs",
    "design_by_name",
]

#: Occupancy assumed for the smart-encoding designs (Section 5.1): 35% in
#: the drift-immune end states, 15% in each vulnerable middle state.
SMART_OCCUPANCY: tuple[float, ...] = (0.35, 0.15, 0.15, 0.35)

#: Interior level of the canonical optimal 3LC mapping (optimizer output,
#: objective summed over t = 2**15, 2**25, 2**30 s).
_3LCO_MU2: float = 3.9507

#: Canonical optimal 4LC interior levels: the corner of the feasible box
#: (every level and threshold packed as far left as the margins allow,
#: maximizing S3's drift margin) — the optimizer lands exactly here.
_4LCO_MU2: float = 3.0 + 2 * MARGIN
_4LCO_MU3: float = 3.0 + 4 * MARGIN


def four_level_naive() -> LevelDesign:
    """4LCn: the conventional four-level cell of Figure 1."""
    return LevelDesign.from_levels(
        "4LCn", ["S1", "S2", "S3", "S4"], [3.0, 4.0, 5.0, 6.0]
    )


def four_level_smart() -> LevelDesign:
    """4LCs: naive mapping with smart-encoding occupancy skew."""
    return LevelDesign.from_levels(
        "4LCs",
        ["S1", "S2", "S3", "S4"],
        [3.0, 4.0, 5.0, 6.0],
        occupancy=SMART_OCCUPANCY,
    )


def four_level_optimal(recompute: bool = False) -> LevelDesign:
    """4LCo: optimal mapping + smart encoding (Figure 6)."""
    if recompute:
        from repro.mapping.optimizer import optimize_mapping

        return optimize_mapping(
            4, occupancy=SMART_OCCUPANCY, name="4LCo"
        ).design
    mus = [3.0, _4LCO_MU2, _4LCO_MU3, 6.0]
    taus = [mus[1] - MARGIN, mus[2] - MARGIN, 6.0 - MARGIN]
    return LevelDesign.from_levels(
        "4LCo", ["S1", "S2", "S3", "S4"], mus, thresholds=taus,
        occupancy=SMART_OCCUPANCY,
    )


def three_level_naive() -> LevelDesign:
    """3LCn: S3 removed from the naive 4LC mapping (Figure 7).

    State names keep the paper's convention: the top state is called S4
    because it is the same fully-amorphous state as in the 4LC design.
    """
    return LevelDesign.from_levels(
        "3LCn", ["S1", "S2", "S4"], [3.0, 4.0, 6.0], thresholds=[3.5, 5.0]
    )


def three_level_optimal(recompute: bool = False) -> LevelDesign:
    """3LCo: the optimal three-level mapping (Figure 7)."""
    if recompute:
        from repro.mapping.optimizer import optimize_mapping

        return optimize_mapping(
            3, eval_time_s=[2.0**15, 2.0**25, 2.0**30], name="3LCo"
        ).design
    mus = [3.0, _3LCO_MU2, 6.0]
    taus = [mus[1] - MARGIN, 6.0 - MARGIN]
    return LevelDesign.from_levels(
        "3LCo", ["S1", "S2", "S4"], mus, thresholds=taus
    )


#: The five designs of Figure 8, by name, as zero-argument builders.
_BUILDERS = {
    "4LCn": four_level_naive,
    "4LCs": four_level_smart,
    "4LCo": four_level_optimal,
    "3LCn": three_level_naive,
    "3LCo": three_level_optimal,
}


def all_designs() -> dict[str, LevelDesign]:
    """The five designs of Figure 8, keyed by name."""
    return {name: build() for name, build in _BUILDERS.items()}


def design_by_name(name: str) -> LevelDesign:
    if name not in _BUILDERS:
        raise KeyError(f"unknown design {name!r}; choose from {sorted(_BUILDERS)}")
    return _BUILDERS[name]()
