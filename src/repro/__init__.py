"""repro — reproduction of *Practical Nonvolatile Multilevel-Cell Phase
Change Memory* (Yoon, Chang, Schreiber, Jouppi; SC '13).

The package models MLC-PCM resistance drift, the optimized four-level and
proposed three-level cell designs, the 3-ON-2 encoding with mark-and-spare
wearout tolerance, the analytic reliability/capacity/latency comparisons,
and a cycle-based memory-system simulation of the refresh overheads.

Quick start::

    from repro import three_level_optimal, design_cer, PAPER_TIME_GRID_S
    design = three_level_optimal()
    result = design_cer(design, PAPER_TIME_GRID_S, n_samples=10_000_000)

See README.md for the architecture overview and DESIGN.md for the
per-experiment index.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Each public name -> the module it is re-exported from.  Names resolve
#: on first access (module ``__getattr__``), so ``import repro`` stays
#: cheap and ``import repro.<subpackage>`` loads only what it uses.
_EXPORTS = {
    "BCH": "repro.coding.bch",
    "BCHDecodeFailure": "repro.coding.bch",
    "BCHLatencyModel": "repro.analysis.latency",
    "CellArray": "repro.cells.cell_array",
    "CERResult": "repro.montecarlo.cer",
    "FaultMode": "repro.cells.faults",
    "FourLevelBlockCodec": "repro.coding.blockcodec",
    "LevelDesign": "repro.core.levels",
    "MarkAndSpareBlock": "repro.wearout.mark_and_spare",
    "MarkAndSpareConfig": "repro.wearout.mark_and_spare",
    "NO_ESCALATION": "repro.cells.drift",
    "PAPER_ESCALATION": "repro.cells.drift",
    "PAPER_LATENCY_MODEL": "repro.analysis.latency",
    "PAPER_REFRESH_MODEL": "repro.analysis.availability",
    "PAPER_TARGET": "repro.analysis.targets",
    "PAPER_TIME_GRID_S": "repro.montecarlo.sweep",
    "PAPER_TIME_LABELS": "repro.montecarlo.sweep",
    "PCMDevice": "repro.core.device",
    "PermutationCode": "repro.coding.permutation",
    "RefreshModel": "repro.analysis.availability",
    "ReliabilityTarget": "repro.analysis.targets",
    "RotationSmartCode": "repro.coding.smart",
    "SpareExhausted": "repro.wearout.mark_and_spare",
    "StateParams": "repro.cells.params",
    "TABLE1": "repro.cells.params",
    "ThreeOnTwoBlockCodec": "repro.coding.blockcodec",
    "TieredDrift": "repro.cells.drift",
    "UncorrectableBlock": "repro.coding.blockcodec",
    "WearoutModel": "repro.cells.faults",
    "all_designs": "repro.core.designs",
    "analytic_design_cer": "repro.montecarlo.analytic",
    "analytic_state_cer": "repro.montecarlo.analytic",
    "block_error_rate": "repro.analysis.bler",
    "capacity_vs_hard_errors": "repro.analysis.capacity",
    "design_by_name": "repro.core.designs",
    "design_cer": "repro.montecarlo.cer",
    "escalation_schedule": "repro.cells.drift",
    "fig3_state_sweep": "repro.montecarlo.sweep",
    "fig8_design_sweep": "repro.montecarlo.sweep",
    "four_lc_cells": "repro.analysis.capacity",
    "four_level_naive": "repro.core.designs",
    "four_level_optimal": "repro.core.designs",
    "four_level_smart": "repro.core.designs",
    "meets_nonvolatility": "repro.analysis.retention",
    "optimize_mapping": "repro.mapping.optimizer",
    "permutation_cells": "repro.analysis.capacity",
    "retention_time_s": "repro.analysis.retention",
    "state_cer": "repro.montecarlo.cer",
    "three_level_naive": "repro.core.designs",
    "three_level_optimal": "repro.core.designs",
    "three_on_two_cells": "repro.analysis.capacity",
    # Extended subsystems (related-work substrates and Section-8 generalizations).
    "EnumerativeCode": "repro.coding.enumerative",
    "FixedSensing": "repro.cells.sensing",
    "HelmetSmartCode": "repro.coding.smart",
    "ManagedPCMDevice": "repro.core.managed",
    "PoolExhausted": "repro.wearout.remap",
    "ReferenceCellSensing": "repro.cells.sensing",
    "RemapDirectory": "repro.wearout.remap",
    "SensingPolicy": "repro.cells.sensing",
    "StartGap": "repro.wearout.wear_leveling",
    "TimeAwareSensing": "repro.cells.sensing",
    "WritePolicy": "repro.sim.pcm_timing",
    "best_group": "repro.coding.enumerative",
    "lifetime_with_remapping": "repro.wearout.remap",
    "simulate_wear": "repro.wearout.wear_leveling",
    "wear_stats": "repro.wearout.wear_leveling",
    "IterativeWriteModel": "repro.cells.program",
    "Trace": "repro.workloads.synthetic",
    "WriteOutcome": "repro.cells.program",
    "interleave": "repro.workloads.synthetic",
    "load_trace": "repro.workloads.tracefile",
    "pointer_chase_trace": "repro.workloads.synthetic",
    "random_trace": "repro.workloads.synthetic",
    "save_trace": "repro.workloads.tracefile",
    "stream_trace": "repro.workloads.synthetic",
    "zipfian_trace": "repro.workloads.synthetic",
    "NLevelBlockCodec": "repro.coding.nlevel_codec",
    "gray_sequence": "repro.coding.nlevel_codec",
    "FrequencySmartCode": "repro.coding.smart",
    "ResultsCache": "repro.montecarlo.results_cache",
    # Campaigns and fleet-scale populations.
    "CampaignScheduler": "repro.campaign",
    "CampaignSpec": "repro.campaign",
    "RunStore": "repro.campaign",
    "builtin_campaign": "repro.campaign",
    "campaign_from_dict": "repro.campaign",
    "campaign_from_toml": "repro.campaign",
    "FleetConfig": "repro.fleet",
    "FleetEngine": "repro.fleet",
    "FleetSummary": "repro.fleet",
    "fleet_mc": "repro.fleet",
    "stress_config": "repro.fleet",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
