"""Fleet-scale device population simulation (docs/FLEET.md).

Draws a heterogeneous population of 3LC PCM devices (per-device
drift/endurance/temperature/workload), advances them through epochs of
demand writes and scrub-refresh maintenance with one engine,
:class:`FleetEngine`, which keeps the population in flat arrays and
programs it in write-and-verify array rounds, each device's writes in
order with one in flight (:func:`~repro.fleet.soa.program_rounds`), and
reduces the population
to lifetime percentiles, spare-exhaustion hazard curves, refresh-energy
totals, and silent-error rates.
"""

from repro.fleet.config import (
    FLEET_SPAWN_KEY,
    DeviceParams,
    FleetConfig,
    config_from_params,
    device_params,
    stress_config,
)
from repro.fleet.engine import (
    COUNTERS,
    FLEET_VERSION,
    N_COUNTERS,
    PROGRAM_NJ_PER_CELL,
    SENSE_NJ_PER_CELL,
    counter_index,
)
from repro.fleet.mc import (
    FLEET_SHARD_DEVICES,
    FleetSummary,
    fleet_counts_key,
    fleet_mc,
)
from repro.fleet.soa import FleetEngine, SoaFleetEngine
from repro.fleet.state import SoaFleetState, alive_indices

__all__ = [
    "COUNTERS",
    "FLEET_SHARD_DEVICES",
    "FLEET_SPAWN_KEY",
    "FLEET_VERSION",
    "N_COUNTERS",
    "PROGRAM_NJ_PER_CELL",
    "SENSE_NJ_PER_CELL",
    "DeviceParams",
    "FleetConfig",
    "FleetEngine",
    "FleetSummary",
    "SoaFleetEngine",
    "SoaFleetState",
    "alive_indices",
    "config_from_params",
    "counter_index",
    "device_params",
    "fleet_counts_key",
    "fleet_mc",
    "stress_config",
]
