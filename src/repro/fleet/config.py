"""Fleet population model: configuration and per-device heterogeneity.

A fleet is ``n_devices`` independent 3LC devices (the scalar reference
of :mod:`repro.core.device`), each with its own drawn operating conditions.  The Table-1
drift exponent is not one constant in the field: cryogenic-drift
measurements (Talukder et al., arXiv 2401.04909) and high-field-stress
results (Khan et al., arXiv 2002.12487) both show alpha shifting with the
cell's environment, so the minimal honest population model spreads
devices over heterogeneity axes:

- **temperature bucket** — a weighted categorical draw; each bucket
  scales every drift-exponent distribution (states *and* the escalation
  schedule) by a common factor;
- **alpha jitter** — a per-device lognormal factor on top of the bucket
  (process spread between dies);
- **endurance scale** — a per-device lognormal factor on the wearout
  model's mean endurance;
- **workload** — a weighted choice of :data:`repro.workloads.synthetic.TRACE_KINDS`
  profile driving that device's write-traffic mix.

Heterogeneity deliberately touches only drift *rates* and wear budgets —
never the level positions or sensing thresholds — so every device shares
one codec geometry and one threshold set, and the population read path
batches through :class:`~repro.coding.batch.BatchThreeOnTwoCodec`.

All draws come from a dedicated per-device SeedSequence stream
(:func:`device_params`), so device ``i``'s parameters are a pure function
of ``(entropy, i)`` — independent of shard layout, chunking, and worker
count.  The single-device differential suite rebuilds the same parameters
through this module and drives the scalar reference device, which is
what pins the fleet physics to the existing path.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
from typing import Any, Mapping, Sequence

import numpy as np

from repro.cells.drift import DriftTier, TieredDrift
from repro.cells.faults import WearoutModel
from repro.cells.params import DriftParams
from repro.core.designs import design_by_name
from repro.core.levels import LevelDesign
from repro.montecarlo.rng import block_rng
from repro.workloads.synthetic import TRACE_KINDS

__all__ = [
    "CONFIG_PARAMS",
    "FLEET_SPAWN_KEY",
    "KEY_DEVICE",
    "KEY_HETERO",
    "KEY_DATA",
    "DeviceParams",
    "FleetConfig",
    "config_from_params",
    "device_params",
    "hetero_draws",
    "stress_config",
]

#: Root of the fleet's SeedSequence spawn-key domain.  Disjoint from the
#: MC executor's block fan-out, the service's device streams, and the
#: chaos stream, so fleet draws can never collide with any of them.
FLEET_SPAWN_KEY = 0xF1EE

#: Sub-domains under :data:`FLEET_SPAWN_KEY`, one triple of independent
#: streams per device index:
#: device physics (endurance/mode init + every program draw).
KEY_DEVICE = 0
#: heterogeneity (temperature bucket, jitters, workload choice).
KEY_HETERO = 1
#: data plane (per-epoch trace slices + payload bits).
KEY_DATA = 2


@dataclasses.dataclass(frozen=True)
class FleetConfig:
    """Everything that defines a fleet run except the seed.

    ``temp_buckets`` is ``((weight, alpha_scale), ...)``;
    ``workload_mix`` is ``((weight, kind), ...)`` over
    :data:`~repro.workloads.synthetic.TRACE_KINDS`.  ``write_fraction=None``
    keeps each profile's own default mix.  Epochs are virtual time: all
    demand writes of epoch ``e`` land at ``e * epoch_seconds``; the
    scrub pass reads, error-checks, and refreshes every written block at
    ``(e + 1) * epoch_seconds``.
    """

    n_devices: int = 1_000
    n_epochs: int = 4
    n_blocks: int = 3
    ops_per_epoch: int = 6
    epoch_seconds: float = 1e6
    design: str = "3LCo"
    data_bits: int = 512
    # Base wearout model (per-device mean endurance is scaled from this).
    mean_endurance: float = 1e5
    endurance_sigma: float = 0.25
    p_stuck_reset: float = 0.5
    p_revive: float = 0.9
    # Heterogeneity axes.
    temp_buckets: tuple[tuple[float, float], ...] = (
        (0.25, 0.8),
        (0.50, 1.0),
        (0.25, 1.3),
    )
    alpha_jitter_sigma: float = 0.10
    endurance_jitter_sigma: float = 0.20
    workload_mix: tuple[tuple[float, str], ...] = (
        (0.40, "stream"),
        (0.35, "random"),
        (0.25, "zipfian"),
    )
    write_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.n_devices < 1:
            raise ValueError("n_devices must be >= 1")
        if self.n_epochs < 1:
            raise ValueError("n_epochs must be >= 1")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if self.ops_per_epoch < 0:
            raise ValueError("ops_per_epoch must be >= 0")
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if self.data_bits < 8 or self.data_bits % 8:
            raise ValueError("data_bits must be a positive multiple of 8")
        if not self.mean_endurance > 0:
            raise ValueError("mean_endurance must be positive")
        for name in ("p_stuck_reset", "p_revive"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.write_fraction is not None and not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be None or in [0, 1]")
        for name in ("endurance_sigma", "alpha_jitter_sigma", "endurance_jitter_sigma"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")
        if not self.temp_buckets:
            raise ValueError("need at least one temperature bucket")
        if not self.workload_mix:
            raise ValueError("need at least one workload in the mix")
        for weight, scale in self.temp_buckets:
            if weight < 0 or scale <= 0:
                raise ValueError("temp buckets need weight >= 0, scale > 0")
        if sum(w for w, _ in self.temp_buckets) <= 0:
            raise ValueError("temp bucket weights must sum to > 0")
        for weight, kind in self.workload_mix:
            if weight < 0:
                raise ValueError("workload weights must be >= 0")
            if kind not in TRACE_KINDS:
                raise ValueError(
                    f"unknown workload kind {kind!r} (known: {TRACE_KINDS})"
                )
        if sum(w for w, _ in self.workload_mix) <= 0:
            raise ValueError("workload weights must sum to > 0")
        design_by_name(self.design)  # raises on unknown names

    def key_payload(self) -> dict[str, Any]:
        """Canonical JSON-safe form for cache-key hashing.

        Floats go through ``repr`` (shortest round-trip form) so the
        payload is bit-stable across processes, like every other
        results-cache key.
        """

        def _cf(x: float) -> str:
            return repr(float(x))

        return {
            "n_devices": int(self.n_devices),
            "n_epochs": int(self.n_epochs),
            "n_blocks": int(self.n_blocks),
            "ops_per_epoch": int(self.ops_per_epoch),
            "epoch_seconds": _cf(self.epoch_seconds),
            "design": str(self.design),
            "data_bits": int(self.data_bits),
            "wearout": {
                "mean_endurance": _cf(self.mean_endurance),
                "endurance_sigma": _cf(self.endurance_sigma),
                "p_stuck_reset": _cf(self.p_stuck_reset),
                "p_revive": _cf(self.p_revive),
            },
            "temp_buckets": [[_cf(w), _cf(s)] for w, s in self.temp_buckets],
            "alpha_jitter_sigma": _cf(self.alpha_jitter_sigma),
            "endurance_jitter_sigma": _cf(self.endurance_jitter_sigma),
            "workload_mix": [[_cf(w), str(k)] for w, k in self.workload_mix],
            "write_fraction": (
                None if self.write_fraction is None else _cf(self.write_fraction)
            ),
        }


def stress_config(**overrides: Any) -> FleetConfig:
    """A wear-accelerated preset: devices die within a handful of epochs.

    The paper-faithful endurance (~1e5 writes/cell) would need tens of
    thousands of epochs before the first spare-exhaustion; tests, the CI
    smoke campaign, and hazard-curve demos use this compressed budget
    instead.  Physics is unchanged — only the wearout model's scale.
    """
    params: dict[str, Any] = {
        "mean_endurance": 80.0,
        "endurance_sigma": 0.4,
        "p_stuck_reset": 1.0,
        "p_revive": 0.0,
    }
    params.update(overrides)
    return FleetConfig(**params)


#: The :class:`FleetConfig` fields ``config_from_params`` takes from
#: params, with their types (the ``fleet`` job kind declares these).
CONFIG_PARAMS: dict[str, type] = {
    "n_blocks": int,
    "ops_per_epoch": int,
    "epoch_seconds": float,
    "design": str,
    "mean_endurance": float,
    "endurance_sigma": float,
    "p_stuck_reset": float,
    "p_revive": float,
    "alpha_jitter_sigma": float,
    "endurance_jitter_sigma": float,
    "write_fraction": float,
}


def config_from_params(
    params: Mapping[str, Any], n_devices: int, n_epochs: int
) -> FleetConfig:
    """Build a :class:`FleetConfig` from a ``preset`` and :data:`CONFIG_PARAMS`.

    ``preset="stress"`` starts from :func:`stress_config` defaults; a
    ``None`` value keeps the preset's.  Unknown keys raise ``ValueError``.
    The ``fleet`` job kind checks and runs its params through here, so
    campaign specs, ``POST /v1/jobs`` and the ``fleet`` subcommand build
    identical configs (and cache keys) from identical params.
    """
    unknown = set(params) - {"preset", *CONFIG_PARAMS}
    if unknown:
        raise ValueError(f"unknown fleet param(s) {sorted(unknown)}")
    preset = params.get("preset", "default")
    if preset not in ("default", "stress"):
        raise ValueError(f"unknown fleet preset {preset!r}")
    kwargs: dict[str, Any] = {
        "n_devices": int(n_devices),
        "n_epochs": int(n_epochs),
    }
    for name in CONFIG_PARAMS:
        if params.get(name) is not None:
            kwargs[name] = params[name]
    if preset == "stress":
        return stress_config(**kwargs)
    return FleetConfig(**kwargs)


@dataclasses.dataclass(frozen=True)
class DeviceParams:
    """One device's drawn operating point."""

    index: int
    design: LevelDesign
    schedule: TieredDrift
    wearout: WearoutModel
    workload: str
    temp_scale: float
    alpha_jitter: float
    endurance_scale: float


@functools.lru_cache(maxsize=32)
def _cum_weights(weights: tuple[float, ...]) -> list[float]:
    """Normalized cumulative ``weights``, the table :func:`_pick` bisects."""
    cum = np.cumsum(np.asarray(weights, dtype=float))
    return (cum / cum[-1]).tolist()


def _pick(u: float, choices: Sequence[tuple[float, Any]]) -> int:
    """Index of the ``(weight, value)`` pair of ``choices`` drawn by one
    uniform variate."""
    table = _cum_weights(tuple(w for w, _ in choices))
    return min(bisect.bisect_right(table, u), len(table) - 1)


def _scale_drift(design: LevelDesign, factor: float) -> LevelDesign:
    """Scale every state's drift-exponent distribution by ``factor``."""
    states = tuple(
        dataclasses.replace(
            s,
            drift=DriftParams(
                mu_alpha=s.drift.mu_alpha * factor,
                sigma_alpha=s.drift.sigma_alpha * factor,
            ),
        )
        for s in design.states
    )
    return dataclasses.replace(design, states=states)


def _scale_schedule(schedule: TieredDrift, factor: float) -> TieredDrift:
    tiers = tuple(
        DriftTier(
            lr_break=t.lr_break,
            mu_alpha=t.mu_alpha * factor,
            sigma_alpha=t.sigma_alpha * factor,
        )
        for t in schedule.tiers
    )
    return dataclasses.replace(schedule, tiers=tiers)


def _scale_wearout(config: FleetConfig, endurance_scale: float) -> WearoutModel:
    """The config's wearout model with its mean endurance scaled."""
    return WearoutModel(
        mean_endurance=config.mean_endurance * endurance_scale,
        endurance_sigma=config.endurance_sigma,
        p_stuck_reset=config.p_stuck_reset,
        p_revive=config.p_revive,
    )


def hetero_draws(
    config: FleetConfig, g: np.random.Generator
) -> tuple[int, float, float, str]:
    """The four heterogeneity draws, in frozen stream order.

    Returns ``(bucket, alpha_jitter, endurance_scale, workload)``.  Draw
    order (fixed forever; reordering is a
    :data:`~repro.fleet.engine.FLEET_VERSION` bump): temperature-bucket
    uniform, alpha-jitter normal, endurance-scale normal, workload
    uniform.  Shared by :func:`device_params` and the
    structure-of-arrays engine's population init, which skips the
    per-device dataclass construction but must consume the identical
    draws.
    """
    bucket = _pick(float(g.random()), config.temp_buckets)
    alpha_jitter = float(np.exp(config.alpha_jitter_sigma * g.standard_normal()))
    endurance_scale = float(
        np.exp(config.endurance_jitter_sigma * g.standard_normal())
    )
    workload = config.workload_mix[_pick(float(g.random()), config.workload_mix)][1]
    return bucket, alpha_jitter, endurance_scale, workload


def device_params(config: FleetConfig, entropy: int, index: int) -> DeviceParams:
    """Draw device ``index``'s operating point from its hetero stream.

    See :func:`hetero_draws` for the frozen draw order.
    """
    from repro.cells.drift import PAPER_ESCALATION

    g = block_rng(entropy, (FLEET_SPAWN_KEY, KEY_HETERO, index))
    bucket, alpha_jitter, endurance_scale, workload = hetero_draws(config, g)

    temp_scale = float(config.temp_buckets[bucket][1])
    factor = temp_scale * alpha_jitter
    return DeviceParams(
        index=index,
        design=_scale_drift(design_by_name(config.design), factor),
        schedule=_scale_schedule(PAPER_ESCALATION, factor),
        wearout=_scale_wearout(config, endurance_scale),
        workload=workload,
        temp_scale=temp_scale,
        alpha_jitter=alpha_jitter,
        endurance_scale=endurance_scale,
    )
