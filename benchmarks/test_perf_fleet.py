"""Fleet population engine throughput (engineering benchmark).

Runs the acceptance-scale fleet — 1e5 heterogeneous devices over
multiple epochs by default — through :func:`repro.fleet.mc.fleet_mc`,
plus a 10x-smaller probe fleet of the same shape.  Records devices/sec,
an epoch-scaling ratio against the probe, and memory telemetry
(process-tree peak RSS plus the population state bytes per device) in
``results/BENCH_fleet.json``, with the machine (core count, numpy
version) it ran on.

Paper-faithful fleets never mark a pair, so the file also records one
fixed wear-accelerated shard (``stress_config``, 1,024 devices x 6
epochs): its devices/sec and its retry, mark and death counts time the
write-and-verify and mark-and-spare path.  The shard runs three times;
its rate is taken from the median time, and the fastest and slowest
runs are recorded beside it to show the host's noise.

Env knobs, so CI smoke and local runs can right-size it:

- ``REPRO_FLEET_DEVICES``        fleet size (default 100_000)
- ``REPRO_FLEET_EPOCHS``         epochs (default 3)
- ``REPRO_FLEET_JOBS``           worker processes; 0 = one per core (default)
- ``REPRO_FLEET_DPS_FLOOR``      optional devices/sec floor to assert
"""

import os
import statistics
import time

from _report import emit_json, machine_info, peak_rss_bytes
from repro.fleet import FleetConfig, FleetEngine, fleet_mc, stress_config
from repro.montecarlo.rng import seed_entropy

DEVICES = int(os.environ.get("REPRO_FLEET_DEVICES", "100000"))
EPOCHS = int(os.environ.get("REPRO_FLEET_EPOCHS", "3"))
JOBS = int(os.environ.get("REPRO_FLEET_JOBS", "0")) or (os.cpu_count() or 1)
DPS_FLOOR = float(os.environ.get("REPRO_FLEET_DPS_FLOOR", "0"))

PROBE = max(DEVICES // 10, 1)

#: The wear shard: one default-size shard of the stress preset.
WEAR_DEVICES = 1024
WEAR_EPOCHS = 6
WEAR_RUNS = 3


def _run(n_devices: int) -> tuple[float, int]:
    config = FleetConfig(n_devices=n_devices, n_epochs=EPOCHS)
    t0 = time.perf_counter()
    summary = fleet_mc(config, seed=0, jobs=JOBS)
    dt = time.perf_counter() - t0
    # Default preset = paper-faithful endurance: traffic flowed, nobody died.
    assert summary.total("writes") > 0
    assert summary.n_dead == 0
    return dt, summary.total("writes")


def _soa_bytes_per_device() -> float:
    """SoA state footprint per device, from a shard-sized population."""
    n = min(DEVICES, 1024)
    config = FleetConfig(n_devices=n, n_epochs=EPOCHS)
    probe = FleetEngine(config, seed_entropy(0), 0, n)
    return probe.state_nbytes / n


def _run_wear() -> dict[str, float]:
    config = stress_config(n_devices=WEAR_DEVICES, n_epochs=WEAR_EPOCHS)
    times, totals = [], set()
    for _ in range(WEAR_RUNS):
        t0 = time.perf_counter()
        summary = fleet_mc(config, seed=0, jobs=1)
        times.append(time.perf_counter() - t0)
        totals.add(tuple(summary.total(k) for k in ("write_retries", "wearout_marks", "deaths")))
    assert len(totals) == 1, f"the wear shard is not deterministic: {totals}"
    marks, deaths = summary.total("wearout_marks"), summary.total("deaths")
    assert marks > 0 and deaths > 0, "the wear shard must mark pairs and kill devices"
    dt = statistics.median(times)
    return {
        "wear_benchmark": f"stress_config {WEAR_DEVICES} devices x {WEAR_EPOCHS} epochs",
        "wear_runs": WEAR_RUNS,
        "wear_devices_per_s": round(WEAR_DEVICES / dt, 1),
        "wear_s_median": round(dt, 3),
        "wear_s_min": round(min(times), 3),
        "wear_s_max": round(max(times), 3),
        "wear_write_retries": summary.total("write_retries"),
        "wear_wearout_marks": marks,
        "wear_deaths": deaths,
    }


def test_fleet_population_throughput():
    t_probe, _ = _run(PROBE)
    t_full, n_writes = _run(DEVICES)
    wear = _run_wear()

    devices_per_s = DEVICES / t_full
    de_per_s = DEVICES * EPOCHS / t_full
    # Linear scaling: the big fleet's per-device cost over the probe's
    # (1.0 = perfectly flat; cache/pool warmup makes the probe slower).
    probe_cost = t_probe / PROBE
    full_cost = t_full / DEVICES
    scaling = full_cost / probe_cost if probe_cost > 0 else float("inf")

    emit_json(
        "BENCH_fleet",
        {
            "benchmark": f"fleet_mc {DEVICES} devices x {EPOCHS} epochs",
            "n_devices": DEVICES,
            "n_epochs": EPOCHS,
            "jobs": JOBS,
            "machine": machine_info(),
            "total_s": round(t_full, 2),
            "devices_per_s": round(devices_per_s, 1),
            "device_epochs_per_s": round(de_per_s, 1),
            "probe_devices": PROBE,
            "probe_s": round(t_probe, 2),
            "epoch_scaling_ratio": round(scaling, 3),
            "demand_writes": n_writes,
            "peak_rss_bytes": peak_rss_bytes(),
            "soa_state_bytes_per_device": round(_soa_bytes_per_device(), 1),
            **wear,
        },
    )

    # Per-device cost must not blow up with fleet size (quadratic engine
    # bugs — e.g. re-deriving all params per epoch — land here).
    assert scaling < 2.0, f"per-device cost grew {scaling:.2f}x at scale"
    if DPS_FLOOR:
        assert devices_per_s >= DPS_FLOOR, (
            f"{devices_per_s:.0f} devices/s under floor {DPS_FLOOR:.0f}"
        )
