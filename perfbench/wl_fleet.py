"""Fleet workloads: ``fleet_fresh`` (SoA fast path) and ``fleet_wearout``.

One op is one ``fleet_mc`` call on a single-shard population with its
own seed; throughput counts device-epochs per host-normalized second.
"""

from __future__ import annotations

import dataclasses

from common import Context, OpClock, PassResult, n_ops, op_seeds

#: ``fleet_mc`` calls per second of run, in host-normalized time (about
#: 0.26 s and 0.34 s per call).  Calls stay well under a second so that
#: the host probes bracketing each one track the host's speed during it.
OPS_PER_SECOND = {"fleet_fresh": 3.8, "fleet_wearout": 3.0}


def _config(workload: str, tiny: bool):
    from repro.fleet import FleetConfig, stress_config

    if workload == "fleet_fresh":
        return FleetConfig(n_devices=16 if tiny else 256, n_epochs=2 if tiny else 4)
    return stress_config(n_devices=64, n_epochs=6)


def setup(workload: str) -> None:
    """Imports, the fast-seeder self-check, codec tables, one tiny call."""
    from repro.fleet import mc

    # The tiny call also runs the batched seeder's one-time self-check.
    warm = dataclasses.replace(_config(workload, tiny=True), n_devices=4)
    mc.fleet_mc(warm, seed=12345)


def _check(workload: str, totals: dict[str, int]) -> list[str]:
    bad = []
    if workload == "fleet_fresh":
        for name in ("deaths", "uncorrectable", "silent"):
            if totals[name] != 0:
                bad.append(f"{name}={totals[name]} (want 0)")
        if totals["writes"] <= 0:
            bad.append("no writes")
    else:
        if totals["deaths"] <= 0:
            bad.append("no deaths")
        if totals["wearout_marks"] <= 0:
            bad.append("no wearout marks")
    return bad


#: Planted wrong answers, one per check: (plant name, counter, new value).
PLANTS = {
    "fleet_fresh": {
        "fleet_deaths": ("deaths", 1),
        "fleet_uncorrectable": ("uncorrectable", 1),
        "fleet_silent": ("silent", 1),
        "fleet_no_writes": ("writes", 0),
    },
    "fleet_wearout": {
        "wearout_no_deaths": ("deaths", 0),
        "wearout_no_marks": ("wearout_marks", 0),
    },
}


def run(workload: str, ctx: Context) -> PassResult:
    from repro.fleet.engine import COUNTERS

    config = _config(workload, ctx.tiny)
    count = 2 if ctx.tiny else n_ops(ctx.seconds, OPS_PER_SECOND[workload])
    res = PassResult()
    totals_all = dict.fromkeys(COUNTERS, 0)
    seeds = op_seeds(ctx.seed, count)
    with ctx.timed_section():
        clock = OpClock(workload)
        _ops(workload, ctx, config, seeds, res, totals_all, clock)
    res.take_times(clock)
    writes = totals_all["writes"]
    res.counters = {
        "fleet.writes": writes,
        "fleet.write_retries": totals_all["write_retries"],
        "fleet.retries_per_write": totals_all["write_retries"] / writes if writes else 0.0,
        "fleet.wearout_marks": totals_all["wearout_marks"],
        "fleet.deaths": totals_all["deaths"],
        "fleet.cells_sensed": totals_all["cells_sensed"],
    }
    res.extra["config"] = {"n_devices": config.n_devices, "n_epochs": config.n_epochs}
    return res


def _ops(workload, ctx, config, seeds, res, totals_all, clock) -> None:
    from repro.fleet import mc
    from repro.fleet.engine import COUNTERS

    for s in seeds:
        planted_raise = ctx.planted("op_raises") and s == seeds[0]
        try:
            with clock.op():
                summary = mc.fleet_mc(None if planted_raise else config, seed=s)
        except Exception as exc:  # an op that raises is a failed op
            res.op(False, f"seed {s}: raised {exc!r}")
            continue
        res.work += config.n_devices * config.n_epochs
        totals = {name: summary.total(name) for name in COUNTERS}
        for name, (counter, value) in PLANTS.get(workload, {}).items():
            if ctx.planted(name):
                totals[counter] = value
        bad = _check(workload, totals)
        res.op(not bad, f"seed {s}: {', '.join(bad)}")
        res.digest_parts.append([s, summary.counts.tolist()])
        for name in COUNTERS:
            totals_all[name] += totals[name]
