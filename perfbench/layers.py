"""Traced layer targets and the per-layer metric catalogue.

Each target lists every place its callers look it up.  Item counters
read the call's arguments or result; they are documented beside each
target in ``perfbench/README.md``.
"""

from __future__ import annotations

import numpy as np

from tracer import Site, Target


def _arg(i: int, default: int = 1):
    def items(args, kwargs, result) -> int:
        return int(args[i]) if len(args) > i else default

    return items


def _size(i: int):
    def items(args, kwargs, result) -> int:
        return int(np.size(args[i])) if len(args) > i else 0

    return items


def _rows(i: int):
    def items(args, kwargs, result) -> int:
        return len(args[i]) if len(args) > i else 0

    return items


def _kw_or_arg(key: str, i: int):
    def items(args, kwargs, result) -> int:
        if key in kwargs:
            return int(np.prod(kwargs[key]))
        return int(np.prod(args[i])) if len(args) > i else 0

    return items


def _rows_failed(args, kwargs, result) -> int:
    return int(np.count_nonzero(result.uncorrectable))


def _rows_nonzero_syndrome(args, kwargs, result) -> int:
    return int(np.count_nonzero((result.n_corrected > 0) | result.uncorrectable))


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _result_devices(args, kwargs, result) -> int:
    return int(result.n_devices)


#: The layers' public callables, with their items counters.
TARGETS: list[Target] = [
    Target("fleet.fleet_mc", (Site("repro.fleet.mc:fleet_mc"),)),
    Target(
        "fleet.engine_init",
        (Site("repro.fleet.mc:FleetEngine", _result_devices),),
        has_items=True,
    ),
    Target(
        "fleet.advance",
        (
            Site("repro.fleet.soa:SoaFleetEngine.advance", _arg(1)),
            Site("repro.fleet.engine:ObjectFleetEngine.advance", _arg(1)),
        ),
        has_items=True,
    ),
    Target(
        "fleet.seeder_generators",
        (Site("repro.fleet.fastrng:FastSeeder.generators", _result_len),),
        has_items=True,
    ),
    Target(
        "fleet.draw_payloads",
        (Site("repro.fleet.soa:draw_payloads", _arg(1)),),
        has_items=True,
    ),
    Target(
        "workloads.draw_ops",
        (
            Site("repro.fleet.soa:draw_ops_fast", _arg(1)),
            Site("repro.fleet.engine:draw_ops", _arg(1)),
        ),
        has_items=True,
    ),
    Target(
        "cells.drifted_log_resistance",
        (
            Site("repro.fleet.soa:drifted_log_resistance", _size(0)),
            Site("repro.cells.cell_array:drifted_log_resistance", _size(0)),
        ),
        has_items=True,
    ),
    Target(
        "cells.truncated_normal",
        (
            Site("repro.fleet.soa:truncated_normal", _kw_or_arg("size", 5)),
            Site("repro.fleet.soa:truncated_normal_from_uniform", _size(0)),
            Site("repro.service.device:truncated_normal", _kw_or_arg("size", 5)),
            Site("repro.montecarlo.cer:truncated_normal", _kw_or_arg("size", 5)),
            Site("repro.cells.cell_array:truncated_normal", _kw_or_arg("size", 5)),
        ),
        has_items=True,
    ),
    Target(
        "coding.encode",
        (Site("repro.coding.batch:BatchThreeOnTwoCodec.encode", _rows(1)),),
        has_items=True,
    ),
    Target(
        "coding.decode",
        (
            Site(
                "repro.coding.batch:BatchThreeOnTwoCodec.decode",
                _rows(1),
                ("coding.decode.rows_failed", _rows_failed),
            ),
        ),
        has_items=True,
    ),
    # The batched read path runs its BCH stage on nonzero-syndrome rows
    # only (``_patch_dirty``); ``BatchBCH.decode`` is the standalone entry.
    Target(
        "coding.bch_decode",
        (
            Site(
                "repro.coding.batch:BatchBCH.decode",
                _rows(1),
                ("coding.bch_decode.rows_nonzero_syndrome", _rows_nonzero_syndrome),
            ),
            Site(
                "repro.coding.batch:BatchThreeOnTwoCodec._patch_dirty",
                _rows(2),
                ("coding.bch_decode.rows_nonzero_syndrome", _rows(2)),
            ),
        ),
        has_items=True,
    ),
    Target(
        "wearout.mark",
        (Site("repro.wearout.mark_and_spare:MarkAndSpareBlock.mark"),),
    ),
    Target("montecarlo.design_cer", (Site("repro.montecarlo.cer:design_cer"),)),
    Target("montecarlo.bler_mc", (Site("repro.montecarlo.bler_mc:bler_mc"),)),
    Target(
        "montecarlo.analytic_design_cer",
        (
            Site("repro.montecarlo.analytic:analytic_design_cer"),
            Site("repro.mapping.optimizer:analytic_design_cer"),
        ),
    ),
    Target(
        "mapping.optimize_mapping",
        (Site("repro.mapping.optimizer:optimize_mapping"),),
    ),
    Target(
        "montecarlo.critical_log_times",
        (Site("repro.montecarlo.cer:critical_log_times", _size(0)),),
        has_items=True,
    ),
    Target(
        "montecarlo.sample_state_cells",
        (Site("repro.montecarlo.cer:sample_state_cells", _arg(1, 0)),),
        has_items=True,
    ),
    Target(
        "montecarlo.block_rng",
        (
            Site("repro.montecarlo.executor:block_rng"),
            Site("repro.montecarlo.bler_mc:block_rng"),
            Site("repro.service.device:block_rng"),
            Site("repro.fleet.fastrng:block_rng"),
            Site("repro.fleet.config:block_rng"),
            Site("repro.fleet.engine:block_rng"),
        ),
    ),
    Target("service.router_resolve", (Site("repro.service.http:Router.resolve"),)),
    Target("service.hex_to_bits", (Site("repro.service.app:hex_to_bits"),)),
    Target("service.bits_to_hex", (Site("repro.service.batching:bits_to_hex"),)),
    Target(
        "service.execute_batch",
        (Site("repro.service.batching:execute_batch", _rows(0)),),
        has_items=True,
    ),
    Target(
        "service.write_block",
        (Site("repro.service.device:VirtualDevice.write_block"),),
    ),
    Target(
        "service.sense_rows",
        (Site("repro.service.device:VirtualDevice.sense_rows", _size(1)),),
        has_items=True,
    ),
    Target("service.device_create", (Site("repro.service.device:DeviceRegistry.create"),)),
    Target(
        "service.state_digest",
        (Site("repro.service.device:VirtualDevice.state_digest"),),
    ),
    Target(
        "chaos.fault_point",
        tuple(
            Site(f"repro.{mod}:fault_point")
            for mod in (
                "fleet.mc",
                "montecarlo.executor",
                "montecarlo.bler_mc",
                "montecarlo.results_cache",
                "coding.batch",
                "campaign.scheduler",
                "campaign.store",
                "campaign.events",
            )
        ),
    ),
]

#: Targets each workload must call on the seed commit (self-test gate).
EXPECTED_CALLS: dict[str, tuple[str, ...]] = {
    "fleet_fresh": (
        "fleet.fleet_mc",
        "fleet.engine_init",
        "fleet.advance",
        "fleet.seeder_generators",
        "fleet.draw_payloads",
        "workloads.draw_ops",
        "cells.drifted_log_resistance",
        "cells.truncated_normal",
        "coding.encode",
        "coding.decode",
        "chaos.fault_point",
    ),
    "fleet_wearout": (
        "fleet.fleet_mc",
        "fleet.engine_init",
        "fleet.advance",
        "fleet.seeder_generators",
        "workloads.draw_ops",
        "cells.drifted_log_resistance",
        "cells.truncated_normal",
        "coding.encode",
        "coding.decode",
        "wearout.mark",
        "chaos.fault_point",
    ),
    "service_rw": (
        "service.router_resolve",
        "service.hex_to_bits",
        "service.bits_to_hex",
        "service.queue_wait",
        "service.execute_batch",
        "service.write_block",
        "service.sense_rows",
        "service.device_create",
        "service.state_digest",
        "montecarlo.block_rng",
        "cells.truncated_normal",
        "coding.encode",
        "coding.decode",
        "chaos.fault_point",
    ),
    "mc_paper": (
        "montecarlo.design_cer",
        "montecarlo.bler_mc",
        "montecarlo.analytic_design_cer",
        "mapping.optimize_mapping",
        "montecarlo.critical_log_times",
        "montecarlo.sample_state_cells",
        "montecarlo.block_rng",
        "cells.truncated_normal",
        "coding.encode",
        "coding.decode",
        "coding.bch_decode",
        "chaos.fault_point",
    ),
}

#: Targets that live in the service's process rather than the benchmark's.
SERVER_TARGETS = tuple(
    t
    for t in TARGETS
    if t.name.startswith(("service.", "coding.", "cells.", "montecarlo.block_rng"))
    or t.name in ("wearout.mark", "chaos.fault_point")
)

#: Counters that are read from results, not from spans: (name, unit).
EXTRA_METRICS: tuple[tuple[str, str], ...] = (
    ("service.queue_wait.self_s", "s"),
    ("service.queue_wait.items", "count"),
    ("coding.decode.rows_failed", "count"),
    ("coding.bch_decode.rows_nonzero_syndrome", "count"),
    ("fleet.seeder_fast", "count"),
    ("fleet.writes", "count"),
    ("fleet.write_retries", "count"),
    ("fleet.retries_per_write", "ratio"),
    ("fleet.wearout_marks", "count"),
    ("fleet.deaths", "count"),
    ("fleet.cells_sensed", "count"),
    ("service.flushes_deadline", "count"),
    ("service.flushes_size", "count"),
    ("service.rejected", "count"),
    ("trace.wall_s", "s"),
    ("trace.root_self_s", "s"),
    ("trace.self_coverage", "ratio"),
    ("trace.server_self_coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def per_layer_catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric ``(name, unit)``, in print order."""
    out: list[tuple[str, str]] = []
    for t in TARGETS:
        out.append((f"{t.name}.calls", "count"))
        out.append((f"{t.name}.self_s", "s"))
        if t.has_items:
            out.append((f"{t.name}.items", "count"))
    out.extend(EXTRA_METRICS)
    return out
