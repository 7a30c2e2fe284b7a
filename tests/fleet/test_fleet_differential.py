"""Fleet vs single-device differential and fan-out invariance.

The fleet engine's whole claim is that it adds *zero* physics of its
own: every device of a fleet must be bit-identical to driving a plain
:class:`~repro.core.device.PCMDevice` through the same epoch schedule by
hand — same cell states (state digest), same :class:`DeviceStats`, same
decode outcomes, same death epoch, same per-epoch counters.
``drive_single`` below is that independent sequential reference: it uses
only the public single-device API (``write``/``read``), never the batch
codec or any fleet internals.  ``assert_matches_reference`` holds a
whole engine (any device window) to it; the population suites in
``test_fleet_soa.py`` reuse it.

On top of the differential, the fan-out contract: fleet counts are
invariant to epoch batching (``advance(a); advance(b)`` ==
``advance(a+b)``), shard size, shards-per-task grouping, and worker
count — properties checked both directly and via hypothesis.
"""

import collections
import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.cell_array import CellArray
from repro.cells.faults import FaultMode
from repro.core.device import PCMDevice, SpareExhausted, UncorrectableBlock
from repro.fleet import (
    COUNTERS,
    FLEET_SPAWN_KEY,
    N_COUNTERS,
    FleetConfig,
    FleetEngine,
    counter_index,
    device_params,
    fleet_mc,
    stress_config,
)
from repro.fleet.config import KEY_DATA, KEY_DEVICE
from repro.montecarlo.rng import block_rng, seed_entropy
from repro.workloads.synthetic import draw_ops

#: Wear-accelerated so the differential exercises marks, retries,
#: re-encodes under a new layout, and spare-exhaustion death — not just
#: clean writes.
STRESS = stress_config(n_devices=8, n_epochs=6)

#: Both failure modes and half-successful revival: forces on stuck-set
#: cells, retries on an already-marked pair, and deaths at the attempt
#: limit, which STRESS (every failure stuck-reset) never reaches.
MIXED = stress_config(n_devices=8, n_epochs=6, p_stuck_reset=0.5, p_revive=0.5)


def drive_single(config, entropy, index):
    """Sequential single-device reference for fleet device ``index``.

    Reproduces the fleet's epoch schedule (demand writes at ``t0``, a
    scrub read + refresh of every written block at ``t1``) using only
    ``PCMDevice.write``/``read`` — the pre-fleet scalar path.  Returns
    ``(device, stored, counts, alive)`` where ``counts`` is the device's
    ``(n_epochs, N_COUNTERS)`` matrix, built from ``DeviceStats`` deltas
    and ``array.total_writes()``.
    """
    p = device_params(config, entropy, index)
    dev = PCMDevice(
        n_blocks=config.n_blocks,
        cell_kind="3LC",
        design=p.design,
        seed=block_rng(entropy, (FLEET_SPAWN_KEY, KEY_DEVICE, index)),
        wearout=p.wearout,
        schedule=p.schedule,
        data_bits=config.data_bits,
    )
    g = block_rng(entropy, (FLEET_SPAWN_KEY, KEY_DATA, index))
    stored = {}
    alive = True
    counts = np.zeros((config.n_epochs, N_COUNTERS), dtype=np.int64)

    def add(e, name, n):
        counts[e, counter_index(name)] += n

    for e in range(config.n_epochs):
        if not alive:
            break
        t0 = e * config.epoch_seconds
        t1 = t0 + config.epoch_seconds
        s0 = dataclasses.replace(dev.stats)
        cells0 = dev.array.total_writes()
        is_write, addr = draw_ops(
            p.workload,
            config.ops_per_epoch,
            config.n_blocks,
            seed=g,
            write_fraction=config.write_fraction,
        )
        ops = []
        for w, b in zip(is_write, addr):
            if w:
                ops.append((int(b), g.integers(0, 2, config.data_bits, dtype=np.uint8)))
            else:
                add(e, "reads_requested", 1)
        for b, bits in ops:
            try:
                dev.write(b, bits, t0)
            except SpareExhausted:
                alive = False
                add(e, "deaths", 1)
                break
            stored[b] = bits.copy()
        add(e, "writes", dev.stats.writes - s0.writes)
        add(e, "cell_programs_write", dev.array.total_writes() - cells0)
        s1 = dataclasses.replace(dev.stats)
        cells1 = dev.array.total_writes()
        if alive:
            for b in np.nonzero(dev.written_mask())[0]:
                b = int(b)
                try:
                    out = dev.read(b, t1)
                except UncorrectableBlock:
                    add(e, "uncorrectable", 1)
                    continue
                data = out.data_bits
                if not np.array_equal(data, stored[b]):
                    add(e, "silent", 1)
                try:
                    dev.write(b, data, t1)
                except SpareExhausted:
                    alive = False
                    add(e, "deaths", 1)
                    break
                stored[b] = data.copy()
        reads = dev.stats.reads - s1.reads
        add(e, "reads", reads)
        add(e, "cells_sensed", reads * dev.cells_per_block)
        add(e, "refreshes", dev.stats.writes - s1.writes)
        add(e, "cell_programs_refresh", dev.array.total_writes() - cells1)
        add(e, "tec_corrections", dev.stats.tec_corrections - s0.tec_corrections)
        add(e, "wearout_marks", dev.stats.wearout_marks - s0.wearout_marks)
        add(e, "write_retries", dev.stats.write_retries - s0.write_retries)
    return dev, stored, counts, alive


def assert_matches_reference(engine, config, entropy):
    """Advance ``engine`` through the config's epochs, pinning it to
    :func:`drive_single` for every device in its window: the fleet
    counters epoch by epoch, then each device's state digest, stats and
    alive flag, and the engine's whole-state digest (stored data too).
    An engine reports counters summed over its devices, so each device's
    own ``(n_epochs, N_COUNTERS)`` matrix is pinned through a one-device
    engine of the same class.  Returns the reference's fleet-total
    count matrix.
    """
    indices = range(engine.first_device, engine.first_device + engine.n_devices)
    refs = [drive_single(config, entropy, i) for i in indices]
    want = sum(counts for _, _, counts, _ in refs)
    for e in range(config.n_epochs):
        got = engine.advance(1)[0]
        assert dict(zip(COUNTERS, got.tolist())) == dict(
            zip(COUNTERS, want[e].tolist())
        ), f"counters diverged in epoch {e}"
    alive = np.array([ref_alive for _, _, _, ref_alive in refs])
    assert (engine.alive_mask() == alive).all()
    h = hashlib.sha256()
    h.update(config.n_epochs.to_bytes(8, "little"))
    h.update(alive.tobytes())
    for i, (dev, stored, counts, _) in zip(indices, refs):
        solo = type(engine)(config, entropy, i, 1).advance(config.n_epochs)
        assert (solo == counts).all(), f"device {i} counters"
        assert engine.device_digest(i) == dev.state_digest(), f"device {i} state"
        assert engine.device_stats(i) == dev.stats, f"device {i} stats"
        h.update(dev.state_digest().encode("ascii"))
        for b in sorted(stored):
            h.update(int(b).to_bytes(4, "little"))
            h.update(stored[b].tobytes())
    assert engine.state_digest() == h.hexdigest()
    return want


class TestSingleDeviceDifferential:
    """n_devices=1 fleets pinned to the sequential PCMDevice path."""

    @pytest.mark.parametrize("index", range(STRESS.n_devices))
    def test_bit_identical_stress(self, index):
        entropy = seed_entropy(42)
        engine = FleetEngine(STRESS, entropy, first_device=index, n_devices=1)
        assert_matches_reference(engine, STRESS, entropy)

    def test_bit_identical_default_config(self):
        # Paper-faithful endurance: no deaths, pure clean-path physics.
        config = FleetConfig(n_devices=3, n_epochs=4)
        entropy = seed_entropy(7)
        for index in range(config.n_devices):
            engine = FleetEngine(config, entropy, first_device=index, n_devices=1)
            assert_matches_reference(engine, config, entropy)
            assert engine.alive_mask().all()

    @pytest.mark.parametrize("index", range(MIXED.n_devices))
    def test_bit_identical_mixed_faults(self, index):
        entropy = seed_entropy(42)
        engine = FleetEngine(MIXED, entropy, first_device=index, n_devices=1)
        assert_matches_reference(engine, MIXED, entropy)

    def test_mixed_faults_population(self):
        entropy = seed_entropy(42)
        assert_matches_reference(FleetEngine(MIXED, entropy), MIXED, entropy)

    def test_mixed_faults_reach_branches(self, monkeypatch):
        """The mixed-fault differential is only meaningful if the
        reference takes the write path's rare branches: a force on a
        stuck-set cell, a retry whose failed pair is already marked (more
        forces than marks), and a death at the attempt limit."""
        seen = collections.Counter()
        force, write = CellArray.force_highest, PCMDevice.write

        def counting_force(self, indices, t_now):
            seen["forces"] += 1
            stuck_set = self.fault_modes[indices] == FaultMode.STUCK_SET.value
            seen["stuck_set_forces"] += int(stuck_set.any())
            return force(self, indices, t_now)

        def counting_write(self, *args, **kwargs):
            try:
                return write(self, *args, **kwargs)
            except SpareExhausted as exc:
                seen["attempt_limit"] += "beyond spare budget" in str(exc)
                raise

        monkeypatch.setattr(CellArray, "force_highest", counting_force)
        monkeypatch.setattr(PCMDevice, "write", counting_write)
        entropy = seed_entropy(42)
        counts = sum(
            drive_single(MIXED, entropy, i)[2] for i in range(MIXED.n_devices)
        ).sum(axis=0)
        assert seen["stuck_set_forces"] > 0
        assert seen["forces"] > counts[counter_index("wearout_marks")]
        assert seen["attempt_limit"] > 0

    def test_stress_config_exercises_failure_paths(self):
        """The differential above is only meaningful if the stress fleet
        actually hits wear: marks and deaths must both occur."""
        engine = FleetEngine(STRESS, seed_entropy(42))
        counts = engine.advance(STRESS.n_epochs).sum(axis=0)
        assert counts[counter_index("wearout_marks")] > 0
        assert counts[counter_index("deaths")] > 0
        assert not engine.alive_mask().all()


class TestEpochBatchInvariance:
    def test_split_advance_matches(self):
        entropy = seed_entropy(3)
        whole = FleetEngine(STRESS, entropy)
        split = FleetEngine(STRESS, entropy)
        all_at_once = whole.advance(STRESS.n_epochs)
        stacked = np.vstack([split.advance(2), split.advance(1), split.advance(3)])
        assert (all_at_once == stacked).all()
        assert whole.state_digest() == split.state_digest()
        assert whole.epoch == split.epoch == STRESS.n_epochs

    @given(cut=st.integers(min_value=0, max_value=STRESS.n_epochs))
    @settings(max_examples=7, deadline=None)
    def test_any_cut_point(self, cut):
        entropy = seed_entropy(11)
        whole = FleetEngine(STRESS, entropy, 0, 4).advance(STRESS.n_epochs)
        split = FleetEngine(STRESS, entropy, 0, 4)
        parts = np.vstack(
            [split.advance(cut), split.advance(STRESS.n_epochs - cut)]
        )
        assert (whole == parts).all()


class TestShardInvariance:
    """fleet_mc counts do not depend on how work is fanned out."""

    CONFIG = stress_config(n_devices=11, n_epochs=3)

    def reference(self):
        return fleet_mc(self.CONFIG, seed=0, jobs=1)

    def test_shard_size_invariant(self):
        ref = self.reference()
        for shard_devices in (1, 3, 7, 100):
            got = fleet_mc(self.CONFIG, seed=0, jobs=1, shard_devices=shard_devices)
            assert (got.counts == ref.counts).all(), shard_devices
            assert got.to_dict() == ref.to_dict()

    def test_shards_per_task_invariant(self):
        ref = self.reference()
        for group in (2, 4):
            got = fleet_mc(
                self.CONFIG, seed=0, jobs=1, shard_devices=2, shards_per_task=group
            )
            assert (got.counts == ref.counts).all()

    def test_jobs_invariant(self):
        ref = self.reference()
        got = fleet_mc(self.CONFIG, seed=0, jobs=2, shard_devices=3)
        assert (got.counts == ref.counts).all()
        assert got.to_dict() == ref.to_dict()

    @given(
        shard_devices=st.integers(min_value=1, max_value=12),
        group=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_fanout_property(self, shard_devices, group):
        got = fleet_mc(
            self.CONFIG,
            seed=0,
            jobs=1,
            shard_devices=shard_devices,
            shards_per_task=group,
        )
        assert (got.counts == self.reference().counts).all()

    def test_engine_sharding_matches_monolith(self):
        """Splitting one engine's device range across several engines
        sums to the monolithic engine's counts."""
        entropy = seed_entropy(0)
        whole = FleetEngine(self.CONFIG, entropy).advance(self.CONFIG.n_epochs)
        parts = np.zeros_like(whole)
        for first, n in ((0, 4), (4, 4), (8, 3)):
            parts += FleetEngine(self.CONFIG, entropy, first, n).advance(
                self.CONFIG.n_epochs
            )
        assert (whole == parts).all()


class TestHeterogeneity:
    def test_device_params_pure_function_of_index(self):
        entropy = seed_entropy(5)
        a = device_params(STRESS, entropy, 3)
        b = device_params(STRESS, entropy, 3)
        assert a == b
        assert a != device_params(STRESS, entropy, 4)

    def test_population_spreads_over_axes(self):
        entropy = seed_entropy(1)
        config = stress_config(n_devices=64)
        drawn = [device_params(config, entropy, i) for i in range(config.n_devices)]
        assert len({p.workload for p in drawn}) > 1
        assert len({p.temp_scale for p in drawn}) > 1
        jitters = [p.alpha_jitter for p in drawn]
        assert min(jitters) < 1.0 < max(jitters)
