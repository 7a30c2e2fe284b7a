"""Whole populations pinned to the single-device reference.

The fleet engine keeps a population in flat arrays and programs every
epoch with one step: write-and-verify and mark-and-spare as array
rounds over those arrays.  The contract is *bit*-identity with driving
each device alone (``drive_single``): same per-device RNG streams
consumed in the same per-device order, so state digests,
``DeviceStats``, death epochs, and per-epoch counters all match.  These
tests pin that for whole populations — stress and default configs, via
hypothesis over seeds and shard windows, and at the summary level
through ``fleet_mc`` — and pin that the engine never calls the
single-device write path to program.

The reference draws one payload per write and its traffic through
``draw_ops``; the engine draws an epoch's payloads in one call and its
traffic through ``draw_ops_fast``.  Single-profile populations at each
``write_fraction`` pin both device by device.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.cell_array import CellArray
from repro.core.device import PCMDevice
from repro.fleet import (
    FleetConfig,
    SoaFleetEngine,
    counter_index,
    fleet_mc,
    stress_config,
)
from repro.montecarlo.rng import seed_entropy
from tests.fleet.test_fleet_differential import assert_matches_reference, drive_single

#: Wear-accelerated: marks, retries, re-encodes under a new layout, and
#: deaths all occur, not just clean writes.
STRESS = stress_config(n_devices=8, n_epochs=6)


class TestPopulationDifferential:
    """Every device of a population == its single-device reference."""

    def test_stress_population(self):
        entropy = seed_entropy(42)
        assert_matches_reference(SoaFleetEngine(STRESS, entropy), STRESS, entropy)

    def test_default_config_population(self):
        config = FleetConfig(n_devices=6, n_epochs=4)
        entropy = seed_entropy(7)
        assert_matches_reference(SoaFleetEngine(config, entropy), config, entropy)

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_any_seed_stress(self, seed):
        config = stress_config(n_devices=5, n_epochs=4)
        entropy = seed_entropy(seed)
        assert_matches_reference(SoaFleetEngine(config, entropy), config, entropy)

    @given(
        first=st.integers(min_value=0, max_value=50),
        n=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=6, deadline=None)
    def test_any_shard_window(self, first, n):
        """Bit-identity holds for any global device window, so any
        sharding of a campaign reproduces the same devices."""
        config = stress_config(n_devices=64, n_epochs=3)
        entropy = seed_entropy(3)
        assert_matches_reference(
            SoaFleetEngine(config, entropy, first, n), config, entropy
        )

    @pytest.mark.parametrize("preset", [stress_config, FleetConfig])
    def test_drift_error_population(self, preset):
        """Long epochs on the naive 3LC mapping drift cells across
        thresholds, so the scrub's TEC, uncorrectable and silent paths
        are pinned too, with wear (stress) and without (default)."""
        config = preset(n_devices=8, n_epochs=4, epoch_seconds=1e11, design="3LCn")
        entropy = seed_entropy(5)
        want = assert_matches_reference(
            SoaFleetEngine(config, entropy), config, entropy
        ).sum(axis=0)
        for name in ("tec_corrections", "uncorrectable", "silent"):
            assert want[counter_index(name)] > 0, name

    @pytest.mark.parametrize("write_fraction", [None, 0.5])
    @pytest.mark.parametrize("kind", ["stream", "random", "zipfian"])
    @pytest.mark.parametrize("preset", [stress_config, FleetConfig])
    def test_single_profile_population(self, preset, kind, write_fraction):
        """Every device runs one traffic profile, at the profile's own
        write mix and at an explicit one, with wear (stress) and without
        (default)."""
        config = preset(
            n_devices=6,
            n_epochs=4,
            ops_per_epoch=16,
            workload_mix=((1.0, kind),),
            write_fraction=write_fraction,
        )
        entropy = seed_entropy(11)
        want = assert_matches_reference(
            SoaFleetEngine(config, entropy), config, entropy
        )
        # More writes than devices in an epoch: some device drew several
        # payloads in one call.
        assert (want[:, counter_index("writes")] > config.n_devices).any()

    def test_epoch_batch_invariance_soa(self):
        entropy = seed_entropy(13)
        whole = SoaFleetEngine(STRESS, entropy)
        split = SoaFleetEngine(STRESS, entropy)
        all_at_once = whole.advance(STRESS.n_epochs)
        stacked = np.vstack([split.advance(1), split.advance(3), split.advance(2)])
        assert (all_at_once == stacked).all()
        assert whole.state_digest() == split.state_digest()


class TestSummaryEquality:
    def test_fleet_mc_matches_single_device_reference(self):
        config = stress_config(n_devices=11, n_epochs=3)
        summary = fleet_mc(config, seed=0, jobs=1, shard_devices=4)
        want = sum(
            drive_single(config, summary.entropy, i)[2]
            for i in range(config.n_devices)
        )
        assert (summary.counts == want).all()


#: Fault-free epochs, then wear: a ~40-cycle endurance against at most
#: ops_per_epoch + 1 = 7 writes per cell and epoch leaves epochs 0 and 1
#: fault-free, and stuck-reset cells that never revive bring marks and
#: deaths soon after.
SWITCH = FleetConfig(
    n_devices=8,
    n_epochs=10,
    mean_endurance=40.0,
    endurance_sigma=0.05,
    p_stuck_reset=1.0,
    p_revive=0.0,
)


class TestOneProgrammingPath:
    @pytest.mark.parametrize(
        "config, wear",
        [(FleetConfig(n_devices=256, n_epochs=4), False), (SWITCH, True)],
        ids=["default", "switch"],
    )
    def test_never_calls_device_write_path(self, monkeypatch, config, wear):
        """With and without wear, the engine programs through its own
        array rounds: it calls neither the per-device write nor the cell
        array's program or force."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the fleet called the single-device write path")

        monkeypatch.setattr(PCMDevice, "write", forbidden)
        monkeypatch.setattr(CellArray, "program", forbidden)
        monkeypatch.setattr(CellArray, "force_highest", forbidden)
        engine = SoaFleetEngine(config, seed_entropy(42))
        counts = engine.advance(config.n_epochs).sum(axis=0)
        assert counts[counter_index("writes")] > 0
        assert (counts[counter_index("wearout_marks")] > 0) == wear
        engine.state_digest()


class TestProgrammingSwitch:
    """One population through fault-free epochs, then wear."""

    def test_switch_population_matches_reference(self):
        entropy = seed_entropy(42)
        engine = SoaFleetEngine(SWITCH, entropy)
        want = assert_matches_reference(engine, SWITCH, entropy)
        wear = want[:, counter_index("write_retries")]
        assert (wear[:2] == 0).all() and wear[2:].sum() > 0
        total = want.sum(axis=0)
        assert total[counter_index("wearout_marks")] > 0
        assert total[counter_index("deaths")] > 0

    @pytest.mark.parametrize("cut", [1, 2, 3, 6])
    def test_split_advance_across_switch(self, cut):
        entropy = seed_entropy(42)
        whole = SoaFleetEngine(SWITCH, entropy)
        split = SoaFleetEngine(SWITCH, entropy)
        all_at_once = whole.advance(SWITCH.n_epochs)
        parts = np.vstack([split.advance(cut), split.advance(SWITCH.n_epochs - cut)])
        assert (all_at_once == parts).all()
        assert whole.state_digest() == split.state_digest()
