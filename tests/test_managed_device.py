"""ManagedPCMDevice: remapping layered over mark-and-spare."""

import numpy as np
import pytest

from repro.cells.faults import WearoutModel
from repro.core.managed import ManagedPCMDevice, PoolExhausted


@pytest.fixture
def data():
    return np.random.default_rng(0).integers(0, 2, 512).astype(np.uint8)


class TestBasics:
    def test_write_read(self, data):
        dev = ManagedPCMDevice(2, 2, seed=1)
        dev.write(0, data, 0.0)
        assert np.array_equal(dev.read(0, 1.0).data_bits, data)

    def test_refresh(self, data):
        dev = ManagedPCMDevice(2, 1, seed=2)
        dev.write(1, data, 0.0)
        out = dev.refresh(1, 1000.0)
        assert np.array_equal(out.data_bits, data)

    def test_spares_left(self, data):
        dev = ManagedPCMDevice(2, 3, seed=3)
        assert dev.spares_left == 3


class TestRetirement:
    def _worn_device(self, spares):
        return ManagedPCMDevice(
            1,
            spares,
            seed=4,
            wearout=WearoutModel(mean_endurance=60, endurance_sigma=0.15),
        )

    def test_block_retired_and_data_survives(self, data):
        dev = self._worn_device(spares=3)
        for i in range(120):
            dev.write(0, data, float(i))
            assert np.array_equal(dev.read(0, float(i)).data_bits, data)
            if dev.retired_blocks >= 1:
                break
        assert dev.retired_blocks >= 1
        # the logical block now lives in the spare space
        assert dev.directory.translate(0) >= 1

    def test_pool_exhaustion_is_end_of_life(self, data):
        dev = self._worn_device(spares=1)
        with pytest.raises(PoolExhausted):
            for i in range(1000):
                dev.write(0, data, float(i))

    def test_remapping_outlives_unmanaged(self, data):
        """The managed device survives strictly more writes than the
        first spare exhaustion of the unmanaged one."""
        from repro.core.device import PCMDevice, SpareExhausted

        raw = PCMDevice(
            1,
            "3LC",
            seed=5,
            wearout=WearoutModel(mean_endurance=60, endurance_sigma=0.15),
        )
        raw_writes = 0
        try:
            for i in range(1000):
                raw.write(0, data, float(i))
                raw_writes += 1
        except SpareExhausted:
            pass

        managed = ManagedPCMDevice(
            1,
            4,
            seed=5,
            wearout=WearoutModel(mean_endurance=60, endurance_sigma=0.15),
        )
        managed_writes = 0
        try:
            for i in range(1000):
                managed.write(0, data, float(i))
                managed_writes += 1
        except PoolExhausted:
            pass
        assert managed_writes > raw_writes


class TestControllerIntegration:
    def test_run_trace_with_write_policy(self):
        from repro.sim.config import MachineConfig, PAPER_VARIANTS
        from repro.sim.pcm_timing import WritePolicy
        from repro.sim.core import run_trace
        from repro.workloads.synthetic import random_trace

        machine = MachineConfig()
        tr = random_trace(8000, 600_000, write_fraction=0.5, gap_ns=10.0, seed=6)
        base = run_trace(tr, machine, PAPER_VARIANTS["3LC"])
        paused = run_trace(
            tr, machine, PAPER_VARIANTS["3LC"], write_policy=WritePolicy.PAUSE
        )
        # pausing can only help (or match) end-to-end time here
        assert paused.exec_time_ns <= base.exec_time_ns * 1.01
        assert paused.pcm_reads == base.pcm_reads
