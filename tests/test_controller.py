"""Write pausing and cancellation [25] in the PCM timing model."""

import pytest

from repro.sim.config import DesignVariant, MachineConfig, RefreshMode
from repro.sim.pcm_timing import MAX_PAUSES, PCMTimingModel, WritePolicy


def _pcm(policy):
    m = MachineConfig()
    v = DesignVariant("t", RefreshMode.NONE, None, 0.0)
    return PCMTimingModel(m, v, policy)


class TestNoPolicy:
    def test_read_waits_full_write(self):
        c = _pcm(WritePolicy.NONE)
        c.schedule_write(0, 0.0)  # bank 0 busy to 1000
        done = c.schedule_read(0, 100.0)
        assert done == pytest.approx(1000.0 + 200.0)

    def test_read_other_bank_unaffected(self):
        c = _pcm(WritePolicy.NONE)
        c.schedule_write(0, 0.0)
        assert c.schedule_read(1, 100.0) == pytest.approx(300.0)


class TestPause:
    def test_read_preempts_at_iteration_boundary(self):
        c = _pcm(WritePolicy.PAUSE)
        c.schedule_write(0, 0.0)
        done = c.schedule_read(0, 100.0)
        # next boundary after 100 ns is 125 ns; read takes 200 ns
        assert done == pytest.approx(125.0 + 200.0)
        assert c.counts.write_pauses == 1

    def test_write_completion_slips(self):
        c = _pcm(WritePolicy.PAUSE)
        c.schedule_write(0, 0.0)
        c.schedule_read(0, 100.0)
        # write had 875 ns of iterations left; resumes at 325
        assert c.bank_free[0] == pytest.approx(325.0 + 875.0)

    def test_pause_budget_exhausts(self):
        c = _pcm(WritePolicy.PAUSE)
        c.schedule_write(0, 0.0)
        for t in (50.0, 330.0, 580.0, 830.0):
            c.schedule_read(0, t)
        assert c.counts.write_pauses == MAX_PAUSES == 4
        done = c.schedule_read(0, 1100.0)  # budget spent: waits for the write
        assert done >= c.bank_free[0]
        assert c.counts.write_pauses == MAX_PAUSES

    def test_read_after_write_completes_normal(self):
        c = _pcm(WritePolicy.PAUSE)
        c.schedule_write(0, 0.0)
        done = c.schedule_read(0, 2000.0)
        assert done == pytest.approx(2200.0)

    def test_reads_much_faster_than_none(self):
        for policy, expect in ((WritePolicy.NONE, 1200.0), (WritePolicy.PAUSE, 325.0)):
            c = _pcm(policy)
            c.schedule_write(0, 0.0)
            assert c.schedule_read(0, 100.0) == pytest.approx(expect)


class TestCancel:
    def test_young_write_cancelled(self):
        c = _pcm(WritePolicy.CANCEL)
        c.schedule_write(0, 0.0)
        done = c.schedule_read(0, 100.0)  # only 1 iteration in: cancel
        assert done == pytest.approx(325.0)
        assert c.counts.write_cancels == 1
        # write restarted after the read and pays full latency
        assert c.bank_free[0] == pytest.approx(325.0 + 1000.0)

    def test_old_write_paused_not_cancelled(self):
        c = _pcm(WritePolicy.CANCEL)
        c.schedule_write(0, 0.0)
        c.schedule_read(0, 700.0)  # 6 of 8 iterations done: pause instead
        assert c.counts.write_cancels == 0
        assert c.counts.write_pauses == 1


class TestValidation:
    def test_iteration_bounds(self):
        """The interrupt granularity is one of 8 write-and-verify rounds,
        so it is positive and fits in a write on any machine."""
        for write_ns in (1000.0, 400.0):
            m = MachineConfig(pcm_write_ns=write_ns)
            pcm = PCMTimingModel(m, DesignVariant("t", RefreshMode.NONE, None, 0.0))
            assert pcm.iteration_ns == write_ns / 8
            assert 0 < pcm.iteration_ns < m.pcm_write_ns

    def test_stats_counters(self):
        c = _pcm(WritePolicy.PAUSE)
        c.schedule_write(0, 0.0)
        c.schedule_read(1, 0.0)
        assert c.counts.writes == 1 and c.counts.reads == 1

    def test_refresh_writes_are_not_interrupted(self):
        """Only demand writes are recorded as in flight: a read behind a
        blocking refresh waits it out under every policy."""
        m = MachineConfig()
        v = DesignVariant("t", RefreshMode.BLOCKING, m.n_blocks * 1e-5, 0.0)  # 10 us gap
        for policy in WritePolicy:
            pcm = PCMTimingModel(m, v, policy)
            gap = pcm.refresh_stream.gap_ns
            # the first refresh (bank 0) is due at `gap` and runs 1 us
            done = pcm.schedule_read(0, gap + 100.0)
            assert done == pytest.approx(gap + 1000.0 + 200.0)
            assert pcm.counts.write_pauses == pcm.counts.write_cancels == 0
