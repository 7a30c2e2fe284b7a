"""Row-buffer model (Section 6.7) and write-aware scrub (after [2])."""

import pytest

from repro.sim.config import DesignVariant, MachineConfig, RefreshMode
from repro.sim.pcm_timing import PCMTimingModel


def _variant(mode=RefreshMode.NONE, interval=None, adder=0.0):
    return DesignVariant("t", mode, interval, adder)


class TestRowBuffer:
    def test_disabled_by_default(self):
        m = MachineConfig()
        pcm = PCMTimingModel(m, _variant())
        pcm.schedule_read(0, 0.0)
        done = pcm.schedule_read(0, 1000.0)
        assert done == pytest.approx(1200.0)
        assert pcm.counts.row_hits == 0

    def test_hit_on_same_row(self):
        m = MachineConfig(row_buffer_blocks=8, row_hit_ns=20.0)
        pcm = PCMTimingModel(m, _variant())
        pcm.schedule_read(0, 0.0)  # opens row 0 of bank 0
        done = pcm.schedule_read(m.n_banks, 1000.0)  # bank 0, same row
        assert done == pytest.approx(1020.0)
        assert pcm.counts.row_hits == 1

    def test_miss_on_different_row(self):
        m = MachineConfig(row_buffer_blocks=8, row_hit_ns=20.0)
        pcm = PCMTimingModel(m, _variant())
        pcm.schedule_read(0, 0.0)
        far = m.n_banks * 8 * 5  # bank 0, row 5
        done = pcm.schedule_read(far, 1000.0)
        assert done == pytest.approx(1200.0)
        assert pcm.counts.row_hits == 0

    def test_rows_tracked_per_bank(self):
        m = MachineConfig(row_buffer_blocks=8, row_hit_ns=20.0)
        pcm = PCMTimingModel(m, _variant())
        pcm.schedule_read(0, 0.0)  # bank 0 row 0
        pcm.schedule_read(1, 0.0)  # bank 1 row 0
        done = pcm.schedule_read(m.n_banks + 1, 1000.0)  # bank 1 row 0: hit
        assert done == pytest.approx(1020.0)
        assert pcm.counts.row_hits == 1

    def test_write_opens_row(self):
        m = MachineConfig(row_buffer_blocks=8, row_hit_ns=20.0)
        pcm = PCMTimingModel(m, _variant())
        pcm.schedule_write(0, 0.0)
        done = pcm.schedule_read(m.n_banks, 2000.0)
        assert done == pytest.approx(2020.0)

    def test_blocking_refresh_closes_row(self):
        m = MachineConfig(row_buffer_blocks=8, row_hit_ns=20.0)
        pcm = PCMTimingModel(m, _variant(RefreshMode.BLOCKING, 1024.0))
        pcm.schedule_read(0, 0.0)  # opens bank-0 row
        # Advance far enough that a blocking refresh lands on bank 0.
        pcm.drain(1e6)
        done = pcm.schedule_read(m.n_banks, 2e6)
        assert done - 2e6 >= m.pcm_read_ns  # row was closed: full read

    def test_streaming_reads_mostly_hit(self):
        m = MachineConfig(row_buffer_blocks=8, row_hit_ns=20.0)
        pcm = PCMTimingModel(m, _variant())
        t = 0.0
        for line in range(512):
            t = pcm.schedule_read(line, t)
        # 512 lines / 8 banks / 8 blocks-per-row = 8 rows per bank; each
        # row costs 1 miss + 7 hits.
        assert pcm.counts.row_hits == 512 - 8 * 8


class TestWriteAwareRefresh:
    def _aware(self, coverage):
        return DesignVariant(
            "aware", RefreshMode.WRITE_AWARE, 1024.0, 0.0,
            refresh_coverage=coverage,
        )

    def test_coverage_reduces_refresh_rate(self):
        m = MachineConfig()
        plain = PCMTimingModel(m, _variant(RefreshMode.OPTIMIZED, 1024.0))
        aware = PCMTimingModel(m, self._aware(0.5))
        horizon = 1e8
        plain.drain(horizon)
        aware.drain(horizon)
        assert aware.counts.refreshes == pytest.approx(
            plain.counts.refreshes / 2, rel=0.01
        )

    def test_zero_coverage_matches_optimized(self):
        m = MachineConfig()
        plain = PCMTimingModel(m, _variant(RefreshMode.OPTIMIZED, 1024.0))
        aware = PCMTimingModel(m, self._aware(0.0))
        plain.drain(1e8)
        aware.drain(1e8)
        assert aware.counts.refreshes == plain.counts.refreshes

    def test_paper_scale_coverage_is_negligible(self):
        """A 64MB workload footprint on a 16GB device covers 0.4% of the
        refresh obligation — write-aware scrub barely moves the rate."""
        m = MachineConfig()
        coverage = (64 * 2**20) / m.device_bytes
        plain = PCMTimingModel(m, _variant(RefreshMode.OPTIMIZED, 1024.0))
        aware = PCMTimingModel(m, self._aware(coverage))
        plain.drain(1e8)
        aware.drain(1e8)
        ratio = aware.counts.refreshes / plain.counts.refreshes
        assert 0.99 < ratio <= 1.0

    def test_no_bank_blocking(self):
        m = MachineConfig()
        pcm = PCMTimingModel(m, self._aware(0.3))
        pcm.drain(1e8)
        assert all(b == 0.0 for b in pcm.bank_free)

    def test_mode_counts_as_refreshing(self):
        assert self._aware(0.1).refreshes

    def test_coverage_validated(self):
        with pytest.raises(ValueError):
            self._aware(1.0)
        with pytest.raises(ValueError):
            self._aware(-0.1)


class TestRowBufferRefreshInterplay:
    def test_optimized_refresh_preserves_open_rows(self):
        """OPTIMIZED refresh (contention-free) must not close open rows."""
        m = MachineConfig(row_buffer_blocks=8, row_hit_ns=20.0)
        pcm = PCMTimingModel(m, _variant(RefreshMode.OPTIMIZED, 1024.0))
        pcm.schedule_read(0, 0.0)
        pcm.drain(1e6)
        done = pcm.schedule_read(m.n_banks, 2e6)
        assert done == pytest.approx(2e6 + 20.0)

    def test_row_hits_counted_in_core_result(self):
        from repro.sim.config import PAPER_VARIANTS
        from repro.sim.core import run_trace
        from repro.workloads.synthetic import stream_trace

        machine = MachineConfig(row_buffer_blocks=8)
        tr = stream_trace(8000, 600_000, write_fraction=0.0, gap_ns=5.0,
                          seed=9, n_arrays=1)
        res = run_trace(tr, machine, PAPER_VARIANTS["3LC"])
        assert res.row_hits > 0
        assert 0.0 < res.row_hit_rate <= 1.0

    def test_row_buffer_speeds_up_streaming(self):
        from repro.sim.config import PAPER_VARIANTS
        from repro.sim.core import run_trace
        from repro.workloads.synthetic import stream_trace

        tr = stream_trace(8000, 600_000, write_fraction=0.0, gap_ns=5.0,
                          seed=10, n_arrays=1)
        plain = run_trace(tr, MachineConfig(), PAPER_VARIANTS["3LC"])
        rb = run_trace(
            tr, MachineConfig(row_buffer_blocks=8), PAPER_VARIANTS["3LC"]
        )
        assert rb.exec_time_ns < plain.exec_time_ns
