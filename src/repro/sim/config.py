"""Simulation parameters (Table 5) and the four evaluated designs.

The paper evaluates 4LC-REF, 4LC-REF-OPT, 4LC-NO-REF and 3LC on a
cycle-based simulator with the Table 5 machine: a 3.2 GHz out-of-order
core, 16kB L1 / 512kB L2, and a 16GB, 8-bank MLC-PCM with 200 ns reads,
1 us writes and 40 MB/s sustained write throughput (modeled as a
four-write window of 6.4 us, like DDRx's four-activation window).
"""

from __future__ import annotations

import dataclasses
from enum import Enum

from repro.analysis.targets import SEVENTEEN_MINUTES_S
from repro.core.datapath import FOUR_LC_TIMING, THREE_LC_TIMING

__all__ = ["RefreshMode", "MachineConfig", "DesignVariant", "PAPER_VARIANTS", "TABLE5"]


class RefreshMode(Enum):
    BLOCKING = "blocking"  # refresh occupies the bank (4LC-REF)
    OPTIMIZED = "optimized"  # ideal scheduling: only write bandwidth (4LC-REF-OPT)
    #: Write-aware scrub (after [2]): blocks the demand stream rewrites
    #: within the interval (``refresh_coverage``) need no refresh.
    WRITE_AWARE = "write-aware"
    NONE = "none"  # no refresh at all (4LC-NO-REF, 3LC)


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """Table 5 machine parameters (times in nanoseconds unless noted)."""

    core_freq_hz: float = 3.2e9
    # Cache hierarchy (data side; the trace generators emit data accesses).
    l1_size_bytes: int = 16 * 1024
    l1_assoc: int = 4
    l2_size_bytes: int = 512 * 1024
    l2_assoc: int = 8
    line_bytes: int = 64
    l1_hit_ns: float = 0.31  # ~1 cycle
    l2_hit_ns: float = 3.75  # ~12 cycles
    # PCM device.
    device_bytes: int = 16 * 2**30
    n_banks: int = 8
    pcm_read_ns: float = 200.0
    pcm_write_ns: float = 1000.0
    write_window_ns: float = 6400.0
    writes_per_window: int = 4
    # Core memory-level parallelism and write buffering.
    max_outstanding_reads: int = 8
    write_buffer_entries: int = 16
    # Row buffer (Section 6.7: PCM devices keep 512-bit+ row buffers).
    # 0 disables; a row-buffer hit replaces the 200 ns array read.
    row_buffer_blocks: int = 0
    row_hit_ns: float = 20.0
    # Energy per 64B array operation (nJ); PCM idle power is ~0 (Section 1).
    read_energy_nj: float = 2.0
    write_energy_nj: float = 24.0  # MLC iterative write-and-verify
    # A refresh is a read + a write of one block.
    ecc_decode_energy_nj: float = 0.2

    @property
    def n_blocks(self) -> int:
        return self.device_bytes // self.line_bytes

    def refresh_rate_per_s(self, interval_s: float) -> float:
        """Device-wide block-refresh rate sustaining the interval."""
        return self.n_blocks / interval_s


@dataclasses.dataclass(frozen=True)
class DesignVariant:
    """One bar group of Figure 16."""

    name: str
    refresh_mode: RefreshMode
    refresh_interval_s: float | None
    read_adder_ns: float  # ECC/datapath latency on top of the array read
    #: WRITE_AWARE only: fraction of the device's blocks the demand write
    #: stream rewrites within each refresh interval (those need no
    #: refresh).  Steady-state: ~ workload footprint / device size for
    #: any workload that wraps its footprint within the interval.
    refresh_coverage: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.refresh_coverage < 1.0:
            raise ValueError("refresh_coverage must be in [0, 1)")

    @property
    def refreshes(self) -> bool:
        return self.refresh_mode is not RefreshMode.NONE


def paper_variants() -> dict[str, DesignVariant]:
    """The four designs of Figure 16, with Table 5 latency adders."""
    adder_4lc = FOUR_LC_TIMING.adder_ns  # ~36.25 ns (BCH-10)
    adder_3lc = THREE_LC_TIMING.adder_ns  # ~5 ns
    return {
        "4LC-REF": DesignVariant(
            "4LC-REF", RefreshMode.BLOCKING, SEVENTEEN_MINUTES_S, adder_4lc
        ),
        "4LC-REF-OPT": DesignVariant(
            "4LC-REF-OPT", RefreshMode.OPTIMIZED, SEVENTEEN_MINUTES_S, adder_4lc
        ),
        "4LC-NO-REF": DesignVariant(
            "4LC-NO-REF", RefreshMode.NONE, None, adder_4lc
        ),
        "3LC": DesignVariant("3LC", RefreshMode.NONE, None, adder_3lc),
    }


PAPER_VARIANTS = paper_variants()

#: Table 5 rendered as label -> value strings (printed by the Fig 16 bench).
TABLE5: dict[str, str] = {
    "Processor": "an out-of-order core running at 3.2GHz",
    "L1 cache": "16kB instruction and data caches, 64B line size",
    "L2 cache": "512kB unified cache, 64B line size",
    "MLC-PCM": (
        "16GB, 8 banks, 64B blocks; read: 200 ns; write: 1 us; "
        "write throughput: 40MB/s"
    ),
}
