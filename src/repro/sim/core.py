"""Trace-driven core model.

A simple out-of-order abstraction sufficient for the Figure-16 memory
study:

- CPU work between memory accesses advances time directly;
- cache hits add their fixed hit latencies;
- L2-miss **reads** go to the PCM timing model; up to
  ``max_outstanding_reads`` overlap (memory-level parallelism), except
  *dependent* reads (pointer chasing), which serialize;
- dirty evictions enter a finite write buffer that drains to PCM; the
  core stalls only when the buffer is full — but PCM's four-write window
  makes that a frequent event for write-heavy workloads, which is
  exactly the contention Figure 16 measures.
"""

from __future__ import annotations

import dataclasses

from repro.sim.cache import Hierarchy
from repro.sim.config import DesignVariant, MachineConfig
from repro.sim.engine import CompletionTracker
from repro.sim.pcm_timing import PCMTimingModel, WritePolicy
from repro.workloads.synthetic import Trace

__all__ = ["CoreResult", "run_trace"]


@dataclasses.dataclass(frozen=True)
class CoreResult:
    """Outcome of executing one trace on one design variant."""

    exec_time_ns: float
    pcm_reads: int
    pcm_writes: int
    pcm_refreshes: int
    read_stall_ns: float
    write_window_stall_ns: float
    l1_miss_rate: float
    l2_miss_rate: float
    row_hits: int = 0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.pcm_reads if self.pcm_reads else 0.0


def run_trace(
    trace: Trace,
    machine: MachineConfig,
    variant: DesignVariant,
    write_policy: WritePolicy = WritePolicy.NONE,
) -> CoreResult:
    """Execute a trace to completion; returns timing and traffic stats.

    ``write_policy`` lets reads interrupt in-flight demand writes (write
    pausing/cancellation [25], see :mod:`repro.sim.pcm_timing`); the
    default makes them wait.
    """
    caches = Hierarchy(
        machine.l1_size_bytes,
        machine.l1_assoc,
        machine.l2_size_bytes,
        machine.l2_assoc,
        machine.line_bytes,
    )
    pcm = PCMTimingModel(machine, variant, write_policy)
    reads_in_flight = CompletionTracker(machine.max_outstanding_reads)
    write_buffer = CompletionTracker(machine.write_buffer_entries)

    t = 0.0
    l1_hit_ns = machine.l1_hit_ns
    l2_hit_ns = machine.l2_hit_ns
    accesses = zip(
        trace.gap_ns.tolist(),
        trace.line_addr.tolist(),
        trace.is_write.tolist(),
        trace.dependent.tolist(),
    )
    for gap, addr, is_write, dependent in accesses:
        t += float(gap)
        addr = int(addr)
        traffic = caches.access(addr, bool(is_write))
        t += l1_hit_ns  # every access probes L1

        for _ in range(traffic.writebacks):
            # Stall only when the write buffer is full.
            t = write_buffer.wait_for_slot(t)
            _, done = pcm.schedule_write(addr, t)
            write_buffer.add(done)

        if traffic.fill_read:
            t += l2_hit_ns  # L2 lookup before going to memory
            if dependent:
                # Dependent miss: the core waits for the data itself.
                t = pcm.schedule_read(addr, t)
            else:
                t = reads_in_flight.wait_for_slot(t)
                reads_in_flight.add(pcm.schedule_read(addr, t))

    # Retire everything outstanding.
    for pending in (reads_in_flight, write_buffer):
        while len(pending):
            t = max(t, pending.earliest())
            pending.retire_until(t)
    pcm.drain(t)

    l1 = caches.l1
    l2 = caches.l2
    return CoreResult(
        exec_time_ns=t,
        pcm_reads=pcm.counts.reads,
        pcm_writes=pcm.counts.writes,
        pcm_refreshes=pcm.counts.refreshes,
        read_stall_ns=pcm.counts.read_stall_ns,
        write_window_stall_ns=pcm.counts.write_window_stall_ns,
        l1_miss_rate=l1.misses / max(l1.hits + l1.misses, 1),
        l2_miss_rate=l2.misses / max(l2.hits + l2.misses, 1),
        row_hits=pcm.counts.row_hits,
    )
