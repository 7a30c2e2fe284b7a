"""PCM device timing: banks, the four-write window, refresh, write pausing.

Implements the Section-7 memory-device model:

- per-bank service (one operation at a time; reads 200 ns + ECC adder,
  writes 1 us);
- the global **four-write window**: at most ``writes_per_window`` write
  *starts* inside any rolling ``write_window_ns`` interval — this is the
  40 MB/s sustained write-throughput cap of Table 5 (64B x 4 / 6.4 us =
  40 MB/s);
- a steady-state **refresh stream**: refreshing ``n_blocks`` every
  interval means one block refresh (a 1 us write occupying a bank and a
  write-window slot) every ``interval / n_blocks`` — ~3.9 us device-wide
  at 17 minutes.  BLOCKING mode charges both bank and window; OPTIMIZED
  charges only the window (ideal contention-free scheduling); NONE skips
  refresh entirely;
- a **write policy** for reads that arrive at a bank mid-write.  MLC
  writes are iterative (``WRITE_ITERATIONS`` write-and-verify rounds per
  ``pcm_write_ns``), and Qureshi et al. [25] interrupt them at the next
  round boundary to serve the read.  ``NONE`` makes the read wait for
  the write; ``PAUSE`` serves it at the boundary and the write's
  remaining rounds resume after it; ``CANCEL`` does the same, except a
  write that has done fewer than half its rounds is abandoned and
  reissued from scratch after the read (a full write and another window
  slot).  A write is interrupted at most ``MAX_PAUSES`` times.  Only
  demand writes are interruptible: refresh writes are never recorded as
  in flight, so a read behind one waits it out.

Demand requests must arrive in non-decreasing time order (the core model
guarantees this); refreshes due before each arrival are retired first,
except when a read interrupts a write: it is served at the round
boundary and due refreshes retire at the next request.
"""

from __future__ import annotations

import bisect
import dataclasses
from enum import Enum

from repro.sim.config import DesignVariant, MachineConfig, RefreshMode
from repro.sim.refresh import RefreshStream

__all__ = ["PCMTimingModel", "OpCounts", "WritePolicy"]

#: Write-and-verify rounds per MLC write; a read interrupts at their boundaries.
WRITE_ITERATIONS = 8
#: Interruptions one write tolerates before reads must wait it out.
MAX_PAUSES = 4


class WritePolicy(Enum):
    """What a read does about a demand write in flight on its bank [25]."""

    NONE = "none"
    PAUSE = "pause"
    CANCEL = "cancel"


@dataclasses.dataclass
class OpCounts:
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    read_stall_ns: float = 0.0  # waiting for a busy bank
    write_window_stall_ns: float = 0.0
    row_hits: int = 0
    write_pauses: int = 0
    write_cancels: int = 0


@dataclasses.dataclass(slots=True)
class _InFlightWrite:
    """A bank's latest demand write (stale once ``end_ns`` has passed)."""

    start_ns: float = 0.0
    end_ns: float = 0.0
    pauses: int = 0


class _WriteWindow:
    """Rolling limit on write starts (four-write window).

    Only the ``max_writes`` most recent start times can ever constrain a
    future write (the k-th next write must start at least ``window_ns``
    after the k-th most recent), so a sorted list of the largest
    ``max_writes`` starts is sufficient state.  Starts are not guaranteed
    monotone across calls — a bank-conflicted write can be pushed past a
    later-arriving write on another bank — hence the sorted insert.
    """

    def __init__(self, window_ns: float, max_writes: int):
        self.window_ns = window_ns
        self.max_writes = max_writes
        self._starts: list[float] = []  # ascending, length <= max_writes

    def earliest_start(self, t: float) -> float:
        if len(self._starts) < self.max_writes:
            return t
        return max(t, self._starts[0] + self.window_ns)

    def commit(self, start: float) -> None:
        bisect.insort(self._starts, start)
        if len(self._starts) > self.max_writes:
            self._starts.pop(0)


class PCMTimingModel:
    """Bank/window/refresh timing for one PCM device."""

    def __init__(
        self,
        machine: MachineConfig,
        variant: DesignVariant,
        policy: WritePolicy = WritePolicy.NONE,
    ):
        self.machine = machine
        self.variant = variant
        self.policy = policy
        self.iteration_ns = machine.pcm_write_ns / WRITE_ITERATIONS
        self.bank_free = [0.0] * machine.n_banks
        self.window = _WriteWindow(
            machine.write_window_ns, machine.writes_per_window
        )
        self.counts = OpCounts()
        if variant.refreshes:
            interval = variant.refresh_interval_s
            assert interval is not None
            obligated = machine.n_blocks
            if variant.refresh_mode is RefreshMode.WRITE_AWARE:
                # Blocks the demand stream rewrites each interval carry no
                # refresh obligation (write-aware scrub, after [2]).
                obligated = max(
                    int(round(obligated * (1.0 - variant.refresh_coverage))), 1
                )
            self.refresh_stream: RefreshStream | None = RefreshStream.for_device(
                obligated, interval
            )
        else:
            self.refresh_stream = None
        self._refresh_bank = 0
        # Open row per bank (row index, or None); Section 6.7 notes PCM
        # devices keep DRAM-like row buffers.
        self._open_row: list[int | None] = [None] * machine.n_banks
        self._inflight = [_InFlightWrite() for _ in range(machine.n_banks)]

    # ------------------------------------------------------------------
    def bank_of(self, line_addr: int) -> int:
        return line_addr % self.machine.n_banks

    def _advance_refresh(self, t: float) -> None:
        """Retire refreshes that fell due before ``t``."""
        stream = self.refresh_stream
        if stream is None:
            return
        while stream.due(t):
            due = stream.pop()
            start = self.window.earliest_start(due)
            if self.variant.refresh_mode is RefreshMode.BLOCKING:
                bank = self._refresh_bank
                self._refresh_bank = (bank + 1) % self.machine.n_banks
                start = max(start, self.bank_free[bank])
                self.bank_free[bank] = start + self.machine.pcm_write_ns
                self._open_row[bank] = None  # refresh closes the row
            self.window.commit(start)
            self.counts.refreshes += 1

    # ------------------------------------------------------------------
    def _row_of(self, line_addr: int) -> int | None:
        rb = self.machine.row_buffer_blocks
        if rb <= 0:
            return None
        return (line_addr // self.machine.n_banks) // rb

    def _interrupt_write(self, bank: int, w: _InFlightWrite, t_arrive: float) -> float:
        """Serve a read at the in-flight write's next round boundary."""
        elapsed = t_arrive - w.start_ns
        n_iter = int(elapsed // self.iteration_ns) + 1
        read_start = min(w.start_ns + n_iter * self.iteration_ns, w.end_ns)
        read_busy_until = read_start + self.machine.pcm_read_ns
        if self.policy is WritePolicy.CANCEL and n_iter < WRITE_ITERATIONS / 2:
            # Abandon the write; reissue it from scratch after the read.
            self.counts.write_cancels += 1
            w.start_ns = self.window.earliest_start(read_busy_until)
            self.window.commit(w.start_ns)
            w.end_ns = w.start_ns + self.machine.pcm_write_ns
        else:
            # Pause: the remaining rounds resume after the read.
            self.counts.write_pauses += 1
            remaining = self.machine.pcm_write_ns - n_iter * self.iteration_ns
            w.end_ns = read_busy_until + remaining
        w.pauses += 1
        self.bank_free[bank] = w.end_ns
        self.counts.reads += 1
        self.counts.read_stall_ns += read_start - t_arrive
        return read_busy_until + self.variant.read_adder_ns

    def schedule_read(self, line_addr: int, t_arrive: float) -> float:
        """Returns the completion time of a demand read."""
        bank = self.bank_of(line_addr)
        if self.policy is not WritePolicy.NONE:
            w = self._inflight[bank]
            if w.start_ns < t_arrive < w.end_ns and w.pauses < MAX_PAUSES:
                return self._interrupt_write(bank, w, t_arrive)
        self._advance_refresh(t_arrive)
        start = max(t_arrive, self.bank_free[bank])
        self.counts.read_stall_ns += start - t_arrive
        row = self._row_of(line_addr)
        if row is not None and self._open_row[bank] == row:
            array_ns = self.machine.row_hit_ns
            self.counts.row_hits += 1
        else:
            array_ns = self.machine.pcm_read_ns
            if row is not None:
                self._open_row[bank] = row
        done = start + array_ns + self.variant.read_adder_ns
        self.bank_free[bank] = start + array_ns
        self.counts.reads += 1
        return done

    def schedule_write(self, line_addr: int, t_arrive: float) -> tuple[float, float]:
        """Returns ``(start, completion)`` of a demand write."""
        self._advance_refresh(t_arrive)
        bank = self.bank_of(line_addr)
        start = max(t_arrive, self.bank_free[bank])
        w_start = self.window.earliest_start(start)
        self.counts.write_window_stall_ns += w_start - start
        start = w_start
        self.window.commit(start)
        done = start + self.machine.pcm_write_ns
        self.bank_free[bank] = done
        self.counts.writes += 1
        w = self._inflight[bank]
        w.start_ns, w.end_ns, w.pauses = start, done, 0
        row = self._row_of(line_addr)
        if row is not None:
            self._open_row[bank] = row
        return start, done

    def drain(self, t: float) -> None:
        """Advance refresh bookkeeping to the end of simulation."""
        self._advance_refresh(t)
