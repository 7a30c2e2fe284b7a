"""The fleet engine: a device population advanced as structure-of-arrays.

:class:`SoaFleetEngine` (public name :data:`FleetEngine`) owns a
contiguous range of the fleet's devices and holds their whole state in
the flat arrays of :class:`~repro.fleet.state.SoaFleetState`.  Device
index ``i`` (global, fleet-wide) is a pure function of
``(config, entropy, i)``: its heterogeneity, physics stream, and data
stream are all addressed by spawn keys under
:data:`~repro.fleet.config.FLEET_SPAWN_KEY`, so any sharding of the
fleet over engines and processes reproduces the same devices.  Every
epoch of virtual time runs one body of three phases:

A. **Traffic** — every alive device draws ``ops_per_epoch`` accesses
   from its workload profile plus fresh payload bits for each write,
   all from its own data generator.  Reads in the trace are only
   *counted* (``reads_requested``): the functional fleet model serves
   demand reads from the controller cache and measures the cost of
   writes and maintenance.
B. **Program** — each device executes its writes in trace order,
   through the programming step below.
C. **Scrub** — at the epoch's end every written block of every
   surviving device is sensed through
   :meth:`~repro.fleet.state.SoaFleetState.log_resistance`
   (:func:`~repro.cells.cell_array.sensed_log_resistance`), the drift and
   stuck-cell pinning the scalar reference's sense applies (no RNG draws),
   and decoded in one batch pass; successful decodes are rewritten
   block-ascending within each device through the programming step
   (drift-resetting refresh).  Uncorrectable blocks and silent
   corruptions (decode succeeded, data differs from what was last
   written) are counted.

**The programming step** is :func:`program_rounds`, the write-and-verify
loop with mark-and-spare of a 3LC block write in the scalar reference
(:mod:`repro.core.device`) run as array rounds over rows grouped by
device; the service's :class:`~repro.service.device.VirtualDevice`
writes through it too, one row at a time.  The engine hands it all of
a phase's rows at once.  Each round runs one attempt of every device's
current row, so a device starts its next row as soon as its last one
completes and never waits on another device's retries.  Only the
:class:`numpy.random.Generator` calls run per row, in the order the
reference's cell program and force (:mod:`repro.cells.cell_array`)
make them; a round whose cells are all healthy programs whole block
rows, otherwise only the healthy cells (and a force only its pair's)
are computed and scattered.

**Bit-identity contract.**  Devices are independent, so work may be
reordered across devices as long as each device's own draw order is
preserved, and sensing draws no randomness.  An ``n_devices=1`` fleet is
therefore bit-identical to driving the scalar reference device through
the same epoch schedule; ``tests/fleet/test_fleet_differential.py``
holds every device of whole populations to that reference (state
digest, stats, alive mask, and all per-epoch counters).  Every draw is
a public :class:`numpy.random.Generator` call on the device's own
stream, built by :func:`~repro.montecarlo.rng.block_rng`.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Sequence

import numpy as np

from repro.cells.cell_array import programmed_alpha, programmed_log_resistance
from repro.cells.drift import PAPER_ESCALATION, independent_escalated_alpha
from repro.cells.faults import FaultMode, WearoutModel
from repro.cells.params import WRITE_TRUNCATION_SIGMA
from repro.coding.batch import BatchThreeOnTwoCodec, batch_codec
from repro.core.designs import design_by_name
from repro.core.device import DeviceStats
from repro.core.levels import LevelDesign
from repro.fleet.config import (
    FLEET_SPAWN_KEY,
    KEY_DATA,
    KEY_DEVICE,
    KEY_HETERO,
    DeviceParams,
    FleetConfig,
    _scale_wearout,
    device_params,
    hetero_draws,
)
from repro.fleet.engine import N_COUNTERS, counter_index
from repro.fleet.state import SoaFleetState, alive_indices
from repro.montecarlo.rng import block_rng, truncated_normal_from_uniform
from repro.wearout.mark_and_spare import MarkAndSpareConfig
from repro.workloads.synthetic import draw_ops_fast

__all__ = ["FleetEngine", "Rounds", "SoaFleetEngine", "program_rounds"]

_C_WRITES = counter_index("writes")
_C_READS_REQ = counter_index("reads_requested")
_C_READS = counter_index("reads")
_C_REFRESHES = counter_index("refreshes")
_C_TEC = counter_index("tec_corrections")
_C_UNCORRECTABLE = counter_index("uncorrectable")
_C_SILENT = counter_index("silent")
_C_MARKS = counter_index("wearout_marks")
_C_RETRIES = counter_index("write_retries")
_C_DEATHS = counter_index("deaths")
_C_CELL_WRITE = counter_index("cell_programs_write")
_C_CELL_REFRESH = counter_index("cell_programs_refresh")
_C_SENSED = counter_index("cells_sensed")

_HEALTHY = FaultMode.HEALTHY.value
_STUCK_RESET = FaultMode.STUCK_RESET.value
_STUCK_SET = FaultMode.STUCK_SET.value


class SoaFleetEngine:
    """A contiguous device range ``[first_device, first_device + n_devices)``,
    advanced as one structure of arrays."""

    def __init__(
        self,
        config: FleetConfig,
        entropy: int,
        first_device: int = 0,
        n_devices: int | None = None,
    ) -> None:
        self.config = config
        self.entropy = int(entropy)
        self.first_device = int(first_device)
        n = (
            config.n_devices - self.first_device
            if n_devices is None
            else int(n_devices)
        )
        if self.first_device < 0 or n < 1 or self.first_device + n > config.n_devices:
            raise ValueError(
                f"device range [{first_device}, {first_device}+{n_devices}) "
                f"outside fleet of {config.n_devices}"
            )
        self.n_devices = n
        self._epoch = 0
        self._batch = codec = batch_codec(config.data_bits, MarkAndSpareConfig.n_spare_pairs)
        self._n_mlc = codec.n_mlc_cells

        base = design_by_name(config.design)
        if base.n_levels != 3:
            raise ValueError("the fleet engine models 3LC devices")
        # Write distributions are heterogeneity-free; a device's drift
        # parameters are the base design's times its drift factor, the
        # products config._scale_drift and _scale_schedule form.
        self._base = base

        self._s = SoaFleetState(
            n,
            config.n_blocks,
            self._n_mlc,
            codec.n_slc_cells,
            codec.ms_config.n_pairs,
        )
        s = self._s
        self._alive = np.ones(n, dtype=bool)
        #: last data written per (device, block) — silent-error oracle.
        self._stored = np.zeros((n, config.n_blocks, config.data_bits), dtype=np.uint8)
        # Per-device cumulative DeviceStats columns, one row each
        # (``refreshes`` stays zero: the fleet counts them per epoch).
        self._st = np.zeros((5, n), dtype=np.int64)
        self._st_writes, self._st_reads, self._st_tec, self._st_marks, self._st_retries = (
            self._st
        )

        idx = range(self.first_device, self.first_device + n)

        def streams(key: int) -> list[np.random.Generator]:
            return [block_rng(self.entropy, (FLEET_SPAWN_KEY, key, i)) for i in idx]

        g_het = streams(KEY_HETERO)
        self._g_dev = streams(KEY_DEVICE)
        self._g_data = streams(KEY_DATA)

        # Per-device drawn operating points (the hetero stream's four
        # draws, in the frozen order of config.hetero_draws).
        self._drift_factor = np.empty(n)
        self._workload: list[str] = []
        self._wearout: list[WearoutModel] = []
        nc = config.n_blocks * self._n_mlc
        for k in range(n):
            bucket, alpha_jitter, endurance_scale, workload = hetero_draws(
                config, g_het[k]
            )
            self._drift_factor[k] = float(config.temp_buckets[bucket][1]) * alpha_jitter
            self._workload.append(workload)
            # The reference cell array's init draws, from the device
            # stream in its order.
            wearout = _scale_wearout(config, endurance_scale)
            self._wearout.append(wearout)
            s.endurance[k] = wearout.sample_endurance(self._g_dev[k], nc)
            s.pending_mode[k] = wearout.sample_modes(self._g_dev[k], nc)
        s.lr0[:] = base.states[0].mu_lr  # fresh cells sit at the lowest level

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Epochs advanced so far (also the next epoch's index)."""
        return self._epoch

    def _row(self, index: int) -> int:
        k = index - self.first_device
        if not 0 <= k < self.n_devices:
            raise IndexError(f"device {index} not in this engine's range")
        return k

    def device_digest(self, index: int) -> str:
        """The reference device's state digest of global device ``index``."""
        return self._s.device_digest(self._row(index))

    def device_stats(self, index: int) -> DeviceStats:
        """The :class:`DeviceStats` of global device ``index``."""
        k = self._row(index)
        return DeviceStats(
            writes=int(self._st_writes[k]),
            reads=int(self._st_reads[k]),
            tec_corrections=int(self._st_tec[k]),
            wearout_marks=int(self._st_marks[k]),
            write_retries=int(self._st_retries[k]),
        )

    def params(self, index: int) -> DeviceParams:
        """Drawn operating point of global device ``index``."""
        self._row(index)  # range check
        return device_params(self.config, self.entropy, index)

    def alive_mask(self) -> np.ndarray:
        """Which of this engine's devices still have spare budget."""
        return self._alive.copy()

    @property
    def state_nbytes(self) -> int:
        """Bytes held by the population state arrays (telemetry)."""
        return self._s.nbytes + self._stored.nbytes + self._st.nbytes

    def state_digest(self) -> str:
        """SHA-256 over every device's full state plus fleet bookkeeping."""
        h = hashlib.sha256()
        h.update(self._epoch.to_bytes(8, "little"))
        h.update(np.ascontiguousarray(self._alive).tobytes())
        for k in range(self.n_devices):
            h.update(self.device_digest(self.first_device + k).encode("ascii"))
            for b in np.flatnonzero(self._s.written[k]):
                h.update(int(b).to_bytes(4, "little"))
                h.update(np.ascontiguousarray(self._stored[k, b]).tobytes())
        return h.hexdigest()

    # ------------------------------------------------------------------
    def advance(self, n_epochs: int = 1) -> np.ndarray:
        """Run ``n_epochs`` epochs; returns ``(n_epochs, N_COUNTERS)`` counts.

        Splitting a run over successive calls is exact:
        ``advance(a); advance(b)`` produces the same device states and
        (concatenated) counts as ``advance(a + b)``.
        """
        n_epochs = int(n_epochs)
        if n_epochs < 0:
            raise ValueError(f"n_epochs must be >= 0, got {n_epochs}")
        out = np.zeros((n_epochs, N_COUNTERS), dtype=np.int64)
        for e in range(n_epochs):
            out[e] = self._advance_one()
        return out

    def _advance_one(self) -> np.ndarray:
        cfg = self.config
        s = self._s
        nm = self._n_mlc
        c = np.zeros(N_COUNTERS, dtype=np.int64)
        t0 = self._epoch * cfg.epoch_seconds
        t1 = t0 + cfg.epoch_seconds
        alive = alive_indices(self._alive)
        tally0 = self._tally()

        # A: traffic.  B: program it, in trace order within each device.
        devs, blks, bits = self._draw_epoch_plan(alive, c)
        self._program(devs, blks, bits, t0)
        tally1 = self._tally()

        # C: scrub every written block of every surviving device — sense,
        # one batch decode, refresh.
        survivors = alive[self._alive[alive]]
        wr = s.written[survivors]
        sdevs = np.repeat(survivors, wr.sum(axis=1))
        sblks = np.nonzero(wr)[1]
        # Sensing reads only what heterogeneity leaves alone (thresholds,
        # the state means stuck cells pin to, the escalation break), so
        # the base design senses every device.
        rows = (sdevs, sblks)
        lr = s.log_resistance(t1, rows, self._base)
        dec = self._batch.decode(self._base.sense(lr), s.slc[rows])
        ok = ~dec.uncorrectable
        silent = ok & np.any(dec.data_bits != self._stored[rows], axis=1)
        done = np.ones(sdevs.size, dtype=bool)
        done[ok] = self._program(sdevs[ok], sblks[ok], dec.data_bits[ok], t1)
        # A device whose refresh ran out of spares stops its scrub there.
        reached = self._reached(sdevs, done)
        np.add.at(self._st_reads, sdevs[reached], 1)
        tec = np.where(ok & reached, dec.tec_corrected, 0)
        np.add.at(self._st_tec, sdevs, tec)
        tally2 = self._tally()

        n_read = int(reached.sum())
        c[_C_READS] = n_read
        c[_C_SENSED] = n_read * nm
        c[_C_UNCORRECTABLE] = int((reached & ~ok).sum())
        c[_C_TEC] = int(tec.sum())
        c[_C_SILENT] = int((reached & silent).sum())
        c[[_C_WRITES, _C_CELL_WRITE]] = (tally1 - tally0)[:2]
        c[[_C_REFRESHES, _C_CELL_REFRESH]] = (tally2 - tally1)[:2]
        c[[_C_MARKS, _C_RETRIES]] = (tally2 - tally0)[2:]
        c[_C_DEATHS] = alive.size - int(np.count_nonzero(self._alive))
        self._epoch += 1
        return c

    def _tally(self) -> np.ndarray:
        """Population totals of block writes, cell programs, marks, retries."""
        return np.array(
            [
                self._st_writes.sum(),
                self._s.writes.sum(),
                self._st_marks.sum(),
                self._st_retries.sum(),
            ]
        )

    def _reached(self, devs: np.ndarray, done: np.ndarray) -> np.ndarray:
        """Rows (grouped by device) that their device got to: all rows up
        to and including its first undone one, where its spares ran out."""
        failed = np.flatnonzero(~done)
        dead, first = np.unique(devs[failed], return_index=True)
        limit = np.full(self.n_devices, devs.size)
        limit[dead] = failed[first]
        return np.arange(devs.size) <= limit[devs]

    # ------------------------------------------------------------------
    # Phase A: traffic + payload draws, per device in order.
    def _draw_epoch_plan(
        self, alive: np.ndarray, c: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The epoch's demand writes as ``(devs, blks, bits)`` rows,
        grouped by device, in trace order within each.

        Consumes exactly the draws a lone device's epoch consumes: the
        trace slice from the data stream, then the payloads of its write
        ops in trace order (reads are counted, never served).  One
        ``(m, data_bits)`` draw yields the same bits and end state as
        ``m`` per-write draws: numpy's bounded ``uint8`` sampler spends
        one 32-bit word per four values, and ``data_bits`` is a multiple
        of eight.
        """
        cfg = self.config
        n_ops = cfg.ops_per_epoch
        devs: list[int] = []
        blks = [np.empty(0, dtype=np.int64)]
        bits = [np.empty((0, cfg.data_bits), dtype=np.uint8)]
        reads_req = 0
        for k in alive.tolist():
            g = self._g_data[k]
            is_write, addr = draw_ops_fast(
                self._workload[k], n_ops, cfg.n_blocks, g, cfg.write_fraction
            )
            w = np.flatnonzero(is_write)
            reads_req += n_ops - w.size
            if w.size:
                devs += [k] * w.size
                blks.append(addr[w])
                bits.append(g.integers(0, 2, (w.size, cfg.data_bits), dtype=np.uint8))
        c[_C_READS_REQ] = reads_req
        return np.array(devs, dtype=np.int64), np.concatenate(blks), np.concatenate(bits)

    # ------------------------------------------------------------------
    # The programming step: one program_rounds call over the rows.
    def _program(
        self, devs: np.ndarray, blks: np.ndarray, bits: np.ndarray, t_now: float
    ) -> np.ndarray:
        """Write rows grouped by device, each device's in order, with
        write-and-verify and mark-and-spare; returns which rows completed.

        A row that does not complete kills its device, leaving
        ``written``/``stored`` as they were, and :func:`program_rounds`
        attempts none of that device's later rows.
        """
        ks = devs.tolist()
        out = program_rounds(
            self._s,
            self._batch,
            self._base,
            devs,
            blks,
            bits,
            [self._g_dev[k] for k in ks],
            [self._wearout[k] for k in ks],
            self._drift_factor[devs],
            t_now,
        )
        # A write counts once attempted (every failed attempt is a retry).
        attempted = out.done | (out.retries > 0)
        np.add.at(self._st_writes, devs[attempted], 1)
        np.add.at(self._st_retries, devs, out.retries)
        np.add.at(self._st_marks, devs, out.marks)
        self._alive[devs[attempted & ~out.done]] = False
        # A block written twice keeps its later payload.
        ok = np.flatnonzero(out.done)[::-1]
        _, last = np.unique(devs[ok] * self.config.n_blocks + blks[ok], return_index=True)
        ok = ok[last]
        self._stored[devs[ok], blks[ok]] = bits[ok]
        return out.done


class Rounds(NamedTuple):
    """Per-row outcome of :func:`program_rounds`.  A row neither ``done``
    nor ``spent`` either still failed after its last attempt (then
    ``retries`` is positive) or was never attempted."""

    done: np.ndarray  #: the row's write completed and verified
    spent: np.ndarray  #: a failed pair needed a spare and none was left
    retries: np.ndarray  #: failed attempts
    marks: np.ndarray  #: pairs newly marked


def program_rounds(
    s: SoaFleetState,
    codec: BatchThreeOnTwoCodec,
    design: LevelDesign,
    d: np.ndarray,
    b: np.ndarray,
    bits: np.ndarray,
    gens: Sequence[np.random.Generator],
    wearouts: Sequence[WearoutModel],
    factor: np.ndarray,
    t_now: float,
) -> Rounds:
    """The 3LC block writes of ``bits[i]`` into block ``(d[i], b[i])``
    of ``s``, rows grouped by device, as array rounds.

    Rows come grouped by device, each device's in the order it writes
    them.  Row ``i`` draws from ``gens[i]`` (in the order the scalar
    reference's cell program and force make the draws), revives
    stuck-set cells under ``wearouts[i]`` and scales the design's drift
    parameters by ``factor[i]``.  Each round runs one attempt of every
    device's current row: encode under the block's current marked
    layout in one ``codec.encode`` call, program and verify, rewrite the
    check bits, and mark ``written`` on success.  A failing row marks
    the pair of its first failed cell (it is ``spent`` if that needs a
    spare it has not got), forces the pair to the top state and is
    retried next round, for at most ``n_spare_pairs + 1`` attempts.  A
    device starts its next row in the round after its current one
    completes; a row that does not complete stops its device, whose
    later rows are not attempted and draw nothing.  So a call runs as
    many rounds as its busiest device makes attempts, and the rows of a
    round address distinct devices.
    """
    mu_lr, sg_lr, mu_a, sg_a = design.write_tables
    top = design.n_levels - 1
    tier = PAPER_ESCALATION.tiers[0]
    n_spare = codec.ms_config.n_spare_pairs
    n_cells = s.cells_per_block
    blk = d * s.n_blocks + b  # each row's block row

    def charge(v, cells):
        """Charge each of ``cells`` (an index into the views ``v``) a
        write; a healthy one reaching its endurance takes its pending
        fault mode first.  Returns the cells' fault modes."""
        writes = v.writes[cells] + 1
        v.writes[cells] = writes
        fault = v.fault[cells]
        dying = (writes >= v.endurance[cells]) & (fault == _HEALTHY)
        if dying.any():
            fault = np.where(dying, v.pending_mode[cells], fault)
            v.fault[cells] = fault
        return fault

    def settle(v, cells, r, counts, st, f):
        """Program the healthy ``cells`` (an index into the views ``v``)
        to states ``st`` at drift factor ``f``, ``counts[j]`` of them, in
        cell order, from row ``r[j]``: each row draws a truncated-normal
        uniform, an exponent normal and an escalation normal per cell,
        in three calls."""
        x = np.empty((3, st.size))
        o = 0
        for k, m in zip(r.tolist(), counts):
            if m:
                g = gens[k]
                g.random(out=x[0, o : o + m])
                g.standard_normal(out=x[1, o : o + m])
                g.standard_normal(out=x[2, o : o + m])
                o += m
        u, z, z_esc = x.reshape((3,) + st.shape)
        z_r = truncated_normal_from_uniform(
            u, 0.0, 1.0, -WRITE_TRUNCATION_SIGMA, WRITE_TRUNCATION_SIGMA
        )
        v.lr0[cells] = programmed_log_resistance(mu_lr[st], sg_lr[st], z_r)
        v.alpha[cells] = programmed_alpha(mu_a[st] * f, sg_a[st] * f, z)
        v.alpha_esc[cells] = independent_escalated_alpha(
            z_esc, tier.mu_alpha * f, tier.sigma_alpha * f
        )
        v.t_prog[cells] = t_now
        v.target[cells] = st

    def program(r, rows, states):
        """The reference cell program of every cell of rows ``r``, whose
        block rows are ``rows``; returns the verify mask.  When every
        cell is healthy the rows program whole; otherwise only the
        healthy cells are computed and scattered."""
        st = states.astype(np.int64)
        fault = charge(s.by_block, rows)
        healthy = fault == _HEALTHY
        if healthy.all():
            settle(s.by_block, rows, r, [n_cells] * r.size, st, factor[r, None])
        else:
            cells = (rows[:, None] * n_cells + np.arange(n_cells))[healthy]
            counts = np.count_nonzero(healthy, axis=1)
            f = np.repeat(factor[r], counts)
            settle(s.by_cell, cells, r, counts.tolist(), st[healthy], f)
        # A stuck-reset cell passes verify iff the target is the top state.
        return healthy | ((fault == _STUCK_RESET) & (st == top))

    def force(r, pair):
        """The reference cell force-to-top of pair ``pair`` of each row
        ``r``: stuck-set cells draw revival uniforms (a revived cell is
        stuck-reset), then the healthy cells program to the top state."""
        cells = blk[r, None] * n_cells + 2 * pair[:, None] + np.arange(2)
        fault = s.by_cell.fault[cells]
        revive = np.flatnonzero((fault == _STUCK_SET).any(axis=1)).tolist()
        for i in revive:
            k = int(r[i])
            stuck = np.flatnonzero(fault[i] == _STUCK_SET)
            fault[i, stuck[wearouts[k].revive(gens[k], stuck.size)]] = _STUCK_RESET
        if revive:
            s.by_cell.fault[cells] = fault
        healthy = fault == _HEALTHY
        i, cells = np.nonzero(healthy)[0], cells[healthy]
        healthy = charge(s.by_cell, cells) == _HEALTHY
        i, cells = i[healthy], cells[healthy]
        counts = np.bincount(i, minlength=r.size).tolist()
        settle(s.by_cell, cells, r, counts, np.full(i.size, top), factor[r[i]])

    done, spent = np.zeros((2, d.size), dtype=bool)
    retries, marks = np.zeros((2, d.size), dtype=np.int64)
    # edge[i]: row i starts a device's rows; edge[i + 1]: row i ends them.
    padded = np.concatenate(([-1], d, [-1]))
    edge = padded[1:] != padded[:-1]
    last = edge[1:]
    r = np.flatnonzero(edge[:-1])  # every device's first row
    while r.size:
        rows = blk[r]
        states, checks = codec.encode(bits[r], s.marked_b[rows])
        verified = program(r, rows, states)
        s.slc_b[rows] = checks
        ok = verified.all(axis=1)
        q = r[ok]
        s.written_b[blk[q]] = True
        done[q] = True
        up_next = q[~last[q]] + 1
        r = r[~ok]
        if r.size:
            retries[r] += 1
            pair = np.argmin(verified[~ok], axis=1) // 2
            marked = s.marked_b[blk[r]]
            new = ~marked[np.arange(r.size), pair]
            short = new & (marked.sum(axis=1) >= n_spare)
            spent[r[short]] = True
            r, pair, new = r[~short], pair[~short], new[~short]
            q = r[new]
            s.marked_b[blk[q], pair[new]] = True
            marks[q] += 1
            force(r, pair)
            r = r[retries[r] <= n_spare]
        r = np.concatenate((r, up_next))
    return Rounds(done, spent, retries, marks)


#: The fleet engine's public name (``SoaFleetEngine`` stays importable
#: under its own name for existing callers).
FleetEngine = SoaFleetEngine
