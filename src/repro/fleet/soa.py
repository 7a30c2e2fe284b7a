"""The fleet engine: a device population advanced as structure-of-arrays.

:class:`SoaFleetEngine` (public name :data:`FleetEngine`) owns a
contiguous range of the fleet's devices and holds their whole state in
the flat arrays of :class:`~repro.fleet.state.SoaFleetState`.  Device
index ``i`` (global, fleet-wide) is a pure function of
``(config, entropy, i)``: its heterogeneity, physics stream, and data
stream are all addressed by spawn keys under
:data:`~repro.fleet.config.FLEET_SPAWN_KEY`, so any sharding of the
fleet over engines and processes reproduces the same devices.  Every
epoch of virtual time runs one body of four phases:

A. **Traffic** — every alive device draws ``ops_per_epoch`` accesses
   from its workload profile plus fresh payload bits for each write,
   all from its own data generator.  Reads in the trace are only
   *counted* (``reads_requested``): the functional fleet model serves
   demand reads from the controller cache and measures the cost of
   writes and maintenance.
B. **Batch encode** — all demand-write payloads of the epoch, across
   every device, go through one
   :class:`~repro.coding.batch.BatchThreeOnTwoCodec.encode` pass against
   each block's current marked layout.
C. **Program** — each device executes its writes in trace order.
D. **Scrub** — at the epoch's end every written block of every
   surviving device is sensed through
   :func:`~repro.cells.cell_array.sensed_log_resistance`, the drift and
   stuck-cell pinning :meth:`CellArray.sense` applies (no RNG draws),
   and decoded in one batch pass; successful decodes are re-encoded in
   a second batch pass and rewritten block-ascending within each device
   (drift-resetting refresh).  Uncorrectable blocks and silent
   corruptions (decode succeeded, data differs from what was last
   written) are counted.

**The programming step** of C and of D's refresh is the one thing an
epoch chooses, from state alone (which keeps ``advance(a); advance(b)``
equal to ``advance(a + b)``).  While no cell in the population has
reached its endurance budget (tracked with a cheap wear upper bound
against the population's minimum endurance), an epoch provably cannot
produce faults, verify failures, retries, marks, or deaths, so it
programs whole blocks in *waves*: wave ``w`` programs the ``w``-th row
of every device at once, drawing from each device's own generator in
its own order.  Otherwise every row goes through
:meth:`PCMDevice.write_encoded` on a per-device
:class:`~repro.core.device.PCMDevice` view whose cells, check bits,
written mask, and mark-and-spare layouts are the device's rows of the
population arrays and whose generator is the device's own, so
write-and-verify, mark-and-spare, and death are the single-device code
itself; a device stops at :class:`SpareExhausted`, and the rest of its
epoch is dropped.  A view is built on its device's first such write.

**Bit-identity contract.**  Devices are independent, so work may be
reordered across devices as long as each device's own draw order is
preserved, and sensing draws no randomness.  An ``n_devices=1`` fleet is
therefore bit-identical to driving a plain :class:`PCMDevice` through
the same epoch schedule; ``tests/fleet/test_fleet_differential.py``
holds every device of whole populations to that reference (state
digest, stats, alive mask, and all per-epoch counters).  Every draw is
a public :class:`numpy.random.Generator` call on the device's own
stream, built by :func:`~repro.montecarlo.rng.block_rng`.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.cells.cell_array import (
    CellArray,
    programmed_alpha,
    programmed_log_resistance,
    sensed_log_resistance,
)
from repro.cells.drift import PAPER_ESCALATION, independent_escalated_alpha
from repro.cells.faults import WearoutModel
from repro.cells.params import WRITE_TRUNCATION_SIGMA
from repro.coding.blockcodec import ThreeOnTwoBlockCodec
from repro.core.designs import design_by_name
from repro.core.device import DeviceStats, PCMDevice, SpareExhausted
from repro.fleet.config import (
    FLEET_SPAWN_KEY,
    KEY_DATA,
    KEY_DEVICE,
    KEY_HETERO,
    DeviceParams,
    FleetConfig,
    _scale_drift,
    _scale_schedule,
    _scale_wearout,
    device_params,
    hetero_draws,
)
from repro.fleet.engine import N_COUNTERS, counter_index
from repro.fleet.state import SoaFleetState, alive_indices
from repro.montecarlo.rng import block_rng, truncated_normal_from_uniform
from repro.wearout.mark_and_spare import MarkAndSpareConfig
from repro.workloads.synthetic import draw_ops_fast

__all__ = ["FleetEngine", "SoaFleetEngine"]

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
        codec = ThreeOnTwoBlockCodec(config.data_bits, MarkAndSpareConfig.n_spare_pairs)
        self._codec = codec
        self._batch = codec.kernel
        self._n_mlc = codec.n_mlc_cells

        base = design_by_name(config.design)
        if base.n_levels != 3:
            raise ValueError("the fleet engine models 3LC devices")
        tier = PAPER_ESCALATION.tiers[0]
        self._base = base
        # Write distributions are heterogeneity-free (only drift rates
        # and wear budgets vary per device; see repro.fleet.config).
        self._mu_lr = np.array([s.mu_lr for s in base.states])
        self._sg_lr = np.array([s.sigma_lr for s in base.states])
        base_mu_a = np.array([s.drift.mu_alpha for s in base.states])
        base_sg_a = np.array([s.drift.sigma_alpha for s in base.states])

        self._s = SoaFleetState(
            n,
            config.n_blocks,
            self._n_mlc,
            codec.n_slc_cells,
            codec.ms_config.n_pairs,
            config.data_bits,
        )
        s = self._s
        self._alive = np.ones(n, dtype=bool)

        idx = range(self.first_device, self.first_device + n)

        def streams(key: int) -> list[np.random.Generator]:
            return [block_rng(self.entropy, (FLEET_SPAWN_KEY, key, i)) for i in idx]

        g_het = streams(KEY_HETERO)
        self._g_dev = streams(KEY_DEVICE)
        self._g_data = streams(KEY_DATA)

        # Per-device drawn operating points (the hetero stream's four
        # draws, in the frozen order of config.hetero_draws).
        self._drift_factor = np.empty(n)
        self._mu_a = np.empty((n, base.n_levels))
        self._sg_a = np.empty((n, base.n_levels))
        self._mu_esc = np.empty(n)
        self._sg_esc = np.empty(n)
        self._workload: list[str] = []
        self._wearout: list[WearoutModel] = []
        nc = config.n_blocks * self._n_mlc
        for k in range(n):
            bucket, alpha_jitter, endurance_scale, workload = hetero_draws(
                config, g_het[k]
            )
            factor = float(config.temp_buckets[bucket][1]) * alpha_jitter
            self._drift_factor[k] = factor
            self._mu_a[k] = base_mu_a * factor
            self._sg_a[k] = base_sg_a * factor
            self._mu_esc[k] = tier.mu_alpha * factor
            self._sg_esc[k] = tier.sigma_alpha * factor
            self._workload.append(workload)
            # CellArray's init draws, from the device stream in its order.
            wearout = _scale_wearout(config, endurance_scale)
            self._wearout.append(wearout)
            s.endurance[k] = wearout.sample_endurance(self._g_dev[k], nc)
            s.pending_mode[k] = wearout.sample_modes(self._g_dev[k], nc)
        s.lr0[:] = base.states[0].mu_lr  # fresh cells sit at the lowest level

        # A cheap per-cell wear upper bound against the population's
        # minimum endurance proves an epoch fault-free.
        self._min_endurance = float(s.endurance.min())
        self._writes_bound = 0
        self._any_fault = False
        #: PCMDevice views, by local device row, built on first use.
        self._views: dict[int, PCMDevice] = {}

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

    def device(self, index: int) -> PCMDevice:
        """The device at *global* fleet index ``index``, as a live view.

        The view shares the engine's arrays and generator (writing
        through it advances the device); its ``stats`` are a snapshot.
        """
        k = self._row(index)
        s = self._s
        dev = self._build_view(k)
        dev.stats = DeviceStats(
            writes=int(s.st_writes[k]),
            reads=int(s.st_reads[k]),
            tec_corrections=int(s.st_tec[k]),
            wearout_marks=int(s.st_marks[k]),
            write_retries=int(s.st_retries[k]),
        )
        return dev

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
        return self._s.nbytes

    def state_digest(self) -> str:
        """SHA-256 over every device's full state plus fleet bookkeeping."""
        h = hashlib.sha256()
        h.update(self._epoch.to_bytes(8, "little"))
        h.update(np.ascontiguousarray(self._alive).tobytes())
        s = self._s
        for k in range(self.n_devices):
            h.update(self._build_view(k).state_digest().encode("ascii"))
            for b in np.flatnonzero(s.written[k]):
                h.update(int(b).to_bytes(4, "little"))
                h.update(np.ascontiguousarray(s.stored[k, b]).tobytes())
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
        # An epoch adds at most ops_per_epoch + 1 writes to any cell, so
        # while the wear bound stays below the population's minimum
        # endurance no fault (hence no retry, mark, or death) can occur.
        fault_free = (
            not self._any_fault
            and self._writes_bound + cfg.ops_per_epoch + 1 < self._min_endurance
        )
        program = self._program_waves if fault_free else self._program_views
        tally0 = self._tally()

        # A: traffic.  B: one batch encode of the epoch's demand writes.
        # C: program them, in trace order within each device.
        devs, blks, bits = self._draw_epoch_plan(alive, c)
        states, checks = self._batch.encode(bits, s.marked[devs, blks])
        program(devs, blks, bits, states, checks, t0)
        tally1 = self._tally()

        # D: scrub every written block of every surviving device — sense,
        # one batch decode, one batch re-encode, refresh.
        survivors = alive[self._alive[alive]]
        wr = s.written[survivors]
        sdevs = np.repeat(survivors, wr.sum(axis=1))
        sblks = np.nonzero(wr)[1]
        # Sensing reads only what heterogeneity leaves alone (thresholds,
        # the state means stuck cells pin to, the escalation break), so
        # the base design senses every device.
        rows = (sdevs, sblks)
        lr = sensed_log_resistance(
            t1,
            s.t_prog_3[rows],
            s.lr0_3[rows],
            s.alpha_3[rows],
            s.alpha_esc_3[rows],
            s.fault_3[rows],
            self._base,
            PAPER_ESCALATION,
        )
        dec = self._batch.decode(self._base.sense(lr), s.slc[rows])
        ok = ~dec.uncorrectable
        silent = ok & np.any(dec.data_bits != s.stored[rows], axis=1)
        data = dec.data_bits[ok]
        states, checks = self._batch.encode(data, s.marked[sdevs[ok], sblks[ok]])
        done = np.ones(sdevs.size, dtype=bool)
        done[ok] = program(sdevs[ok], sblks[ok], data, states, checks, t1)
        # A device whose refresh ran out of spares stops its scrub there.
        reached = self._reached(sdevs, done)
        np.add.at(s.st_reads, sdevs[reached], 1)
        tec = np.where(ok & reached, dec.tec_corrected, 0)
        np.add.at(s.st_tec, sdevs, tec)
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
        self._any_fault = bool(s.fault.any())
        self._writes_bound += cfg.ops_per_epoch + 1
        self._epoch += 1
        return c

    def _tally(self) -> np.ndarray:
        """Population totals of block writes, cell programs, marks, retries."""
        s = self._s
        return np.array(
            [s.st_writes.sum(), s.writes.sum(), s.st_marks.sum(), s.st_retries.sum()]
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
    # The programming step: ``program(devs, blks, bits, states, checks,
    # t_now)`` writes rows grouped by device, each device's in order,
    # from batch-encoded first attempts; it commits the cells, check
    # bits, written mask and stored data of every row it completes and
    # returns which rows those are.
    def _program_waves(
        self,
        devs: np.ndarray,
        blks: np.ndarray,
        bits: np.ndarray,
        states: np.ndarray,
        checks: np.ndarray,
        t_now: float,
    ) -> np.ndarray:
        """Fault-free programming: wave ``w`` writes every device's
        ``w``-th row at once, so every row completes.

        Per device a row consumes exactly the draws
        :meth:`CellArray.program` consumes for a fully healthy block —
        the truncated-normal uniforms, then the exponent normals, then
        the escalation normals, in the same three calls — so the streams
        stay aligned with a lone device's.
        """
        s = self._s
        nm = self._n_mlc
        start = np.flatnonzero(np.r_[True, devs[1:] != devs[:-1]])
        seg = np.diff(np.r_[start, devs.size])
        slot = np.arange(devs.size) - np.repeat(start, seg)
        for w in range(int(seg.max(initial=0))):
            sel = np.flatnonzero(slot == w)
            d = devs[sel]
            b = blks[sel]
            u = np.empty((sel.size, nm))
            zz = np.empty((sel.size, 2 * nm))
            for j, k in enumerate(d.tolist()):
                g = self._g_dev[k]
                u[j] = g.random(nm)
                zz[j, :nm] = g.standard_normal(nm)
                zz[j, nm:] = g.standard_normal(nm)
            z_r = truncated_normal_from_uniform(
                u, 0.0, 1.0, -WRITE_TRUNCATION_SIGMA, WRITE_TRUNCATION_SIGMA
            )
            st = states[sel].astype(np.int64)
            s.lr0_3[d, b] = programmed_log_resistance(self._mu_lr[st], self._sg_lr[st], z_r)
            s.alpha_3[d, b] = programmed_alpha(
                self._mu_a[d[:, None], st], self._sg_a[d[:, None], st], zz[:, :nm]
            )
            s.alpha_esc_3[d, b] = independent_escalated_alpha(
                zz[:, nm:], self._mu_esc[d][:, None], self._sg_esc[d][:, None]
            )
            s.t_prog_3[d, b] = t_now
            s.target_3[d, b] = st
            s.writes_3[d, b] += 1
            s.slc[d, b] = checks[sel]
            s.written[d, b] = True
            s.stored[d, b] = bits[sel]
            s.st_writes[d] += 1
        return np.ones(devs.size, dtype=bool)

    def _program_views(
        self,
        devs: np.ndarray,
        blks: np.ndarray,
        bits: np.ndarray,
        states: np.ndarray,
        checks: np.ndarray,
        t_now: float,
    ) -> np.ndarray:
        """Row by row through :meth:`PCMDevice.write_encoded` on each
        device's view, folding the view's stats into the ``st_*`` columns.

        A write that marks a pair leaves its block's later pre-encoded
        rows stale: those re-encode in the device.  A device whose spares
        run out dies there; its later rows stay undone.
        """
        s = self._s
        done = np.zeros(devs.size, dtype=bool)
        stale: set[tuple[int, int]] = set()
        dead = -1
        for j, (k, b) in enumerate(zip(devs.tolist(), blks.tolist())):
            if k == dead:
                continue
            view = self._views.get(k)
            if view is None:
                view = self._views[k] = self._build_view(k)
            pre = () if (k, b) in stale else (states[j], checks[j])
            try:
                view.write_encoded(b, bits[j], t_now, *pre)
            except SpareExhausted:
                self._alive[k] = False
                dead = k
            st = view.stats
            view.stats = DeviceStats()
            s.st_writes[k] += st.writes
            s.st_retries[k] += st.write_retries
            s.st_marks[k] += st.wearout_marks
            if k == dead:
                continue
            if st.wearout_marks:
                stale.add((k, b))
            s.stored[k, b] = bits[j]
            done[j] = True
        return done

    def _build_view(self, k: int) -> PCMDevice:
        """Row ``k`` as a :class:`PCMDevice` over the population arrays."""
        s = self._s
        factor = float(self._drift_factor[k])
        array = CellArray.over_state(
            (
                s.lr0[k],
                s.alpha[k],
                s.alpha_esc[k],
                s.t_prog[k],
                s.target[k],
                s.writes[k],
                s.endurance[k],
                s.fault[k],
                s.pending_mode[k],
            ),
            design=_scale_drift(self._base, factor),
            rng=self._g_dev[k],
            wearout=self._wearout[k],
            schedule=_scale_schedule(PAPER_ESCALATION, factor),
        )
        return PCMDevice.over_state(
            array, self._codec, s.slc[k], s.written[k], s.marked[k]
        )


#: The fleet engine's public name (``SoaFleetEngine`` stays importable
#: under its own name for existing callers).
FleetEngine = SoaFleetEngine
