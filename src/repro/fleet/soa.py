"""The fleet engine: a device population advanced as structure-of-arrays.

:class:`SoaFleetEngine` (public name :data:`FleetEngine`) owns a
contiguous range of the fleet's devices and holds their whole state in
the flat arrays of :class:`~repro.fleet.state.SoaFleetState`.  Device
index ``i`` (global, fleet-wide) is a pure function of
``(config, entropy, i)``: its heterogeneity, physics stream, and data
stream are all addressed by spawn keys under
:data:`~repro.fleet.config.FLEET_SPAWN_KEY`, so any sharding of the
fleet over engines and processes reproduces the same devices.  Each
epoch of virtual time runs four phases:

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
   surviving device is sensed in one fused drift + threshold pass (no
   RNG draws) and decoded in one batch pass; successful decodes are
   re-encoded in a second batch pass and rewritten (drift-resetting
   refresh).  Uncorrectable blocks and silent corruptions (decode
   succeeded, data differs from what was last written) are counted.

**Fast and slow epochs.**  While no cell in the population has reached
its endurance budget (tracked with a cheap wear upper bound against the
population's minimum endurance), an epoch provably cannot produce
faults, verify failures, retries, marks, or deaths, so phases C and D
program whole blocks in *waves*: wave ``w`` programs the ``w``-th write
of every device at once, drawing from each device's own generator in
its own order.  Once wear makes faults possible, the epoch is *slow*:
every write goes through :meth:`PCMDevice.write_encoded` on a
per-device :class:`~repro.core.device.PCMDevice` view whose cells,
check bits, written mask, and mark-and-spare layouts are the device's
rows of the population arrays and whose generator is the device's own.
The write-and-verify, mark-and-spare, and death semantics are thus the
single-device code itself.  Views are built only when an epoch first
goes slow.  The split is decided per epoch from state alone, which keeps
``advance(a); advance(b)`` equal to ``advance(a + b)``.

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
    drifted_log_resistance,
    programmed_alpha,
    programmed_log_resistance,
)
from repro.cells.drift import PAPER_ESCALATION, independent_escalated_alpha
from repro.cells.faults import FaultMode
from repro.cells.params import T0_SECONDS, WRITE_TRUNCATION_SIGMA
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
from repro.fleet.engine import N_COUNTERS, _batch_codec, counter_index
from repro.fleet.state import SoaFleetState, alive_indices
from repro.montecarlo.rng import block_rng, truncated_normal_from_uniform
from repro.workloads.synthetic import draw_ops_fast

__all__ = ["FleetEngine", "SoaFleetEngine"]

_STUCK_RESET = FaultMode.STUCK_RESET.value
_STUCK_SET = FaultMode.STUCK_SET.value

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
        self._batch = _batch_codec(config.data_bits)
        codec = self._batch.codec
        self._n_mlc = codec.n_mlc_cells

        base = design_by_name(config.design)
        if base.n_levels != 3:
            raise ValueError("the fleet engine models 3LC devices")
        tier = PAPER_ESCALATION.tiers[0]
        self._base = base
        self._thresholds = np.asarray(base.thresholds)
        self._top_lr = base.states[-1].mu_lr
        self._bot_lr = base.states[0].mu_lr
        # Write distributions are heterogeneity-free (only drift rates
        # and wear budgets vary per device; see repro.fleet.config).
        self._mu_lr = np.array([s.mu_lr for s in base.states])
        self._sg_lr = np.array([s.sigma_lr for s in base.states])
        base_mu_a = np.array([s.drift.mu_alpha for s in base.states])
        base_sg_a = np.array([s.drift.sigma_alpha for s in base.states])
        self._lr_break = tier.lr_break

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
        self._endurance_scale = np.empty(n)
        self._mu_a = np.empty((n, base.n_levels))
        self._sg_a = np.empty((n, base.n_levels))
        self._mu_esc = np.empty(n)
        self._sg_esc = np.empty(n)
        self._workload: list[str] = []
        nc = config.n_blocks * self._n_mlc
        for k in range(n):
            bucket, alpha_jitter, endurance_scale, workload = hetero_draws(
                config, g_het[k]
            )
            factor = float(config.temp_buckets[bucket][1]) * alpha_jitter
            self._drift_factor[k] = factor
            self._endurance_scale[k] = endurance_scale
            self._mu_a[k] = base_mu_a * factor
            self._sg_a[k] = base_sg_a * factor
            self._mu_esc[k] = tier.mu_alpha * factor
            self._sg_esc[k] = tier.sigma_alpha * factor
            self._workload.append(workload)
            # CellArray init draws, from the device stream in its order:
            # endurance budgets first, then pending failure modes.
            g = self._g_dev[k]
            lg = g.normal(
                np.log10(config.mean_endurance * endurance_scale),
                config.endurance_sigma,
                nc,
            )
            s.endurance[k] = np.power(10.0, lg)
            reset = g.random(nc) < config.p_stuck_reset
            s.pending_mode[k] = np.where(reset, _STUCK_RESET, _STUCK_SET).astype(
                np.int8
            )
        s.lr0[:] = self._bot_lr  # fresh cells sit at the lowest level

        # Fast-epoch machinery: a cheap per-cell wear upper bound against
        # the population's minimum endurance proves fault-freeness; a
        # per-(device, block) program time serves fused sensing while
        # every block was programmed whole (always true before the first
        # slow epoch).
        self._min_endurance = float(s.endurance.min())
        self._writes_bound = 0
        self._any_fault = False
        self._tprog_uniform = True
        self._tprog_row = np.zeros((n, config.n_blocks))
        #: Slow-epoch PCMDevice views, by local device row, built on first use.
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
            for b in np.flatnonzero(s.has_stored[k]):
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
        c = np.zeros(N_COUNTERS, dtype=np.int64)
        t0 = self._epoch * cfg.epoch_seconds
        t1 = t0 + cfg.epoch_seconds
        alive = alive_indices(self._alive)
        # An epoch adds at most ops_per_epoch + 1 writes to any cell, so
        # while the wear bound stays below the population's minimum
        # endurance no fault (hence no retry, mark, or death) can occur.
        fast = (
            not self._any_fault
            and self._writes_bound + cfg.ops_per_epoch + 1 < self._min_endurance
        )
        if fast:
            self._fast_epoch(alive, t0, t1, c)
        else:
            self._slow_epoch(alive, t0, t1, c)
        self._writes_bound += cfg.ops_per_epoch + 1
        self._epoch += 1
        return c

    # ------------------------------------------------------------------
    # Phase A (shared): traffic + payload draws, per device in order.
    def _draw_epoch_plan(
        self, alive: np.ndarray, c: np.ndarray
    ) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Per-device ``(k, blocks, bits)`` demand-write segments.

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
        plan: list[tuple[int, np.ndarray, np.ndarray]] = []
        reads_req = 0
        for kk in alive:
            k = int(kk)
            g = self._g_data[k]
            is_write, addr = draw_ops_fast(
                self._workload[k], n_ops, cfg.n_blocks, g, cfg.write_fraction
            )
            w = np.flatnonzero(is_write)
            m = w.size
            reads_req += n_ops - m
            if m == 0:
                continue
            bits = g.integers(0, 2, (m, cfg.data_bits), dtype=np.uint8)
            plan.append((k, addr[w], bits))
        c[_C_READS_REQ] += reads_req
        return plan

    # ------------------------------------------------------------------
    # Fast path: provably fault-free epoch, straight-line array code.
    def _fast_epoch(
        self, alive: np.ndarray, t0: float, t1: float, c: np.ndarray
    ) -> None:
        cfg = self.config
        s = self._s
        plan = self._draw_epoch_plan(alive, c)

        if plan:
            sizes = [blocks.size for _, blocks, _ in plan]
            dev_rows = np.repeat(
                np.array([k for k, _, _ in plan], dtype=np.int64), sizes
            )
            blk_rows = np.concatenate([blocks for _, blocks, _ in plan])
            bits_mat = np.vstack([bits for _, _, bits in plan])
            # Phase B: one batch encode of the epoch's demand writes.
            w_states, w_checks = self._batch.encode(
                bits_mat, s.marked[dev_rows, blk_rows]
            )
            # Phase C: program in waves (wave w = write slot w of every
            # device; within-device trace order is preserved).
            slots = np.concatenate([np.arange(m) for m in sizes])
            for w in range(max(sizes)):
                sel = np.flatnonzero(slots == w)
                devs = dev_rows[sel]
                blks = blk_rows[sel]
                self._program_wave(devs, blks, w_states[sel], t0)
                s.slc[devs, blks] = w_checks[sel]
                s.written[devs, blks] = True
                s.stored[devs, blks] = bits_mat[sel]
                s.has_stored[devs, blks] = True
                s.st_writes[devs] += 1
            r = dev_rows.size
            c[_C_WRITES] += r
            c[_C_CELL_WRITE] += r * self._n_mlc

        # Phase D: scrub every written block of every device — fused
        # drift + sense (no RNG), one batch decode, one batch re-encode,
        # refresh in waves.
        wr = s.written[alive]
        per_dev = wr.sum(axis=1)
        sdevs = np.repeat(alive, per_dev)
        sblks = np.nonzero(wr)[1]
        r2 = sdevs.size
        if r2 == 0:
            return
        sensed = self._sense_rows(sdevs, sblks, t1, pin=False)
        dec = self._batch.decode(sensed, s.slc[sdevs, sblks])
        c[_C_READS] += r2
        c[_C_SENSED] += r2 * self._n_mlc
        np.add.at(s.st_reads, sdevs, 1)
        unc = dec.uncorrectable
        c[_C_UNCORRECTABLE] += int(unc.sum())
        ok = np.flatnonzero(~unc)
        if ok.size == 0:
            return
        okd = sdevs[ok]
        okb = sblks[ok]
        tec = dec.tec_corrected[ok]
        c[_C_TEC] += int(tec.sum())
        np.add.at(s.st_tec, okd, tec)
        data = dec.data_bits[ok]
        silent = ~np.all(data == s.stored[okd, okb], axis=1)
        c[_C_SILENT] += int(silent.sum())
        f_states, f_checks = self._batch.encode(data, s.marked[okd, okb])
        # Refresh waves: slot w = each device's w-th scrubbed-ok block
        # (block-ascending within a device, as a lone device's scrub).
        starts = np.flatnonzero(np.r_[True, okd[1:] != okd[:-1]])
        seg_len = np.diff(np.r_[starts, okd.size])
        slots = np.arange(okd.size) - np.repeat(starts, seg_len)
        for w in range(int(seg_len.max())):
            sel = np.flatnonzero(slots == w)
            devs = okd[sel]
            blks = okb[sel]
            self._program_wave(devs, blks, f_states[sel], t1)
            s.slc[devs, blks] = f_checks[sel]
            s.stored[devs, blks] = data[sel]
            s.st_writes[devs] += 1
        c[_C_REFRESHES] += ok.size
        c[_C_CELL_REFRESH] += ok.size * self._n_mlc

    def _program_wave(
        self,
        devs: np.ndarray,
        blks: np.ndarray,
        states: np.ndarray,
        t_now: float,
    ) -> None:
        """Program one whole block per device, all devices at once.

        Per device this consumes exactly the draws
        :meth:`CellArray.program` consumes for a fully healthy block —
        the truncated-normal uniforms, then the exponent normals, then
        the escalation normals, in the same three calls — so the streams
        stay aligned with a lone device's.
        """
        nm = self._n_mlc
        w = devs.size
        u = np.empty((w, nm))
        zz = np.empty((w, 2 * nm))
        for j in range(w):
            g = self._g_dev[int(devs[j])]
            u[j] = g.random(nm)
            zz[j, :nm] = g.standard_normal(nm)
            zz[j, nm:] = g.standard_normal(nm)
        z_r = truncated_normal_from_uniform(
            u, 0.0, 1.0, -WRITE_TRUNCATION_SIGMA, WRITE_TRUNCATION_SIGMA
        )
        st = states.astype(np.int64)
        lr0 = programmed_log_resistance(self._mu_lr[st], self._sg_lr[st], z_r)
        alpha = programmed_alpha(
            self._mu_a[devs[:, None], st], self._sg_a[devs[:, None], st], zz[:, :nm]
        )
        esc = independent_escalated_alpha(
            zz[:, nm:], self._mu_esc[devs][:, None], self._sg_esc[devs][:, None]
        )
        s = self._s
        s.lr0_3[devs, blks] = lr0
        s.alpha_3[devs, blks] = alpha
        s.alpha_esc_3[devs, blks] = esc
        s.t_prog_3[devs, blks] = t_now
        s.target_3[devs, blks] = st
        s.writes_3[devs, blks] += 1
        self._tprog_row[devs, blks] = t_now

    def _sense_rows(
        self, sdevs: np.ndarray, sblks: np.ndarray, t_now: float, *, pin: bool
    ) -> np.ndarray:
        """Fused drift + threshold for many ``(device, block)`` rows.

        Row-uniform program times (every block so far programmed in one
        shot) let the log-time factor collapse to one value per row;
        after any slow epoch partial programs exist and the per-cell
        times and fault pinning take over.  Either way this is the same
        arithmetic :meth:`CellArray.log_resistance` runs per block.
        """
        s = self._s
        if self._tprog_uniform:
            dt = np.maximum(t_now - self._tprog_row[sdevs, sblks], 0.0) + T0_SECONDS
            ell: np.ndarray = np.log10(dt / T0_SECONDS)[:, None]
        else:
            dt = np.maximum(t_now - s.t_prog_3[sdevs, sblks], 0.0) + T0_SECONDS
            ell = np.log10(dt / T0_SECONDS)
        lr = drifted_log_resistance(
            s.lr0_3[sdevs, sblks],
            s.alpha_3[sdevs, sblks],
            s.alpha_esc_3[sdevs, sblks],
            ell,
            self._lr_break,
        )
        if pin:
            fault = s.fault_3[sdevs, sblks]
            lr = np.where(fault == _STUCK_RESET, self._top_lr, lr)
            lr = np.where(fault == _STUCK_SET, self._bot_lr, lr)
        return np.searchsorted(self._thresholds, lr, side="right")

    # ------------------------------------------------------------------
    # Slow path: faults, retries, marks, and deaths, through one
    # PCMDevice view per device over its population rows.
    def _slow_epoch(
        self, alive: np.ndarray, t0: float, t1: float, c: np.ndarray
    ) -> None:
        s = self._s
        # Phase C below may partial-program cells (retries, force-highest
        # on marked pairs) without touching ``_tprog_row``, so this very
        # epoch's scrub must already read per-cell program times.
        self._tprog_uniform = False
        marks0 = s.st_marks.copy()
        retries0 = s.st_retries.copy()
        tec0 = s.st_tec.copy()
        cells0 = s.writes.sum(axis=1)

        plan = self._draw_epoch_plan(alive, c)

        # Phase B: batch encode against each block's current layout.
        if plan:
            dev_rows = np.repeat(
                np.array([k for k, _, _ in plan], dtype=np.int64),
                [blocks.size for _, blocks, _ in plan],
            )
            blk_rows = np.concatenate([blocks for _, blocks, _ in plan])
            w_states, w_checks = self._batch.encode(
                np.vstack([bits for _, _, bits in plan]),
                s.marked[dev_rows, blk_rows],
            )

        # Phase C: program device by device, trace order within each.
        writes0 = s.st_writes.copy()
        r = 0
        for k, blocks, bits in plan:
            dirty: set[int] = set()
            for j, b in enumerate(blocks.tolist()):
                # A write that marked a pair leaves the block's later
                # pre-encoded rows stale: those re-encode in the device.
                pre = () if b in dirty else (w_states[r + j], w_checks[r + j])
                try:
                    if self._write(k, b, bits[j], t0, *pre):
                        dirty.add(b)
                except SpareExhausted:
                    self._alive[k] = False
                    c[_C_DEATHS] += 1
                    break
                s.stored[k, b] = bits[j]
                s.has_stored[k, b] = True
            r += blocks.size
        c[_C_WRITES] += int((s.st_writes - writes0)[alive].sum())
        cells_after_c = s.writes.sum(axis=1)
        c[_C_CELL_WRITE] += int((cells_after_c - cells0)[alive].sum())

        # Phase D: scrub — sense everything, decode in one batch, refresh
        # block-ascending within each device.
        survivors = alive[self._alive[alive]]
        refresh0 = s.st_writes.copy()
        wr = s.written[survivors]
        sdevs = np.repeat(survivors, wr.sum(axis=1))
        sblks = np.nonzero(wr)[1]
        if sdevs.size:
            sensed = self._sense_rows(sdevs, sblks, t1, pin=True)
            dec = self._batch.decode(sensed, s.slc[sdevs, sblks])
            ok = ~dec.uncorrectable
            f_states, f_checks = self._batch.encode(
                dec.data_bits[ok], s.marked[sdevs[ok], sblks[ok]]
            )
            enc_row = np.cumsum(ok) - 1
            dead = -1
            for j, (k, b) in enumerate(zip(sdevs.tolist(), sblks.tolist())):
                if k == dead:
                    continue
                s.st_reads[k] += 1
                c[_C_READS] += 1
                c[_C_SENSED] += self._n_mlc
                if not ok[j]:
                    c[_C_UNCORRECTABLE] += 1
                    continue
                s.st_tec[k] += int(dec.tec_corrected[j])
                data = dec.data_bits[j]
                if s.has_stored[k, b] and not np.array_equal(data, s.stored[k, b]):
                    c[_C_SILENT] += 1
                pos = enc_row[j]
                try:
                    self._write(k, b, data, t1, f_states[pos], f_checks[pos])
                except SpareExhausted:
                    self._alive[k] = False
                    c[_C_DEATHS] += 1
                    dead = k
                    continue
                s.stored[k, b] = data
        c[_C_REFRESHES] += int((s.st_writes - refresh0)[survivors].sum())
        c[_C_CELL_REFRESH] += int(
            (s.writes.sum(axis=1) - cells_after_c)[survivors].sum()
        )
        c[_C_MARKS] += int((s.st_marks - marks0)[alive].sum())
        c[_C_RETRIES] += int((s.st_retries - retries0)[alive].sum())
        c[_C_TEC] += int((s.st_tec - tec0)[alive].sum())

        self._any_fault = bool(s.fault.any())

    def _write(
        self,
        k: int,
        b: int,
        data_bits: np.ndarray,
        t_now: float,
        states: np.ndarray | None = None,
        check: np.ndarray | None = None,
    ) -> bool:
        """:meth:`PCMDevice.write_encoded` on row ``k``'s view.

        Folds the view's stats into the ``st_*`` arrays (also when the
        write raises :class:`SpareExhausted`); returns whether the write
        marked a new pair.
        """
        dev = self._views.get(k)
        if dev is None:
            dev = self._views[k] = self._build_view(k)
        try:
            dev.write_encoded(b, data_bits, t_now, states, check)
        finally:
            st = dev.stats
            s = self._s
            s.st_writes[k] += st.writes
            s.st_retries[k] += st.write_retries
            s.st_marks[k] += st.wearout_marks
            marked = st.wearout_marks > 0
            dev.stats = DeviceStats()
        return marked

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
            wearout=_scale_wearout(self.config, float(self._endurance_scale[k])),
            schedule=_scale_schedule(PAPER_ESCALATION, factor),
        )
        return PCMDevice.over_state(
            array, self._batch.codec, s.slc[k], s.written[k], s.marked[k]
        )


#: The fleet engine's public name (``SoaFleetEngine`` stays importable
#: under its own name for existing callers).
FleetEngine = SoaFleetEngine
