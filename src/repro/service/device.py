"""Virtual-time PCM device engine behind the service endpoints.

Each :class:`VirtualDevice` is a persistent simulated MLC-PCM device:
``n_blocks`` 3-ON-2 blocks of drifting cells (the paper's 354-cell
Figure-9 geometry by default), a per-device :class:`VirtualClock` that
only advances by explicit request, accumulated mark-and-spare wear, and
cumulative request statistics.

The cells, SLC check bits, written mask and mark-and-spare layouts live
in a one-device :class:`~repro.fleet.state.SoaFleetState`, block ``b``
at cells ``[b * n_cells, (b + 1) * n_cells)``.  Writes run the fleet's
programming kernel :func:`~repro.fleet.soa.program_rounds` on one row,
and reads sense through
:meth:`~repro.fleet.state.SoaFleetState.log_resistance`, as the fleet's
scrub does.  This class adds only addressing, validation, the virtual
clock, per-block write epochs, request statistics and error codes.
Reads of many blocks sense as one vectorized pass and decode through
the shared :class:`~repro.coding.batch.BatchThreeOnTwoCodec`.

**Determinism contract.**  Device state after any request history is a
pure function of ``(device seed, the ordered per-block request
sequence, the virtual timestamps)`` — *not* of wall-clock time, request
interleaving across blocks, or how the dynamic batcher happened to
group requests.  Three mechanisms enforce this:

- every write draws from a private generator addressed by
  ``(seed, SERVICE_SPAWN_KEY, block, epoch)`` via
  :func:`repro.montecarlo.rng.block_rng`, where ``epoch`` counts writes
  to that block — so the draws a write makes (program noise for its
  healthy cells, revival of stuck-set cells in marked pairs) depend on
  that block's history only;
- endurance budgets and failure modes are sampled once at device
  creation from their own spawn keys;
- virtual timestamps are bound at request *submission*, before the
  batcher reorders anything.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from typing import Iterator

import numpy as np

from repro.cells.faults import FaultMode, WearoutModel
from repro.coding.batch import batch_codec
from repro.core.designs import three_level_optimal
from repro.fleet.soa import program_rounds
from repro.fleet.state import SoaFleetState
from repro.montecarlo.rng import block_rng
from repro.service.clock import VirtualClock
from repro.service.codes import ServiceError
from repro.wearout.mark_and_spare import SpareExhausted

__all__ = [
    "MAX_DEVICE_STATE_BYTES",
    "SERVICE_SPAWN_KEY",
    "DeviceRegistry",
    "VirtualDevice",
    "VirtualDeviceStats",
]

#: Root of the service's SeedSequence spawn-key domain.  Distinct from
#: the MC executor's block fan-out and the chaos stream, so service
#: traffic can never perturb (or be perturbed by) simulation RNG.
SERVICE_SPAWN_KEY = 0x5EC0

#: Sub-domains under :data:`SERVICE_SPAWN_KEY`.
_KEY_ENDURANCE = 0
_KEY_MODES = 1
_KEY_WRITE = 2

#: Largest simulation state one device may hold, in bytes: its
#: :class:`~repro.fleet.state.SoaFleetState` plus the per-block write
#: epochs.  A block of the default geometry holds ~20.9 KB, so this
#: admits ~12,800 blocks; a larger device is refused with
#: ``E_DEVICE_TOO_LARGE`` before anything is allocated, so one request
#: cannot ask for gigabytes.
MAX_DEVICE_STATE_BYTES = 256 * 2**20

_HEALTHY = FaultMode.HEALTHY.value
#: A write's one row: device row 0, at the design's own drift.
_ROW = np.zeros(1, dtype=np.int64)
_UNSCALED = np.ones(1)


@dataclasses.dataclass
class VirtualDeviceStats:
    """Cumulative request counters of one device."""

    writes: int = 0
    reads: int = 0
    write_retries: int = 0
    wearout_marks: int = 0
    tec_corrections: int = 0
    hec_pairs_dropped: int = 0
    uncorrectable_reads: int = 0
    spare_exhausted_writes: int = 0

    def snapshot(self) -> dict:
        return dataclasses.asdict(self)


class VirtualDevice:
    """One simulated PCM device with virtual-time drift and wear."""

    def __init__(
        self,
        device_id: str,
        seed: int,
        n_blocks: int,
        *,
        data_bits: int = 512,
        n_spare_pairs: int = 6,
        wearout: WearoutModel | None = None,
    ):
        if n_blocks < 1:
            raise ServiceError("E_BAD_REQUEST", "need at least one block")
        self.device_id = device_id
        self.seed = int(seed)
        self.n_blocks = int(n_blocks)
        self.data_bits = int(data_bits)
        self.n_spare_pairs = int(n_spare_pairs)
        self.codec = codec = batch_codec(self.data_bits, self.n_spare_pairs)
        # The state is linear in n_blocks: size one block, then scale.
        block_bytes = SoaFleetState(
            1, 1, codec.n_mlc_cells, codec.n_slc_cells, codec.ms_config.n_pairs
        ).nbytes + np.dtype(np.int64).itemsize
        state_bytes = self.n_blocks * block_bytes
        if state_bytes > MAX_DEVICE_STATE_BYTES:
            raise ServiceError(
                "E_DEVICE_TOO_LARGE",
                f"{self.n_blocks} blocks need {state_bytes} bytes of device state; "
                f"the limit is {MAX_DEVICE_STATE_BYTES}",
                {
                    "n_blocks": self.n_blocks,
                    "state_bytes": state_bytes,
                    "max_state_bytes": MAX_DEVICE_STATE_BYTES,
                },
            )
        self.clock = VirtualClock()
        self.stats = VirtualDeviceStats()

        self.n_cells = codec.n_mlc_cells
        self.n_slc_cells = codec.n_slc_cells
        self.design = three_level_optimal()
        self._wearout = wearout or WearoutModel()
        #: The device's cells and controller state, as device row 0.
        self.state = s = SoaFleetState(
            1,
            self.n_blocks,
            self.n_cells,
            self.n_slc_cells,
            codec.ms_config.n_pairs,
        )
        n = self.n_blocks * self.n_cells
        s.lr0[:] = self.design.states[0].mu_lr
        s.endurance[0] = self._wearout.sample_endurance(
            block_rng(self.seed, (SERVICE_SPAWN_KEY, _KEY_ENDURANCE)), n
        )
        s.pending_mode[0] = self._wearout.sample_modes(
            block_rng(self.seed, (SERVICE_SPAWN_KEY, _KEY_MODES)), n
        )
        self._epoch = np.zeros(self.n_blocks, dtype=np.int64)

    # -- validation ----------------------------------------------------
    def check_block(self, block: int) -> int:
        block = int(block)
        if not 0 <= block < self.n_blocks:
            raise ServiceError(
                "E_BLOCK_RANGE",
                f"block {block} outside device range [0, {self.n_blocks})",
                {"device": self.device_id, "n_blocks": self.n_blocks},
            )
        return block

    def bind_time(self, t: float | None) -> float:
        """Resolve a request's virtual timestamp at submission time.

        ``None`` means "now" on the device clock; explicit timestamps
        must not be behind the clock (drift cannot rewind).
        """
        now = self.clock.now()
        if t is None:
            return now
        t = float(t)
        if not np.isfinite(t) or t < 0.0:
            raise ServiceError("E_BAD_REQUEST", f"virtual time must be finite >= 0, got {t}")
        if t < now:
            raise ServiceError(
                "E_TIME_REGRESSION",
                f"t={t} is behind the device clock ({now})",
                {"device": self.device_id, "virtual_time": now},
            )
        return t

    # -- write path ----------------------------------------------------
    def write_block(self, block: int, bits: np.ndarray, t: float) -> dict:
        """Encode + program one block with write-and-verify at time ``t``.

        Runs :func:`~repro.fleet.soa.program_rounds` on the block under
        the write's own generator.  Raises
        :class:`~repro.wearout.mark_and_spare.SpareExhausted` when wear
        outruns the spare budget; the block is then unreadable until a
        later write succeeds.
        """
        block = self.check_block(block)
        bits = np.asarray(bits).astype(np.uint8)
        if bits.shape != (self.data_bits,):
            raise ValueError(f"expected {self.data_bits} bits, got {bits.shape}")
        epoch = int(self._epoch[block])
        self._epoch[block] = epoch + 1
        rng = block_rng(self.seed, (SERVICE_SPAWN_KEY, _KEY_WRITE, block, epoch))
        out = program_rounds(
            self.state,
            self.codec,
            self.design,
            _ROW,
            np.array([block]),
            bits[None],
            [rng],
            [self._wearout],
            _UNSCALED,
            t,
        )
        retries = int(out.retries[0])
        self.stats.writes += 1
        self.stats.write_retries += retries
        self.stats.wearout_marks += int(out.marks[0])
        if not out.done[0]:
            self.state.written[0, block] = False
            self.stats.spare_exhausted_writes += 1
            raise SpareExhausted(
                f"all {self.n_spare_pairs} spares already consumed"
                if out.spent[0]
                else f"block {block}: wearout beyond spare budget"
            )
        return {
            "code": "OK",
            "block": block,
            "t": t,
            "epoch": epoch,
            "retries": retries,
            "marked_pairs": int(self.state.marked[0, block].sum()),
        }

    # -- read path -----------------------------------------------------
    def sense_rows(self, blocks: np.ndarray, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Sensed cell states + SLC check bits for a batch of reads.

        Row ``i`` is block ``blocks[i]`` sensed at virtual time ``ts[i]``.
        """
        blocks = np.asarray(blocks, dtype=np.int64)
        ts = np.asarray(ts, dtype=float)
        lr = self.state.log_resistance(ts[:, None], (0, blocks), self.design)
        return self.design.sense(lr).astype(np.uint8), self.state.slc[0, blocks]

    def require_written(self, block: int) -> None:
        if not bool(self.state.written[0, block]):
            raise ServiceError(
                "E_BLOCK_NOT_WRITTEN",
                f"block {block} was never written (or its last write failed)",
                {"device": self.device_id, "block": block},
            )

    # -- introspection -------------------------------------------------
    def describe(self) -> dict:
        marks = self.state.marked[0].sum(axis=1)
        return {
            "id": self.device_id,
            "seed": self.seed,
            "n_blocks": self.n_blocks,
            "data_bits": self.data_bits,
            "n_spare_pairs": self.n_spare_pairs,
            "cells_per_block": self.n_cells,
            "slc_cells_per_block": self.n_slc_cells,
            "virtual_time": self.clock.now(),
            "blocks_written": int(self.state.written.sum()),
            "wear": {
                "marked_pairs_total": int(marks.sum()),
                "marked_pairs_max": int(marks.max()),
                "blocks_at_budget": int((marks >= self.n_spare_pairs).sum()),
                "stuck_cells": int((self.state.fault != _HEALTHY).sum()),
            },
            "stats": self.stats.snapshot(),
        }

    def state_digest(self) -> str:
        """SHA-256 over the full simulated state, for differential checks.

        Covers the device row's digest
        (:meth:`~repro.fleet.state.SoaFleetState.device_digest`: cells,
        check bits, written mask, marks), the per-block write epochs and
        the clock.
        Two devices that served bit-identical request histories (in any
        batching arrangement) must produce equal digests; the
        bench/CI cross-check is built on this.
        """
        h = hashlib.sha256()
        h.update(self.state.device_digest(0).encode("ascii"))
        h.update(np.ascontiguousarray(self._epoch).tobytes())
        h.update(np.float64(self.clock.now()).tobytes())
        return h.hexdigest()


class DeviceRegistry:
    """Id-addressed collection of live devices.

    The service app touches every registered device's simulation state
    only from the event-loop thread (batches and control handlers
    alike), so per-device state needs no lock.  The registry keeps its
    own lock so that it stays safe to share with other threads: the app
    runs :meth:`create` on a worker thread.
    """

    def __init__(self) -> None:
        self._devices: dict[str, VirtualDevice] = {}
        self._next = 1
        self._lock = threading.Lock()

    def create(
        self,
        seed: int,
        n_blocks: int,
        *,
        data_bits: int = 512,
        n_spare_pairs: int = 6,
        wearout: WearoutModel | None = None,
    ) -> VirtualDevice:
        """Build a device, then register it under the next id.

        The build runs outside the lock and may run on any thread: the
        device is private until it is registered.  It takes its id only
        then, so ids stay sequential and a refused device uses none.
        """
        device = VirtualDevice(
            "",
            seed,
            n_blocks,
            data_bits=data_bits,
            n_spare_pairs=n_spare_pairs,
            wearout=wearout,
        )
        with self._lock:
            device.device_id = f"dev-{self._next:04d}"
            self._next += 1
            self._devices[device.device_id] = device
        return device

    def get(self, device_id: str) -> VirtualDevice:
        with self._lock:
            device = self._devices.get(device_id)
        if device is None:
            raise ServiceError(
                "E_DEVICE_NOT_FOUND", f"no device {device_id!r}", {"device": device_id}
            )
        return device

    def delete(self, device_id: str) -> None:
        with self._lock:
            if device_id not in self._devices:
                raise ServiceError(
                    "E_DEVICE_NOT_FOUND", f"no device {device_id!r}", {"device": device_id}
                )
            del self._devices[device_id]

    def __iter__(self) -> Iterator[VirtualDevice]:
        with self._lock:
            devices = list(self._devices.values())
        return iter(devices)

    def __len__(self) -> int:
        with self._lock:
            return len(self._devices)
