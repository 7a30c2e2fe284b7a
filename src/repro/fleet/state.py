"""Structure-of-arrays state for the vectorized fleet engine.

One :class:`SoaFleetState` holds everything ``n`` devices' worth of
:class:`~repro.core.device.PCMDevice` state would hold, laid out as flat
arrays with the device as the leading axis: per-cell physics as
``(n, n_blocks * cells_per_block)``, per-block controller state as
``(n, n_blocks, ...)``.  Dtypes mirror :class:`~repro.cells.cell_array.CellArray`
field-for-field: a device's digest hashes the raw bytes of its rows in
:meth:`CellArray.state_digest`'s format, so an ``int8`` where
``CellArray`` keeps ``int64`` would already break the bit-identity
contract.

The container is deliberately dumb: all epoch semantics live in
:class:`repro.fleet.soa.SoaFleetEngine`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SoaFleetState", "alive_indices"]


def alive_indices(mask: np.ndarray) -> np.ndarray:
    """Indices of set entries of a boolean mask, ascending.

    The one helper the fleet engine (and the summary layer) uses to
    turn an alive/survivor mask into an iteration order, instead of
    per-call Python list comprehensions over ``range(n)``.
    """
    return np.flatnonzero(mask)


class SoaFleetState:
    """Flat per-device arrays for a population of 3LC PCM devices."""

    def __init__(
        self,
        n_devices: int,
        n_blocks: int,
        cells_per_block: int,
        n_slc: int,
        n_pairs: int,
        data_bits: int,
    ) -> None:
        n = int(n_devices)
        nc = int(n_blocks) * int(cells_per_block)
        self.n_devices = n
        self.n_blocks = int(n_blocks)
        self.cells_per_block = int(cells_per_block)

        # Per-cell physics state; one row per device, CellArray dtypes.
        self.lr0 = np.zeros((n, nc))
        self.alpha = np.zeros((n, nc))
        self.alpha_esc = np.zeros((n, nc))
        self.t_prog = np.zeros((n, nc))
        self.target = np.zeros((n, nc), dtype=np.int64)
        self.writes = np.zeros((n, nc), dtype=np.int64)
        self.endurance = np.zeros((n, nc))
        self.fault = np.zeros((n, nc), dtype=np.int8)
        self.pending_mode = np.zeros((n, nc), dtype=np.int8)

        # Per-block controller state.
        self.slc = np.zeros((n, n_blocks, n_slc), dtype=np.uint8)
        self.written = np.zeros((n, n_blocks), dtype=bool)
        self.marked = np.zeros((n, n_blocks, n_pairs), dtype=bool)
        #: last data written per (device, block) — silent-error oracle.
        self.stored = np.zeros((n, n_blocks, data_bits), dtype=np.uint8)

        # Per-device cumulative stats (DeviceStats columns; ``refreshes``
        # stays zero in the fleet path, which counts refreshes per epoch).
        self.st_writes = np.zeros(n, dtype=np.int64)
        self.st_reads = np.zeros(n, dtype=np.int64)
        self.st_tec = np.zeros(n, dtype=np.int64)
        self.st_marks = np.zeros(n, dtype=np.int64)
        self.st_retries = np.zeros(n, dtype=np.int64)

        # (n, n_blocks, cells_per_block) views of the per-cell arrays,
        # for scatter/gather addressed by (device, block).
        shape3 = (n, int(n_blocks), int(cells_per_block))
        self.lr0_3 = self.lr0.reshape(shape3)
        self.alpha_3 = self.alpha.reshape(shape3)
        self.alpha_esc_3 = self.alpha_esc.reshape(shape3)
        self.t_prog_3 = self.t_prog.reshape(shape3)
        self.target_3 = self.target.reshape(shape3)
        self.writes_3 = self.writes.reshape(shape3)
        self.endurance_3 = self.endurance.reshape(shape3)
        self.fault_3 = self.fault.reshape(shape3)
        self.pending_mode_3 = self.pending_mode.reshape(shape3)

    @property
    def cells(self) -> tuple[np.ndarray, ...]:
        """The nine per-cell arrays, in :meth:`CellArray.over_state` order."""
        return (
            self.lr0,
            self.alpha,
            self.alpha_esc,
            self.t_prog,
            self.target,
            self.writes,
            self.endurance,
            self.fault,
            self.pending_mode,
        )

    @property
    def nbytes(self) -> int:
        """Total bytes held by the population arrays (views excluded)."""
        rest = (
            self.slc,
            self.written,
            self.marked,
            self.stored,
            self.st_writes,
            self.st_reads,
            self.st_tec,
            self.st_marks,
            self.st_retries,
        )
        return sum(a.nbytes for a in self.cells + rest)
