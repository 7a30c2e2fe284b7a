"""Structure-of-arrays state for the vectorized fleet engine.

One :class:`SoaFleetState` holds everything ``n`` 3LC devices' worth of
scalar-reference state (:mod:`repro.core.device`) would hold, laid out
as flat arrays with the device as the leading axis: per-cell physics as
``(n, n_blocks * cells_per_block)``, per-block controller state as
``(n, n_blocks, ...)``.  Dtypes mirror the reference cell array
(:mod:`repro.cells.cell_array`) field-for-field: a device's digest
hashes the raw bytes of its rows in
:func:`~repro.cells.cell_array.cell_state_digest`'s format, so an
``int8`` where the reference keeps ``int64`` would already break the
bit-identity contract.

The container is deliberately dumb: it reads a device's digest and
senses blocks, and all write semantics live in
:func:`repro.fleet.soa.program_rounds`, which addresses cells through
two views of the per-cell arrays: :attr:`SoaFleetState.by_block`, one
row per ``(device, block)``, and :attr:`SoaFleetState.by_cell`, one
flat index per cell.
The fleet engine holds its population in one; the service's
:class:`~repro.service.device.VirtualDevice` holds its device as a
one-row one.  It holds only the state both keep: the fleet's payload
oracle and per-device stats live on the fleet engine.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.cells.cell_array import cell_state_digest, sensed_log_resistance
from repro.cells.drift import PAPER_ESCALATION
from repro.core.device import three_level_digest
from repro.core.levels import LevelDesign

__all__ = ["CellArrays", "SoaFleetState", "alive_indices"]


class CellArrays(NamedTuple):
    """The nine per-cell arrays (or views of them), in
    :func:`cell_state_digest` order."""

    lr0: np.ndarray
    alpha: np.ndarray
    alpha_esc: np.ndarray
    t_prog: np.ndarray
    target: np.ndarray
    writes: np.ndarray
    endurance: np.ndarray
    fault: np.ndarray
    pending_mode: np.ndarray


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
    ) -> None:
        n = int(n_devices)
        nc = int(n_blocks) * int(cells_per_block)
        self.n_devices = n
        self.n_blocks = int(n_blocks)
        self.cells_per_block = int(cells_per_block)

        # Per-cell physics state; one row per device, reference dtypes.
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

        #: The per-cell arrays, one row per device.
        self.cells = CellArrays(
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
        # Block rows: row ``d * n_blocks + b`` is block ``b`` of device
        # ``d``, and cell ``c`` of it is flat cell ``row * cells_per_block
        # + c``, so one index gathers and scatters whole blocks or cells.
        n_rows = n * self.n_blocks
        #: ``(n_devices * n_blocks, cells_per_block)`` views of the cells.
        self.by_block = CellArrays(
            *(a.reshape(n_rows, self.cells_per_block) for a in self.cells)
        )
        #: Flat views of the cells.
        self.by_cell = CellArrays(*(a.reshape(-1) for a in self.cells))
        # The per-block controller state, one row per block row.
        self.slc_b = self.slc.reshape(n_rows, n_slc)
        self.written_b = self.written.reshape(n_rows)
        self.marked_b = self.marked.reshape(n_rows, n_pairs)

    def device_digest(self, k: int) -> str:
        """The reference device's state digest of device row ``k``:
        :func:`~repro.core.device.three_level_digest` over its rows."""
        cells = cell_state_digest(tuple(a[k] for a in self.cells))
        return three_level_digest(cells, self.slc[k], self.written[k], self.marked[k])

    def log_resistance(
        self, t_now: float | np.ndarray, rows: tuple, design: LevelDesign
    ) -> np.ndarray:
        """The log10 resistance a sense at ``t_now`` measures in the
        blocks ``rows`` (a ``(device, block)`` index pair), one row of
        cells per block: :func:`sensed_log_resistance` under the paper's
        escalation."""
        v = self.by_block
        blk = rows[0] * self.n_blocks + rows[1]
        return sensed_log_resistance(
            t_now,
            v.t_prog[blk],
            v.lr0[blk],
            v.alpha[blk],
            v.alpha_esc[blk],
            v.fault[blk],
            design,
            PAPER_ESCALATION,
        )

    @property
    def nbytes(self) -> int:
        """Total bytes held by the population arrays (views excluded)."""
        rest = (self.slc, self.written, self.marked)
        return sum(a.nbytes for a in self.cells + rest)
