"""Functional PCM device: blocks of drifting, wearing cells (Figure 9).

:class:`PCMDevice` ties together the cell physics (:class:`CellArray`),
the block codecs, and the controller-side wearout state, exposing the
block-level API the examples and integration tests drive:

- ``write(block, data, t)``  — encode, program with write-and-verify, and
  handle wearout failures (mark-and-spare for 3LC, ECP for 4LC);
- ``read(block, t)``         — sense, run the Figure-9 pipeline, return data;
- ``refresh(block, t)``      — read-correct-rewrite (Section 1);
- ``scrub(t)``               — refresh every block, as the refresh
  scheduler would over one interval.

Check bits of the 3LC design live in SLC cells; SLC is drift-immune in
the paper's model, so they are stored directly.  This is a *functional*
model (what data comes back); timing/energy belong to :mod:`repro.sim`.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Literal

import numpy as np

from repro.cells.cell_array import CellArray
from repro.cells.drift import PAPER_ESCALATION, TieredDrift
from repro.cells.faults import WearoutModel
from repro.coding.blockcodec import (
    DecodedBlock,
    FourLevelBlockCodec,
    ThreeOnTwoBlockCodec,
    UncorrectableBlock,
)
from repro.core.designs import four_level_optimal, three_level_optimal
from repro.core.levels import LevelDesign
from repro.montecarlo.rng import make_rng
from repro.wearout.mark_and_spare import SpareExhausted

__all__ = [
    "PCMDevice",
    "DeviceStats",
    "UncorrectableBlock",
    "SpareExhausted",
    "three_level_digest",
]


@dataclasses.dataclass
class DeviceStats:
    """Cumulative event counters of a device."""

    writes: int = 0
    reads: int = 0
    refreshes: int = 0
    tec_corrections: int = 0
    wearout_marks: int = 0
    write_retries: int = 0


def three_level_digest(
    cell_digest: str, slc: np.ndarray, written: np.ndarray, marked: np.ndarray
) -> str:
    """SHA-256 of a 3LC device's state, the format of
    :meth:`PCMDevice.state_digest`.

    ``cell_digest`` is the cell array's :meth:`CellArray.state_digest`,
    ``slc`` the ``(n_blocks, n_slc_cells)`` check bits, ``written`` the
    ``(n_blocks,)`` mask and ``marked`` the ``(n_blocks, n_pairs)``
    mark-and-spare layouts.  The fleet engine digests its devices' rows
    with it.
    """
    h = hashlib.sha256()
    h.update(cell_digest.encode("ascii"))
    for arr in (slc, written, marked):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class PCMDevice:
    """A small functional PCM device of ``n_blocks`` 64-byte blocks."""

    def __init__(
        self,
        n_blocks: int,
        cell_kind: Literal["3LC", "4LC"] = "3LC",
        design: LevelDesign | None = None,
        seed: int | np.random.Generator = 0,
        wearout: WearoutModel | None = None,
        schedule: TieredDrift = PAPER_ESCALATION,
        data_bits: int = 512,
        codec: ThreeOnTwoBlockCodec | None = None,
    ) -> None:
        if n_blocks < 1:
            raise ValueError("need at least one block")
        self.n_blocks = n_blocks
        self.cell_kind = cell_kind
        self.data_bits = data_bits
        rng = make_rng(seed)

        if cell_kind == "3LC":
            self.design = design or three_level_optimal()
            if codec is not None and codec.data_bits != data_bits:
                raise ValueError(
                    f"shared codec is for {codec.data_bits} data bits, "
                    f"device wants {data_bits}"
                )
            self.codec3 = codec or ThreeOnTwoBlockCodec(data_bits=data_bits)
            self.codec4 = None
            cells_per_block = self.codec3.n_mlc_cells
            self._block_state = [self.codec3.new_block_state() for _ in range(n_blocks)]
            self._slc = np.zeros((n_blocks, self.codec3.n_slc_cells), dtype=np.uint8)
        elif cell_kind == "4LC":
            if codec is not None:
                raise ValueError("shared 3-ON-2 codec only applies to 3LC devices")
            self.design = design or four_level_optimal()
            self.codec3 = None
            self.codec4 = FourLevelBlockCodec(data_bits=data_bits)
            cells_per_block = self.codec4.n_codeword_cells
            self._block_state = [self.codec4.new_block_state() for _ in range(n_blocks)]
            self._slc = None
        else:
            raise ValueError(f"unknown cell kind {cell_kind!r}")

        if self.design.n_levels != (3 if cell_kind == "3LC" else 4):
            raise ValueError("design level count does not match cell kind")
        self.cells_per_block = cells_per_block
        self.array = CellArray(
            n_blocks * cells_per_block,
            self.design,
            rng=rng,
            wearout=wearout,
            schedule=schedule,
        )
        self.stats = DeviceStats()
        self._written = np.zeros(n_blocks, dtype=bool)

    # ------------------------------------------------------------------
    def _cell_range(self, block: int) -> np.ndarray:
        if not 0 <= block < self.n_blocks:
            raise IndexError(f"block {block} out of range")
        base = block * self.cells_per_block
        return np.arange(base, base + self.cells_per_block)

    def block_state(self, block: int) -> object:
        """Controller-side wearout state (MarkAndSpareBlock or ECPTable)."""
        self._cell_range(block)  # bounds check
        return self._block_state[block]

    # ------------------------------------------------------------------
    def write(self, block: int, data_bits: np.ndarray, t_now: float) -> None:
        """Encode and program a block, tolerating wearout failures."""
        bits = np.asarray(data_bits).astype(np.uint8)
        if bits.shape != (self.data_bits,):
            raise ValueError(f"expected {self.data_bits} bits, got {bits.shape}")

        idx = self._cell_range(block)
        self.stats.writes += 1
        if self.cell_kind == "3LC":
            # Write-and-verify loop: every attempt encodes under the
            # block's current marked layout; each failed pair is marked
            # INV and the layout reshuffled around it, two spare cells
            # per failure.
            state = self._block_state[block]
            for _ in range(state.config.n_spare_pairs + 1):
                states, check = self.codec3.encode(bits, state)
                ok = self.array.program(idx, states, t_now)
                self._slc[block] = check
                bad = np.nonzero(~ok)[0]
                if bad.size == 0:
                    self._written[block] = True
                    return
                self.stats.write_retries += 1
                pair = int(bad[0]) // 2
                if not state.marked_mask[pair]:
                    state.mark(pair)  # raises SpareExhausted when out
                    self.stats.wearout_marks += 1
                # Force both cells of the marked pair toward S4 (INV).
                self.array.force_highest(idx[2 * pair : 2 * pair + 2], t_now)
            raise SpareExhausted(f"block {block}: wearout beyond spare budget")

        # 4LC path: ECP entries absorb failed cells.
        ecp = self._block_state[block]
        states, _tags = self.codec4.encode(bits)
        ok = self.array.program(idx, states, t_now)
        bad = np.nonzero(~ok)[0]
        for cell in bad:
            cell = int(cell)
            if cell >= self.codec4.n_data_cells:
                continue  # check-cell wearout is left to the BCH budget
            if ecp.covers(cell):
                ecp.update(cell, int(states[cell]))
            elif not ecp.allocate(cell, int(states[cell])):
                raise SpareExhausted(f"block {block}: ECP table full")
            else:
                self.stats.wearout_marks += 1
        # Refresh replacement values of previously covered cells.
        for pointer, _ in list(getattr(ecp, "_entries", [])):
            ecp.update(pointer, int(states[pointer]))
        self._written[block] = True

    # ------------------------------------------------------------------
    def written_mask(self) -> np.ndarray:
        """Which blocks hold data (have completed at least one write)."""
        return self._written.copy()

    def check_bits(self, block: int) -> np.ndarray:
        """The block's SLC-stored check bits (3LC only)."""
        if self._slc is None:
            raise ValueError("4LC blocks keep no SLC check bits")
        return self._slc[block].copy()

    def state_digest(self) -> str:
        """SHA-256 over the device's full simulated state.

        Covers the cell array (resistances, drift exponents, wear,
        faults), the SLC check bits, the written mask, and the
        controller-side wearout layout — everything that determines
        future reads.  Differential suites compare digests to prove two
        execution strategies left bit-identical devices.
        """
        if self._slc is not None:  # 3LC: mark-and-spare layouts
            marked = np.array([st.marked_mask for st in self._block_state])
            return three_level_digest(
                self.array.state_digest(), self._slc, self._written, marked
            )
        h = hashlib.sha256()
        h.update(self.array.state_digest().encode("ascii"))
        h.update(np.ascontiguousarray(self._written).tobytes())
        for st in self._block_state:  # 4LC: ECP tables
            entries = [[int(p), int(v)] for p, v in getattr(st, "_entries", [])]
            h.update(repr(entries).encode("ascii"))
        return h.hexdigest()

    # ------------------------------------------------------------------
    def read(self, block: int, t_now: float) -> DecodedBlock:
        """Sense and decode a block through the Figure-9 pipeline."""
        if not self._written[block]:
            raise ValueError(f"block {block} was never written")
        idx = self._cell_range(block)
        sensed = self.array.sense(t_now, idx)
        self.stats.reads += 1
        if self.cell_kind == "3LC":
            out = self.codec3.decode(sensed, self._slc[block])
        else:
            out = self.codec4.decode(sensed, ecp=self._block_state[block])
        self.stats.tec_corrections += out.tec_corrected
        return out

    def refresh(self, block: int, t_now: float) -> DecodedBlock:
        """Read-correct-rewrite: restores nominal resistance (Section 1)."""
        out = self.read(block, t_now)
        self.write(block, out.data_bits, t_now)
        self.stats.refreshes += 1
        self.stats.writes -= 1  # count as refresh, not demand write
        return out

    def scrub(self, t_now: float) -> int:
        """Refresh every written block; returns blocks refreshed."""
        n = 0
        for b in range(self.n_blocks):
            if self._written[b]:
                self.refresh(b, t_now)
                n += 1
        return n
