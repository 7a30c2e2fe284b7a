"""Block-at-a-time reference for the 3-ON-2 codec (Figure 9).

Composes the paper-level scalar primitives exactly as Section 6 reads:
data bits -> 3-ON-2 pair values (:mod:`repro.core.three_on_two`) ->
mark-and-spare layout -> cell states -> BCH-1 over the TEC view (the
scalar :class:`~repro.coding.bch.BCH`), and back through TEC ->
invalid-"10" screen -> :func:`~repro.wearout.mark_and_spare.
correct_values` -> bits.  The kernels of :mod:`repro.coding.batch` are
the program's only 3-ON-2 codec; tests hold them to this reference.
"""

from __future__ import annotations

import numpy as np

from repro.coding.batch import FAIL_HEC, FAIL_INVALID_PATTERN, FAIL_NONE, FAIL_TEC
from repro.coding.bch import BCH, BCHDecodeFailure
from repro.core import three_on_two as t32
from repro.wearout.mark_and_spare import (
    MarkAndSpareBlock,
    MarkAndSpareConfig,
    SpareExhausted,
    correct_values,
)


class ReferenceCodec:
    """The 3-ON-2 block design, one block at a time from scalar parts."""

    def __init__(self, data_bits: int = 512, n_spare_pairs: int = 6):
        self.data_bits = data_bits
        self.ms_config = MarkAndSpareConfig(t32.pairs_needed(data_bits), n_spare_pairs)
        self.n_mlc_cells = self.ms_config.n_cells
        self.tec = BCH(10, 1, 2 * self.n_mlc_cells)
        self.n_slc_cells = self.tec.n_check

    def new_block_state(self) -> MarkAndSpareBlock:
        return MarkAndSpareBlock(self.ms_config)

    def encode(self, bits: np.ndarray, block: MarkAndSpareBlock | None = None):
        """Data bits -> ``(states, check_bits)``; ``None`` is a fresh block."""
        if block is None:
            block = self.new_block_state()
        padded = np.zeros(self.ms_config.n_data_pairs * t32.BITS_PER_PAIR, dtype=np.uint8)
        padded[: self.data_bits] = bits
        states = t32.encode_values(block.layout(t32.bits_to_values(padded)))
        codeword = self.tec.encode(t32.states_to_tec_bits(states))
        return states, codeword[self.tec.k :]

    def decode(self, states: np.ndarray, check: np.ndarray):
        """-> ``(data_bits | None, tec_corrected, hec_pairs_dropped, fail_stage)``."""
        s = np.asarray(states, dtype=np.int64)
        received = np.concatenate([t32.states_to_tec_bits(s), check])
        try:
            tec_bits, n_corrected = self.tec.decode(received)
        except BCHDecodeFailure:
            return None, 0, 0, FAIL_TEC
        # No valid encoding holds the cell pattern "10": a surviving
        # correction that writes it is a detectable multi-error escape.
        grouped = tec_bits.reshape(-1, 2)
        if np.any((grouped[:, 0] == 1) & (grouped[:, 1] == 0)):
            return None, n_corrected, 0, FAIL_INVALID_PATTERN
        values = t32.decode_values(t32.tec_bits_to_states(tec_bits))
        n_inv = int(np.sum(values == t32.INV_VALUE))
        try:
            data_values = correct_values(values, self.ms_config)
        except SpareExhausted:
            return None, n_corrected, n_inv, FAIL_HEC
        bits = t32.values_to_bits(data_values)[: self.data_bits].astype(np.uint8)
        return bits, n_corrected, n_inv, FAIL_NONE
