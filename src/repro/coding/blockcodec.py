"""Block-level codecs: the full 64-byte datapaths of Figure 9 / Table 3.

Two codecs assemble the paper's complete designs:

- :class:`ThreeOnTwoBlockCodec` — the proposed 3LC design: 512 data bits
  in 171 3-ON-2 pairs (342 cells) + 6 spare pairs (12 cells) for
  mark-and-spare, protected by BCH-1 over the 708-bit TEC view with its
  10 check bits in drift-immune SLC cells.  364 cells total,
  1.406 bits/cell (Section 6.5).  The design is implemented once, by the
  batch kernels of :mod:`repro.coding.batch`; this class is their
  one-block API (one-row encode/decode calls).
- :class:`FourLevelBlockCodec` — the optimized 4LC baseline: 512 data
  bits Gray-coded into 256 cells, BCH-10 (100 check bits in 50 cells,
  part of the codeword and therefore self-protected against drift), and
  ECP-6 for wearout.  ECP entries live in controller-visible metadata in
  this functional model (the paper's Figure 14 budget of 31 cells is
  what the capacity analysis counts); correction order follows Section
  6.6: TEC -> HEC -> symbol decode.

Both decoders report per-stage correction counts so benchmarks and the
device model can attribute errors.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.coding.batch import FAIL_NONE, FAIL_STAGES, batch_codec
from repro.coding.bch import BCH, BCHDecodeFailure
from repro.coding.gray import bits_to_states, states_to_bits
from repro.coding.smart import RotationSmartCode
from repro.wearout.ecp import ECPConfig, ECPTable, ecp_cells_mlc
from repro.wearout.mark_and_spare import MarkAndSpareBlock

__all__ = [
    "DecodedBlock",
    "ThreeOnTwoBlockCodec",
    "FourLevelBlockCodec",
    "UncorrectableBlock",
]


class UncorrectableBlock(Exception):
    """The block's error pattern exceeded the design's correction power."""


@dataclasses.dataclass(frozen=True)
class DecodedBlock:
    """Result of a block read: data plus per-stage diagnostics."""

    data_bits: np.ndarray
    tec_corrected: int  # transient (drift) errors corrected by the ECC
    hec_pairs_dropped: int  # INV pairs squeezed out (3-ON-2) / ECP hits (4LC)


class ThreeOnTwoBlockCodec:
    """The paper's full 3-ON-2 block design (Sections 6.1-6.5), one block.

    Geometry and both paths belong to the shared
    :func:`~repro.coding.batch.batch_codec` kernel of the geometry;
    :meth:`encode` and :meth:`decode` are one-row calls into it.
    """

    def __init__(self, data_bits: int = 512, n_spare_pairs: int = 6):
        self.kernel = batch_codec(data_bits, n_spare_pairs)
        self.data_bits = data_bits
        self.ms_config = self.kernel.ms_config
        self.tec = self.kernel.tec
        self.n_mlc_cells = self.kernel.n_mlc_cells
        self.n_slc_cells = self.kernel.n_slc_cells
        self.total_cells = self.n_mlc_cells + self.n_slc_cells

    @property
    def bits_per_cell(self) -> float:
        return self.data_bits / self.total_cells

    def new_block_state(self) -> MarkAndSpareBlock:
        """Controller-side wearout state for one block."""
        return MarkAndSpareBlock(self.ms_config)

    def encode(
        self, data_bits: np.ndarray, block: MarkAndSpareBlock | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Data bits -> ``(mlc_states, slc_check_bits)``, both uint8.

        ``block`` carries the marked-pair layout; omitted means a fresh
        (failure-free) block.
        """
        bits = np.asarray(data_bits)
        if bits.shape != (self.data_bits,):
            raise ValueError(f"expected {self.data_bits} bits, got {bits.shape}")
        # Explicit None check: a block state defining __bool__/__len__
        # (e.g. "no marks yet" ~ falsy) must never be silently replaced.
        marked = None if block is None else block.marked_mask[None, :]
        states, check = self.kernel.encode(bits[None, :], marked)
        return states[0], check[0]

    def decode(
        self,
        states: np.ndarray,
        slc_check_bits: np.ndarray,
    ) -> DecodedBlock:
        """Figure 9 read path: TEC -> mark-and-spare -> symbol decode."""
        s = np.asarray(states)
        if s.shape != (self.n_mlc_cells,):
            raise ValueError(f"expected {self.n_mlc_cells} states, got {s.shape}")
        check = np.asarray(slc_check_bits)
        if check.shape != (self.n_slc_cells,):
            raise ValueError(
                f"expected {self.n_slc_cells} check bits, got {check.shape}"
            )
        out = self.kernel.decode(s[None, :], check[None, :])
        stage = int(out.fail_stage[0])
        if stage != FAIL_NONE:
            raise UncorrectableBlock(FAIL_STAGES[stage][1])
        return DecodedBlock(
            data_bits=out.data_bits[0],
            tec_corrected=int(out.tec_corrected[0]),
            hec_pairs_dropped=int(out.hec_pairs_dropped[0]),
        )


class FourLevelBlockCodec:
    """The optimized 4LC block design (Section 6.6, Table 3 row 1)."""

    def __init__(
        self,
        data_bits: int = 512,
        t: int = 10,
        ecp_entries: int = 6,
        smart: RotationSmartCode | None = None,
    ):
        if data_bits % 2:
            raise ValueError("data bits must fill whole 2-bit cells")
        self.data_bits = data_bits
        self.n_data_cells = data_bits // 2
        self.tec = BCH(10, t, data_bits)
        if self.tec.n_check % 2:
            raise ValueError("check bits must fill whole 2-bit cells")
        self.n_check_cells = self.tec.n_check // 2
        self.n_codeword_cells = self.n_data_cells + self.n_check_cells
        # ECP points into the 256 data cells only (Figure 14: 8-bit
        # pointer, 5 cells per entry, 31 cells for ECP-6).  Wearout in
        # check cells is absorbed by the BCH-10 budget.
        self.ecp_config = ECPConfig(
            n_data_cells=self.n_data_cells, n_entries=ecp_entries
        )
        self.n_ecp_cells = ecp_cells_mlc(self.n_data_cells, ecp_entries)
        self.total_cells = self.n_codeword_cells + self.n_ecp_cells
        self.smart = smart

    @property
    def bits_per_cell(self) -> float:
        return self.data_bits / self.total_cells

    def new_block_state(self) -> ECPTable:
        return ECPTable(self.ecp_config)

    def encode(
        self, data_bits: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Data bits -> ``(cell_states, smart_tags)``.

        States cover the whole BCH codeword (data + check cells).  When a
        smart code is configured its rotation tags are returned for
        controller-side storage (in SLC, like the 3-ON-2 check bits).
        """
        bits = np.asarray(data_bits).astype(np.uint8)
        if bits.shape != (self.data_bits,):
            raise ValueError(f"expected {self.data_bits} bits, got {bits.shape}")
        # Smart rotation is applied before the ECC (symbol decoding is the
        # *last* read stage per Section 6.6, so the ECC protects the
        # rotated symbols).
        data_states = bits_to_states(bits, 2)
        tags = None
        if self.smart is not None:
            data_states, tags = self.smart.encode(data_states)
        msg_bits = states_to_bits(data_states, 2)
        codeword = self.tec.encode(msg_bits)
        check_states = bits_to_states(codeword[self.tec.k :], 2)
        return np.concatenate([data_states, check_states]), tags

    def decode(
        self,
        states: np.ndarray,
        ecp: ECPTable | None = None,
        smart_tags: np.ndarray | None = None,
    ) -> DecodedBlock:
        """Read path: ECP substitution -> TEC -> symbol (smart/Gray) decode.

        The paper orders TEC before HEC because HEC *information stored in
        drifting cells* must be corrected before use (Figure 9).  In this
        functional model the ECP table is controller-side metadata and is
        drift-free by construction, so applying the substitutions first is
        equivalent to the paper's order with protected ECP state — and
        spares the BCH budget from known-worn cells, exactly what a real
        controller does.  Symbol decoding (un-rotating the smart code) is
        the final stage, per Section 6.6.
        """
        s = np.asarray(states, dtype=np.int64)
        if s.shape != (self.n_codeword_cells,):
            raise ValueError(
                f"expected {self.n_codeword_cells} states, got {s.shape}"
            )
        n_hec = 0
        if ecp is not None and ecp.n_used:
            s = np.concatenate([ecp.apply(s[: self.n_data_cells]), s[self.n_data_cells :]])
            n_hec = ecp.n_used
        received = states_to_bits(s, 2)
        try:
            msg_bits, n_corrected = self.tec.decode(received)
        except BCHDecodeFailure as exc:
            raise UncorrectableBlock(f"TEC failure: {exc}") from exc
        data_states = bits_to_states(msg_bits, 2)
        if self.smart is not None:
            if smart_tags is None:
                raise ValueError("smart encoding requires tags at decode")
            data_states = self.smart.decode(data_states, smart_tags)
        bits = states_to_bits(data_states, 2)
        return DecodedBlock(
            data_bits=bits.astype(np.uint8),
            tec_corrected=n_corrected,
            hec_pairs_dropped=n_hec,
        )
