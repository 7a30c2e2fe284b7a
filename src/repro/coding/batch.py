"""The 3-ON-2 block codec (Figure 9): bit-packed kernels over N blocks.

:class:`BatchThreeOnTwoCodec` is the one implementation of the paper's
3LC write and read paths.  It owns the block geometry (3-ON-2 pairs,
mark-and-spare spares, BCH-1 over the TEC view, SLC check bits) and runs
encode/decode over ``(n_blocks, ...)`` arrays in a handful of NumPy
passes; the single-block API,
:class:`repro.coding.blockcodec.ThreeOnTwoBlockCodec`, is one-row calls
into the same kernels.

- **One remainder** — the TEC view's two bit planes (each cell's high
  bit, 1 iff S4, and low bit, 1 iff >= S2) are packed into ``uint64``
  words, so the BCH-1 remainder modulo the generator polynomial
  (:meth:`repro.coding.bch.BCH.position_remainders`) is one
  ``popcount(planes & mask) & 1`` broadcast over the ``n_check``
  precomputed parity masks.  Encode's check bits are that remainder in
  binary; decode XORs in the received check bits.
- **Zero-syndrome dispatch** — a received word is error-free iff its
  remainder is zero, and at datapath CERs almost every block is clean,
  so decode only touches the (rare) nonzero rows again.
- **t = 1 vectorized correction** — for BCH-1 the remainder *is* the
  syndrome ``S1 = alpha^deg`` of the single error, so a discrete-log
  table lookup yields every error position at once; no Berlekamp-Massey,
  no Chien search.
- **LUT symbol stages** — 3-ON-2 pair encode/decode, the invalid-"10"
  TEC-pattern screen, and mark-and-spare squeezing
  (:func:`repro.wearout.mark_and_spare.correct_values_batch`) are table
  gathers and stable sorts over integer arrays.

Decode returns structured outcome arrays (decoded bits, per-block
``tec_corrected`` / ``hec_pairs_dropped``, an ``uncorrectable`` mask with
the failing stage).  ``tests/codec_reference.py`` composes the paper's
scalar primitives (:mod:`repro.core.three_on_two`, the scalar
:class:`~repro.coding.bch.BCH`, :func:`~repro.wearout.mark_and_spare.
correct_values`) into a block-at-a-time reference, and the hypothesis
differentials plus a golden digest in ``tests/test_batch_datapath.py``
hold the kernels to it.

The empirical BLER engine (:mod:`repro.montecarlo.bler_mc`) drives these
kernels at ~1e6 blocks per run; ``benchmarks/test_perf_datapath_batch.py``
records one-block-API-vs-batch throughput in
``results/BENCH_datapath.json``.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.chaos.registry import fault_point
from repro.coding.bch import BCH
from repro.core.three_on_two import (
    BITS_PER_PAIR,
    INV_VALUE,
    INVALID_TEC_VALUE,
    TEC_VALUE_TO_STATE,
    pairs_needed,
)
from repro.wearout.mark_and_spare import MarkAndSpareConfig, correct_values_batch

__all__ = [
    "DATAPATH_VERSION",
    "FAIL_NONE",
    "FAIL_TEC",
    "FAIL_INVALID_PATTERN",
    "FAIL_HEC",
    "FAIL_STAGES",
    "BatchDecodedBlocks",
    "BatchThreeOnTwoCodec",
    "batch_codec",
]

#: Salt for persistent BLER-MC cache keys (alongside the executor's
#: ``ENGINE_VERSION``); bump on any change that alters what the batch
#: kernels compute from the same inputs.
DATAPATH_VERSION = 1

#: ``fail_stage`` codes of :class:`BatchDecodedBlocks`, in pipeline order.
FAIL_NONE = 0  #: decoded fine
FAIL_TEC = 1  #: BCH reported an uncorrectable pattern (Figure 9 stage 1)
FAIL_INVALID_PATTERN = 2  #: post-ECC "10" cell view: multi-error escape
FAIL_HEC = 3  #: more INV pairs than spares (mark-and-spare exhausted)

#: Each failing stage's ``(name, message)``: the name is what ``/metrics``
#: and service error payloads report, the message what a one-block decode
#: raises :class:`~repro.coding.blockcodec.UncorrectableBlock` with.
FAIL_STAGES = {
    FAIL_TEC: ("TEC", "TEC failure: BCH syndrome points outside the block"),
    FAIL_INVALID_PATTERN: (
        "INVALID_PATTERN",
        "invalid TEC cell pattern '10' after correction (multi-error escape)",
    ),
    FAIL_HEC: ("HEC", "HEC failure: more marked pairs than spare pairs"),
}

#: Rows per internal chunk of encode's remainder and of the whole decode
#: pipeline: large enough to amortize per-call numpy overhead, small
#: enough that a chunk's temporaries (the remainder's ``(12, 10, rows)``
#: word broadcast is ~3.9 MB at 4096 rows) stay bounded.  2048-8192 rows
#: decode 1e5 blocks at the same rate; 4096 has the lower peak memory.
_CHUNK = 4096


def _pack_planes(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Pack ``(rows, cells)`` high/low TEC bit planes into ``(words, rows)``.

    Each plane is zero-padded to whole 64-bit words, high plane first,
    and the result is word-major so that every later pass runs along
    contiguous rows.  The word layout (``np.packbits`` byte order viewed
    as native uint64) is a convention shared by the packed states and
    the parity masks: only AND + popcount ever looks inside a word, so
    endianness cancels out.
    """
    rows, cells = high.shape
    n_bytes = -(-cells // 8)
    buf = np.zeros((rows, 2, 8 * -(-cells // 64)), dtype=np.uint8)
    buf[:, 0, :n_bytes] = np.packbits(high, axis=1)
    buf[:, 1, :n_bytes] = np.packbits(low, axis=1)
    return np.ascontiguousarray(buf.reshape(rows, -1).view(np.uint64).T)


@dataclasses.dataclass(frozen=True)
class BatchDecodedBlocks:
    """Structured outcome of a batch Figure-9 read (see fail codes).

    Rows with ``uncorrectable`` set are the blocks the design cannot
    correct (a one-block decode raises
    :class:`~repro.coding.blockcodec.UncorrectableBlock` there); their
    ``data_bits`` content is unspecified.
    """

    data_bits: np.ndarray  # (n_blocks, data_bits) uint8
    tec_corrected: np.ndarray  # (n_blocks,) int64
    hec_pairs_dropped: np.ndarray  # (n_blocks,) int64
    uncorrectable: np.ndarray  # (n_blocks,) bool
    fail_stage: np.ndarray  # (n_blocks,) uint8 (FAIL_* codes)


class BatchThreeOnTwoCodec:
    """The paper's full 3-ON-2 block design (Sections 6.1-6.5), batched.

    ``data_bits`` bits fill ``ceil(data_bits / 3)`` 3-ON-2 pairs, followed
    by ``n_spare_pairs`` mark-and-spare spares; BCH-1 protects the TEC
    view of all those cells with its check bits in drift-immune SLC
    cells.  The defaults are the paper's 64B block: 171 + 6 pairs (354
    cells) and 10 check bits.
    """

    def __init__(self, data_bits: int = 512, n_spare_pairs: int = 6):
        self.data_bits = data_bits
        self.ms_config = MarkAndSpareConfig(
            n_data_pairs=pairs_needed(data_bits),
            n_spare_pairs=n_spare_pairs,
        )
        self.n_mlc_cells = self.ms_config.n_cells
        self.tec = BCH(10, 1, 2 * self.n_mlc_cells)
        self.n_slc_cells = self.tec.n_check
        self._n_pairs = self.ms_config.n_pairs
        self._padded_bits = self.ms_config.n_data_pairs * BITS_PER_PAIR
        code = self.tec
        remainders = code.position_remainders()
        # Check positions sit below the generator's degree, so their
        # remainder columns are exactly the powers of two: check bits,
        # most significant first, are the remainder in plain binary.
        self._check_shifts = np.arange(code.n_check - 1, -1, -1)
        self._check_powers = 1 << self._check_shifts
        # Parity masks of the GF(2) check matrix in remainder form, in
        # check-bit order: mask j selects the codeword positions whose
        # remainder has the bit of check bit j set.  Even positions hold
        # each cell's high TEC bit (1 iff S4), odd its low bit (1 iff
        # >= S2), so the masks split into the same two planes as the
        # packed states.
        cols = (remainders[None, : code.k] >> self._check_shifts[:, None]) & 1
        self._parity_masks = _pack_planes(cols[:, 0::2], cols[:, 1::2])[:, :, None]
        # For one error the remainder is S1 = alpha^deg itself, and
        # position i contributes remainder `remainders[i]`: inverting the
        # table once makes correction a single gather.  -1 marks
        # remainders that point outside the shortened word (detectably
        # uncorrectable: the scalar Chien search finds no root in range).
        self._t1_locate = np.full(1 << code.m, -1, dtype=np.int64)
        self._t1_locate[remainders] = np.arange(code.n)
        self._t1_locate[0] = -1  # zero is "no error", never a location

    def _remainders(self, states: np.ndarray) -> np.ndarray:
        """BCH-1 remainder of each row's TEC view, ``(rows,)`` int64.

        The remainder of the data part only (check bits excluded): all
        ``n_check`` parity bits come from one masked broadcast over the
        two packed state planes, chunked so its ``(words, n_check, rows)``
        temporary stays bounded.
        """
        rem = np.empty(states.shape[0], dtype=np.int64)
        for lo in range(0, states.shape[0], _CHUNK):
            s = states[lo : lo + _CHUNK]
            words = _pack_planes(s >> 1, s != 0)[:, None, :] & self._parity_masks
            # popcount(a) + popcount(b) has the parity of popcount(a ^ b):
            # fold the words first, then count once per check bit.
            parity = np.bitwise_count(np.bitwise_xor.reduce(words, axis=0)) & 1
            rem[lo : lo + _CHUNK] = self._check_powers @ parity
        return rem

    # ------------------------------------------------------------------
    def encode(
        self, data_bits: np.ndarray, marked: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Write path: ``(n_blocks, data_bits)`` -> states + check bits.

        ``marked`` is the ``(n_blocks, n_pairs)`` bool mark-and-spare
        layout (``None``: every block fresh).  Data values fill the
        unmarked pairs in order, marked pairs hold INV and unused spares
        value 0.  Returns ``(n_blocks, n_mlc_cells)`` uint8 states and
        ``(n_blocks, n_slc_cells)`` uint8 check bits.
        """
        bits = np.ascontiguousarray(data_bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] != self.data_bits:
            raise ValueError(
                f"expected (n_blocks, {self.data_bits}) bits, got {bits.shape}"
            )
        n_blocks = bits.shape[0]
        if marked is not None:
            if marked.shape != (n_blocks, self._n_pairs) or marked.dtype != bool:
                raise ValueError(
                    f"expected a ({n_blocks}, {self._n_pairs}) bool marked "
                    f"mask, got {marked.dtype} {marked.shape}"
                )
            if not marked.any():
                marked = None
        padded = np.zeros((n_blocks, self._padded_bits), dtype=np.uint8)
        padded[:, : bits.shape[1]] = bits
        values = (
            padded[:, 0::3] * 4 + padded[:, 1::3] * 2 + padded[:, 2::3]
        )
        physical = np.zeros((n_blocks, self._n_pairs), dtype=np.uint8)
        if marked is None:
            physical[:, : values.shape[1]] = values
        else:
            physical[marked] = INV_VALUE
            # Stable argsort: unmarked pair indices first, in order — the
            # data skip the marked pairs.
            order = np.argsort(marked, axis=1, kind="stable")
            np.put_along_axis(physical, order[:, : values.shape[1]], values, axis=1)
        states = np.empty((n_blocks, 2 * self._n_pairs), dtype=np.uint8)
        states[:, 0::2] = physical // 3
        states[:, 1::2] = physical % 3
        checks = (self._remainders(states)[:, None] >> self._check_shifts) & 1
        return states, checks.astype(np.uint8)

    # ------------------------------------------------------------------
    def decode(self, states: np.ndarray, slc_check_bits: np.ndarray) -> BatchDecodedBlocks:
        """Figure-9 read path: TEC -> mark-and-spare -> symbols.

        Stage failures become ``fail_stage`` codes instead of exceptions;
        the first failing stage wins.  The whole pipeline runs in the
        cell-state domain on ``uint8`` arrays; only rows with a nonzero
        BCH remainder (rare in a datapath read) are revisited to patch
        the corrected cell.
        """
        s = np.asarray(states)
        if s.ndim != 2 or s.shape[1] != self.n_mlc_cells:
            raise ValueError(
                f"expected (n_blocks, {self.n_mlc_cells}) states, got {s.shape}"
            )
        if s.dtype != np.uint8:
            if np.any((s < 0) | (s > 2)):
                raise ValueError("three-level state indices must be in [0, 2]")
            s = s.astype(np.uint8)
        elif np.any(s > 2):
            raise ValueError("three-level state indices must be in [0, 2]")
        checks = np.ascontiguousarray(slc_check_bits, dtype=np.uint8)
        if checks.ndim != 2 or checks.shape != (s.shape[0], self.n_slc_cells):
            raise ValueError(
                f"expected ({s.shape[0]}, {self.n_slc_cells}) check bits, "
                f"got {checks.shape}"
            )
        n_blocks = s.shape[0]
        fault_point("datapath.batch_decode", n_blocks=n_blocks)
        bits = np.empty((n_blocks, self._padded_bits), dtype=np.uint8)
        tec_corrected = np.zeros(n_blocks, dtype=np.int64)
        n_inv = np.empty(n_blocks, dtype=np.int64)
        fail = np.zeros(n_blocks, dtype=np.uint8)
        # Row-chunked pipeline: each chunk's inter-stage temporaries stay
        # cache-resident, which is worth ~1.7x over streaming the whole
        # batch through every stage (measured at 1e5 blocks).
        for lo in range(0, n_blocks, _CHUNK):
            hi = min(lo + _CHUNK, n_blocks)
            self._decode_chunk(
                s[lo:hi],
                checks[lo:hi],
                bits[lo:hi],
                tec_corrected[lo:hi],
                n_inv[lo:hi],
                fail[lo:hi],
            )
        return BatchDecodedBlocks(
            data_bits=bits[:, : self.data_bits],
            tec_corrected=tec_corrected,
            hec_pairs_dropped=n_inv,
            uncorrectable=fail != FAIL_NONE,
            fail_stage=fail,
        )

    def _decode_chunk(
        self,
        s: np.ndarray,
        checks: np.ndarray,
        bits: np.ndarray,
        tec_corrected: np.ndarray,
        n_inv: np.ndarray,
        fail: np.ndarray,
    ) -> None:
        """Decode one row chunk into preallocated output slices.

        Stage 1 — transient error correction over the 2-bit cell view.
        The remainder alone classifies every row (zero-syndrome
        dispatch) and is computed from two packed bit planes of the
        states, never materializing the (n_blocks, 708) codeword
        matrix; pair values are read straight off the *received*
        states and only nonzero-remainder rows are patched afterwards.
        """
        rem = self._remainders(s) ^ (checks.astype(np.int64) @ self._check_powers)
        pair_values = s[:, 0::2] * 3 + s[:, 1::2]
        dirty = np.nonzero(rem)[0]
        if dirty.size:
            self._patch_dirty(rem, dirty, s, pair_values, fail, tec_corrected)

        # Stage 2 — hard error correction (mark-and-spare squeeze).
        data_values, chunk_inv, exhausted = correct_values_batch(
            pair_values, self.ms_config
        )
        n_inv[:] = chunk_inv
        fail[(fail == FAIL_NONE) & exhausted] = FAIL_HEC

        # Stage 3 — symbol decoding to binary.
        bits[:, 0::3] = (data_values >> 2) & 1
        bits[:, 1::3] = (data_values >> 1) & 1
        bits[:, 2::3] = data_values & 1

    def _patch_dirty(
        self,
        rem: np.ndarray,
        dirty: np.ndarray,
        s: np.ndarray,
        pair_values: np.ndarray,
        fail: np.ndarray,
        tec_corrected: np.ndarray,
    ) -> None:
        """Apply BCH-1 corrections to the nonzero-remainder rows in place.

        Updates ``pair_values`` / ``fail`` / ``tec_corrected`` for the
        ``dirty`` rows so the stage-2 squeeze can stay on the all-rows
        fast path.  Also runs the post-ECC invalid-"10" screen: a single
        bit flip only ever touches one cell, so checking the corrected
        cell is exhaustive (received states cannot encode "10").
        """
        pos = self._t1_locate[rem[dirty]]
        bad = pos < 0
        fail[dirty[bad]] = FAIL_TEC
        good = dirty[~bad]
        gpos = pos[~bad]
        tec_corrected[good] = 1
        in_data = gpos < 2 * self.n_mlc_cells
        rows = good[in_data]
        p = gpos[in_data]  # flipped check bits never touch a cell
        cell = p // 2
        old = s[rows, cell].astype(np.int64)
        tec_val = old + (old == 2)  # states -> TEC values {0, 1, 3}
        tec_val ^= np.where(p % 2 == 0, 2, 1)  # flip high or low bit
        fail[rows[tec_val == INVALID_TEC_VALUE]] = FAIL_INVALID_PATTERN
        new_state = TEC_VALUE_TO_STATE[tec_val]
        even = cell % 2 == 0
        s_first = np.where(even, new_state, s[rows, cell - 1])
        s_second = np.where(even, s[rows, (cell + 1) % s.shape[1]], new_state)
        pair_values[rows, cell // 2] = (3 * s_first + s_second).astype(np.uint8)


@functools.lru_cache(maxsize=8)
def batch_codec(data_bits: int, n_spare_pairs: int) -> BatchThreeOnTwoCodec:
    """The process-wide codec for one block geometry.

    Building one precomputes the packed GF(2) parity masks and the
    discrete-log locator (a few hundred KB, identical for every caller
    of the geometry), so fleet shards, BLER-MC tasks in a pool worker,
    service devices and every :class:`ThreeOnTwoBlockCodec` of the
    geometry share this instance.
    """
    return BatchThreeOnTwoCodec(data_bits=data_bits, n_spare_pairs=n_spare_pairs)
