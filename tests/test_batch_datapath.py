"""The 3-ON-2 batch kernels against the block-at-a-time reference.

:mod:`repro.coding.batch` is the program's one 3-ON-2 codec (the
one-block :class:`ThreeOnTwoBlockCodec` is one-row calls into it).
These tests hold it *bit-identical* to :mod:`tests.codec_reference`,
which composes the paper's scalar primitives — including which blocks
fail, at which stage, and what silently miscorrects — across random
error patterns, marked-pair layouts, spare exhaustion, multi-error
escapes and chunk boundaries, and pin both to a golden digest so the
two cannot drift together.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cells.faults import WearoutModel
from repro.coding.batch import (
    FAIL_HEC,
    FAIL_INVALID_PATTERN,
    FAIL_NONE,
    FAIL_STAGES,
    FAIL_TEC,
    BatchThreeOnTwoCodec,
    _CHUNK,
)
from repro.coding.bch import BCH, BCHDecodeFailure
from repro.coding.blockcodec import ThreeOnTwoBlockCodec, UncorrectableBlock
from repro.core import three_on_two as t32
from repro.core.device import PCMDevice, SpareExhausted
from repro.service.codes import code_for_fail_stage
from tests.codec_reference import ReferenceCodec


@pytest.fixture(scope="module")
def codec():
    return ReferenceCodec()


@pytest.fixture(scope="module")
def batch():
    return BatchThreeOnTwoCodec()


def scalar_reference(codec, states, checks):
    """Loop the reference codec into the batch outcome arrays."""
    n, data_bits = states.shape[0], codec.data_bits
    data = np.zeros((n, data_bits), dtype=np.uint8)
    tec = np.zeros(n, dtype=np.int64)
    inv = np.zeros(n, dtype=np.int64)
    fail = np.zeros(n, dtype=np.uint8)
    for i in range(n):
        bits, tec[i], inv[i], fail[i] = codec.decode(states[i], checks[i])
        if bits is not None:
            data[i] = bits
    return data, tec, inv, fail


def assert_matches_scalar(codec, batch, states, checks):
    """The batch decode must agree with the reference loop row for row."""
    got = batch.decode(states, checks)
    data, tec, inv, fail = scalar_reference(codec, states, checks)
    ok = fail == FAIL_NONE
    assert np.array_equal(got.fail_stage, fail)
    assert np.array_equal(got.uncorrectable, ~ok)
    assert np.array_equal(got.data_bits[ok], data[ok])
    assert np.array_equal(got.tec_corrected[ok], tec[ok])
    assert np.array_equal(got.hec_pairs_dropped[ok], inv[ok])
    return got


def encode_blocks(codec, rng, n_blocks, blocks=None):
    data = rng.integers(0, 2, size=(n_blocks, codec.data_bits), dtype=np.uint8)
    states = np.empty((n_blocks, codec.n_mlc_cells), dtype=np.uint8)
    checks = np.empty((n_blocks, codec.n_slc_cells), dtype=np.uint8)
    for i in range(n_blocks):
        s, c = codec.encode(data[i], None if blocks is None else blocks[i])
        states[i], checks[i] = s, c
    return data, states, checks


def marked_mask(blocks):
    """``(n_blocks, n_pairs)`` bool layouts of mark-and-spare block states."""
    return np.array([blk.marked_mask for blk in blocks])


class TestBatchBCH:
    """The codec's BCH-1 remainder and t = 1 locator agree with the scalar code."""

    def test_encode_matches_scalar(self, batch):
        """Check bits == the scalar BCH encode of the states' TEC view."""
        rng = np.random.default_rng(2)
        data = rng.integers(0, 2, size=(17, batch.data_bits), dtype=np.uint8)
        states, checks = batch.encode(data)
        scalar, k = batch.tec, batch.tec.k
        for i in range(data.shape[0]):
            tec_view = t32.states_to_tec_bits(states[i])
            assert np.array_equal(checks[i], scalar.encode(tec_view)[k:])

    @pytest.mark.parametrize("n_err", [0, 1, 2, 3])
    def test_decode_matches_scalar(self, batch, n_err):
        """Locating by remainder == the scalar Berlekamp-Massey + Chien."""
        scalar = batch.tec
        rng = np.random.default_rng(3 + n_err)
        data = rng.integers(0, 2, size=(40, scalar.k), dtype=np.uint8)
        received = np.array([scalar.encode(row) for row in data])
        table = scalar.position_remainders()
        for row in received:
            flips = rng.choice(scalar.n, n_err, replace=False)
            row[flips] ^= 1
            rem = int(np.bitwise_xor.reduce(table[flips])) if n_err else 0
            try:
                want, n = scalar.decode(row)
            except BCHDecodeFailure:
                assert rem and batch._t1_locate[rem] == -1
                continue
            fixed = row.copy()
            if rem:
                pos = batch._t1_locate[rem]
                assert pos >= 0
                fixed[pos] ^= 1
            assert np.array_equal(fixed[: scalar.k], want)
            assert n == (1 if rem else 0)

    def test_shape_validation(self, batch):
        """Encode and decode keep their shapes and dtypes down to zero rows."""
        for n in (0, 1, 3):
            data = np.zeros((n, batch.data_bits), dtype=np.uint8)
            states, checks = batch.encode(data)
            assert states.shape == (n, batch.n_mlc_cells) and states.dtype == np.uint8
            assert checks.shape == (n, batch.n_slc_cells) and checks.dtype == np.uint8
            out = batch.decode(states, checks)
            assert out.data_bits.shape == (n, batch.data_bits)
            assert out.fail_stage.shape == (n,) and not out.uncorrectable.any()


class TestDifferential:
    """Hypothesis: batch == reference loop under arbitrary corruption."""

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_cell_errors(self, codec, batch, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_blocks = data.draw(st.integers(1, 8))
        _, states, checks = encode_blocks(codec, rng, n_blocks)
        for i in range(n_blocks):
            n_err = data.draw(st.integers(0, 3))
            for cell in rng.choice(codec.n_mlc_cells, n_err, replace=False):
                old = states[i, cell]
                states[i, cell] = (old + rng.integers(1, 3)) % 3
        assert_matches_scalar(codec, batch, states, checks)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_check_bit_errors(self, codec, batch, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        _, states, checks = encode_blocks(codec, rng, 4)
        for i in range(4):
            n_err = data.draw(st.integers(0, 2))
            checks[i, rng.choice(codec.n_slc_cells, n_err, replace=False)] ^= 1
        assert_matches_scalar(codec, batch, states, checks)

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_marked_pair_layouts(self, codec, batch, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n_blocks = data.draw(st.integers(1, 6))
        blocks = []
        for _ in range(n_blocks):
            blk = codec.new_block_state()
            n_marks = data.draw(st.integers(0, codec.ms_config.n_spare_pairs))
            for p in rng.choice(codec.ms_config.n_pairs, n_marks, replace=False):
                blk.mark(int(p))
            blocks.append(blk)
        payload, states, checks = encode_blocks(codec, rng, n_blocks, blocks)
        # Layouts must round-trip clean, and stay differential under one
        # extra drift error per block.
        out = assert_matches_scalar(codec, batch, states, checks)
        assert np.array_equal(out.data_bits, payload)
        for i in range(n_blocks):
            cell = int(rng.integers(codec.n_mlc_cells))
            states[i, cell] = (states[i, cell] + 1) % 3
        assert_matches_scalar(codec, batch, states, checks)


class TestFailStages:
    def test_spare_exhaustion_is_fail_hec(self, codec, batch):
        """7 INV pairs in a valid TEC codeword exhaust the 6 spares."""
        rng = np.random.default_rng(11)
        blocks = []
        for _ in range(3):
            blk = codec.new_block_state()
            for p in range(codec.ms_config.n_spare_pairs):
                blk.mark(p)
            blocks.append(blk)
        _, states, checks = encode_blocks(codec, rng, 3, blocks)
        # Force a 7th INV pair and re-derive matching check bits, so the
        # TEC stage passes and the failure lands squarely on HEC.
        for i in range(3):
            states[i, 100:102] = 2
            cw = codec.tec.encode(t32.states_to_tec_bits(states[i]))
            checks[i] = cw[codec.tec.k :]
        out = assert_matches_scalar(codec, batch, states, checks)
        assert np.array_equal(out.fail_stage, np.full(3, FAIL_HEC))
        assert np.array_equal(out.hec_pairs_dropped, np.full(3, 7))

    def test_constructed_invalid_pattern_escape(self, codec, batch):
        """Two errors whose miscorrection writes the forbidden '10'.

        BCH(10,1) has minimum distance 3, so some error pairs alias to a
        third position.  Check-bit remainders are single powers of two,
        so an S1 cell whose high-bit remainder has exactly two set bits
        names two check bits whose joint flip steers the decoder into
        'correcting' that high bit — fabricating the invalid pattern.
        """
        rng = np.random.default_rng(12)
        _, states, checks = encode_blocks(codec, rng, 1)
        rem = codec.tec.position_remainders()
        k, nc = codec.tec.k, codec.tec.n_check
        target = None
        for c in np.nonzero(states[0] == 0)[0]:  # S1: high-bit flip -> '10'
            if bin(int(rem[2 * int(c)])).count("1") == 2:
                target = 2 * int(c)
                break
        assert target is not None
        flips = [j for j in range(nc) if int(rem[k + j]) & int(rem[target])]
        assert len(flips) == 2
        assert int(rem[k + flips[0]]) ^ int(rem[k + flips[1]]) == int(rem[target])
        bad_checks = checks.copy()
        bad_checks[0, flips] ^= 1
        out = assert_matches_scalar(codec, batch, states, bad_checks)
        assert out.fail_stage[0] == FAIL_INVALID_PATTERN

    def test_mixed_stages_in_one_batch(self, codec, batch):
        """One batch holding every outcome class at once."""
        rng = np.random.default_rng(13)
        _, states, checks = encode_blocks(codec, rng, 5)
        # row 0: clean; row 1: one correctable single-bit drift error.
        states[1, 0] = states[1, 0] + 1 if states[1, 0] < 2 else 1
        # row 2: two errors -> TEC failure or miscorrection.
        low = np.nonzero(states[2] < 2)[0]
        states[2, low[0]] += 1
        states[2, low[1]] += 1
        # row 3: 7 INV pairs with matching checks -> HEC failure.
        states[3, 0:14] = 2
        cw = codec.tec.encode(t32.states_to_tec_bits(states[3]))
        checks[3] = cw[codec.tec.k :]
        # row 4: one check-bit error.
        checks[4, 0] ^= 1
        out = assert_matches_scalar(codec, batch, states, checks)
        assert out.fail_stage[0] == FAIL_NONE
        assert out.fail_stage[1] == FAIL_NONE and out.tec_corrected[1] == 1
        assert out.fail_stage[3] == FAIL_HEC
        assert out.fail_stage[4] == FAIL_NONE and out.tec_corrected[4] == 1


class TestChunkBoundaries:
    def test_rows_straddling_decode_chunks(self, codec, batch):
        """Errors on both sides of the row-chunk edges decode right."""
        rng = np.random.default_rng(14)
        n_blocks = 2 * _CHUNK + 3
        data = rng.integers(0, 2, size=(n_blocks, codec.data_bits), dtype=np.uint8)
        states, checks = batch.encode(data)
        probe = [0, _CHUNK - 1, _CHUNK, 2 * _CHUNK, n_blocks - 1]
        for i in probe:
            cell = i % codec.n_mlc_cells
            # Single-bit drift step (S4 -> S2 flips one bit; +1 otherwise).
            states[i, cell] = states[i, cell] + 1 if states[i, cell] < 2 else 1
        out = batch.decode(states, checks)
        assert np.array_equal(out.data_bits, data)
        assert not out.uncorrectable.any()
        assert np.array_equal(np.nonzero(out.tec_corrected)[0], np.array(probe))
        # Reference spot-check on the straddling rows.
        for i in probe:
            bits, n_corrected, _, fail = codec.decode(states[i], checks[i])
            assert fail == FAIL_NONE and np.array_equal(bits, data[i])
            assert n_corrected == 1

    def test_encode_straddling_chunks_matches_reference(self, codec, batch):
        """Rows on both sides of the remainder's chunk edges encode right."""
        rng = np.random.default_rng(19)
        n_blocks = _CHUNK + 3
        data = rng.integers(0, 2, size=(n_blocks, codec.data_bits), dtype=np.uint8)
        marked = np.zeros((n_blocks, codec.ms_config.n_pairs), dtype=bool)
        probe = [0, _CHUNK - 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, n_blocks - 1]
        blocks = {}
        for i in probe:
            blk = codec.new_block_state()
            for p in rng.choice(codec.ms_config.n_pairs, i % 4, replace=False):
                blk.mark(int(p))
            blocks[i] = blk
            marked[i] = blk.marked_mask
        states, checks = batch.encode(data, marked)
        for i in probe:
            want_states, want_checks = codec.encode(data[i], blocks[i])
            assert np.array_equal(states[i], want_states)
            assert np.array_equal(checks[i], want_checks)

    def test_batch_encode_matches_scalar(self, codec, batch):
        rng = np.random.default_rng(15)
        data, states, checks = encode_blocks(codec, rng, 9)
        got_states, got_checks = batch.encode(data)
        assert np.array_equal(got_states, states)
        assert np.array_equal(got_checks, checks)

    def test_batch_encode_with_marked_blocks_matches_scalar(self, codec, batch):
        rng = np.random.default_rng(16)
        blocks = []
        for i in range(4):
            blk = codec.new_block_state()
            for p in rng.choice(codec.ms_config.n_pairs, i, replace=False):
                blk.mark(int(p))
            blocks.append(blk)
        data, states, checks = encode_blocks(codec, rng, 4, blocks)
        got_states, got_checks = batch.encode(data, marked_mask(blocks))
        assert np.array_equal(got_states, states)
        assert np.array_equal(got_checks, checks)


class TestValidation:
    def test_state_range_checked(self, codec, batch):
        rng = np.random.default_rng(17)
        _, states, checks = encode_blocks(codec, rng, 2)
        states[0, 0] = 3
        with pytest.raises(ValueError):
            batch.decode(states, checks)

    def test_shapes_checked(self, codec, batch):
        rng = np.random.default_rng(18)
        data, states, checks = encode_blocks(codec, rng, 2)
        with pytest.raises(ValueError):
            batch.decode(states[:, :-1], checks)
        with pytest.raises(ValueError):
            batch.decode(states, checks[:, :-1])
        with pytest.raises(ValueError):
            batch.encode(data[:, :-1])
        with pytest.raises(ValueError):
            batch.encode(data, marked_mask([codec.new_block_state()]))  # wrong count
        with pytest.raises(ValueError):
            batch.encode(data, marked_mask([codec.new_block_state()] * 2).astype(np.uint8))


#: Message prefix of each failing stage's UncorrectableBlock.
PREFIXES = {
    FAIL_TEC: "TEC failure",
    FAIL_INVALID_PATTERN: "invalid TEC cell pattern",
    FAIL_HEC: "HEC failure",
}


def one_block_decode(api):
    """The one-block API's decode in the reference's outcome form."""

    def decode(states, checks):
        try:
            out = api.decode(states, checks)
        except UncorrectableBlock as exc:
            stages = [c for c, p in PREFIXES.items() if str(exc).startswith(p)]
            assert len(stages) == 1, str(exc)
            return None, 0, 0, stages[0]
        return out.data_bits, out.tec_corrected, out.hec_pairs_dropped, FAIL_NONE

    return decode


def golden_outcomes(encode, decode):
    """sha256 over encode outputs and decode outcomes of seeded blocks.

    Covers fresh and marked layouts with 0/1/2 cell errors, check-bit
    errors, a constructed invalid-"10" escape and spare exhaustion.
    Returns the hex digest and the set of fail stages the cases reached.
    """
    ref = ReferenceCodec()
    rng = np.random.default_rng(20)
    h = hashlib.sha256()
    stages = set()

    def encoded(n_marks):
        blk = ref.new_block_state()
        for p in rng.choice(ref.ms_config.n_pairs, n_marks, replace=False):
            blk.mark(int(p))
        data = rng.integers(0, 2, ref.data_bits, dtype=np.uint8)
        states, checks = encode(data, blk if n_marks else None)
        states = np.array(states, dtype=np.uint8)
        checks = np.array(checks, dtype=np.uint8)
        h.update(states.tobytes() + checks.tobytes())
        return states, checks

    def record(states, checks):
        bits, tec, inv, fail = decode(states, checks)
        stages.add(int(fail))
        h.update(bytes([fail]))
        if fail == FAIL_NONE:
            h.update(np.asarray(bits, dtype=np.uint8).tobytes())
            h.update(f"{int(tec)},{int(inv)}".encode())

    for n_marks in (0, 1, 6):
        for n_err in (0, 1, 2):
            for _ in range(4):
                states, checks = encoded(n_marks)
                for cell in rng.choice(ref.n_mlc_cells, n_err, replace=False):
                    states[cell] = (states[cell] + rng.integers(1, 3)) % 3
                record(states, checks)
    for n_flips in (1, 2):
        states, checks = encoded(2)
        checks[rng.choice(ref.n_slc_cells, n_flips, replace=False)] ^= 1
        record(states, checks)
    # Invalid "10": two check-bit flips whose remainders XOR to the
    # high-bit remainder of an S1 cell steer BCH-1 into writing "10".
    states, checks = encoded(0)
    rem = ref.tec.position_remainders()
    k, nc = ref.tec.k, ref.tec.n_check
    cell = next(
        int(c) for c in np.nonzero(states == 0)[0]
        if bin(int(rem[2 * int(c)])).count("1") == 2
    )
    checks[[j for j in range(nc) if int(rem[k + j]) & int(rem[2 * cell])]] ^= 1
    record(states, checks)
    # Spare exhaustion: a 7th INV pair under matching check bits.
    states, checks = encoded(6)
    pair = int(np.nonzero(states.reshape(-1, 2).sum(axis=1) < 4)[0][0])
    states[2 * pair : 2 * pair + 2] = 2
    checks = ref.tec.encode(t32.states_to_tec_bits(states))[k:]
    record(states, checks)
    return h.hexdigest(), stages


#: ``golden_outcomes`` of the 3-ON-2 codec; the block-at-a-time scalar
#: composition the program shipped before the kernels became its only
#: codec produced the same digest.
GOLDEN_DIGEST = "a72421ba567639946d70eaec199c9a1455b889f7ef1753a434935206374d7709"


class TestGoldenPin:
    """Kernel and reference both reproduce one recorded digest."""

    def test_reference_matches_golden(self):
        ref = ReferenceCodec()
        digest, stages = golden_outcomes(ref.encode, ref.decode)
        assert stages == {FAIL_NONE, FAIL_TEC, FAIL_INVALID_PATTERN, FAIL_HEC}
        assert digest == GOLDEN_DIGEST

    def test_one_block_api_matches_golden(self):
        api = ThreeOnTwoBlockCodec()
        digest, _ = golden_outcomes(api.encode, one_block_decode(api))
        assert digest == GOLDEN_DIGEST

    def test_stage_names(self):
        """Service error payloads and ``/metrics`` name stages from FAIL_STAGES."""
        assert {code: code_for_fail_stage(code) for code in FAIL_STAGES} == {
            FAIL_TEC: ("E_UNCORRECTABLE", "TEC"),
            FAIL_INVALID_PATTERN: ("E_UNCORRECTABLE", "INVALID_PATTERN"),
            FAIL_HEC: ("E_UNCORRECTABLE", "HEC"),
        }


class TestOneImplementation:
    def test_3lc_path_never_calls_the_scalar_bch(self, monkeypatch):
        """The one-block API and PCMDevice run only the batch kernels."""

        def scalar_bch(*args, **kwargs):
            raise AssertionError("scalar BCH on the 3-ON-2 path")

        monkeypatch.setattr(BCH, "encode", scalar_bch)
        monkeypatch.setattr(BCH, "decode", scalar_bch)
        rng = np.random.default_rng(21)
        data = rng.integers(0, 2, 512, dtype=np.uint8)
        api = ThreeOnTwoBlockCodec()
        blk = api.new_block_state()
        blk.mark(3)
        states, checks = api.encode(data, blk)
        states[0] = 1 if states[0] == 0 else 2 - states[0] // 2  # one bit flip
        out = api.decode(states, checks)
        assert np.array_equal(out.data_bits, data)
        assert (out.tec_corrected, out.hec_pairs_dropped) == (1, 1)

        dev = PCMDevice(
            2, "3LC", seed=4,
            wearout=WearoutModel(mean_endurance=20, endurance_sigma=0.3),
        )
        for t in range(40):
            try:
                dev.write(0, data, float(t))
            except SpareExhausted:
                break
            assert np.array_equal(dev.read(0, t + 0.5).data_bits, data)
        assert dev.stats.write_retries > 0
