"""Empirical BLER engine: determinism, caching, analytic cross-validation."""

import numpy as np
import pytest

from repro.analysis.bler import binom_confidence, block_error_rate
from repro.cli import main
from repro.coding.batch import BatchThreeOnTwoCodec, batch_codec
from repro.core.three_on_two import STATE_TO_TEC_BITS
from repro.montecarlo.bler_mc import (
    BLER_SPAWN_KEY,
    ERR_STATE,
    BlerResult,
    _err_flip,
    bler_mc,
)
from repro.montecarlo.executor import plan_blocks
from repro.montecarlo.results_cache import ResultsCache
from repro.montecarlo.rng import block_rng

CERS = [3e-3, 1e-2]
N_BLOCKS = 20_000
FIG5_CERS = [1e-3, 3e-3, 1e-2]


def block_draws(seed, n_blocks, data_bits=512, n_spare_pairs=6):
    """Each RNG block's data and uniforms, drawn in the engine's order."""
    n_cells = batch_codec(data_bits, n_spare_pairs).n_mlc_cells
    for index, size in enumerate(plan_blocks(n_blocks)):
        rng = block_rng(seed, (BLER_SPAWN_KEY, index))
        data = rng.integers(0, 2, size=(size, data_bits), dtype=np.uint8)
        yield data, rng.random((size, n_cells))


def dense_bler(cers, n_blocks, seed, data_bits=512, n_spare_pairs=6):
    """Reference engine: inject every cell and decode every block at every CER."""
    bc = batch_codec(data_bits, n_spare_pairs)
    counts = np.zeros((len(cers), 2), dtype=np.int64)
    for data, u in block_draws(seed, n_blocks, data_bits, n_spare_pairs):
        states, checks = bc.encode(data)
        for j, cer in enumerate(cers):
            read = np.where(u < cer, ERR_STATE[states], states)
            out = bc.decode(read, checks)
            mismatch = np.any(out.data_bits != data, axis=1)
            counts[j, 0] += int((mismatch & ~out.uncorrectable).sum())
            counts[j, 1] += int((mismatch | out.uncorrectable).sum())
    return [
        BlerResult(cer=float(c), n_blocks=n_blocks, n_silent=int(k[0]), n_errors=int(k[1]))
        for c, k in zip(cers, counts)
    ]


@pytest.fixture(scope="module")
def baseline():
    return bler_mc(CERS, N_BLOCKS, seed=7)


class TestInjectionModel:
    def test_each_error_flips_exactly_one_tec_bit(self):
        """The analytic comparison hinges on 1 erring cell = 1 bit error."""
        for s in range(3):
            assert ERR_STATE[s] != s
            flipped = STATE_TO_TEC_BITS[s] ^ STATE_TO_TEC_BITS[ERR_STATE[s]]
            assert int(flipped.sum()) == 1, s

    def test_xor_flip_is_the_adjacent_state_move(self):
        """The engine injects with ``s ^ 1`` (S1) and ``s ^ 3`` (S2, S4)."""
        s = np.arange(3, dtype=np.uint8)
        flip = _err_flip(s)
        assert flip.dtype == np.uint8 and flip.tolist() == [1, 3, 3]
        assert np.array_equal(s ^ flip, ERR_STATE[s])

    def test_err_state_is_read_only(self):
        with pytest.raises(ValueError):
            ERR_STATE[0] = 2


class TestErringRowsOnly:
    """Decoding only the blocks with an erring cell changes no count."""

    @pytest.mark.parametrize(
        "cers, n_blocks, seed, kwargs",
        [
            (FIG5_CERS, 25_000, 0, {}),
            (FIG5_CERS, 25_000, 7, {}),
            ([0.0], 15_000, 7, {}),
            ([1.0], 15_000, 7, {}),
            ([1e-4], 25_000, 7, {}),
            ([1e-2, 1e-3, 1e-2], 15_000, 7, {}),
            ([1e-2, 0.1], 15_000, 7, {"data_bits": 64, "n_spare_pairs": 2}),
            (FIG5_CERS, 25_000, 7, {"chunk": 7_000, "jobs": 2}),
        ],
    )
    def test_equals_dense_reference(self, cers, n_blocks, seed, kwargs):
        geometry = {k: v for k, v in kwargs.items() if k in ("data_bits", "n_spare_pairs")}
        want = dense_bler(cers, n_blocks, seed, **geometry)
        assert bler_mc(cers, n_blocks, seed=seed, **kwargs) == want

    def test_golden_counts(self, baseline):
        """Counts recorded with the dense engine; they must never move."""
        assert [(r.n_silent, r.n_errors) for r in baseline] == [(2830, 5765), (8435, 17404)]
        fig5 = bler_mc(FIG5_CERS, 50_000, seed=0)
        assert [(r.n_silent, r.n_errors) for r in fig5] == [
            (1160, 2433), (6883, 14377), (20859, 43343),
        ]

    def test_decodes_exactly_the_erring_rows(self, monkeypatch):
        """One decode per (RNG block, CER), over the rows with an erring cell.

        Counts alone cannot see a skipped single-error row (BCH-1 corrects
        it), so the decoded row counts are pinned directly.
        """
        decoded = []
        decode = BatchThreeOnTwoCodec.decode

        def spy(codec, states, checks):
            decoded.append(states.shape[0])
            return decode(codec, states, checks)

        monkeypatch.setattr(BatchThreeOnTwoCodec, "decode", spy)
        cers = [3e-3, 0.0, 1e-3]
        bler_mc(cers, 25_000, seed=7)
        want = [
            int(np.count_nonzero(u.min(axis=1) < c))
            for _, u in block_draws(7, 25_000)
            for c in cers
        ]
        assert decoded == want


class TestDeterminism:
    def test_chunk_and_jobs_invariance(self, baseline):
        assert bler_mc(CERS, N_BLOCKS, seed=7, chunk=7_000, jobs=1) == baseline
        assert bler_mc(CERS, N_BLOCKS, seed=7, chunk=5_000, jobs=2) == baseline

    def test_seed_changes_counts(self, baseline):
        other = bler_mc(CERS, N_BLOCKS, seed=8)
        assert [r.n_errors for r in other] != [r.n_errors for r in baseline]

    def test_single_cer_scalar_and_duplicates(self, baseline):
        one = bler_mc(CERS[0], N_BLOCKS, seed=7)
        assert isinstance(one, list) and one[0] == baseline[0]
        dup = bler_mc([CERS[0], CERS[0]], N_BLOCKS, seed=7)
        assert dup[0] == dup[1] == baseline[0]

    def test_common_random_numbers_make_curve_monotone(self, baseline):
        """Shared uniforms: more CER can only add errors, never remove."""
        assert baseline[0].n_errors <= baseline[1].n_errors


class TestCache:
    def test_round_trip_and_warm_hit(self, tmp_path, baseline):
        cache = ResultsCache(cache_dir=tmp_path / "mc")
        first = bler_mc(CERS, N_BLOCKS, seed=7, cache=cache)
        assert cache.stats.misses == len(CERS)
        assert cache.stats.stores == len(CERS)
        second = bler_mc(CERS, N_BLOCKS, seed=7, cache=cache)
        assert cache.stats.hits == len(CERS)
        assert first == second == baseline

    def test_key_separates_geometry_and_seed(self, tmp_path):
        cache = ResultsCache(cache_dir=tmp_path / "mc")
        bler_mc([1e-2], 2_000, seed=7, cache=cache)
        bler_mc([1e-2], 2_000, seed=8, cache=cache)
        bler_mc([1e-2], 2_000, seed=7, n_spare_pairs=4, cache=cache)
        assert cache.stats.stores == 3 and cache.stats.hits == 0


class TestAnalyticAgreement:
    def test_within_binomial_ci_at_three_points(self):
        """The acceptance cross-validation, at CI scale (50k blocks)."""
        results = bler_mc([3e-3, 1e-2, 3e-2], 50_000, seed=7)
        for r in results:
            lo, hi = r.confidence()
            analytic = block_error_rate(r.cer, 354, 1)
            assert lo <= analytic <= hi, (r.cer, r.bler, analytic)

    def test_zero_cer_never_errs(self):
        (r,) = bler_mc([0.0], 5_000, seed=7)
        assert r.n_errors == 0 and r.n_silent == 0 and r.bler == 0.0
        assert r.confidence()[0] == 0.0


class TestBlerResult:
    def test_detected_plus_silent(self, baseline):
        for r in baseline:
            assert 0 <= r.n_silent <= r.n_errors
            assert r.n_detected == r.n_errors - r.n_silent
            lo, hi = r.confidence()
            assert lo <= r.bler <= hi

    def test_zero_blocks_guard(self):
        r = BlerResult(cer=0.1, n_blocks=0, n_silent=0, n_errors=0)
        assert r.bler == 0.0


class TestValidation:
    def test_bad_cer_rejected(self):
        with pytest.raises(ValueError):
            bler_mc([1.5], 100)
        with pytest.raises(ValueError):
            bler_mc([-0.1], 100)

    def test_bad_block_count_rejected(self):
        with pytest.raises(ValueError):
            bler_mc([0.01], 0)

    def test_empty_cers_rejected(self):
        with pytest.raises(ValueError):
            bler_mc([], 100)

    def test_binom_confidence_validation(self):
        with pytest.raises(ValueError):
            binom_confidence(1, 0)
        with pytest.raises(ValueError):
            binom_confidence(5, 3)
        with pytest.raises(ValueError):
            binom_confidence(1, 10, confidence=1.0)

    def test_binom_confidence_extremes(self):
        lo, hi = binom_confidence(0, 100)
        assert lo == 0.0 and 0 < hi < 0.05
        lo, hi = binom_confidence(100, 100)
        assert 0.95 < lo < 1 and hi == 1.0


class TestCli:
    def test_analytic_table(self, capsys):
        assert main(["bler", "--cer", "1e-3", "1e-2"]) == 0
        out = capsys.readouterr().out
        assert "BCH-1" in out and out.count("BLER at CER") == 2

    def test_empirical_cross_validates(self, capsys):
        rc = main(
            [
                "bler", "--cer", "3e-3", "1e-2", "--empirical", "20000",
                "--seed", "7", "--no-cache",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "analytic" in out and "NO" not in out
        assert "batched 3-ON-2 datapath" in out

    def test_campaign_builtin_runs(self, tmp_path, capsys):
        rc = main(
            [
                "campaign", "run", "--spec", "bler", "--samples", "5000",
                "--run-dir", str(tmp_path / "run"), "--no-cache",
                "--no-progress",
            ]
        )
        assert rc == 0, capsys.readouterr().err
        assert "bler_mc" in capsys.readouterr().out
