"""Golden pins and cache round-trips for the fleet engine.

``tests/fixtures/fleet_seed0_summary.json`` is the committed seed-0
summary of a 48-device, 5-epoch stress fleet.  Any drift in the physics,
heterogeneity draws, epoch phases, or counter semantics lands here first
— and an *intentional* change must bump
:data:`~repro.fleet.engine.FLEET_VERSION` (regenerate the fixture with
the snippet in its docstring below).

The cache tests hold :func:`fleet_mc` to the warm-rerun contract: a
second run over the same ``(config, seed)`` serves every shard from the
PR-1 results cache with zero misses and summarizes bit-identically, and
the keys are salted so any version or config change orphans them.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.fleet import (
    FLEET_VERSION,
    FleetConfig,
    config_from_params,
    fleet_counts_key,
    fleet_mc,
    stress_config,
)
from repro.fleet.mc import _decode_counts, _encode_counts
from repro.montecarlo.results_cache import ResultsCache

FIXTURE = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

#: Exact run the committed fixture was generated from.  Regenerate with:
#: ``fleet_mc(stress_config(n_devices=48, n_epochs=5), seed=0).to_dict()``
#: dumped with ``indent=2, sort_keys=True``.
GOLDEN_CONFIG = stress_config(n_devices=48, n_epochs=5)
GOLDEN_SEED = 0


@pytest.fixture(scope="module")
def golden():
    return json.loads((FIXTURE / "fleet_seed0_summary.json").read_text())


@pytest.fixture(scope="module")
def summary():
    return fleet_mc(GOLDEN_CONFIG, seed=GOLDEN_SEED, jobs=1)


class TestGoldenPin:
    def test_summary_matches_fixture_exactly(self, golden, summary):
        assert summary.to_dict() == golden

    def test_headline_numbers(self, golden):
        """Human-readable restatement of the load-bearing pins: if the
        fixture is ever regenerated, eyeball these for sanity."""
        assert golden["fleet_version"] == FLEET_VERSION == 1
        assert golden["lifetime_epochs"]["p50"] == 4
        assert golden["lifetime_epochs"]["p90"] is None  # right-censored
        assert golden["n_dead"] == 25
        assert golden["totals"]["silent"] == 0
        assert golden["totals"]["uncorrectable"] == 0
        assert golden["totals"]["wearout_marks"] > 0
        assert golden["survival"][-1] == pytest.approx(23 / 48)

    def test_fixture_is_internally_consistent(self, golden):
        for name, total in golden["totals"].items():
            assert total == sum(golden["per_epoch"][name]), name
        assert golden["n_dead"] == golden["totals"]["deaths"]
        # Every maintenance read is paired with a refresh rewrite unless
        # the block decoded uncorrectable (then it is left in place).
        assert (
            golden["totals"]["refreshes"]
            == golden["totals"]["reads"] - golden["totals"]["uncorrectable"]
        )


class TestCacheRoundTrip:
    CONFIG = stress_config(n_devices=10, n_epochs=3)

    def test_warm_rerun_has_zero_misses(self, tmp_path):
        cold_cache = ResultsCache(cache_dir=tmp_path)
        cold = fleet_mc(self.CONFIG, seed=0, jobs=1, cache=cold_cache, shard_devices=4)
        assert cold_cache.stats.misses == 3  # ceil(10 / 4) shards

        warm_cache = ResultsCache(cache_dir=tmp_path)
        warm = fleet_mc(self.CONFIG, seed=0, jobs=1, cache=warm_cache, shard_devices=4)
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hits == 3
        assert (warm.counts == cold.counts).all()
        assert warm.to_dict() == cold.to_dict()

    def test_cached_and_fresh_summaries_agree(self, tmp_path):
        fresh = fleet_mc(self.CONFIG, seed=0, jobs=1)
        cache = ResultsCache(cache_dir=tmp_path)
        fleet_mc(self.CONFIG, seed=0, jobs=1, cache=cache, shard_devices=4)
        served = fleet_mc(self.CONFIG, seed=0, jobs=1, cache=cache, shard_devices=4)
        assert (served.counts == fresh.counts).all()

    def test_shard_size_changes_keys_not_results(self, tmp_path):
        cache = ResultsCache(cache_dir=tmp_path)
        a = fleet_mc(self.CONFIG, seed=0, jobs=1, cache=cache, shard_devices=4)
        b = fleet_mc(self.CONFIG, seed=0, jobs=1, cache=cache, shard_devices=5)
        # Different shard layout: different entries, same counts.
        assert cache.stats.misses == 3 + 2
        assert (a.counts == b.counts).all()

    def test_counts_encoding_round_trips(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 1000, size=(5, 13)).astype(np.int64)
        vec = _encode_counts(counts)
        assert (np.diff(vec) >= 0).all()  # cache integrity shape
        assert (_decode_counts(vec, 5) == counts).all()


class TestKeySalting:
    CONFIG = stress_config(n_devices=10, n_epochs=3)

    def test_key_depends_on_everything_it_should(self):
        base = fleet_counts_key(self.CONFIG, 0, 0, 4)
        assert fleet_counts_key(self.CONFIG, 0, 0, 4) == base
        assert fleet_counts_key(self.CONFIG, 1, 0, 4) != base  # seed
        assert fleet_counts_key(self.CONFIG, 0, 4, 4) != base  # shard start
        assert fleet_counts_key(self.CONFIG, 0, 0, 5) != base  # shard size
        other = stress_config(n_devices=10, n_epochs=3, mean_endurance=81.0)
        assert fleet_counts_key(other, 0, 0, 4) != base  # config

    def test_fleet_version_salts_keys(self, monkeypatch):
        import repro.fleet.mc as mc

        base = fleet_counts_key(self.CONFIG, 0, 0, 4)
        monkeypatch.setattr(mc, "FLEET_VERSION", FLEET_VERSION + 1)
        assert fleet_counts_key(self.CONFIG, 0, 0, 4) != base

    def test_default_and_stress_presets_never_collide(self):
        default = FleetConfig(n_devices=10, n_epochs=3)
        stress = self.CONFIG
        assert fleet_counts_key(default, 0, 0, 4) != fleet_counts_key(stress, 0, 0, 4)


class TestConfigValidation:
    """Out-of-range inputs are rejected at the shared front door instead
    of each getting its own cache key (or failing deep in the engine)."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("write_fraction", 2.0),
            ("write_fraction", -0.5),
            ("p_stuck_reset", 3.0),
            ("p_stuck_reset", -0.1),
            ("p_revive", 1.5),
            ("mean_endurance", 0.0),
            ("mean_endurance", -5.0),
            ("endurance_sigma", -0.25),
            ("alpha_jitter_sigma", -0.1),
            ("endurance_jitter_sigma", -0.2),
            ("data_bits", 510),
            ("data_bits", 0),
        ],
    )
    def test_out_of_range_field_is_named(self, field, value):
        with pytest.raises(ValueError, match=field):
            FleetConfig(**{field: value})

    @pytest.mark.parametrize("preset", ["default", "stress"])
    def test_config_from_params_validates(self, preset):
        with pytest.raises(ValueError, match="write_fraction"):
            config_from_params(
                {"preset": preset, "write_fraction": 2.0}, n_devices=4, n_epochs=2
            )

    @pytest.mark.parametrize("write_fraction", [None, 0.0, 1.0])
    def test_boundaries_accepted(self, write_fraction):
        FleetConfig(
            write_fraction=write_fraction,
            p_stuck_reset=0.0,
            p_revive=1.0,
            endurance_sigma=0.0,
        )
