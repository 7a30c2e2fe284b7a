"""ResultsCache integrity: a corrupted entry is never served.

Every corruption mode quarantines the blob (miss + ``stats.quarantined``),
and a failed store degrades to an uncached computation, never an error.
"""

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec, activate, builtin_plan
from repro.montecarlo.results_cache import ResultsCache

KEY = "k" * 64
N = 6


def make_cache(tmp_path):
    return ResultsCache(cache_dir=tmp_path / "cache")


def valid_counts():
    return np.array([0, 1, 1, 4, 9, 9], dtype=np.int64)


def put_entry(cache, counts=None):
    cache.put_counts(KEY, valid_counts() if counts is None else counts)
    assert cache._path(KEY).is_file()


def fresh_view(cache):
    """Same directory, empty memory front — forces the disk read."""
    return ResultsCache(cache_dir=cache.cache_dir)


def assert_quarantined(cache, expect_quarantine=True):
    """The corrupted entry reads as a miss and is moved aside."""
    assert cache.get_counts(KEY, expected_len=N) is None
    assert cache.stats.misses == 1
    assert not cache._path(KEY).is_file()
    if expect_quarantine:
        assert cache.stats.quarantined == 1
        assert cache.quarantined() == [KEY]
        assert cache.entries() == []
    # Once quarantined, the same key is a plain miss (no double count).
    assert cache.get_counts(KEY, expected_len=N) is None
    assert cache.stats.quarantined == (1 if expect_quarantine else 0)


class TestCorruptionModes:
    def test_garbage_bytes_overwrite(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        path = cache._path(KEY)
        with open(path, "r+b") as f:
            f.write(b"\xde\xad\xbe\xef" * 4)  # clobber the npy magic
        assert_quarantined(fresh_view(cache))

    def test_truncated_blob(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        path = cache._path(KEY)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert_quarantined(fresh_view(cache))

    def test_empty_file(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        cache._path(KEY).write_bytes(b"")
        assert_quarantined(fresh_view(cache))

    def test_pickled_payload_is_refused(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        np.save(
            open(cache._path(KEY), "wb"),
            np.array([{"not": "counts"}], dtype=object),
            allow_pickle=True,
        )
        assert_quarantined(fresh_view(cache))

    def test_wrong_length(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache, np.arange(N + 3, dtype=np.int64))
        assert_quarantined(fresh_view(cache))

    def test_wrong_dtype(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        np.save(open(cache._path(KEY), "wb"), np.linspace(0, 1, N))
        assert_quarantined(fresh_view(cache))

    def test_wrong_ndim(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        np.save(open(cache._path(KEY), "wb"), np.zeros((2, 3), dtype=np.int64))
        assert_quarantined(fresh_view(cache))

    def test_negative_counts(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        np.save(
            open(cache._path(KEY), "wb"),
            np.array([-1, 0, 1, 2, 3, 4], dtype=np.int64),
        )
        assert_quarantined(fresh_view(cache))

    def test_non_monotone_counts(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        np.save(
            open(cache._path(KEY), "wb"),
            np.array([0, 5, 3, 6, 7, 8], dtype=np.int64),
        )
        assert_quarantined(fresh_view(cache))

    def test_missing_sidecar(self, tmp_path):
        """A well-formed blob whose ``.sum`` sidecar is gone cannot be
        verified, so it is quarantined rather than served."""
        cache = make_cache(tmp_path)
        put_entry(cache)
        cache._sum_path(KEY).unlink()
        assert_quarantined(fresh_view(cache))

    def test_deleted_file_is_a_plain_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        cache._path(KEY).unlink()
        view = fresh_view(cache)
        assert view.get_counts(KEY, expected_len=N) is None
        assert view.stats.misses == 1
        assert view.stats.quarantined == 0


class TestRecovery:
    def test_put_after_quarantine_restores_the_entry(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        cache._path(KEY).write_bytes(b"junk")
        view = fresh_view(cache)
        assert view.get_counts(KEY, expected_len=N) is None
        view.put_counts(KEY, valid_counts())
        restored = fresh_view(view).get_counts(KEY, expected_len=N)
        assert np.array_equal(restored, valid_counts())
        # The quarantined evidence is still on disk until clear().
        assert view.quarantined() == [KEY]

    def test_clear_removes_quarantined_blobs(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        cache._path(KEY).write_bytes(b"junk")
        view = fresh_view(cache)
        view.get_counts(KEY, expected_len=N)
        assert view.clear() == 0  # no live entries; count excludes quarantine
        assert view.quarantined() == []

    def test_valid_entry_unaffected(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        got = fresh_view(cache).get_counts(KEY, expected_len=N)
        assert np.array_equal(got, valid_counts())


class TestStoreErrors:
    def test_injected_oserror_degrades_to_uncached(self, tmp_path):
        cache = make_cache(tmp_path)
        plan = builtin_plan("cache-write-eio")
        with activate(plan) as fired:
            cache.put_counts(KEY, valid_counts())  # occurrence 0: EIO
            cache.put_counts("m" * 64, valid_counts())  # occurrence 1: EIO
            cache.put_counts("z" * 64, valid_counts())  # third write lands
        assert [f.point for f in fired] == ["cache.put", "cache.put"]
        assert cache.stats.store_errors == 2
        assert cache.stats.stores == 1
        assert cache.entries() == ["z" * 64]
        # No temp-file litter from the failed writes.
        assert list(cache.cache_dir.glob(".*.tmp")) == []
        # The failed stores are still fronted in memory for this instance,
        # but a fresh process sees a plain miss.
        assert np.array_equal(
            cache.get_counts(KEY, expected_len=N), valid_counts()
        )
        assert fresh_view(cache).get_counts(KEY, expected_len=N) is None


class TestChaosActions:
    def test_corrupt_action_quarantines_on_read(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        plan = FaultPlan(
            faults=(FaultSpec.make("cache.get", 0, "corrupt_file"),), seed=3
        )
        view = fresh_view(cache)
        with activate(plan) as fired:
            assert view.get_counts(KEY, expected_len=N) is None
        assert len(fired) == 1
        assert view.stats.quarantined == 1

    def test_truncate_action_quarantines_on_read(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        plan = FaultPlan(
            faults=(FaultSpec.make("cache.get", 0, "truncate_file"),), seed=3
        )
        view = fresh_view(cache)
        with activate(plan):
            assert view.get_counts(KEY, expected_len=N) is None
        assert view.stats.quarantined == 1

    def test_delete_action_is_a_plain_miss(self, tmp_path):
        cache = make_cache(tmp_path)
        put_entry(cache)
        plan = FaultPlan(
            faults=(FaultSpec.make("cache.get", 0, "delete_file"),), seed=3
        )
        view = fresh_view(cache)
        with activate(plan):
            assert view.get_counts(KEY, expected_len=N) is None
        assert view.stats.quarantined == 0

    def test_corruption_bytes_are_plan_deterministic(self, tmp_path):
        """Same plan seed, same garbage: the fault itself replays exactly."""
        blobs = []
        for trial in ("one", "two"):
            cache = ResultsCache(cache_dir=tmp_path / trial)
            put_entry(cache)
            plan = FaultPlan(
                faults=(FaultSpec.make("cache.get", 0, "corrupt_file"),), seed=77
            )
            view = fresh_view(cache)
            with activate(plan):
                view.get_counts(KEY, expected_len=N)
            blobs.append((cache.cache_dir / f"{KEY}.quarantined").read_bytes())
        assert blobs[0] == blobs[1]

    def test_match_targets_one_key(self, tmp_path):
        cache = make_cache(tmp_path)
        other = "o" * 64
        put_entry(cache)
        cache.put_counts(other, valid_counts())
        plan = FaultPlan(
            faults=(
                FaultSpec.make("cache.get", 0, "corrupt_file", match={"key": KEY}),
            ),
            seed=5,
        )
        view = fresh_view(cache)
        with activate(plan):
            assert np.array_equal(
                view.get_counts(other, expected_len=N), valid_counts()
            )
            assert view.get_counts(KEY, expected_len=N) is None
        assert view.stats.quarantined == 1


@pytest.mark.parametrize(
    "arr,ok",
    [
        (np.array([0, 0, 2], dtype=np.int64), True),
        (np.array([], dtype=np.int64), True),
        (np.array([0, 1], dtype=np.int32), True),
        (np.array([1, 0], dtype=np.int64), False),
        (np.array([-1, 0], dtype=np.int64), False),
        (np.array([0.0, 1.0]), False),
        (np.zeros((2, 2), dtype=np.int64), False),
        ("not an array", False),
    ],
)
def test_valid_counts_predicate(arr, ok):
    assert ResultsCache._valid_counts(arr, None) is ok


def test_valid_counts_length_check():
    arr = np.array([0, 1, 2], dtype=np.int64)
    assert ResultsCache._valid_counts(arr, 3)
    assert not ResultsCache._valid_counts(arr, 4)
