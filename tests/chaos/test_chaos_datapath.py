"""Chaos at the batched-decode boundary: abort, retry, bit-identical.

The ``datapath.batch_decode`` fault point fires before any outcome
arrays exist, so an injected transient failure must leave no partial
state behind: a straight retry — of the batch call or of a whole
``bler_mc`` run — lands on exactly the result the fault interrupted.
"""

import numpy as np
import pytest

from repro.chaos import FaultPlan, FaultSpec, InjectedFault, activate
from repro.chaos.registry import FAULT_POINTS
from repro.coding.batch import BatchThreeOnTwoCodec
from repro.montecarlo.bler_mc import bler_mc
from repro.montecarlo.results_cache import ResultsCache


def one_shot_plan(occurrence=0, match=()):
    return FaultPlan(
        faults=(
            FaultSpec(
                point="datapath.batch_decode",
                occurrence=occurrence,
                action="raise_transient",
                match=match,
            ),
        ),
        seed=0,
    )


class TestRegistryEntry:
    def test_point_is_cataloged(self):
        info = FAULT_POINTS["datapath.batch_decode"]
        assert info.ctx_keys == ("n_blocks",)
        assert "raise_transient" in info.recoverable_actions


class TestBatchDecodeFault:
    def test_abort_then_retry_is_bit_identical(self):
        rng = np.random.default_rng(0)
        bc = BatchThreeOnTwoCodec()
        data = rng.integers(0, 2, size=(32, 512), dtype=np.uint8)
        states, checks = bc.encode(data)
        clean = bc.decode(states, checks)
        with activate(one_shot_plan()) as fired:
            with pytest.raises(InjectedFault):
                bc.decode(states, checks)
            assert [f.point for f in fired] == ["datapath.batch_decode"]
            assert fired[0].ctx == {"n_blocks": 32}
            retried = bc.decode(states, checks)  # occurrence 0 consumed
        assert np.array_equal(retried.data_bits, clean.data_bits)
        assert np.array_equal(retried.fail_stage, clean.fail_stage)
        assert np.array_equal(retried.tec_corrected, clean.tec_corrected)

    def test_context_match_targets_one_batch_size(self):
        rng = np.random.default_rng(1)
        bc = BatchThreeOnTwoCodec()
        data = rng.integers(0, 2, size=(8, 512), dtype=np.uint8)
        states, checks = bc.encode(data)
        plan = one_shot_plan(match=(("n_blocks", 9999),))
        with activate(plan) as fired:
            bc.decode(states, checks)  # does not match -> must not fire
        assert fired == []


class TestBlerMcUnderChaos:
    N_BLOCKS = 6_000
    CERS = [1e-2]

    def test_aborted_run_retries_to_identical_counts(self, tmp_path):
        cache = ResultsCache(cache_dir=tmp_path / "mc")
        baseline = bler_mc(self.CERS, self.N_BLOCKS, seed=3)
        with activate(one_shot_plan()):
            with pytest.raises(InjectedFault):
                bler_mc(self.CERS, self.N_BLOCKS, seed=3, cache=cache)
        # The aborted run stored nothing partial: a plain retry computes
        # (and caches) exactly the interrupted result.
        assert cache.entries() == []
        retried = bler_mc(self.CERS, self.N_BLOCKS, seed=3, cache=cache)
        assert retried == baseline
        assert cache.stats.stores == 1
        assert bler_mc(self.CERS, self.N_BLOCKS, seed=3, cache=cache) == baseline
        assert cache.stats.hits == 1

    def test_mid_run_fault_leaves_later_tasks_unaffected(self):
        """Fault the third task's decode: still a clean abort/retry."""
        n = 30_000  # three RNG blocks -> three decode calls at chunk=10k
        baseline = bler_mc(self.CERS, n, seed=3, chunk=10_000)
        with activate(one_shot_plan(occurrence=2)) as fired:
            with pytest.raises(InjectedFault):
                bler_mc(self.CERS, n, seed=3, chunk=10_000)
            assert len(fired) == 1
        assert bler_mc(self.CERS, n, seed=3, chunk=10_000) == baseline

    def test_clean_blocks_still_reach_the_point_once_per_rng_block(self):
        """CER 0 decodes no row, yet each RNG block calls decode once."""
        n = 30_000  # three RNG blocks
        for occurrence in range(3):
            plan = one_shot_plan(occurrence=occurrence, match=(("n_blocks", 0),))
            with activate(plan) as fired:
                with pytest.raises(InjectedFault):
                    bler_mc([0.0], n, seed=3, chunk=10_000)
            assert [f.ctx for f in fired] == [{"n_blocks": 0}]
        with activate(one_shot_plan(occurrence=3)) as fired:
            (r,) = bler_mc([0.0], n, seed=3, chunk=10_000)
        assert fired == [] and r.n_errors == 0
