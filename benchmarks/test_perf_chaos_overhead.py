"""Chaos-off overhead of the fault-point instrumentation (engineering).

With no plan activated, every ``fault_point`` call is one module-global
load and a ``None`` check.  This benchmark measures the end-to-end cost
two ways and records both in ``results/BENCH_chaos_overhead.json``:

- microbenchmark: raw ns/call of the disabled hook;
- macrobenchmark: a cached ``design_cer`` sweep — the hottest
  instrumented path (one ``cache.get`` per state) — timed as-is, plus
  a bit-identity check that activating an *empty* plan changes nothing.

The macro assertion is deliberately loose (instrumentation must stay
invisible next to real work); the hard bit-identity guarantees are in
``tests/chaos/``.
"""

import time
import timeit

import numpy as np

from _report import emit_json, machine_info
from repro.chaos import FaultPlan, activate, chaos_active
from repro.chaos.registry import fault_point
from repro.core.designs import three_level_naive
from repro.montecarlo.cer import design_cer
from repro.montecarlo.results_cache import ResultsCache

N_SAMPLES = 200_000
TIMES = [1e3, 1e5, 1e7, 1e9]


def test_disabled_fault_point_is_cheap_and_invisible(tmp_path):
    assert not chaos_active()

    # Micro: ns per disabled fault_point call.
    n_calls = 200_000
    t = timeit.timeit(lambda: fault_point("cache.get"), number=n_calls)
    ns_per_call = 1e9 * t / n_calls

    # Macro: cached sweep timings with the hook compiled in.
    cache = ResultsCache(cache_dir=tmp_path / "cache")
    design = three_level_naive()

    t0 = time.perf_counter()
    cold = design_cer(design, TIMES, N_SAMPLES, seed=3, cache=cache)
    t_cold = time.perf_counter() - t0

    t0 = time.perf_counter()
    warm = design_cer(design, TIMES, N_SAMPLES, seed=3, cache=cache)
    t_warm = time.perf_counter() - t0

    assert np.array_equal(cold.cer, warm.cer)
    assert cache.stats.hits > 0 and cache.stats.quarantined == 0

    # An activated-but-empty plan must not change a single bit either.
    with activate(FaultPlan(faults=(), seed=0)) as fired:
        empty = design_cer(design, TIMES, N_SAMPLES, seed=3, cache=cache)
    assert not fired
    assert np.array_equal(empty.cer, cold.cer)

    # Generous ceiling: a disabled hook is a dict-free global load; even
    # slow CI boxes do that well under a microsecond.
    assert ns_per_call < 5_000, f"disabled fault_point costs {ns_per_call:.0f} ns"

    emit_json(
        "BENCH_chaos_overhead",
        {
            "benchmark": "fault_point disabled-path overhead",
            "machine": machine_info(),
            "ns_per_disabled_call": round(ns_per_call, 1),
            "n_samples": N_SAMPLES,
            "cold_sweep_s": round(t_cold, 4),
            "warm_cached_sweep_s": round(t_warm, 4),
            "warm_hit_rate": round(
                cache.stats.hits / (cache.stats.hits + cache.stats.misses), 3
            ),
            "identical_with_empty_plan": True,
        },
    )
