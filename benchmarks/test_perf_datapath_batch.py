"""Batched datapath kernels vs the one-block API (engineering benchmark).

Times the Figure-9 read path both ways — the one-block API
:class:`ThreeOnTwoBlockCodec` looped block by block (each call a
one-row call into the same kernels: the program has no separate scalar
3-ON-2 codec), and :class:`BatchThreeOnTwoCodec` decoding 100k blocks in
one call — asserts the >= 50x speedup batching exists for, and
cross-validates the empirical BLER engine against the analytic Figure 5
curve at three CER operating points (the analytic value must fall inside
each point's exact 95% binomial interval).  Everything lands in
``results/BENCH_datapath.json``.

Block counts are env-tunable: ``REPRO_BLER_BLOCKS`` (default 1e6) scales
the Monte Carlo validation, ``REPRO_BATCH_BLOCKS`` (default 100k) the
throughput measurement.  ``REPRO_SPEEDUP_FLOOR`` (default 50) relaxes
the speedup assertion on noisy shared runners; the committed
``results/BENCH_datapath.json`` records the reference-machine number.
"""

import os
import platform
import time

import numpy as np

from _report import emit_json
from repro.analysis.bler import block_error_rate
from repro.coding.batch import BatchThreeOnTwoCodec
from repro.coding.blockcodec import ThreeOnTwoBlockCodec
from repro.montecarlo.bler_mc import bler_mc

ONE_BLOCK_CALLS = 2_000
BATCH_BLOCKS = int(os.environ.get("REPRO_BATCH_BLOCKS", 100_000))
BLER_BLOCKS = int(os.environ.get("REPRO_BLER_BLOCKS", 1_000_000))
BLER_CERS = [1e-3, 3e-3, 1e-2]
SPEEDUP_FLOOR = float(os.environ.get("REPRO_SPEEDUP_FLOOR", 50.0))


def test_batch_decode_speedup_and_bler_validation():
    codec = ThreeOnTwoBlockCodec()
    batch = BatchThreeOnTwoCodec()
    rng = np.random.default_rng(0)

    data = rng.integers(0, 2, size=(BATCH_BLOCKS, codec.data_bits), dtype=np.uint8)
    states, checks = batch.encode(data)

    # One-block API rate over a subsample long enough to stabilize.
    t0 = time.perf_counter()
    for i in range(ONE_BLOCK_CALLS):
        codec.decode(states[i], checks[i])
    one_block_rate = ONE_BLOCK_CALLS / (time.perf_counter() - t0)

    # Batch rate over the full population (warm once for fair timing).
    batch.decode(states[:1024], checks[:1024])
    t0 = time.perf_counter()
    out = batch.decode(states, checks)
    batch_rate = BATCH_BLOCKS / (time.perf_counter() - t0)

    assert np.array_equal(out.data_bits, data), "clean decode must round-trip"
    assert not out.uncorrectable.any()
    speedup = batch_rate / one_block_rate

    # Empirical end-to-end BLER vs the analytic Figure 5 curve.
    results = bler_mc(BLER_CERS, BLER_BLOCKS, seed=0, jobs=0)
    points = []
    for r in results:
        lo, hi = r.confidence()
        analytic = block_error_rate(r.cer, codec.n_mlc_cells, 1)
        points.append(
            {
                "cer": r.cer,
                "empirical_bler": round(r.bler, 6),
                "ci95": [round(lo, 6), round(hi, 6)],
                "analytic_bler": round(analytic, 6),
                "analytic_in_ci": bool(lo <= analytic <= hi),
                "n_errors": r.n_errors,
                "n_silent": r.n_silent,
            }
        )

    emit_json(
        "BENCH_datapath",
        {
            "benchmark": "batched 3-ON-2 datapath vs the one-block API looped",
            "one_block_calls": ONE_BLOCK_CALLS,
            "batch_blocks": BATCH_BLOCKS,
            "one_block_blocks_per_s": round(one_block_rate),
            "batch_blocks_per_s": round(batch_rate),
            "speedup": round(speedup, 1),
            "bler_mc_blocks_per_point": BLER_BLOCKS,
            "bler_points": points,
            "env": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        },
    )

    assert speedup >= SPEEDUP_FLOOR, (
        f"batch decode must be >={SPEEDUP_FLOOR:g}x the one-block API, "
        f"got {speedup:.1f}x"
    )
    for p in points:
        assert p["analytic_in_ci"], p
