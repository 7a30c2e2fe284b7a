"""Batched datapath kernels vs the one-block API (engineering benchmark).

Times the Figure-9 read path both ways — the one-block API
:class:`ThreeOnTwoBlockCodec` looped block by block (each call a
one-row call into the same kernels: the program has no separate scalar
3-ON-2 codec), and :class:`BatchThreeOnTwoCodec` decoding 100k blocks in
one call — records the cost of a one-row encode and decode, asserts a
floor on batch decode throughput, and cross-validates the empirical BLER
engine against the analytic Figure 5 curve at three CER operating points
(the analytic value must fall inside each point's exact 95% binomial
interval).  The validation call is timed (``bler_mc_s``) and split
into two stages that sum to it: ``draw_s``, the same call at CER 0
(the data and uniform draws and the per-block minimum pass; no block
errs, so nothing is encoded or decoded), and the rest,
``encode_inject_decode_s``.  Everything lands in
``results/BENCH_datapath.json``.

The floor is absolute, not a ratio to the one-block rate, so a cheaper
one-row call cannot trip it: its default of 342,000 blocks/s is 50x the
one-block rate recorded on the reference machine (6,842/s).

Block counts are env-tunable: ``REPRO_BLER_BLOCKS`` (default 1e6) scales
the Monte Carlo validation, ``REPRO_BATCH_BLOCKS`` (default 100k) the
throughput measurement.  ``REPRO_BATCH_RATE_FLOOR`` relaxes the
throughput assertion on noisy shared runners; the committed
``results/BENCH_datapath.json`` records the reference-machine numbers.
"""

import os
import platform
import time
import timeit

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
BATCH_RATE_FLOOR = float(os.environ.get("REPRO_BATCH_RATE_FLOOR", 342_000))


def one_row_us(call) -> float:
    """Best-of-7 cost of ``call`` in microseconds (300 calls per timing)."""
    return min(timeit.repeat(call, number=300, repeat=7)) / 300 * 1e6


def test_batch_decode_throughput_and_bler_validation():
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
    one_row_encode = one_row_us(lambda: batch.encode(data[:1]))
    one_row_decode = one_row_us(lambda: batch.decode(states[:1], checks[:1]))

    # Empirical end-to-end BLER vs the analytic Figure 5 curve.
    t0 = time.perf_counter()
    results = bler_mc(BLER_CERS, BLER_BLOCKS, seed=0, jobs=0)
    bler_s = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    bler_mc([0.0], BLER_BLOCKS, seed=0, jobs=0)
    draw_s = round(time.perf_counter() - t0, 3)
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
            "one_row_encode_us": round(one_row_encode, 1),
            "one_row_decode_us": round(one_row_decode, 1),
            "speedup": round(speedup, 1),
            "bler_mc_blocks_per_point": BLER_BLOCKS,
            "bler_mc_s": bler_s,
            "bler_stages_s": {
                "draw_s": draw_s,
                "encode_inject_decode_s": round(bler_s - draw_s, 3),
            },
            "bler_points": points,
            "env": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        },
    )

    assert batch_rate >= BATCH_RATE_FLOOR, (
        f"batch decode must reach {BATCH_RATE_FLOOR:,.0f} blocks/s, "
        f"got {batch_rate:,.0f}"
    )
    for p in points:
        assert p["analytic_in_ci"], p
