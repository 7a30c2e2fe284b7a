"""``mc_paper``: the paper's reliability pipeline, once per process.

1. ``optimize_mapping(3)`` and ``optimize_mapping(4)`` (Figs 6-7);
2. ``analytic_design_cer`` of the five Figure-8 designs;
3. per MC seed, ``design_cer`` of each design and one ``bler_mc`` call
   at three CER points (Table 3, Fig 5).

One op is one of these calls.  A trial is one cell in ``design_cer`` or
one block in ``bler_mc``; throughput divides the trials by the summed
host-normalized time of every op, the analytic stages included.

Every MC point must fall inside a Clopper-Pearson band around its
analytic value.  The band's confidence is ``1 - 1e-9`` (about 6 sigma),
so a correct change of RNG stream fails one of the ~300 checks of a run
with probability below 1e-6.
"""

from __future__ import annotations

import importlib

import numpy as np

from common import Context, OpClock, PassResult, n_ops, op_seeds

#: MC seeds per second of run (the analytic stages take ~1.5 s once).
SEEDS_PER_SECOND = 0.42
CER_CELLS = 3_000_000
BLER_BLOCKS = 50_000
BLER_CERS = (1e-3, 3e-3, 1e-2)
BAND_CONFIDENCE = 1.0 - 1e-9


def setup(workload: str) -> None:
    """Imports, codec tables, one tiny call per MC and analytic path."""
    from repro.core.designs import three_level_optimal

    analytic, bler_mc, cer = _modules()
    design = three_level_optimal()
    analytic.analytic_design_cer(design, [2.0, 1e6], z_points=101)
    cer.design_cer(design, [2.0, 1e6], 10_000, seed=12345)
    bler_mc.bler_mc([1e-2], 100, seed=12345)


def _modules():
    """The MC modules, looked up so traced wrappers are seen at call time."""
    return tuple(
        importlib.import_module(f"repro.montecarlo.{name}")
        for name in ("analytic", "bler_mc", "cer")
    )


def _in_band(k: int, n: int, expected: float) -> bool:
    from repro.analysis.bler import binom_confidence

    lo, hi = binom_confidence(k, n, BAND_CONFIDENCE)
    return lo <= expected <= hi


def run(workload: str, ctx: Context) -> PassResult:
    n_seeds = 1 if ctx.tiny else n_ops(ctx.seconds, SEEDS_PER_SECOND)
    pipeline = _Pipeline(ctx, op_seeds(ctx.seed, n_seeds))
    with ctx.timed_section():
        pipeline.run()
    pipeline.res.take_times(pipeline.clock)
    pipeline.res.work = float(pipeline.trials)
    pipeline.res.extra["mc_seeds"] = n_seeds
    return pipeline.res


class _Pipeline:
    """The three stages, with one latency sample and one check per call."""

    def __init__(self, ctx: Context, seeds: list[int]) -> None:
        from repro.coding.blockcodec import ThreeOnTwoBlockCodec
        from repro.core.designs import all_designs
        from repro.montecarlo.sweep import PAPER_TIME_GRID_S

        self.ctx = ctx
        self.seeds = seeds
        self.grid = list(PAPER_TIME_GRID_S)
        self.designs = all_designs()
        self.n_cells = 200_000 if ctx.tiny else CER_CELLS
        self.n_blocks = 2_000 if ctx.tiny else BLER_BLOCKS
        self.n_mlc = ThreeOnTwoBlockCodec(data_bits=512, n_spare_pairs=6).n_mlc_cells
        self.res = PassResult()
        self.clock = OpClock("mc_paper")
        self.trials = 0

    def _timed(self, fn, *args, **kwargs):
        """Call one op; an op that raises is a failed op (returns None)."""
        try:
            with self.clock.op():
                return fn(*args, **kwargs)
        except Exception as exc:
            self.res.op(False, f"{fn.__name__}{args[:1]} raised {exc!r}")
            return None

    def run(self) -> None:
        analytic, bler_mc, cer = _modules()
        optimizer = importlib.import_module("repro.mapping.optimizer")
        for n_levels in (3, 4):
            self._mapping(optimizer, n_levels)
        expected = {
            name: self._analytic(analytic, name, design)
            for name, design in self.designs.items()
        }
        for s in self.seeds:
            for name, design in self.designs.items():
                self._design_cer(cer, name, design, s, expected[name])
            self._bler(bler_mc, s)

    def _mapping(self, optimizer, n_levels: int) -> None:
        m = self._timed(optimizer.optimize_mapping, n_levels)
        if m is None:
            return
        cer_at_eval = m.cer_at_eval
        if self.ctx.planted("mapping_worse"):
            cer_at_eval = 2.0 * m.start_cer + 1e-12
        ok = (
            m.design.n_levels == n_levels
            and np.isfinite(cer_at_eval)
            and 0.0 <= cer_at_eval <= m.start_cer
        )
        self.res.op(ok, f"optimize_mapping({n_levels}): cer {cer_at_eval}, start {m.start_cer}")
        mus = [round(st.mu_lr, 9) for st in m.design.states]
        self.res.digest_parts.append([f"map{n_levels}", mus])

    def _analytic(self, analytic, name: str, design) -> np.ndarray:
        a = self._timed(analytic.analytic_design_cer, design, self.grid)
        if a is None:
            return np.full(len(self.grid), np.nan)  # fails every band check
        a = np.asarray(a)
        if self.ctx.planted("analytic_nan"):
            a = a.copy()
            a[-1] = np.nan
        ok = bool(np.all(np.isfinite(a)) and np.all((a >= 0) & (a <= 1)))
        ok = ok and bool(np.all(np.diff(a) >= -1e-15))
        self.res.op(ok, f"analytic_design_cer({name}) is not a CER curve: {a.tolist()}")
        return a

    def _design_cer(self, cer, name: str, design, seed: int, expected: np.ndarray) -> None:
        r = self._timed(cer.design_cer, design, self.grid, self.n_cells, seed=seed)
        if r is None:
            return
        k = np.rint(np.asarray(r.cer) * r.n_samples).astype(np.int64)
        if self.ctx.planted("cer_shift"):
            k = 2 * k + 50
        misses = [
            j
            for j in range(len(self.grid))
            if not _in_band(int(k[j]), r.n_samples, float(expected[j]))
        ]
        self.res.op(not misses, f"design_cer({name}, seed {seed}): out of band at {misses}")
        self.res.digest_parts.append([name, seed, k.tolist()])
        self.trials += r.n_samples

    def _bler(self, bler_mc, seed: int) -> None:
        from repro.analysis.bler import block_error_rate

        points = self._timed(bler_mc.bler_mc, list(BLER_CERS), self.n_blocks, seed=seed)
        if points is None:
            return
        misses = []
        for p in points:
            n_err = p.n_errors
            if self.ctx.planted("bler_shift"):
                n_err = min(p.n_blocks, int(1.5 * n_err) + 50)
            want = float(block_error_rate(p.cer, self.n_mlc, 1))
            if not _in_band(n_err, p.n_blocks, want):
                misses.append(f"cer {p.cer}: {n_err}/{p.n_blocks} vs {want:.4g}")
            self.res.digest_parts.append(["bler", seed, p.cer, p.n_errors, p.n_silent])
        self.res.op(not misses, f"bler_mc(seed {seed}): out of band at {misses}")
        self.trials += self.n_blocks
