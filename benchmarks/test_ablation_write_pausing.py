"""Ablation: write pausing / cancellation [25] on read latency.

The paper cites Qureshi et al.'s write cancellation and pausing as the
standard mitigation for PCM's slow writes.  This bench measures the mean
read latency of a 40%-write stream under the three policies, at two
write rates.  The device sustains 4 writes per 6.4 us window (Table 5's
40 MB/s), 0.625 writes/us:

- gaps of U(100, 400) ns offer 1.6 writes/us, far past that cap, so the
  write window queues every request and the policies cannot help;
- gaps of U(600, 1200) ns offer 0.44 writes/us, below the cap, where a
  read arriving mid-write is what costs latency.
"""

import numpy as np

from repro.sim.config import DesignVariant, MachineConfig, RefreshMode
from repro.sim.pcm_timing import PCMTimingModel, WritePolicy

from _report import emit, render_table

SATURATED = (100.0, 400.0)
BELOW_CAP = (600.0, 1200.0)


def _run(
    policy: WritePolicy, seed: int = 0, gap_ns: tuple[float, float] = SATURATED
) -> tuple[float, int, int]:
    machine = MachineConfig()
    variant = DesignVariant("t", RefreshMode.NONE, None, 5.0)
    pcm = PCMTimingModel(machine, variant, policy)
    rng = np.random.default_rng(seed)
    t = 0.0
    total_read_latency = 0.0
    n_reads = 0
    for _ in range(4000):
        t += float(rng.uniform(*gap_ns))
        bank_line = int(rng.integers(0, 64))
        if rng.random() < 0.4:
            pcm.schedule_write(bank_line, t)
        else:
            done = pcm.schedule_read(bank_line, t)
            total_read_latency += done - t
            n_reads += 1
    return total_read_latency / n_reads, pcm.counts.write_pauses, pcm.counts.write_cancels


def test_ablation_write_pausing(benchmark):
    streams = {
        "saturated (1.6 writes/us)": SATURATED,
        "below cap (0.44 writes/us)": BELOW_CAP,
    }

    def compute():
        return {
            label: {p: _run(p, gap_ns=gaps) for p in WritePolicy}
            for label, gaps in streams.items()
        }

    results = benchmark(compute)
    rows = []
    for label, by_policy in results.items():
        base = by_policy[WritePolicy.NONE][0]
        rows += [
            (label, policy.value, f"{lat:.1f}", f"{lat / base:.3f}", pauses, cancels)
            for policy, (lat, pauses, cancels) in by_policy.items()
        ]
    emit(
        "ablation_write_pausing",
        render_table(
            "Ablation: mean read latency of a 40%-write stream (device cap 0.625 writes/us)",
            ["write stream", "write policy", "read latency [ns]", "vs none", "pauses", "cancels"],
            rows,
            note=(
                "PAUSE serves a read that arrives mid-write at the write's next "
                "write-and-verify round boundary (125 ns rounds, at most 4 "
                "interruptions per write); CANCEL does the same but abandons and "
                "reissues a write that has done fewer than half its rounds.  Saturated: "
                "the four-write window queues every request, so reads wait "
                "~0.75 ms whatever the policy.  Below the cap PAUSE lowers the "
                "mean read latency, and CANCEL, which reissues each cancelled "
                "write in full, lowers it less.  Refresh writes are never "
                "interrupted."
            ),
        ),
    )
    saturated = results["saturated (1.6 writes/us)"]
    base = saturated[WritePolicy.NONE][0]
    assert all(abs(lat / base - 1.0) < 1e-3 for lat, _, _ in saturated.values())
    assert saturated[WritePolicy.PAUSE][0] <= base

    below = results["below cap (0.44 writes/us)"]
    base = below[WritePolicy.NONE][0]
    assert below[WritePolicy.PAUSE][0] < 0.97 * base
    assert below[WritePolicy.PAUSE][1] > 0 and below[WritePolicy.CANCEL][2] > 0
    assert below[WritePolicy.CANCEL][0] <= base
