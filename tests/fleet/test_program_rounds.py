"""``program_rounds`` as the scheduler of rows grouped by device.

Each round runs one attempt of every device's current row, so a device
starts its next row as soon as its last one finishes, and a row that
does not complete stops its device.  These tests pin that schedule to
the plain definition, one row at a time in device order, on a
wear-accelerated population whose writes retry, mark pairs, run out of
spares and fail after the last attempt.
"""

import numpy as np
import pytest

from repro.cells.faults import WearoutModel
from repro.coding.batch import batch_codec
from repro.core.designs import three_level_optimal
from repro.fleet.soa import program_rounds
from repro.fleet.state import SoaFleetState

N_DEVICES = 6
N_BLOCKS = 3
ROWS_PER_DEVICE = 40
#: Both failure modes and half-successful revival, at an endurance a
#: block's cells reach within ~20 writes: every device stops, some at a
#: spent row and some after the last attempt.
WEAROUT = WearoutModel(
    mean_endurance=20.0, endurance_sigma=0.15, p_stuck_reset=0.75, p_revive=0.5
)
CODEC = batch_codec(64, 6)
DESIGN = three_level_optimal()


def population(seed):
    """A fresh population, its per-device generators and a write plan
    of ``ROWS_PER_DEVICE`` rows per device, grouped by device."""
    s = SoaFleetState(
        N_DEVICES,
        N_BLOCKS,
        CODEC.n_mlc_cells,
        CODEC.n_slc_cells,
        CODEC.ms_config.n_pairs,
    )
    g = np.random.default_rng(seed)
    s.lr0[:] = DESIGN.states[0].mu_lr
    for k in range(N_DEVICES):
        s.endurance[k] = WEAROUT.sample_endurance(g, s.endurance.shape[1])
        s.pending_mode[k] = WEAROUT.sample_modes(g, s.pending_mode.shape[1])
    gens = [np.random.default_rng([seed, k]) for k in range(N_DEVICES)]
    d = np.repeat(np.arange(N_DEVICES), ROWS_PER_DEVICE)
    b = g.integers(0, N_BLOCKS, d.size)
    bits = g.integers(0, 2, (d.size, CODEC.data_bits), dtype=np.uint8)
    factor = g.uniform(0.8, 1.25, N_DEVICES)
    return s, gens, (d, b, bits, factor)


def call(s, gens, d, b, bits, factor, rows):
    """``program_rounds`` on ``rows`` of the plan."""
    return program_rounds(
        s,
        CODEC,
        DESIGN,
        d[rows],
        b[rows],
        bits[rows],
        [gens[k] for k in d[rows]],
        [WEAROUT] * rows.size,
        factor[d[rows]],
        1e3,
    )


def grouped(seed):
    s, gens, plan = population(seed)
    out = call(s, gens, *plan, np.arange(plan[0].size))
    return s, gens, np.array(out)


def row_by_row(seed):
    """One call per row in device order; a row that does not complete
    stops its device.  Returns the state, the generators and the
    per-row ``(done, spent, retries, marks)``."""
    s, gens, plan = population(seed)
    d = plan[0]
    out = np.zeros((4, d.size), dtype=np.int64)
    stopped = set()
    for i in range(d.size):
        if d[i] in stopped:
            continue
        out[:, i] = np.array(call(s, gens, *plan, np.array([i])))[:, 0]
        if not out[0, i]:
            stopped.add(d[i])
    return s, gens, out


def digests(s):
    return [s.device_digest(k) for k in range(N_DEVICES)]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grouped_rows_match_row_by_row(seed):
    s, gens, got = grouped(seed)
    s_ref, gens_ref, want = row_by_row(seed)
    done, spent, retries, marks = want
    # The population reaches every outcome the write has.
    assert retries.sum() > 0 and marks.sum() > 0 and spent.any()
    assert (~done.astype(bool) & ~spent.astype(bool) & (retries > 0)).any()
    assert (got == want).all()
    assert digests(s) == digests(s_ref)
    assert [g.bit_generator.state for g in gens] == [
        g.bit_generator.state for g in gens_ref
    ]


def test_stopped_device_draws_nothing():
    """A device stops at its first row that does not complete: its later
    rows are not attempted, and its generator stands where that row
    left it."""
    s, gens, plan = population(0)
    d = plan[0]
    out = np.array(call(s, gens, *plan, np.arange(d.size)))
    done, _, retries, _ = out
    stops = np.flatnonzero(~done.astype(bool) & (retries > 0))
    assert stops.size
    for i in stops.tolist():
        later = (d == d[i]) & (np.arange(d.size) > i)
        assert later.any()
        assert (out[:, later] == 0).all()
        # The device alone, up to and including its stop.
        s_ref, gens_ref, _ = population(0)
        mine = np.flatnonzero((d == d[i]) & (np.arange(d.size) <= i))
        call(s_ref, gens_ref, *plan, mine)
        assert gens[d[i]].bit_generator.state == gens_ref[d[i]].bit_generator.state
        assert s.device_digest(d[i]) == s_ref.device_digest(d[i])


def test_rounds_are_the_busiest_devices_attempts(monkeypatch):
    """One round per attempt of the device that makes the most: no
    device waits for another's retries."""
    s, gens, plan = population(1)
    d = plan[0]
    encoded = []  # rows per codec.encode call, one call per round
    encode = CODEC.encode

    def counting(bits, marked):
        encoded.append(len(bits))
        return encode(bits, marked)

    monkeypatch.setattr(CODEC, "encode", counting)
    done, _, retries, _ = call(s, gens, *plan, np.arange(d.size))
    attempts = (retries + done).reshape(N_DEVICES, ROWS_PER_DEVICE)
    assert len(encoded) == attempts.sum(axis=1).max()
    assert sum(encoded) == attempts.sum()  # every attempt encodes once
    # Waves of each device's j-th row would run the slowest's attempts.
    assert len(encoded) < attempts.max(axis=0).sum()
