"""Golden pins for the system simulator behind Figure 16.

``tests/fixtures/sim_golden.json`` holds the exact ``CoreResult`` of
:func:`repro.sim.core.run_trace` for the six Figure-16 workloads x the
four design variants x the three write policies (none, PAUSE, CANCEL)
at 8,000 accesses, plus a row-buffer-8 subset (4LC-REF, where blocking
refresh closes rows), and the write-pausing ablation's (mean read
latency, pauses, cancels) per policy.  At 8,000 accesses PAUSE and
CANCEL both fire on the memory-heavy workloads; at 2,000 they never do.

Every number is compared exactly: a refactor of the PCM front end must
leave the simulation bit-identical.  An intentional model change
regenerates the fixture with ``PYTHONPATH=src python
tests/test_sim_golden.py`` and says why in the change.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

from repro import WritePolicy
from repro.sim.config import PAPER_VARIANTS, MachineConfig
from repro.sim.core import run_trace
from repro.workloads.spec_like import PAPER_WORKLOADS, make_workload

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "fixtures" / "sim_golden.json"
N_ACCESSES = 8_000
SEED = 0
#: Every ``CoreResult`` field that carries a simulated number.
FIELDS = (
    "exec_time_ns",
    "pcm_reads",
    "pcm_writes",
    "pcm_refreshes",
    "read_stall_ns",
    "write_window_stall_ns",
    "l1_miss_rate",
    "l2_miss_rate",
    "row_hits",
)
#: ``None`` is the default call (no ``write_policy`` argument).
POLICIES = (None, WritePolicy.PAUSE, WritePolicy.CANCEL)
ROW_BUFFER_VARIANTS = ("4LC-REF",)


def _key(row_buffer: int, workload: str, variant: str, policy) -> str:
    name = "default" if policy is None else policy.value
    return f"rb{row_buffer}/{workload}/{variant}/{name}"


def _cases():
    for row_buffer, variants in ((0, tuple(PAPER_VARIANTS)), (8, ROW_BUFFER_VARIANTS)):
        for workload in PAPER_WORKLOADS:
            for variant in variants:
                for policy in POLICIES:
                    yield row_buffer, workload, variant, policy


def simulate() -> dict[str, dict]:
    traces = {w: make_workload(w, n_accesses=N_ACCESSES, seed=SEED) for w in PAPER_WORKLOADS}
    out = {}
    for row_buffer, workload, variant, policy in _cases():
        machine = MachineConfig(row_buffer_blocks=row_buffer)
        kwargs = {} if policy is None else {"write_policy": policy}
        result = run_trace(traces[workload], machine, PAPER_VARIANTS[variant], **kwargs)
        out[_key(row_buffer, workload, variant, policy)] = {
            f: getattr(result, f) for f in FIELDS
        }
    return out


def _ablation_module():
    """The write-pausing ablation's own driver (``benchmarks/``)."""
    bench = ROOT / "benchmarks"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location(
            "_ablation_write_pausing", bench / "test_ablation_write_pausing.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def ablation() -> dict[str, list]:
    run = _ablation_module()._run
    return {p.value: list(run(p)) for p in WritePolicy}


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def simulated():
    return simulate()


class TestSimGolden:
    def test_cases_cover_the_grid(self, golden):
        assert sorted(golden["run_trace"]) == sorted(_key(*c) for c in _cases())
        assert len(golden["run_trace"]) == 6 * 4 * 3 + 6 * 1 * 3

    def test_run_trace_bit_identical(self, golden, simulated):
        mismatched = [k for k, v in golden["run_trace"].items() if simulated[k] != v]
        assert mismatched == []

    def test_policies_fire(self, golden):
        """The pins would not guard the pause/cancel path if it never ran:
        some policy runs must differ from the default run."""
        runs = golden["run_trace"]
        differ = {
            p.value
            for rb, w, v, p in _cases()
            if p is not None and runs[_key(rb, w, v, p)] != runs[_key(rb, w, v, None)]
        }
        assert differ == {"pause", "cancel"}

    def test_ablation_bit_identical(self, golden):
        assert ablation() == golden["ablation_write_pausing"]


if __name__ == "__main__":
    FIXTURE.write_text(
        json.dumps(
            {"run_trace": simulate(), "ablation_write_pausing": ablation()},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
