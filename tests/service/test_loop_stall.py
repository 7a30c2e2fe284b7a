"""No event-loop callback runs longer than a bound, under a mixed load.

The service runs batches and control handlers on the event-loop
thread by design, so what must hold is a runtime property: no single
callback may hold the loop long enough to starve the other requests.
asyncio's debug mode measures exactly that: with ``PYTHONASYNCIODEBUG``
set when the loop is built, every callback that runs longer than
``loop.slow_callback_duration`` is logged by the ``asyncio`` logger as
"Executing ... took N seconds", and asyncio calls made from a thread
other than the loop's raise.  These tests boot a server in debug mode,
drive device creation (one device at the size cap), ``bler_mc`` and
``fleet`` jobs, and concurrent keep-alive reads and writes that fill
batches, then fail on any warning or error the ``asyncio`` logger
recorded.

A runtime check sees only the paths the load exercises; the static
half of the guard is ``repro.lint`` rule RPL010 (direct blocking calls
in coroutines).  The planted-stall tests keep this check honest: a
handler that sleeps, or that runs ``bler_mc`` inline through a sync
helper, must trip it.
"""

import asyncio
import concurrent.futures
import contextlib
import logging
import time

import numpy as np
import pytest

from repro.montecarlo.bler_mc import bler_mc
from repro.service.app import ServiceApp, ServiceConfig, ServiceRunner
from repro.service.client import ServiceClient, ServiceResponseError
from repro.service.wire import bits_to_hex

#: Longest any one loop callback may run, in seconds.  A full batch of
#: 64 writes (``execute_batch``, the longest callback the service runs
#: by design) measured 20-26 ms on a 2-core box under Python 3.11 and
#: debug mode; the bound is 4x the largest of those, rounded up.
STALL_BOUND_S = 0.1

#: Keep-alive clients and the ops each sends: enough concurrency that
#: batches of 10 or more form.
N_CLIENTS = 32
OPS_PER_CLIENT = 30
N_BLOCKS = 256


def loop_faults(caplog) -> list[str]:
    """Every warning or error the ``asyncio`` logger recorded."""
    return [
        r.getMessage()
        for r in caplog.records
        if r.name == "asyncio" and r.levelno >= logging.WARNING
    ]


@contextlib.contextmanager
def debug_service(monkeypatch, caplog):
    """A running server whose loop is in debug mode with the stall bound set."""
    monkeypatch.setenv("PYTHONASYNCIODEBUG", "1")
    caplog.set_level(logging.WARNING, logger="asyncio")
    runner = ServiceRunner(ServiceConfig(port=0))
    runner.start()

    async def set_bound():
        loop = asyncio.get_running_loop()
        assert loop.get_debug()
        loop.slow_callback_duration = STALL_BOUND_S

    try:
        runner.run_async(set_bound)
        yield runner
    finally:
        runner.stop()


def _payload(rng: np.random.Generator) -> str:
    return bits_to_hex(rng.integers(0, 2, size=512, dtype=np.uint8))


def _client_ops(base_url: str, device_id: str, worker: int) -> int:
    rng = np.random.default_rng(worker)
    written: list[int] = []
    with ServiceClient(base_url) as c:
        for i in range(OPS_PER_CLIENT):
            if i % 2 == 0 or not written:
                block = int(rng.integers(N_BLOCKS))
                c.write_block(device_id, block, _payload(rng))
                written.append(block)
            else:
                c.read_block(device_id, written[int(rng.integers(len(written)))])
    return OPS_PER_CLIENT


def _settle(client: ServiceClient, job_id: str, timeout: float = 120.0) -> dict:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = client.get_job(job_id)
        if job["state"] in ("done", "failed"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not settle in {timeout}s")


def test_no_callback_stalls_the_loop_under_load(monkeypatch, caplog):
    with debug_service(monkeypatch, caplog) as runner, ServiceClient(
        runner.base_url
    ) as c:
        # The largest device the service admits, sized from its own
        # refusal of a larger one: building it must not stall the loop.
        with pytest.raises(ServiceResponseError) as refused:
            c.create_device(n_blocks=1_000_000)
        detail = refused.value.payload["detail"]
        max_blocks = detail["max_state_bytes"] * detail["n_blocks"] // detail["state_bytes"]
        big = c.create_device(n_blocks=max_blocks)["device"]
        assert big["n_blocks"] == max_blocks

        jobs = [
            c.submit_job("bler_mc", cers=[1e-2], n_blocks=20_000, seed=1)["job_id"],
            c.submit_job("fleet", n_devices=8, n_epochs=2, preset="stress", seed=3)[
                "job_id"
            ],
        ]
        dev = c.create_device(n_blocks=N_BLOCKS, seed=5)["device"]
        with concurrent.futures.ThreadPoolExecutor(N_CLIENTS) as pool:
            done = pool.map(
                _client_ops, [runner.base_url] * N_CLIENTS, [dev["id"]] * N_CLIENTS,
                range(N_CLIENTS),
            )
            assert sum(done) == N_CLIENTS * OPS_PER_CLIENT
        assert [_settle(c, j)["state"] for j in jobs] == ["done", "done"]
        c.delete_device(big["id"])
        sizes = c.metrics()["batching"]["batch_size_hist"]

    assert loop_faults(caplog) == []
    # The load really formed batches of 10 or more, so a clean run
    # covers the longest callbacks the service makes by design.
    assert max(int(s) for s in sizes) >= 10, sizes


def _inline_bler() -> int:
    """A sync helper that runs the BLER kernel (~0.6 s on a 2-core box)."""
    (result,) = bler_mc([1e-2], 50_000, 1)
    return result.n_blocks


class TestPlantedStallsTripTheCheck:
    def test_sleeping_handler(self, monkeypatch, caplog):
        async def sleepy_healthz(self, params, body):
            time.sleep(3 * STALL_BOUND_S)
            return 200, {"code": "OK", "status": "healthy"}

        monkeypatch.setattr(ServiceApp, "_healthz", sleepy_healthz)
        with debug_service(monkeypatch, caplog) as runner, ServiceClient(
            runner.base_url
        ) as c:
            c.healthz()
        assert any("took" in m for m in loop_faults(caplog))

    def test_inline_kernel_through_a_helper(self, monkeypatch, caplog):
        async def kernel_codes(self, params, body):
            return 200, {"code": "OK", "n_blocks": _inline_bler()}

        monkeypatch.setattr(ServiceApp, "_codes", kernel_codes)
        with debug_service(monkeypatch, caplog) as runner, ServiceClient(
            runner.base_url
        ) as c:
            assert c.codes()["n_blocks"] == 50_000
        assert any("took" in m for m in loop_faults(caplog))
