"""Service throughput/latency benchmark + the batching identity check.

Boots the full service as ``python -m repro serve --port 0`` in its own
process (stdlib HTTP server, dynamic batcher, virtual-time devices), so
the load's client threads never share the server's GIL.  Runs the
synthetic-client load harness against it and emits
``results/BENCH_service.json``: requests/s, blocks/s, p50/p99 latency
per endpoint, the dynamic-batching histogram, the machine, and the
differential verdict — HTTP responses and final device state digest
must be bit-identical to driving a twin :class:`VirtualDevice` directly
through the batch kernels.

Env knobs for slower machines: ``REPRO_SERVICE_CLIENTS`` (default 16),
``REPRO_SERVICE_BLOCKS`` (blocks per client, default 16),
``REPRO_SERVICE_ROUNDS`` (write+read rounds, default 4).
"""

import contextlib
import os
import pathlib
import platform
import re
import signal
import subprocess
import sys
import threading

import numpy as np

from _report import emit_json
from repro.service.batching import IoOp, execute_batch
from repro.service.client import ServiceClient
from repro.service.device import VirtualDevice
from repro.service.loadgen import run_load

N_CLIENTS = int(os.environ.get("REPRO_SERVICE_CLIENTS", 16))
BLOCKS_PER_CLIENT = int(os.environ.get("REPRO_SERVICE_BLOCKS", 16))
N_ROUNDS = int(os.environ.get("REPRO_SERVICE_ROUNDS", 4))
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@contextlib.contextmanager
def _serve():
    """Run ``python -m repro serve --port 0``; yield its base URL.

    On exit the server gets SIGINT and must drain and exit 0.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
            ),
        },
    )
    try:
        for line in proc.stderr:
            match = re.search(r"listening on (http://\S+)", line)
            if match:
                break
        else:
            raise RuntimeError("server exited before listening")
        threading.Thread(target=proc.stderr.read, daemon=True).start()
        yield match.group(1)
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            code = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    assert code == 0, f"server exited with {code}"


def _differential_verdict(base_url: str, seed: int = 20130901) -> dict:
    """Service vs direct kernels on one shared history; True = identical."""
    n_blocks = 8
    rng = np.random.default_rng(seed)
    payloads = [
        rng.integers(0, 2, size=512, dtype=np.uint8) for _ in range(2 * n_blocks)
    ]
    twin = VirtualDevice("twin", seed, n_blocks)
    checked = 0
    with ServiceClient(base_url) as client:
        dev = client.create_device(n_blocks=n_blocks, seed=seed)["device"]
        script = []
        for b in range(n_blocks):  # write, read, rewrite, drift, read
            script.append(("write", b, 0.0, payloads[b]))
        script += [("read", b, 0.0, None) for b in range(n_blocks)]
        script += [("write", b, 0.0, payloads[n_blocks + b]) for b in range(4)]
        script += [("advance", None, 3.15e7, None)]
        script += [("read", b, 3.15e7, None) for b in range(n_blocks)]

        identical = True
        for kind, block, t, bits in script:
            if kind == "advance":
                client.advance_clock(dev["id"], advance_to=t)
                twin.clock.advance_to(t)
                continue
            if kind == "write":
                from repro.service.wire import bits_to_hex

                http_out = client.write_block(dev["id"], block, bits_to_hex(bits), t=t)
                (direct,) = execute_batch([IoOp("write", twin, block, t, bits=bits)])
            else:
                http_out = client.read_block(dev["id"], block, t=t)
                (direct,) = execute_batch([IoOp("read", twin, block, t)])
            identical = identical and http_out == direct
            checked += 1
        digest_http = client.digest(dev["id"])["digest"]
        client.delete_device(dev["id"])
    digest_twin = twin.state_digest()
    return {
        "operations_compared": checked,
        "responses_identical": bool(identical),
        "digest_identical": digest_http == digest_twin,
        "state_digest": digest_twin,
    }


def test_service_throughput_and_bit_identity():
    with _serve() as base_url:
        load = run_load(
            base_url,
            n_clients=N_CLIENTS,
            blocks_per_client=BLOCKS_PER_CLIENT,
            n_rounds=N_ROUNDS,
            seed=1,
        )
        differential = _differential_verdict(base_url)
        with ServiceClient(base_url) as client:
            http_metrics = client.metrics()["http"]

    # The service exists to serve correct data: zero tolerance here.
    assert load["errors"] == 0
    assert load["payload_mismatches"] == 0
    assert differential["responses_identical"]
    assert differential["digest_identical"]
    # Dynamic batching must actually coalesce under concurrent load:
    # with 4+ clients, ops queue while a batch runs and share the next.
    hist = load["batching"]["batch_size_hist"]
    if N_CLIENTS >= 4:
        assert max(int(n) for n in hist) > 1, hist

    latency_endpoints = {
        name: stats
        for name, stats in http_metrics["endpoints"].items()
        if "blocks" in name
    }
    emit_json(
        "BENCH_service",
        {
            "load": load,
            "differential": differential,
            "http_block_endpoints": latency_endpoints,
            "env": {
                "cpu_count": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        },
    )
