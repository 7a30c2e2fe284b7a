"""End-to-end HTTP tests against an in-process server.

One module-scoped server handles the read-only walk; mutating tests and
tests needing special configs (tiny queues, held batchers) boot their
own.  The differential class is the service-level acceptance check: the
HTTP responses and the final state digest must be bit-identical to a
twin :class:`VirtualDevice` driven directly through the batch kernels.
"""

import json
import socket
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.service import batching, http
from repro.service import device as device_mod
from repro.service.app import ServiceConfig, ServiceRunner
from repro.service.batching import IoOp, execute_batch
from repro.service.client import ServiceClient, ServiceResponseError
from repro.service.codes import CODES
from repro.service.device import VirtualDevice
from repro.service.jobs import JobManager
from repro.service.wire import bits_to_hex


def _payload_hex(seed: int, n_bits: int = 512) -> str:
    bits = np.random.default_rng(seed).integers(0, 2, size=n_bits, dtype=np.uint8)
    return bits_to_hex(bits)


@pytest.fixture(scope="module")
def server():
    runner = ServiceRunner(ServiceConfig(port=0))
    runner.start()
    yield runner
    runner.stop()


@pytest.fixture()
def client(server):
    with ServiceClient(server.base_url) as c:
        yield c


class TestMetaEndpoints:
    def test_healthz(self, client):
        assert client.healthz() == {"code": "OK", "status": "healthy"}

    def test_codes_catalog_is_published(self, client):
        published = {c["name"]: c for c in client.codes()["codes"]}
        assert published.keys() == CODES.keys()
        assert published["E_QUEUE_FULL"]["http_status"] == 503

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.request("GET", "/v1/nope")
        assert excinfo.value.status == 404
        assert excinfo.value.code == "E_NOT_FOUND"

    def test_wrong_method_405(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.request("DELETE", "/healthz")
        assert excinfo.value.code == "E_METHOD"

    def test_bad_json_400(self, server):
        import http.client as hc
        import json

        host, port = server.address
        conn = hc.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", "/v1/devices", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            assert resp.status == 400
            assert payload["code"] == "E_BAD_REQUEST"
        finally:
            conn.close()

    def test_metrics_shape(self, client):
        client.healthz()
        m = client.metrics()
        assert "GET /healthz" in m["http"]["endpoints"]
        health = m["http"]["endpoints"]["GET /healthz"]
        assert health["count"] >= 1
        assert "p50_ms" in health
        assert "batch_size_hist" in m["batching"]


def _raw_exchange(server, request: bytes) -> bytes:
    """Send raw bytes on one connection; return all the server sent back
    before it closed the connection (or went quiet for two seconds)."""
    host, port = server.address
    received = []
    with socket.create_connection((host, port), timeout=2.0) as sock:
        try:
            sock.sendall(request)
            while chunk := sock.recv(65536):
                received.append(chunk)
        except (socket.timeout, ConnectionError):
            pass
    return b"".join(received)


class TestWireFraming:
    """Errors answered before a request's body is read close the
    connection, so unread bytes are never parsed as a next request."""

    @pytest.mark.parametrize(
        "framing, status, code",
        [
            ("Content-Length: 1048577", 413, "E_PAYLOAD_TOO_LARGE"),
            ("Content-Length: -1", 400, "E_BAD_REQUEST"),
            ("Content-Length: ten", 400, "E_BAD_REQUEST"),
            ("Content-Length: +2", 400, "E_BAD_REQUEST"),
            ("Content-Length: 1_0", 400, "E_BAD_REQUEST"),
            ("Transfer-Encoding: chunked", 400, "E_BAD_REQUEST"),
        ],
    )
    def test_rejected_body_closes_connection(self, server, framing, status, code):
        smuggled = b"POST /v1/devices HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}"
        head = f"POST /v1/devices HTTP/1.1\r\n{framing}\r\n\r\n".encode()
        reply = _raw_exchange(server, head + smuggled)
        assert reply.startswith(f"HTTP/1.1 {status} ".encode()), reply[:80]
        assert b"Connection: close" in reply
        assert code.encode() in reply
        assert reply.count(b"HTTP/1.1 ") == 1, "the unread body was served"

    @pytest.mark.parametrize(
        "request_bytes",
        [
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=["request-line", "header-line"],
    )
    def test_line_over_stream_limit_413(self, server, request_bytes):
        reply = _raw_exchange(server, request_bytes)
        assert reply.startswith(b"HTTP/1.1 413 "), reply[:80]
        assert b"Connection: close" in reply
        assert b"E_PAYLOAD_TOO_LARGE" in reply


def _read_until_closed(sock: socket.socket) -> tuple[bytes, bool]:
    """Everything the server sends, and whether it closed the connection
    (False: it went quiet for the socket's timeout instead)."""
    received = []
    try:
        while chunk := sock.recv(65536):
            received.append(chunk)
    except socket.timeout:
        return b"".join(received), False
    except ConnectionError:
        pass
    return b"".join(received), True


class TestReadDeadline:
    """A connection that does not deliver a whole request within
    REQUEST_READ_TIMEOUT_S is closed, idle keep-alives included."""

    @pytest.fixture(autouse=True)
    def short_deadline(self, monkeypatch):
        monkeypatch.setattr(http, "REQUEST_READ_TIMEOUT_S", 0.5)

    def test_partial_request_line_is_closed(self, server):
        with socket.create_connection(server.address, timeout=3.0) as sock:
            sock.sendall(b"GET /heal")
            start = time.monotonic()
            reply, closed = _read_until_closed(sock)
        assert closed and reply == b""
        assert time.monotonic() - start < 2.5

    def test_idle_keep_alive_is_closed_after_an_answer(self, server):
        with socket.create_connection(server.address, timeout=3.0) as sock:
            # Delivered in two parts, both inside the deadline: answered.
            sock.sendall(b"GET /healthz HTTP/1.1\r\n")
            time.sleep(0.1)
            sock.sendall(b"Host: test\r\n\r\n")
            reply, closed = _read_until_closed(sock)
        assert reply.startswith(b"HTTP/1.1 200 "), reply[:80]
        assert b"Connection: keep-alive" in reply
        assert closed


class TestDeviceLifecycle:
    def test_create_describe_delete(self, client):
        created = client.create_device(n_blocks=4, seed=7)
        dev = created["device"]
        assert created["code"] == "CREATED"
        assert dev["seed"] == 7
        assert dev["n_blocks"] == 4

        described = client.describe_device(dev["id"])["device"]
        assert described == dev

        ids = [d["id"] for d in client.list_devices()["devices"]]
        assert dev["id"] in ids

        client.delete_device(dev["id"])
        with pytest.raises(ServiceResponseError) as excinfo:
            client.describe_device(dev["id"])
        assert excinfo.value.code == "E_DEVICE_NOT_FOUND"

    def test_create_validation(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.create_device(n_blocks=0)
        assert excinfo.value.code == "E_BAD_REQUEST"
        with pytest.raises(ServiceResponseError):
            client.create_device(n_blocks="many")
        with pytest.raises(ServiceResponseError):
            client.create_device(wearout={"bogus_field": 1.0})

    def test_oversized_device_is_refused_before_allocation(self, client, monkeypatch):
        real = device_mod.SoaFleetState

        def guarded(n_devices, n_blocks, *args):
            # Without the bound this test must fail, not allocate ~21 GB.
            if n_blocks > 256:
                raise MemoryError(f"allocated {n_blocks} blocks before the bound")
            return real(n_devices, n_blocks, *args)

        monkeypatch.setattr(device_mod, "SoaFleetState", guarded)
        a = client.create_device(n_blocks=2)["device"]
        with pytest.raises(ServiceResponseError) as excinfo:
            client.create_device(n_blocks=1_000_000)
        assert excinfo.value.code == "E_DEVICE_TOO_LARGE"
        assert excinfo.value.status == 400
        detail = excinfo.value.payload["detail"]
        assert detail["max_state_bytes"] == device_mod.MAX_DEVICE_STATE_BYTES
        assert detail["state_bytes"] > device_mod.MAX_DEVICE_STATE_BYTES
        # service_rw's 256-block device stays far below the bound, and the
        # refusal used up no device id.
        b = client.create_device(n_blocks=256)["device"]
        try:
            assert int(b["id"].split("-")[1]) == int(a["id"].split("-")[1]) + 1
            assert 10 * 256 * detail["state_bytes"] // 1_000_000 < (
                device_mod.MAX_DEVICE_STATE_BYTES
            )
        finally:
            client.delete_device(a["id"])
            client.delete_device(b["id"])

    def test_derived_seeds_are_distinct(self, client):
        a = client.create_device(n_blocks=2)["device"]
        b = client.create_device(n_blocks=2)["device"]
        try:
            assert a["seed"] != b["seed"]
        finally:
            client.delete_device(a["id"])
            client.delete_device(b["id"])


class TestBlockIo:
    def test_write_read_roundtrip(self, client):
        dev = client.create_device(n_blocks=4, seed=3)["device"]
        try:
            data = _payload_hex(1)
            w = client.write_block(dev["id"], 0, data)
            assert w["code"] == "OK"
            assert w["epoch"] == 0
            r = client.read_block(dev["id"], 0)
            assert r["code"] == "OK"
            assert r["data"] == data
        finally:
            client.delete_device(dev["id"])

    def test_error_codes(self, client):
        dev = client.create_device(n_blocks=2, seed=3)["device"]
        try:
            with pytest.raises(ServiceResponseError) as excinfo:
                client.read_block(dev["id"], 0)
            assert excinfo.value.status == 409
            assert excinfo.value.code == "E_BLOCK_NOT_WRITTEN"

            with pytest.raises(ServiceResponseError) as excinfo:
                client.write_block(dev["id"], 9, _payload_hex(0))
            assert excinfo.value.code == "E_BLOCK_RANGE"

            with pytest.raises(ServiceResponseError) as excinfo:
                client.write_block(dev["id"], 0, "zz" * 64)
            assert excinfo.value.code == "E_BAD_REQUEST"

            with pytest.raises(ServiceResponseError) as excinfo:
                client.write_block(dev["id"], 0, "ab")  # wrong length
            assert excinfo.value.code == "E_BAD_REQUEST"
        finally:
            client.delete_device(dev["id"])

    def test_virtual_clock_over_http(self, client):
        dev = client.create_device(n_blocks=2, seed=5)["device"]
        try:
            data = _payload_hex(2)
            client.write_block(dev["id"], 0, data, t=0.0)
            out = client.advance_clock(dev["id"], advance=3.15e7)  # ~a year
            assert out["virtual_time"] == pytest.approx(3.15e7)
            r = client.read_block(dev["id"], 0)
            assert r["data"] == data
            assert r["t"] == pytest.approx(3.15e7)
            # reads in the past are now rejected
            with pytest.raises(ServiceResponseError) as excinfo:
                client.read_block(dev["id"], 0, t=1.0)
            assert excinfo.value.code == "E_TIME_REGRESSION"
        finally:
            client.delete_device(dev["id"])

    def test_spare_exhaustion_507(self, client):
        dev = client.create_device(
            n_blocks=1,
            seed=31,
            wearout={
                "mean_endurance": 4.0,
                "endurance_sigma": 0.1,
                "p_stuck_reset": 1.0,
                "p_revive": 0.0,
            },
        )["device"]
        try:
            with pytest.raises(ServiceResponseError) as excinfo:
                for i in range(200):
                    client.write_block(dev["id"], 0, _payload_hex(i))
            assert excinfo.value.status == 507
            assert excinfo.value.code == "E_SPARE_EXHAUSTED"
        finally:
            client.delete_device(dev["id"])


class TestJobs:
    def _poll(self, client, job_id, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            job = client.get_job(job_id)
            if job["state"] in ("done", "failed"):
                return job
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} did not settle in {timeout}s")

    def test_bler_job(self, client):
        accepted = client.submit_job("bler_mc", cers=[1e-3], n_blocks=200, seed=1)
        assert accepted["code"] == "ACCEPTED"
        assert accepted["state"] == "queued"
        job = self._poll(client, accepted["job_id"])
        assert job["state"] == "done"
        assert job["result"]["n_blocks"] == 200
        (point,) = job["result"]["points"]
        assert point["cer"] == 1e-3
        assert 0.0 <= point["bler"] <= 1.0

    def test_fleet_job(self, client):
        accepted = client.submit_job(
            "fleet", n_devices=8, n_epochs=2, preset="stress", seed=3
        )
        job = self._poll(client, accepted["job_id"])
        assert job["state"] == "done", job.get("error")
        assert job["result"]["n_devices"] == 8
        assert job["result"]["n_epochs"] == 2
        assert job["result"]["n_samples"] == 16

    def test_fail_job_settles_failed(self, client):
        accepted = client.submit_job("fail", message="drill")
        job = self._poll(client, accepted["job_id"])
        assert job["state"] == "failed"
        assert "result" not in job
        assert job["error"]["code"] == "E_INTERNAL"
        assert "drill" in job["error"]["message"]

    def test_job_runs_write_the_campaign_event_log(self, server, client):
        accepted = client.submit_job("capacity")
        job = self._poll(client, accepted["job_id"])
        assert job["state"] == "done"
        assert job["result"]["capacities"]
        log = server.app.jobs.work_dir / accepted["job_id"] / "events.jsonl"
        events = [json.loads(line)["event"] for line in log.read_text().splitlines()]
        assert events == ["campaign_start", "job_start", "job_done", "campaign_end"]

    def test_accepted_is_queued_when_the_job_finishes_first(self, tmp_path):
        # A pool that runs each job to completion inside submit(): the
        # ACCEPTED reply must still describe the job as handed over.
        class InlinePool:
            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True):
                pass

        jobs = JobManager(tmp_path)
        jobs._pool.shutdown()
        jobs._pool = InlinePool()
        accepted = jobs.submit("bler_mc", {"cers": [1e-3], "n_blocks": 20, "seed": 1})
        assert accepted["code"] == "ACCEPTED"
        assert accepted["state"] == "queued"
        assert "result" not in accepted
        assert jobs.get(accepted["job_id"])["state"] == "done"

    def test_restart_on_the_same_work_dir_takes_fresh_ids(self, tmp_path):
        # A second manager on the first one's work dir must not reuse
        # job-0001, whose run dir holds a different spec's manifest.
        first = JobManager(tmp_path)
        done = first.submit("capacity", {})
        first.close()
        assert first.get(done["job_id"])["state"] == "done"
        second = JobManager(tmp_path)
        try:
            accepted = second.submit("bler_mc", {"cers": [1e-3], "n_blocks": 20})
            assert accepted["job_id"] != done["job_id"]
            while second.get(accepted["job_id"])["state"] in ("queued", "running"):
                time.sleep(0.02)
            job = second.get(accepted["job_id"])
            assert job["state"] == "done", job.get("error")
        finally:
            second.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["job-0001", "job-0002"]

    def test_job_listing(self, client):
        accepted = client.submit_job("bler_mc", cers=[1e-3], n_blocks=50, seed=2)
        ids = [j["job_id"] for j in client.request("GET", "/v1/jobs")["jobs"]]
        assert accepted["job_id"] in ids

    def test_job_validation(self, client):
        with pytest.raises(ServiceResponseError) as excinfo:
            client.submit_job("mine-bitcoin")
        assert excinfo.value.code == "E_JOB_KIND"
        assert "bler_mc" in excinfo.value.payload["detail"]["kinds"]
        with pytest.raises(ServiceResponseError):
            client.submit_job("bler_mc", cers=[])
        with pytest.raises(ServiceResponseError):
            client.submit_job("bler_mc", cers=[2.0], n_blocks=10)
        with pytest.raises(ServiceResponseError):
            client.submit_job("bler_mc", cers=[1e-3] * 65, n_blocks=10)
        with pytest.raises(ServiceResponseError):
            client.submit_job("fleet", n_devices=200_001)
        # Size params that set array shapes are capped too.
        for kind, params in [
            ("fleet", {"n_blocks": 1_000_000}),
            ("fleet", {"ops_per_epoch": 1_000_000}),
            ("bler_mc", {"data_bits": 1_000_000}),
            ("bler_mc", {"n_spare_pairs": 1_000_000}),
            ("state_cer", {"design": "3LCo", "state_index": 2}),
        ]:
            with pytest.raises(ServiceResponseError) as excinfo:
                client.submit_job(kind, **params)
            assert excinfo.value.status == 400, (kind, params)
            assert excinfo.value.code == "E_JOB_KIND", (kind, params)
        with pytest.raises(ServiceResponseError):
            client.submit_job("campaign", name="no-such-campaign")
        with pytest.raises(ServiceResponseError) as excinfo:
            client.get_job("job-9999")
        assert excinfo.value.code == "E_JOB_NOT_FOUND"

    def test_retention_without_n_cells_is_rejected_at_submit(self, client):
        before = len(client.request("GET", "/v1/jobs")["jobs"])
        with pytest.raises(ServiceResponseError) as excinfo:
            client.submit_job("retention", design="3LCo")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "E_JOB_KIND"
        assert "n_cells" in str(excinfo.value)
        assert len(client.request("GET", "/v1/jobs")["jobs"]) == before

    def test_campaign_job(self, client):
        accepted = client.submit_job("campaign", name="smoke", n_samples=1000)
        job = self._poll(client, accepted["job_id"], timeout=120.0)
        assert job["state"] == "done", job.get("error")
        assert job["result"]["ok"] is True
        assert all(s == "done" for s in job["result"]["states"].values())


class TestWorkDir:
    def test_owned_temp_work_dir_removed_on_stop(self):
        runner = ServiceRunner(ServiceConfig(port=0))
        work_dir = runner.app.jobs.work_dir
        assert work_dir.name.startswith("repro-service-") and work_dir.is_dir()
        runner.start()
        runner.stop()
        assert not work_dir.exists()

    def test_explicit_work_dir_left_in_place(self, tmp_path):
        work_dir = tmp_path / "jobs"
        work_dir.mkdir()
        runner = ServiceRunner(ServiceConfig(port=0, work_dir=str(work_dir)))
        assert runner.app.jobs.work_dir == work_dir
        runner.start()
        runner.stop()
        assert work_dir.is_dir()


class TestBackpressure:
    def test_queue_full_503(self):
        runner = ServiceRunner(
            ServiceConfig(port=0, batch_max=2, queue_depth=2)
        )
        runner.start()
        try:
            with ServiceClient(runner.base_url) as c:
                dev = c.create_device(n_blocks=4, seed=0)["device"]
                runner.app.batcher.hold()  # nothing flushes: queue must fill
                import threading

                held = [
                    threading.Thread(
                        target=lambda b=b: ServiceClient(runner.base_url).write_block(
                            dev["id"], b, _payload_hex(b)
                        ),
                        daemon=True,
                    )
                    for b in range(2)
                ]
                for t in held:
                    t.start()
                deadline = time.monotonic() + 10.0
                while runner.app.batcher.queue.depth < 2:
                    assert time.monotonic() < deadline, "queue never filled"
                    time.sleep(0.01)
                with pytest.raises(ServiceResponseError) as excinfo:
                    c.write_block(dev["id"], 3, _payload_hex(3))
                assert excinfo.value.status == 503
                assert excinfo.value.code == "E_QUEUE_FULL"
                runner.app.batcher.release()
                for t in held:
                    t.join(timeout=10.0)
                assert c.metrics()["batching"]["rejected"] == 1
        finally:
            runner.stop()


class TestEngineOnLoopThread:
    def test_batches_and_control_handlers_run_on_the_loop_thread(self, monkeypatch):
        # The engine is single-threaded and GIL-bound, so no batch and
        # no control operation may hop off the event loop's thread.
        threads: dict[str, set[int]] = {"batch": set(), "digest": set()}

        def recording_batch(ops):
            threads["batch"].add(threading.get_ident())
            return execute_batch(ops)

        real_digest = VirtualDevice.state_digest

        def recording_digest(self):
            threads["digest"].add(threading.get_ident())
            return real_digest(self)

        monkeypatch.setattr(batching, "execute_batch", recording_batch)
        monkeypatch.setattr(VirtualDevice, "state_digest", recording_digest)

        async def loop_thread():
            return threading.get_ident()

        runner = ServiceRunner(ServiceConfig(port=0))
        runner.start()
        try:
            with ServiceClient(runner.base_url) as c:
                dev = c.create_device(n_blocks=4, seed=0)["device"]
                c.write_block(dev["id"], 0, _payload_hex(0))
                c.read_block(dev["id"], 0)
                c.digest(dev["id"])
            loop = runner.run_async(loop_thread)
        finally:
            runner.stop()
        assert threads == {"batch": {loop}, "digest": {loop}}


class TestHttpDifferential:
    """Service responses == direct batch-kernel execution, bit for bit."""

    def test_http_matches_direct_device(self):
        seed, n_blocks = 424242, 8
        runner = ServiceRunner(ServiceConfig(port=0))
        runner.start()
        try:
            with ServiceClient(runner.base_url) as c:
                dev = c.create_device(n_blocks=n_blocks, seed=seed)["device"]
                twin = VirtualDevice("twin", seed, n_blocks)

                # interleaved writes/reads at explicit virtual times,
                # including a rewrite (epoch 1) and post-drift reads
                script = [
                    ("write", 0, 0.0, 1),
                    ("write", 1, 0.0, 2),
                    ("read", 0, 0.0, None),
                    ("write", 0, 0.0, 3),  # rewrite -> epoch 1
                    ("read", 0, 0.0, None),
                    ("advance", None, 1e6, None),
                    ("read", 0, 1e6, None),
                    ("read", 1, 1e6, None),
                    ("write", 2, 1e6, 4),
                    ("read", 2, 1e6, None),
                ]
                for kind, block, t, data_seed in script:
                    if kind == "advance":
                        c.advance_clock(dev["id"], advance_to=t)
                        twin.clock.advance_to(t)
                        continue
                    if kind == "write":
                        data = _payload_hex(data_seed)
                        http_out = c.write_block(dev["id"], block, data, t=t)
                        bits = np.random.default_rng(data_seed).integers(
                            0, 2, size=512, dtype=np.uint8
                        )
                        (direct,) = execute_batch(
                            [IoOp("write", twin, block, t, bits=bits)]
                        )
                    else:
                        http_out = c.read_block(dev["id"], block, t=t)
                        (direct,) = execute_batch([IoOp("read", twin, block, t)])
                    assert http_out == direct, (kind, block, t)

                # Same request history => same full simulated state.
                assert c.digest(dev["id"])["digest"] == twin.state_digest()
        finally:
            runner.stop()
