"""``service_rw``: block I/O through the HTTP service in its own process.

The server is ``python -m repro serve`` with its default config (batch
max 64, 2 ms deadline), or, for the traced run, ``serve_traced.py``,
which installs the span wrappers and then starts the same CLI path.

Load: two keep-alive connections in a closed loop, one thread each, on
disjoint halves of one 256-block device.  Every block is written once
(untimed) first; then each connection sends a 50/50 mix of writes and
reads of random blocks in its half.  One op is one HTTP request.

Checks: every response is 2xx, every read returns the payload last
written to that block, and the server's final state digest equals that
of a twin ``VirtualDevice`` that replays each connection's ops through
``execute_batch``.

The connections run in lock-step chunks of ``CHUNK`` requests; once
every connection has primed, and between chunks, with the load idle,
the driving thread takes the host probe on each CPU.  Each chunk's
latencies and wall time are host-normalized by the probes on either
side of it, and each chunk is one latency window: ``op_p50_ms`` and
``op_p90_ms`` are medians over chunks of the chunk's percentile.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from common import (
    OP_ELASTICITY,
    Context,
    PassResult,
    host_probe_s,
    host_scale,
    n_ops,
    setup_probe_s,
)

#: Requests per second of run (both connections), on a 2-core x86 host.
REQUESTS_PER_SECOND = 450
N_BLOCKS = 256
DATA_BITS = 512
N_CONNECTIONS = 2
#: Requests per connection between host probes (about a second).
CHUNK = 250
_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def setup(workload: str) -> None:
    """The client needs only the stdlib; the server is set up per pass."""


class Server:
    """One service process: spawn, wait for ``/healthz``, stop."""

    def __init__(self, ctx: Context, traced: bool) -> None:
        self.trace_path = os.path.join(ctx.scratch, f"server-trace-{os.getpid()}.json")
        if traced:
            cmd = [sys.executable, os.path.join(_BENCH_DIR, "serve_traced.py"), self.trace_path]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.log: list[str] = []
        try:
            self.host, self.port = self._await_listening()
            self._drain = threading.Thread(target=self._drain_stderr, daemon=True)
            self._drain.start()
            self._await_health()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        self.setup_probe_s = setup_probe_s()

    def _await_listening(self) -> tuple[str, int]:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.log.append(line.rstrip())
            m = _LISTENING.search(line)
            if m:
                return m.group(1), int(m.group(2))
        raise RuntimeError(f"server exited before listening: {self.log[-5:]}")

    def _drain_stderr(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.log.append(line.rstrip())

    def _await_health(self) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError(f"server never became healthy: {self.log[-5:]}")
            time.sleep(0.001)

    def request(self, method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            return _send(conn, method, path, None if body is None else json.dumps(body).encode())
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> int:
        """SIGTERM (the server drains and exits 0); kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stderr is not None:
            drain = getattr(self, "_drain", None)
            if drain is not None:
                drain.join(timeout=5)
            self.proc.stderr.close()
        return self.proc.returncode


def _send(conn: http.client.HTTPConnection, method: str, path: str, payload: bytes | None):
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    resp = conn.getresponse()
    raw = resp.read()
    return resp.status, (json.loads(raw) if raw else {})


def setup_probe(ctx: Context) -> tuple[float, float]:
    """One fresh server's set-up time (spawn until ``/healthz`` answers),
    and the host probe taken right after it."""
    server = Server(ctx, traced=False)
    server.stop()
    return server.setup_s, server.setup_probe_s


class _Plan:
    """One connection's ops: priming writes, then the timed mix."""

    def __init__(self, seed: int, conn: int, n: int) -> None:
        rng = np.random.default_rng([seed, conn])
        half = N_BLOCKS // N_CONNECTIONS
        lo = conn * half
        self.prime = [(b, _payload(rng)) for b in range(lo, lo + half)]
        self.ops: list[tuple[str, int, float, str | None]] = []
        is_write = rng.random(n) < 0.5
        blocks = rng.integers(lo, lo + half, n)
        for i in range(n):
            data = _payload(rng) if is_write[i] else None
            kind = "write" if is_write[i] else "read"
            self.ops.append((kind, int(blocks[i]), 1.0 + i, data))


def _payload(rng: np.random.Generator) -> str:
    bits = rng.integers(0, 2, DATA_BITS, dtype=np.uint8)
    return bytes(np.packbits(bits)).hex()


def _flip_hex(text: str) -> str:
    return format(int(text[0], 16) ^ 1, "x") + text[1:]


def _probe_cpus() -> float:
    """Mean host probe over the CPUs the load may run on (at most four).

    The service's work is spread over the server's and the client's
    threads, so one CPU's speed does not describe it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    probes = []
    try:
        for cpu in cpus[:4]:
            os.sched_setaffinity(0, {cpu})  # this thread only
            probes.append(host_probe_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(probes) / len(probes)


class _Chunks:
    """Lock-step chunks: every connection sends ``CHUNK`` requests between
    host probes, which the driving thread takes while the load is idle.
    The first probe waits on ``primed``, passed once every connection has
    finished its priming writes."""

    def __init__(self, parties: int) -> None:
        self.primed = threading.Barrier(parties, timeout=120)
        self.go = threading.Barrier(parties, timeout=120)
        self.done = threading.Barrier(parties, timeout=120)

    def abort(self) -> None:
        self.primed.abort()
        self.go.abort()
        self.done.abort()


class _Client(threading.Thread):
    def __init__(self, server: Server, dev: str, plan: _Plan, ctx: Context,
                 chunks: _Chunks, res: PassResult, lock: threading.Lock) -> None:
        super().__init__(daemon=True)
        self.server, self.dev, self.plan, self.ctx = server, dev, plan, ctx
        self.chunks, self.res, self.lock = chunks, res, lock
        self.latencies: list[list[float]] = []  # per chunk
        self.ok = 0
        self.error: BaseException | None = None

    def run(self) -> None:
        conn = http.client.HTTPConnection(self.server.host, self.server.port, timeout=30)
        try:
            self._prime(conn)
            self.chunks.primed.wait()
            self._load(conn)
        except BaseException as exc:  # reported by the driving thread
            self.error = exc
            self.chunks.abort()
        finally:
            conn.close()

    def _prime(self, conn: http.client.HTTPConnection) -> None:
        for block, data in self.plan.prime:
            status, body = _send(conn, "POST", self._path(block, "write"),
                                 json.dumps({"data": data, "t": 0.5}).encode())
            if status != 200:
                raise RuntimeError(f"priming write of block {block}: {status} {body}")

    def _path(self, block: int, kind: str) -> str:
        return f"/v1/devices/{self.dev}/blocks/{block}/{kind}"

    def _load(self, conn: http.client.HTTPConnection) -> None:
        last = dict(self.plan.prime)
        requests = []
        misroute = self.ctx.planted("bad_status")
        for kind, block, t, data in self.plan.ops:
            body = {"data": data, "t": t} if kind == "write" else {"t": t}
            if kind == "read" and misroute:
                block, misroute = 10 * N_BLOCKS, False
            requests.append((self._path(block, kind), json.dumps(body).encode()))
        perf = time.perf_counter
        outcomes = []
        for lo in range(0, len(requests), CHUNK):
            self.chunks.go.wait()
            lat: list[float] = []
            for path, payload in requests[lo : lo + CHUNK]:
                t0 = perf()
                try:
                    status, body = _send(conn, "POST", path, payload)
                except (OSError, http.client.HTTPException) as exc:
                    status, body = None, {"code": repr(exc)}
                    conn.close()  # reopened by the next request
                lat.append(perf() - t0)
                outcomes.append((status, body))
            self.latencies.append(lat)
            self.chunks.done.wait()
        flip = self.ctx.planted("read_bitflip")
        checks = []
        for (kind, block, t, data), (status, body) in zip(self.plan.ops, outcomes):
            if status != 200 or body.get("code") != "OK":
                checks.append((False, f"{kind} block {block}: HTTP {status} {body.get('code')}"))
                continue
            if kind == "write":
                last[block] = data
                checks.append((True, ""))
                continue
            got = body.get("data", "")
            if flip:
                got, flip = _flip_hex(got), False
            checks.append((got == last[block], f"read block {block} at t={t}: wrong payload"))
        with self.lock:
            for ok, what in checks:
                self.res.op(ok, what)
                self.ok += ok


def _twin_digest(seed: int, plans: list[_Plan], ctx: Context) -> str:
    """Digest of a fresh device after replaying every connection's ops."""
    from repro.service.batching import IoOp, execute_batch
    from repro.service.device import VirtualDevice

    dev = VirtualDevice("twin", seed, N_BLOCKS, data_bits=DATA_BITS)

    def bits(text: str) -> np.ndarray:
        return np.unpackbits(np.frombuffer(bytes.fromhex(text), dtype=np.uint8))

    tamper = ctx.planted("digest_mismatch")
    for plan in plans:
        ops = [IoOp("write", dev, b, 0.5, bits=bits(d)) for b, d in plan.prime]
        for kind, block, t, data in plan.ops:
            if kind == "write":
                if tamper:
                    data, tamper = _flip_hex(data), False
                ops.append(IoOp("write", dev, block, t, bits=bits(data)))
            else:
                ops.append(IoOp("read", dev, block, t))
        for lo in range(0, len(ops), 64):
            execute_batch(ops[lo : lo + 64])
    return dev.state_digest()


def run(workload: str, ctx: Context) -> PassResult:
    n_total = 40 if ctx.tiny else n_ops(ctx.seconds, REQUESTS_PER_SECOND)
    per_conn = max(1, n_total // N_CONNECTIONS)
    dev_seed = int(np.random.SeedSequence(ctx.seed).generate_state(1)[0])
    plans = [_Plan(ctx.seed, c, per_conn) for c in range(N_CONNECTIONS)]
    res = PassResult()
    server = Server(ctx, traced=ctx.tracer is not None)
    try:
        status, body = server.request(
            "POST", "/v1/devices", {"n_blocks": N_BLOCKS, "seed": dev_seed}
        )
        if status != 201:
            raise RuntimeError(f"device create failed: {status} {body}")
        dev = body["device"]["id"]
        chunks = _Chunks(N_CONNECTIONS + 1)
        lock = threading.Lock()
        clients = [_Client(server, dev, p, ctx, chunks, res, lock) for p in plans]
        for c in clients:
            c.start()
        probes: list[float] = []
        walls = []
        try:
            chunks.primed.wait()
            host_probe_s()  # warm-up: a process's first call runs ~10% slow
            probes.append(_probe_cpus())
            with ctx.timed_section():
                for _ in range(-(-per_conn // CHUNK)):
                    chunks.go.wait()
                    t0 = time.perf_counter()
                    chunks.done.wait()
                    walls.append(time.perf_counter() - t0)
                    probes.append(_probe_cpus())
        except threading.BrokenBarrierError:
            pass  # a client failed; reported below
        _join(clients)
        for c in clients:
            if c.error is not None:
                raise RuntimeError(f"client failed: {c.error!r}") from c.error
        # Host-normalize each chunk by the probes on either side of it.
        # Each chunk is one latency window, so a burst of contention from
        # outside moves one window's percentiles, not the run's.
        e = OP_ELASTICITY[workload]
        scale = [host_scale(0.5 * (a + b), e) for a, b in zip(probes, probes[1:])]
        res.latency_windows_s = [
            [x * f for c in clients for x in c.latencies[j]] for j, f in enumerate(scale)
        ]
        res.wall_s = sum(w * f for w, f in zip(walls, scale))
        res.work = float(sum(c.ok for c in clients))
        res.extra["raw_wall_s"] = sum(walls)
        res.extra["host_probe_median_s"] = statistics.median(probes)

        _, digest = server.request("GET", f"/v1/devices/{dev}/digest")
        _, metrics = server.request("GET", "/metrics")
        res.peak_rss_mb = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError(f"server exited with {code}: {server.log[-5:]}")
    twin = _twin_digest(dev_seed, plans, ctx)
    res.op(twin == digest["digest"], f"state digest {digest['digest']} != twin {twin}")
    res.digest_parts.append(digest["digest"])
    batching = metrics["batching"]
    res.counters = {
        "service.flushes_deadline": batching["flushes"]["deadline"],
        "service.flushes_size": batching["flushes"]["size"],
        "service.rejected": batching["rejected"],
    }
    if ctx.tracer is not None:
        with open(server.trace_path) as f:
            res.extra["server_trace"] = json.load(f)
        os.remove(server.trace_path)
    res.extra["requests"] = sum(len(w) for w in res.latency_windows_s)
    res.extra["server_setup_s"] = server.setup_s
    res.extra["server_setup_probe_s"] = server.setup_probe_s
    return res


def _join(clients: list[_Client]) -> None:
    for c in clients:
        c.join(timeout=170)
        if c.is_alive():
            raise RuntimeError("client thread did not finish")
