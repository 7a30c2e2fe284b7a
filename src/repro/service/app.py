"""The service application: routes, handlers, and lifecycle.

Wires the pieces together: a :class:`~repro.service.device.DeviceRegistry`
of virtual-time devices, the :class:`~repro.service.batching.DynamicBatcher`
hot path for block I/O, a :class:`~repro.service.jobs.JobManager` for
jobs of every campaign job kind, and :class:`~repro.service.telemetry.Telemetry` on
``/metrics`` — all served by the stdlib HTTP layer.

Threading contract: HTTP handlers and the batcher's flush task run on
the event loop, and *every* operation that touches a registered
device's simulated state (I/O, describe, delete, digest, clock) runs on
that one thread, either inside a batch or directly in its control
handler, so none of them race.  Creation builds the new device on a
worker thread (``asyncio.to_thread``), because a large one takes long
enough to stall every request; the device is private until the
registry hands it out.  Jobs run on their own pool and never touch
device state.

Endpoints (see ``docs/SERVICE.md`` for the full contract):

- ``GET  /healthz`` — liveness
- ``GET  /v1/codes`` — the structured event-code catalog
- ``GET  /metrics`` — per-endpoint latency/errors + batching stats
- ``POST /v1/devices`` / ``GET /v1/devices`` — create / list
- ``GET|DELETE /v1/devices/{device_id}`` — describe / tear down
- ``POST /v1/devices/{device_id}/clock`` — advance virtual time
- ``GET  /v1/devices/{device_id}/digest`` — state digest (differential)
- ``POST /v1/devices/{device_id}/blocks/{block}/write|read`` — block I/O
- ``POST /v1/jobs`` / ``GET /v1/jobs[/{job_id}]`` — submit / poll jobs
"""

from __future__ import annotations

import asyncio
import dataclasses
import pathlib
import tempfile
import threading

from repro.cells.faults import WearoutModel
from repro.service.batching import BatchQueue, DynamicBatcher, IoOp
from repro.service.codes import CODES, ServiceError
from repro.service.device import DeviceRegistry
from repro.service.http import HttpServer, Router
from repro.service.jobs import JobManager
from repro.service.telemetry import Telemetry
from repro.service.wire import hex_to_bits

__all__ = ["ServiceApp", "ServiceConfig", "ServiceRunner"]


@dataclasses.dataclass
class ServiceConfig:
    """Everything the ``serve`` subcommand can set."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is reported at start
    seed: int = 0  # base seed for devices created without an explicit one
    batch_max: int = 64
    queue_depth: int = 1024
    mc_jobs: int | None = 1  # MC parallelism inside one job
    job_workers: int = 2  # concurrent jobs
    work_dir: str | None = None  # job run dirs; default: a temp dir

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.queue_depth < self.batch_max:
            raise ValueError("queue_depth must be >= batch_max")


def _require_int(body: dict, key: str, default: int | None = None,
                 minimum: int = 0, maximum: int = 2**31) -> int:
    value = body.get(key, default)
    if value is None:
        raise ServiceError("E_BAD_REQUEST", f"missing required field {key!r}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ServiceError("E_BAD_REQUEST", f"{key!r} must be an integer")
    if not minimum <= value <= maximum:
        raise ServiceError(
            "E_BAD_REQUEST", f"{key!r} must be in [{minimum}, {maximum}], got {value}"
        )
    return value


def _path_int(params: dict[str, str], key: str) -> int:
    try:
        return int(params[key])
    except ValueError:
        raise ServiceError("E_BAD_REQUEST", f"path segment {key!r} must be an integer")


def _parse_wearout(spec: object) -> WearoutModel | None:
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise ServiceError("E_BAD_REQUEST", "'wearout' must be an object")
    defaults = WearoutModel()
    allowed = {"mean_endurance", "endurance_sigma", "p_stuck_reset", "p_revive"}
    unknown = set(spec) - allowed
    if unknown:
        raise ServiceError(
            "E_BAD_REQUEST", f"unknown wearout fields {sorted(unknown)}"
        )
    try:
        return WearoutModel(
            mean_endurance=float(spec.get("mean_endurance", defaults.mean_endurance)),
            endurance_sigma=float(spec.get("endurance_sigma", defaults.endurance_sigma)),
            p_stuck_reset=float(spec.get("p_stuck_reset", defaults.p_stuck_reset)),
            p_revive=float(spec.get("p_revive", defaults.p_revive)),
        )
    except (TypeError, ValueError) as exc:
        raise ServiceError("E_BAD_REQUEST", f"bad wearout model: {exc}")


class ServiceApp:
    """Handlers plus the object graph behind them (one per server)."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.registry = DeviceRegistry()
        self.telemetry = Telemetry()
        queue = BatchQueue(
            max_batch=self.config.batch_max,
            max_depth=self.config.queue_depth,
        )
        self.batcher = DynamicBatcher(queue)
        # Without an explicit work_dir the app owns a temporary one and
        # removes it in stop(); an explicit work_dir is left in place.
        self._owned_work_dir: tempfile.TemporaryDirectory[str] | None = None
        work_dir = self.config.work_dir
        if not work_dir:
            self._owned_work_dir = tempfile.TemporaryDirectory(prefix="repro-service-")
            work_dir = self._owned_work_dir.name
        self.jobs = JobManager(
            pathlib.Path(work_dir),
            max_workers=self.config.job_workers,
            mc_jobs=self.config.mc_jobs,
        )
        self._device_ordinal = 0
        self._ordinal_lock = threading.Lock()
        self.server = HttpServer(self._build_router(), self.telemetry)
        self.bound: tuple[str, int] | None = None

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> tuple[str, int]:
        self.bound = await self.server.start(self.config.host, self.config.port)
        return self.bound

    async def stop(self) -> None:
        """Clean-shutdown contract: stop intake, drain, then tear down."""
        await self.server.stop()
        await self.batcher.close()
        self.jobs.close()
        if self._owned_work_dir is not None:
            self._owned_work_dir.cleanup()

    # -- routing -------------------------------------------------------
    def _build_router(self) -> Router:
        router = Router()
        router.add("GET", "/healthz", self._healthz)
        router.add("GET", "/v1/codes", self._codes)
        router.add("GET", "/metrics", self._metrics)
        router.add("POST", "/v1/devices", self._create_device)
        router.add("GET", "/v1/devices", self._list_devices)
        router.add("GET", "/v1/devices/{device_id}", self._describe_device)
        router.add("DELETE", "/v1/devices/{device_id}", self._delete_device)
        router.add("POST", "/v1/devices/{device_id}/clock", self._advance_clock)
        router.add("GET", "/v1/devices/{device_id}/digest", self._digest)
        router.add(
            "POST", "/v1/devices/{device_id}/blocks/{block}/write", self._write_block
        )
        router.add(
            "POST", "/v1/devices/{device_id}/blocks/{block}/read", self._read_block
        )
        router.add("POST", "/v1/jobs", self._submit_job)
        router.add("GET", "/v1/jobs", self._list_jobs)
        router.add("GET", "/v1/jobs/{job_id}", self._get_job)
        return router

    # -- meta handlers -------------------------------------------------
    async def _healthz(self, params: dict, body: object) -> tuple[int, dict]:
        return 200, {"code": "OK", "status": "healthy"}

    async def _codes(self, params: dict, body: object) -> tuple[int, dict]:
        return 200, {
            "code": "OK",
            "codes": [dataclasses.asdict(c) for c in CODES.values()],
        }

    async def _metrics(self, params: dict, body: object) -> tuple[int, dict]:
        return 200, {
            "code": "OK",
            "http": self.telemetry.snapshot(),
            "batching": self.batcher.queue.stats.snapshot(),
            "devices": len(self.registry),
            "jobs": {
                "total": len(self.jobs.list()),
            },
        }

    # -- device handlers -----------------------------------------------
    async def _create_device(self, params: dict, body: object) -> tuple[int, dict]:
        body = body if isinstance(body, dict) else {}
        n_blocks = _require_int(body, "n_blocks", default=64, minimum=1,
                                maximum=1_000_000)
        data_bits = _require_int(body, "data_bits", default=512, minimum=8,
                                 maximum=4096)
        if data_bits % 8:
            raise ServiceError("E_BAD_REQUEST", "'data_bits' must be a multiple of 8")
        n_spare_pairs = _require_int(body, "n_spare_pairs", default=6, minimum=0,
                                     maximum=64)
        wearout = _parse_wearout(body.get("wearout"))
        if "seed" in body:
            seed = _require_int(body, "seed", minimum=0, maximum=2**63)
        else:
            with self._ordinal_lock:
                seed = self.config.seed + self._device_ordinal
                self._device_ordinal += 1
        # A device at the size cap takes ~0.3 s to build: off the loop.
        device = await asyncio.to_thread(
            self.registry.create,
            seed,
            n_blocks,
            data_bits=data_bits,
            n_spare_pairs=n_spare_pairs,
            wearout=wearout,
        )
        return 201, {"code": "CREATED", "device": device.describe()}

    async def _list_devices(self, params: dict, body: object) -> tuple[int, dict]:
        return 200, {"code": "OK", "devices": [d.describe() for d in self.registry]}

    async def _describe_device(self, params: dict, body: object) -> tuple[int, dict]:
        device = self.registry.get(params["device_id"])
        return 200, {"code": "OK", "device": device.describe()}

    async def _delete_device(self, params: dict, body: object) -> tuple[int, dict]:
        device_id = params["device_id"]
        self.registry.delete(device_id)
        return 200, {"code": "OK", "deleted": device_id}

    async def _advance_clock(self, params: dict, body: object) -> tuple[int, dict]:
        device = self.registry.get(params["device_id"])
        if not isinstance(body, dict) or ("advance" in body) == ("advance_to" in body):
            raise ServiceError(
                "E_BAD_REQUEST", "body must set exactly one of 'advance'/'advance_to'"
            )
        key = "advance" if "advance" in body else "advance_to"
        value = body[key]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ServiceError("E_BAD_REQUEST", f"{key!r} must be a number")
        try:
            if key == "advance":
                now = device.clock.advance(float(value))
            else:
                now = device.clock.advance_to(float(value))
        except ValueError as exc:
            raise ServiceError("E_TIME_REGRESSION", str(exc))
        return 200, {"code": "OK", "device": device.device_id, "virtual_time": now}

    async def _digest(self, params: dict, body: object) -> tuple[int, dict]:
        device = self.registry.get(params["device_id"])
        digest = device.state_digest()
        return 200, {"code": "OK", "device": device.device_id, "digest": digest}

    # -- block I/O (the batched hot path) ------------------------------
    async def _write_block(self, params: dict, body: object) -> tuple[int, dict]:
        device = self.registry.get(params["device_id"])
        block = device.check_block(_path_int(params, "block"))
        if not isinstance(body, dict) or "data" not in body:
            raise ServiceError("E_BAD_REQUEST", "write body needs a 'data' hex field")
        bits = hex_to_bits(body["data"], device.data_bits)
        t = device.bind_time(body.get("t"))
        op = IoOp("write", device, block, t, bits=bits)
        return 200, await self.batcher.submit(op)

    async def _read_block(self, params: dict, body: object) -> tuple[int, dict]:
        device = self.registry.get(params["device_id"])
        block = device.check_block(_path_int(params, "block"))
        body = body if isinstance(body, dict) else {}
        t = device.bind_time(body.get("t"))
        op = IoOp("read", device, block, t)
        return 200, await self.batcher.submit(op)

    # -- job handlers ---------------------------------------------------
    async def _submit_job(self, params: dict, body: object) -> tuple[int, dict]:
        if not isinstance(body, dict) or "kind" not in body:
            raise ServiceError("E_BAD_REQUEST", "job body needs a 'kind' field")
        job_params = body.get("params", {})
        if not isinstance(job_params, dict):
            raise ServiceError("E_BAD_REQUEST", "'params' must be an object")
        return 202, self.jobs.submit(body["kind"], job_params)

    async def _list_jobs(self, params: dict, body: object) -> tuple[int, dict]:
        return 200, {"code": "OK", "jobs": self.jobs.list()}

    async def _get_job(self, params: dict, body: object) -> tuple[int, dict]:
        return 200, self.jobs.get(params["job_id"])


class ServiceRunner:
    """Runs a :class:`ServiceApp` on a background thread's event loop.

    The in-process harness for tests and benchmarks: ``start()`` returns
    once the socket is bound (port 0 gives an ephemeral port), and
    ``stop()`` performs the full clean-shutdown sequence.  The CLI path
    (:func:`repro.cli` ``serve``) runs the loop in the foreground
    instead; this class exists so tests never need a subprocess.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.app = ServiceApp(config)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._bound: tuple[str, int] | None = None
        self._boot_error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        if self._bound is None:
            raise RuntimeError("server is not running")
        return self._bound

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._serve, name="repro-service", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._boot_error is not None:
            raise RuntimeError("service failed to start") from self._boot_error
        if self._bound is None:
            raise RuntimeError("service did not bind within 30s")
        return self._bound

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is None or self._thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._thread = None
        self._loop = None
        self._bound = None

    def run_async(self, coro_factory):
        """Run ``coro_factory()`` on the server loop (test hook)."""
        if self._loop is None:
            raise RuntimeError("server is not running")
        return asyncio.run_coroutine_threadsafe(coro_factory(), self._loop).result(
            timeout=30.0
        )

    # -- internals -----------------------------------------------------
    def _serve(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            self._bound = loop.run_until_complete(self.app.start())
        except BaseException as exc:
            self._boot_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    async def _shutdown(self) -> None:
        await self.app.stop()
