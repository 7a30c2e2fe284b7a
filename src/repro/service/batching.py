"""Dynamic batching: coalesce concurrent I/O into the batch kernels.

The hot path of the service.  Concurrent block read/write requests land
in a :class:`BatchQueue` and are flushed as one batch whenever the
flush task is idle: a batch is whatever queued while the previous one
ran, capped at ``max_batch``.  Batch size follows load, with no timer:
an idle server runs a lone request at once, and a busy one coalesces
more per batch.

The layering is sans-io:

- :class:`BatchQueue` — pure data structure: submit / take-batch with
  backpressure, no asyncio;
- :func:`execute_batch` — runs one batch of :class:`IoOp` against the
  device engine, coalescing reads into a single
  :meth:`~repro.coding.batch.BatchThreeOnTwoCodec.decode` per block
  geometry and running writes one at a time in queue order;
- :class:`DynamicBatcher` — the asyncio front: its flush task takes
  what is pending, runs it on the event-loop thread and resolves the
  futures.

**Bit-identity.**  ``execute_batch(ops)`` produces exactly the
responses and device state of executing the same ops one at a time in
queue order: reads are stateless given the bound timestamps, write
randomness is addressed per ``(block, epoch)``, and writes within one
batch are executed in queue order.
``tests/service/test_batch_queue.py`` holds the two paths together.
"""

from __future__ import annotations

import asyncio
import collections
import dataclasses
from typing import Sequence

import numpy as np

from repro.service.codes import ServiceError, code_for_fail_stage
from repro.service.device import VirtualDevice
from repro.service.wire import bits_to_hex
from repro.wearout.mark_and_spare import SpareExhausted

__all__ = [
    "BatchQueue",
    "BatchStats",
    "DynamicBatcher",
    "IoOp",
    "QueueFull",
    "execute_batch",
]


class QueueFull(Exception):
    """The batching queue is at capacity: shed load (HTTP 503)."""


@dataclasses.dataclass
class IoOp:
    """One queued block operation with its submission-bound context."""

    kind: str  # "read" | "write"
    device: VirtualDevice
    block: int
    t: float  # virtual timestamp, bound at submission
    bits: np.ndarray | None = None  # write payload
    future: asyncio.Future | None = None
    result: dict | None = None  # filled in by execute_batch


@dataclasses.dataclass
class BatchStats:
    """Counters exported on ``/metrics``."""

    submitted: int = 0
    rejected: int = 0
    flushes_size: int = 0
    flushes_idle: int = 0
    flushes_drain: int = 0
    batch_size_hist: collections.Counter = dataclasses.field(
        default_factory=collections.Counter
    )

    def snapshot(self) -> dict:
        sizes = sorted(self.batch_size_hist)
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "flushes": {
                "size": self.flushes_size,
                "idle": self.flushes_idle,
                # Always 0 (no deadline trigger); perfbench/wl_service.py reads it.
                "deadline": 0,
                "drain": self.flushes_drain,
            },
            "batch_size_hist": {str(s): self.batch_size_hist[s] for s in sizes},
        }


class BatchQueue:
    """FIFO of pending ops with a batch-size cap and backpressure (sans-io)."""

    def __init__(self, *, max_batch: int = 64, max_depth: int = 1024):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_depth < max_batch:
            raise ValueError("max_depth must be >= max_batch")
        self.max_batch = int(max_batch)
        self.max_depth = int(max_depth)
        self.stats = BatchStats()
        self._pending: collections.deque[IoOp] = collections.deque()

    @property
    def depth(self) -> int:
        return len(self._pending)

    def submit(self, op: IoOp) -> None:
        """Enqueue one op; raises :class:`QueueFull` at capacity."""
        if len(self._pending) >= self.max_depth:
            self.stats.rejected += 1
            raise QueueFull(
                f"batch queue at capacity ({self.max_depth} pending requests)"
            )
        self._pending.append(op)
        self.stats.submitted += 1

    def take(self, *, drain: bool = False) -> list[IoOp]:
        """Pop up to ``max_batch`` ops in FIFO order and record stats.

        The flush counts as ``drain`` at shutdown, else as ``size`` when
        it took a full batch and ``idle`` when it took a partial one.
        Callers decide *when*, the queue only records *what*.
        """
        n = min(len(self._pending), self.max_batch)
        batch = [self._pending.popleft() for _ in range(n)]
        if batch:
            self.stats.batch_size_hist[len(batch)] += 1
            if drain:
                self.stats.flushes_drain += 1
            elif n == self.max_batch:
                self.stats.flushes_size += 1
            else:
                self.stats.flushes_idle += 1
        return batch


# ----------------------------------------------------------------------
# Batch execution against the device engine.
# ----------------------------------------------------------------------

def _read_result(dev: VirtualDevice, op: IoOp, decoded, row: int) -> dict:
    """Render one row of a batch decode into a response payload."""
    dev.stats.reads += 1
    if bool(decoded.uncorrectable[row]):
        code, stage = code_for_fail_stage(int(decoded.fail_stage[row]))
        dev.stats.uncorrectable_reads += 1
        err = ServiceError(
            code,
            f"block {op.block} uncorrectable at stage {stage}",
            {"device": dev.device_id, "block": op.block, "stage": stage, "t": op.t},
        )
        return {"error": err}
    tec = int(decoded.tec_corrected[row])
    hec = int(decoded.hec_pairs_dropped[row])
    dev.stats.tec_corrections += tec
    dev.stats.hec_pairs_dropped += hec
    return {
        "code": "OK",
        "block": op.block,
        "t": op.t,
        "data": bits_to_hex(decoded.data_bits[row]),
        "tec_corrected": tec,
        "hec_pairs_dropped": hec,
    }


def _execute_reads(ops: list[IoOp]) -> None:
    """Coalesced read path: one decode call per block geometry.

    Rows from every device sharing a codec instance are concatenated
    into a single sense + :meth:`BatchThreeOnTwoCodec.decode` pass —
    this is where concurrent requests actually merge into the PR-5
    kernels.  Results scatter back to each op's ``result``.
    """
    by_codec: dict[int, list[IoOp]] = collections.defaultdict(list)
    for op in ops:
        by_codec[id(op.device.codec)].append(op)
    for group in by_codec.values():
        rows_states = []
        rows_slc = []
        live: list[IoOp] = []
        for op in group:
            dev = op.device
            try:
                dev.require_written(op.block)
            except ServiceError as err:
                op.result = {"error": err}
                continue
            states, slc = dev.sense_rows(
                np.array([op.block]), np.array([op.t])
            )
            rows_states.append(states)
            rows_slc.append(slc)
            live.append(op)
        if not live:
            continue
        codec = live[0].device.codec
        decoded = codec.decode(
            np.concatenate(rows_states, axis=0), np.concatenate(rows_slc, axis=0)
        )
        for row, op in enumerate(live):
            op.result = _read_result(op.device, op, decoded, row)


def _write_one(op: IoOp) -> dict:
    """Execute one write op, turning spare exhaustion into its error code."""
    dev = op.device
    try:
        assert op.bits is not None
        return dev.write_block(op.block, op.bits, op.t)
    except SpareExhausted as exc:
        return {
            "error": ServiceError(
                "E_SPARE_EXHAUSTED",
                str(exc),
                {"device": dev.device_id, "block": op.block},
            )
        }


def _execute_writes(ops: list[IoOp]) -> None:
    """Write path: each write runs on its own, in queue order.

    A write's randomness is addressed by its ``(block, epoch)`` and each
    block's state is its own, so queue order is all the bit-identity
    contract needs: a second write to the same block sees the state
    (marks, epoch) the first one left behind.
    """
    for op in ops:
        op.result = _write_one(op)


def execute_batch(ops: Sequence[IoOp]) -> list[dict]:
    """Run one batch; returns per-op results in submission order.

    Results are dicts: either a response payload or ``{"error":
    ServiceError}``.  Bit-identical to executing the ops sequentially in
    FIFO order (the differential suite drives both paths):

    - reads are stateless given their bound timestamps, so they coalesce
      freely among themselves;
    - writes mutate wear state, so within one segment they run before
      the reads (a read behind a write to the same block must observe
      it) and keep queue order among themselves;
    - the only FIFO hazard left — a *write* submitted behind a *read* of
      the same block — forces a segment boundary, so the read still
      senses the pre-write cells.
    """
    segments: list[list[IoOp]] = []
    current: list[IoOp] = []
    read_keys: set[tuple[str, int]] = set()
    for op in ops:
        key = (op.device.device_id, op.block)
        if op.kind == "write" and key in read_keys:
            segments.append(current)
            current = []
            read_keys = set()
        current.append(op)
        if op.kind == "read":
            read_keys.add(key)
    if current:
        segments.append(current)
    for segment in segments:
        _execute_writes([op for op in segment if op.kind == "write"])
        _execute_reads([op for op in segment if op.kind == "read"])
    return [op.result for op in ops]  # every op was filled by its segment


# ----------------------------------------------------------------------
# Asyncio front end.
# ----------------------------------------------------------------------

class DynamicBatcher:
    """Event-loop face of the batching queue.

    One background task flushes the queue whenever it is idle: it takes
    what is pending, runs it, yields to the loop, and repeats.  The
    flush task *is* the engine: batches run on the event-loop thread,
    and the app's control handlers touch device state on that thread
    too, so all engine-state access is serialized without a worker
    thread.  The engine is GIL-bound, so a thread would add a hop per
    batch and no parallelism.  While a batch runs the loop is stalled
    (bounded by ``max_batch``); requests that arrive meanwhile wait in
    socket buffers, and their handlers submit before the flush task
    runs again, so they form the next batch.

    ``hold()`` is a test seam: while held, nothing flushes, so tests can
    deterministically fill the queue (e.g. to exercise backpressure)
    without racing the flush loop.  ``close()`` drains even when held.
    """

    def __init__(self, queue: BatchQueue | None = None):
        self.queue = queue or BatchQueue()
        self._wake = asyncio.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._task: asyncio.Task | None = None
        self._closed = False
        self._held = False

    # -- lifecycle -----------------------------------------------------
    def _ensure_task(self) -> None:
        if self._task is None or self._task.done():
            self._loop = asyncio.get_running_loop()
            self._task = self._loop.create_task(self._run())

    async def close(self) -> None:
        """Drain: flush every pending op, then stop the flush task."""
        self._closed = True
        self._wake.set()
        if self._task is not None:
            await self._task

    def hold(self) -> None:
        """Stop flushing (the batch already running finishes); any thread."""
        self._held = True

    def release(self) -> None:
        """Resume flushing; safe to call from any thread."""
        self._held = False
        if self._loop is not None:
            # asyncio.Event is not thread-safe: set it on the loop's thread.
            self._loop.call_soon_threadsafe(self._wake.set)

    # -- submission ----------------------------------------------------
    async def submit(self, op: IoOp) -> dict:
        """Enqueue one op and await its result (or its ServiceError)."""
        if self._closed:
            raise ServiceError("E_SHUTTING_DOWN", "server is draining")
        loop = asyncio.get_running_loop()
        op.future = loop.create_future()
        try:
            self.queue.submit(op)
        except QueueFull as exc:
            raise ServiceError(
                "E_QUEUE_FULL", str(exc), {"max_depth": self.queue.max_depth}
            )
        self._ensure_task()
        self._wake.set()
        result = await op.future
        err = result.get("error")
        if err is not None:
            raise err
        return result

    # -- flush loop ----------------------------------------------------
    async def _run(self) -> None:
        while True:
            self._wake.clear()  # before the checks, so no wake-up is lost
            if self.queue.depth and (self._closed or not self._held):
                self._execute(self.queue.take(drain=self._closed))
                # Let the batch's handlers answer (and new requests
                # submit) before the next batch stalls the loop.
                await asyncio.sleep(0)
                continue
            if self._closed:
                return
            await self._wake.wait()

    def _execute(self, batch: list[IoOp]) -> None:
        try:
            results = execute_batch(batch)
        except Exception as exc:
            for op in batch:
                if op.future is not None and not op.future.done():
                    op.future.set_exception(exc)
            return
        for op, result in zip(batch, results):
            if op.future is not None and not op.future.done():
                op.future.set_result(result)
