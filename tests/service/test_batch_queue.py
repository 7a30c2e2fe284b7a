"""Batching queue and batch-execution semantics.

The load-bearing suite of the service: the work-conserving flush policy
(no timers, no sleeps), FIFO and backpressure behaviour, and — the
contract everything else rests on — *bit identity* between batched and
sequential execution, including the adversarial arrangements (several
writes to the same block in one batch, reads submitted before and after
those writes).
"""

import asyncio

import numpy as np
import pytest

from repro.service import batching
from repro.service.batching import (
    BatchQueue,
    DynamicBatcher,
    IoOp,
    QueueFull,
    execute_batch,
)
from repro.service.codes import ServiceError
from repro.service.device import VirtualDevice
from repro.service.wire import bits_to_hex


def _payload(seed: int, n_bits: int = 512) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=n_bits, dtype=np.uint8)


def _write(device: VirtualDevice, block: int, seed: int, t: float = 0.0) -> IoOp:
    return IoOp("write", device, block, t, bits=_payload(seed))


def _read(device: VirtualDevice, block: int, t: float = 0.0) -> IoOp:
    return IoOp("read", device, block, t)


# ---------------------------------------------------------------------------
# BatchQueue (sans-io)
# ---------------------------------------------------------------------------

class TestBatchQueue:
    def test_flush_by_size(self):
        q = BatchQueue(max_batch=3)
        dev = VirtualDevice("d", 0, 4)
        for i in range(4):
            q.submit(_read(dev, i))
        batch = q.take()
        assert [op.block for op in batch] == [0, 1, 2]  # capped at max_batch
        assert q.depth == 1
        assert q.stats.flushes_size == 1
        assert q.stats.batch_size_hist[3] == 1

    def test_fifo_order_across_takes(self):
        q = BatchQueue(max_batch=2)
        dev = VirtualDevice("d", 0, 8)
        for i in range(5):
            q.submit(_read(dev, i))
        order = [op.block for op in q.take()] + [op.block for op in q.take()]
        order += [op.block for op in q.take()]
        assert order == [0, 1, 2, 3, 4]

    def test_backpressure(self):
        q = BatchQueue(max_batch=2, max_depth=3)
        dev = VirtualDevice("d", 0, 8)
        for i in range(3):
            q.submit(_read(dev, i))
        with pytest.raises(QueueFull):
            q.submit(_read(dev, 3))
        assert q.stats.rejected == 1
        assert q.stats.submitted == 3
        q.take()  # frees room
        q.submit(_read(dev, 3))

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchQueue(max_batch=0)
        with pytest.raises(ValueError):
            BatchQueue(max_batch=8, max_depth=4)


# ---------------------------------------------------------------------------
# Bit identity: batched == sequential
# ---------------------------------------------------------------------------

def _run_sequential(device: VirtualDevice, ops: list[IoOp]) -> list[dict]:
    """Reference semantics: each op in its own batch, in queue order."""
    results = []
    for op in ops:
        results.extend(execute_batch([op]))
    return results


def _strip_errors(results: list[dict]) -> list[dict]:
    """Make error entries comparable (ServiceError has no __eq__)."""
    out = []
    for r in results:
        err = r.get("error")
        if err is not None:
            out.append({"error": (err.code, str(err), err.detail)})
        else:
            out.append(r)
    return out


class TestBitIdentity:
    def _twins(self, seed=123, n_blocks=16, **kwargs):
        # Same id on purpose: ids label error payloads, and the payloads
        # must compare equal between the two execution paths.
        return (
            VirtualDevice("dev", seed, n_blocks, **kwargs),
            VirtualDevice("dev", seed, n_blocks, **kwargs),
        )

    def _check(self, build_ops):
        """Run the same op sequence batched and sequential; compare all."""
        dev_seq, dev_bat = self._twins()
        seq = _run_sequential(dev_seq, build_ops(dev_seq))
        bat = execute_batch(build_ops(dev_bat))
        assert _strip_errors(seq) == _strip_errors(bat)
        assert dev_seq.state_digest() == dev_bat.state_digest()
        return bat

    def test_writes_then_reads(self):
        def ops(dev):
            writes = [_write(dev, b, seed=b) for b in range(8)]
            reads = [_read(dev, b) for b in range(8)]
            return writes + reads

        results = self._check(ops)
        for b, r in enumerate(results[8:]):
            assert r["data"] == bits_to_hex(_payload(b))

    def test_duplicate_block_writes_keep_queue_order(self):
        # Two writes to one block in a single batch: the later one must
        # win, with the same epochs (hence the same RNG draws) as
        # sequential execution.
        def ops(dev):
            return [
                _write(dev, 3, seed=1),
                _write(dev, 3, seed=2),
                _read(dev, 3),
            ]

        results = self._check(ops)
        assert results[0]["epoch"] == 0
        assert results[1]["epoch"] == 1
        assert results[2]["data"] == bits_to_hex(_payload(2))

    def test_read_before_write_sees_old_data(self):
        # A read queued BEFORE a write to the same block must observe the
        # pre-write data even when both land in one batch (the case that
        # forces segment partitioning in execute_batch).
        def ops(dev):
            setup = [_write(dev, 5, seed=10)]
            return setup + [
                _read(dev, 5),  # must see seed=10 data
                _write(dev, 5, seed=11),
                _read(dev, 5),  # must see seed=11 data
            ]

        results = self._check(ops)
        assert results[1]["data"] == bits_to_hex(_payload(10))
        assert results[3]["data"] == bits_to_hex(_payload(11))

    def test_mixed_devices_and_times(self):
        dev_a_seq, dev_a_bat = self._twins(seed=1)
        dev_b_seq, dev_b_bat = self._twins(seed=2, n_blocks=4)

        def ops(da, db):
            return [
                _write(da, 0, seed=5, t=0.0),
                _write(db, 0, seed=6, t=0.0),
                _read(da, 0, t=100.0),
                _read(db, 0, t=1000.0),
                _write(da, 0, seed=7, t=2000.0),
                _read(da, 0, t=2000.0),
            ]

        seq = _run_sequential(None, ops(dev_a_seq, dev_b_seq))
        bat = execute_batch(ops(dev_a_bat, dev_b_bat))
        assert _strip_errors(seq) == _strip_errors(bat)
        assert dev_a_seq.state_digest() == dev_a_bat.state_digest()
        assert dev_b_seq.state_digest() == dev_b_bat.state_digest()

    def test_unwritten_read_errors_match(self):
        def ops(dev):
            return [_read(dev, 0), _write(dev, 0, seed=3), _read(dev, 0)]

        results = self._check(ops)
        assert results[0]["error"].code == "E_BLOCK_NOT_WRITTEN"
        assert results[2]["data"] == bits_to_hex(_payload(3))

    def test_wearout_state_identical(self):
        # Accelerated wearout: marks and revives draw from the per-write
        # RNG, so wear state after a batched history must equal the
        # sequential one exactly.
        from repro.cells.faults import WearoutModel

        wearout = WearoutModel(
            mean_endurance=4.0, endurance_sigma=0.2, p_stuck_reset=1.0, p_revive=0.0
        )
        dev_seq = VirtualDevice("dev", 7, 4, wearout=wearout)
        dev_bat = VirtualDevice("dev", 7, 4, wearout=wearout)

        def ops(dev):
            out = []
            for round_i in range(6):
                out.extend(_write(dev, b, seed=round_i * 4 + b) for b in range(4))
            return out

        seq = _run_sequential(dev_seq, ops(dev_seq))
        bat = execute_batch(ops(dev_bat))
        assert _strip_errors(seq) == _strip_errors(bat)
        assert dev_seq.state_digest() == dev_bat.state_digest()
        assert dev_seq.describe()["wear"] == dev_bat.describe()["wear"]


# ---------------------------------------------------------------------------
# DynamicBatcher (asyncio)
# ---------------------------------------------------------------------------

class TestDynamicBatcher:
    def test_size_flush_coalesces(self):
        async def scenario():
            dev = VirtualDevice("d", 0, 8)
            batcher = DynamicBatcher(BatchQueue(max_batch=4))
            try:
                writes = [batcher.submit(_write(dev, b, seed=b)) for b in range(4)]
                results = await asyncio.wait_for(asyncio.gather(*writes), timeout=10)
                assert [r["code"] for r in results] == ["OK"] * 4
                # All four queue before the flush task first runs: one
                # full batch, flushed by size.
                assert batcher.queue.stats.flushes_size == 1
                assert batcher.queue.stats.batch_size_hist[4] == 1
            finally:
                await batcher.close()

        asyncio.run(scenario())

    def test_lone_op_on_idle_batcher_runs_at_once(self):
        async def scenario():
            dev = VirtualDevice("d", 0, 8)
            batcher = DynamicBatcher(BatchQueue(max_batch=64))
            try:
                result = await asyncio.wait_for(
                    batcher.submit(_write(dev, 0, seed=1)), timeout=10
                )
                assert result["code"] == "OK"
                # A batch of one, taken at once because the engine was free.
                stats = batcher.queue.stats
                assert dict(stats.batch_size_hist) == {1: 1}
                assert stats.flushes_idle == 1
            finally:
                await batcher.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "n, sizes", [(5, {1: 1, 5: 1}), (11, {1: 1, 8: 1, 3: 1})]
    )
    def test_ops_queued_while_engine_busy_form_the_next_batch(
        self, n, sizes, monkeypatch
    ):
        async def scenario():
            dev = VirtualDevice("d", 0, 32)
            batcher = DynamicBatcher(BatchQueue(max_batch=8))
            rest: list[asyncio.Future] = []

            def busy_engine(ops):
                # While the first batch runs, n more requests arrive:
                # their submits are scheduled now and can only run once
                # the batch has finished and the flush task yields.
                if not rest:
                    rest.extend(
                        asyncio.ensure_future(batcher.submit(_write(dev, b, seed=b)))
                        for b in range(1, n + 1)
                    )
                return execute_batch(ops)

            monkeypatch.setattr(batching, "execute_batch", busy_engine)
            try:
                # A lone op on an idle batcher runs at once, as a batch of one.
                first = await asyncio.wait_for(
                    batcher.submit(_write(dev, 0, seed=0)), timeout=10
                )
                assert first["code"] == "OK"
                assert len(rest) == n
                results = await asyncio.wait_for(asyncio.gather(*rest), timeout=10)
                assert [r["code"] for r in results] == ["OK"] * n
                # The n ops run as the next batch, split at the cap.
                assert dict(batcher.queue.stats.batch_size_hist) == sizes
            finally:
                await batcher.close()

        asyncio.run(scenario())

    def test_hold_backpressure_and_release(self):
        async def scenario():
            dev = VirtualDevice("d", 0, 8)
            batcher = DynamicBatcher(
                BatchQueue(max_batch=2, max_depth=2)
            )
            batcher.hold()
            try:
                pending = [
                    asyncio.ensure_future(batcher.submit(_write(dev, b, seed=b)))
                    for b in range(2)
                ]
                await asyncio.sleep(0)  # let submissions enqueue
                with pytest.raises(ServiceError) as excinfo:
                    await batcher.submit(_write(dev, 2, seed=2))
                assert excinfo.value.code == "E_QUEUE_FULL"
                assert all(not f.done() for f in pending)  # held, not lost
                batcher.release()
                results = await asyncio.wait_for(asyncio.gather(*pending), timeout=10)
                assert [r["code"] for r in results] == ["OK", "OK"]
            finally:
                await batcher.close()

        asyncio.run(scenario())

    def test_uncorrectable_surfaces_as_service_error(self):
        async def scenario():
            dev = VirtualDevice("d", 0, 8)
            batcher = DynamicBatcher(BatchQueue(max_batch=1))
            try:
                with pytest.raises(ServiceError) as excinfo:
                    await asyncio.wait_for(batcher.submit(_read(dev, 0)), timeout=10)
                assert excinfo.value.code == "E_BLOCK_NOT_WRITTEN"
            finally:
                await batcher.close()

        asyncio.run(scenario())

    def test_close_drains_pending_ops(self):
        async def scenario():
            dev = VirtualDevice("d", 0, 8)
            batcher = DynamicBatcher(BatchQueue(max_batch=64))
            pending = [
                asyncio.ensure_future(batcher.submit(_write(dev, b, seed=b)))
                for b in range(3)
            ]
            await asyncio.sleep(0)
            await batcher.close()  # before the flush task ran: close must flush
            results = await asyncio.gather(*pending)
            assert [r["code"] for r in results] == ["OK"] * 3
            assert batcher.queue.stats.flushes_drain >= 1
            with pytest.raises(ServiceError) as excinfo:
                await batcher.submit(_write(dev, 3, seed=3))
            assert excinfo.value.code == "E_SHUTTING_DOWN"

        asyncio.run(scenario())
