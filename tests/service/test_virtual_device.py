"""Virtual-time device engine: drift, wear, determinism, validation."""

import concurrent.futures
import sys

import numpy as np
import pytest

from repro.cells.cell_array import CellArray, cell_state_digest
from repro.cells.faults import WearoutModel
from repro.coding.blockcodec import ThreeOnTwoBlockCodec
from repro.core.device import PCMDevice
from repro.montecarlo.rng import block_rng
from repro.service.codes import ServiceError
from repro.service.device import SERVICE_SPAWN_KEY, DeviceRegistry, VirtualDevice
from repro.wearout.mark_and_spare import SpareExhausted

SECONDS_PER_YEAR = 365.25 * 86400.0


def _payload(seed: int, n_bits: int = 512) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2, size=n_bits, dtype=np.uint8)


def _read_data(device: VirtualDevice, block: int, t: float) -> np.ndarray:
    """Direct read through the batch codec (no queue)."""
    device.require_written(block)
    states, slc = device.sense_rows(np.array([block]), np.array([t]))
    decoded = device.codec.decode(states, slc)
    assert not decoded.uncorrectable[0]
    return decoded.data_bits[0]


def _log_resistance(device: VirtualDevice, block: int, t: float) -> np.ndarray:
    """Drifted log10 resistance of one block's cells at virtual time ``t``."""
    return device.state.log_resistance(t, (0, block), device.design)


class TestDeterminism:
    def test_same_history_same_digest(self):
        histories = []
        for _ in range(2):
            dev = VirtualDevice("dev", 99, 8)
            for b in range(4):
                dev.write_block(b, _payload(b), t=0.0)
            dev.clock.advance(1000.0)
            dev.write_block(0, _payload(17), t=1000.0)
            histories.append(dev.state_digest())
        assert histories[0] == histories[1]

    def test_seed_changes_digest(self):
        a = VirtualDevice("a", 1, 4)
        b = VirtualDevice("b", 2, 4)
        a.write_block(0, _payload(0), t=0.0)
        b.write_block(0, _payload(0), t=0.0)
        assert a.state_digest() != b.state_digest()

    def test_rewrite_epoch_changes_draws(self):
        # Writing the same data twice redraws programming noise under a
        # new epoch: the analog state must differ even if data matches.
        dev = VirtualDevice("dev", 5, 2)
        dev.write_block(0, _payload(1), t=0.0)
        lr_first = _log_resistance(dev, 0, 0.0)
        dev.write_block(0, _payload(1), t=0.0)
        lr_second = _log_resistance(dev, 0, 0.0)
        assert not np.array_equal(lr_first, lr_second)


class TestDrift:
    def test_roundtrip_at_program_time(self):
        dev = VirtualDevice("dev", 3, 4)
        data = _payload(7)
        dev.write_block(1, data, t=0.0)
        assert np.array_equal(_read_data(dev, 1, 0.0), data)

    def test_resistance_drifts_upward(self):
        dev = VirtualDevice("dev", 3, 4)
        dev.write_block(0, _payload(0), t=0.0)
        lr_now = _log_resistance(dev, 0, 0.0)
        lr_year = _log_resistance(dev, 0, SECONDS_PER_YEAR)
        # Drift only ever increases log-resistance (alpha >= 0).
        assert (lr_year >= lr_now - 1e-12).all()
        assert lr_year.mean() > lr_now.mean()

    def test_decode_survives_a_year(self):
        # The paper's operating point: 3-ON-2 + BCH-1 keeps a block
        # readable after a year of drift.
        dev = VirtualDevice("dev", 11, 4)
        data = _payload(21)
        dev.write_block(2, data, t=0.0)
        dev.clock.advance(SECONDS_PER_YEAR)
        assert np.array_equal(_read_data(dev, 2, SECONDS_PER_YEAR), data)

    def test_reads_at_distinct_virtual_times(self):
        # Two reads of one block at different t: drift between them is
        # fully determined by the timestamps, not by wall time.
        dev = VirtualDevice("dev", 13, 2)
        dev.write_block(0, _payload(2), t=0.0)
        digest = dev.state_digest()
        lr_a = _log_resistance(dev, 0, 1e4)
        sensed_a = dev.sense_rows(np.array([0]), np.array([1e4]))
        lr_b = _log_resistance(dev, 0, 1e4)
        sensed_b = dev.sense_rows(np.array([0]), np.array([1e4]))
        assert np.array_equal(lr_a, lr_b)
        assert all(np.array_equal(a, b) for a, b in zip(sensed_a, sensed_b))
        assert dev.state_digest() == digest


class TestVirtualTime:
    def test_bind_time_defaults_to_clock(self):
        dev = VirtualDevice("dev", 0, 2)
        dev.clock.advance(42.0)
        assert dev.bind_time(None) == 42.0

    def test_time_regression_rejected(self):
        dev = VirtualDevice("dev", 0, 2)
        dev.clock.advance(100.0)
        with pytest.raises(ServiceError) as excinfo:
            dev.bind_time(99.0)
        assert excinfo.value.code == "E_TIME_REGRESSION"

    def test_bad_timestamps_rejected(self):
        dev = VirtualDevice("dev", 0, 2)
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ServiceError) as excinfo:
                dev.bind_time(bad)
            assert excinfo.value.code in ("E_BAD_REQUEST", "E_TIME_REGRESSION")

    def test_clock_never_rewinds(self):
        dev = VirtualDevice("dev", 0, 2)
        dev.clock.advance_to(50.0)
        with pytest.raises(ValueError):
            dev.clock.advance_to(10.0)
        with pytest.raises(ValueError):
            dev.clock.advance(-1.0)


class TestWearout:
    # A wide endurance spread (sigma is in decades) makes individual
    # cells die one at a time, so marks accumulate gradually before the
    # budget runs out.  Verify retries reprogram (and further wear) the
    # whole block, so exhaustion follows within a few more writes.
    WEAROUT = WearoutModel(
        mean_endurance=200.0, endurance_sigma=0.6, p_stuck_reset=1.0, p_revive=0.0
    )

    def test_wear_accumulates_until_exhaustion(self):
        dev = VirtualDevice("dev", 7, 1, wearout=self.WEAROUT)
        saw_marks = False
        with pytest.raises(SpareExhausted):
            for i in range(400):
                out = dev.write_block(0, _payload(i), t=0.0)
                saw_marks = saw_marks or out["marked_pairs"] > 0
        assert saw_marks  # wear was gradual, not a cliff
        assert dev.stats.spare_exhausted_writes == 1
        assert dev.stats.wearout_marks >= 1
        wear = dev.describe()["wear"]
        assert wear["blocks_at_budget"] == 1
        assert wear["stuck_cells"] >= 1

    def test_exhausted_block_unreadable_until_rewritten(self):
        dev = VirtualDevice("dev", 7, 1, wearout=self.WEAROUT)
        with pytest.raises(SpareExhausted):
            for i in range(400):
                dev.write_block(0, _payload(i), t=0.0)
        with pytest.raises(ServiceError) as excinfo:
            dev.require_written(0)
        assert excinfo.value.code == "E_BLOCK_NOT_WRITTEN"

    def test_healthy_device_never_marks(self):
        dev = VirtualDevice("dev", 7, 2)  # default 1e5 endurance
        for i in range(20):
            out = dev.write_block(0, _payload(i), t=0.0)
            assert out["marked_pairs"] == 0
            assert out["retries"] == 0


class TestPCMDeviceReplay:
    """A service device writes like a standalone :class:`PCMDevice`.

    Replaying a history on a :class:`PCMDevice` of the same geometry —
    same creation-time endurance and failure modes, the same
    per-(block, epoch) generator installed before each write — must
    leave the same cells, marks and check bits, sense the same states
    after drift, and run out of spares on the same writes.
    """

    MIXED = WearoutModel(
        mean_endurance=200.0, endurance_sigma=0.6, p_stuck_reset=0.5, p_revive=0.5
    )
    WEAROUTS = [TestWearout.WEAROUT, MIXED]

    @staticmethod
    def _devices(geometry, seed, n_blocks, wearout):
        data_bits, n_spare = geometry
        dev = VirtualDevice(
            "dev", seed, n_blocks, data_bits=data_bits, n_spare_pairs=n_spare, wearout=wearout
        )
        ref = PCMDevice(
            n_blocks,
            data_bits=data_bits,
            wearout=wearout,
            codec=ThreeOnTwoBlockCodec(data_bits, n_spare),
        )
        n = n_blocks * dev.n_cells
        ref.array._endurance[:] = wearout.sample_endurance(
            block_rng(seed, (SERVICE_SPAWN_KEY, 0)), n
        )
        ref.array._pending_mode[:] = wearout.sample_modes(
            block_rng(seed, (SERVICE_SPAWN_KEY, 1)), n
        )
        return dev, ref

    @staticmethod
    def _write_both(dev, ref, epochs, block, bits, t):
        ref.array.rng = block_rng(dev.seed, (SERVICE_SPAWN_KEY, 2, block, epochs[block]))
        epochs[block] += 1
        outcomes = []
        for write in (dev.write_block, ref.write):
            try:
                write(block, bits, t)
                outcomes.append("ok")
            except SpareExhausted as exc:
                outcomes.append(f"exhausted: {exc}")
        assert outcomes[0] == outcomes[1]
        return outcomes[0]

    @staticmethod
    def _assert_same_state(dev, ref, t):
        s = dev.state
        blocks = np.arange(dev.n_blocks)
        states, checks = dev.sense_rows(blocks, np.full(blocks.size, t))
        assert np.array_equal(states.ravel(), ref.array.sense(t))
        for b in blocks:
            assert np.array_equal(checks[b], ref.check_bits(b))
            assert np.array_equal(s.marked[0, b], ref.block_state(b).marked_mask)
        assert cell_state_digest(tuple(a[0] for a in s.cells)) == ref.array.state_digest()

    def _replay_healthy(self, geometry):
        data_bits = geometry[0]
        dev, ref = self._devices(geometry, 31, 4, WearoutModel())
        epochs = [0] * dev.n_blocks
        history = [(b, _payload(b, data_bits), 0.0) for b in range(4)]
        history += [
            (1, _payload(9, data_bits), 50.0),
            (3, _payload(10, data_bits), 80.0),
            (1, _payload(11, data_bits), 90.0),
        ]
        for block, bits, t in history:
            self._write_both(dev, ref, epochs, block, bits, t)
        for t in (100.0, SECONDS_PER_YEAR, 10 * SECONDS_PER_YEAR):
            self._assert_same_state(dev, ref, t)
        last = {block: bits for block, bits, _ in history}
        for b, bits in last.items():
            data = _read_data(dev, b, SECONDS_PER_YEAR)
            assert np.array_equal(data, ref.read(b, SECONDS_PER_YEAR).data_bits)
            assert np.array_equal(data, bits)

    def _replay_wearout(self, wearout, geometry):
        data_bits, n_spare = geometry
        dev, ref = self._devices(geometry, 7, 2, wearout)
        epochs = [0] * dev.n_blocks
        outcomes = []
        for i in range(300):
            t = 10.0 * i
            bits = _payload(i, data_bits)
            outcomes.append(self._write_both(dev, ref, epochs, i % 2, bits, t))
            self._assert_same_state(dev, ref, t + SECONDS_PER_YEAR)
        assert dev.stats.wearout_marks == ref.stats.wearout_marks
        assert (dev.stats.wearout_marks > 0) == (n_spare > 0)
        assert dev.stats.write_retries == ref.stats.write_retries
        exhausted = [o for o in outcomes if o != "ok"]
        assert dev.stats.spare_exhausted_writes == len(exhausted) > 0
        # Writes went on after the first exhaustion, still matching.
        assert outcomes.index(exhausted[0]) < len(outcomes) - 1

    def test_healthy_history(self):
        self._replay_healthy((512, 6))

    @pytest.mark.parametrize("wearout", WEAROUTS, ids=["reset", "mixed"])
    def test_wearout_history(self, wearout):
        self._replay_wearout(wearout, (512, 6))

    @pytest.mark.parametrize("n_spare", [0, 2])
    def test_service_only_geometry(self, n_spare):
        """Geometries HTTP accepts but the fleet never runs; with no
        spares the first failure exhausts the block."""
        self._replay_healthy((64, n_spare))
        for wearout in self.WEAROUTS:
            self._replay_wearout(wearout, (64, n_spare))


class TestOneProgrammingPath:
    def test_never_programs_through_the_scalar_reference(self, monkeypatch):
        """Writes, reads and introspection run the fleet's array kernel:
        no ``PCMDevice`` write and no ``CellArray`` program, force or
        sense, even when wear marks pairs."""

        def forbidden(*args, **kwargs):
            raise AssertionError("the service called the scalar reference")

        monkeypatch.setattr(PCMDevice, "write", forbidden)
        monkeypatch.setattr(CellArray, "program", forbidden)
        monkeypatch.setattr(CellArray, "force_highest", forbidden)
        monkeypatch.setattr(CellArray, "log_resistance", forbidden)
        dev = VirtualDevice("dev", 7, 2, wearout=TestWearout.WEAROUT)
        with pytest.raises(SpareExhausted):
            for i in range(400):
                dev.write_block(i % 2, _payload(i), t=0.0)
        assert dev.stats.wearout_marks > 0
        dev.sense_rows(np.array([0, 1]), np.array([1.0, 2.0]))
        assert dev.describe()["wear"]["stuck_cells"] > 0
        dev.state_digest()


class TestValidation:
    def test_block_range(self):
        dev = VirtualDevice("dev", 0, 4)
        with pytest.raises(ServiceError) as excinfo:
            dev.check_block(4)
        assert excinfo.value.code == "E_BLOCK_RANGE"
        with pytest.raises(ServiceError):
            dev.check_block(-1)

    def test_unwritten_block(self):
        dev = VirtualDevice("dev", 0, 4)
        with pytest.raises(ServiceError) as excinfo:
            dev.require_written(2)
        assert excinfo.value.code == "E_BLOCK_NOT_WRITTEN"

    def test_rejected_payload_leaves_state_alone(self):
        dev = VirtualDevice("dev", 0, 2)
        digest = dev.state_digest()
        with pytest.raises(ValueError):
            dev.write_block(0, np.zeros(10, np.uint8), 0.0)
        assert dev.state_digest() == digest
        assert dev._epoch.tolist() == [0, 0]

    def test_needs_a_block(self):
        with pytest.raises(ServiceError):
            VirtualDevice("dev", 0, 0)


class TestRegistry:
    def test_create_get_delete(self):
        reg = DeviceRegistry()
        dev = reg.create(0, 4)
        assert dev.device_id == "dev-0001"
        assert reg.get(dev.device_id) is dev
        assert len(reg) == 1
        reg.delete(dev.device_id)
        assert len(reg) == 0
        with pytest.raises(ServiceError) as excinfo:
            reg.get(dev.device_id)
        assert excinfo.value.code == "E_DEVICE_NOT_FOUND"

    def test_ids_never_reused(self):
        reg = DeviceRegistry()
        first = reg.create(0, 4)
        reg.delete(first.device_id)
        second = reg.create(0, 4)
        assert second.device_id != first.device_id

    def test_concurrent_creates_take_sequential_ids(self):
        # The service builds devices on worker threads; ids are handed
        # out at registration, under the registry lock, and a refused
        # build takes none.
        def build(i):
            if i % 4 == 3:
                with pytest.raises(ServiceError):
                    reg.create(i, 0)
                return None
            return reg.create(i, 2)

        reg = DeviceRegistry()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                devices = [d for d in pool.map(build, range(24)) if d is not None]
        finally:
            sys.setswitchinterval(interval)
        ids = sorted(d.device_id for d in devices)
        assert ids == [f"dev-{n:04d}" for n in range(1, 19)]
        assert all(reg.get(d.device_id) is d for d in devices)

    def test_describe_fields(self):
        reg = DeviceRegistry()
        dev = reg.create(9, 8)
        d = dev.describe()
        assert d["n_blocks"] == 8
        assert d["data_bits"] == 512
        assert d["cells_per_block"] == 354
        assert d["slc_cells_per_block"] == 10
        assert d["virtual_time"] == 0.0
        assert d["blocks_written"] == 0
