"""Persistent content-addressed cache of Monte Carlo CER results.

Entries are per-state *error count* vectors (integers, not rates): counts
aggregate exactly across states, so one cached state run serves every
design, sweep, optimizer confirmation, or benchmark that evaluates the
same ``(state params, threshold, schedule, time grid, n_samples, seed)``.

Keys are SHA-256 hashes of a canonical JSON payload salted with
:data:`repro.montecarlo.executor.ENGINE_VERSION` — bumping the version
invalidates every stale entry without touching the store.  Chunk size and
worker count are deliberately *absent* from the key: the executor's
fixed-block RNG fan-out makes results invariant to both.  The state's
*name* is also excluded, so physically identical states share entries
across designs.

The cache is two-level: an in-memory LRU front (``memory_entries``
vectors) over an on-disk ``.npy`` store, written atomically so concurrent
processes can share a directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import pathlib
from collections import OrderedDict
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.cells.drift import TieredDrift
from repro.chaos.registry import fault_point
from repro.coding.batch import DATAPATH_VERSION
from repro.montecarlo.executor import ENGINE_VERSION, StateRun

__all__ = [
    "CacheStats",
    "ResultsCache",
    "bler_counts_key",
    "cached_counts",
    "default_cache_dir",
    "key_digest",
    "state_counts_key",
]


def default_cache_dir() -> pathlib.Path:
    """Cache location: ``$REPRO_MC_CACHE_DIR`` or ``~/.cache/repro-mc``."""
    env = os.environ.get("REPRO_MC_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-mc"


def _cf(x: float) -> str:
    # repr() round-trips doubles exactly, so equal floats hash equally and
    # nearby ones never collide.
    return repr(float(x))


def key_digest(payload: dict) -> str:
    """The one cache-key digest: SHA-256 of the payload's canonical JSON."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def state_counts_key(
    run: StateRun, times_s: Sequence[float], schedule: TieredDrift
) -> str:
    """Stable content hash for one state run's error-count vector."""
    payload = {
        "engine": ENGINE_VERSION,
        "kind": "state-counts",
        "state": {
            "mu_lr": _cf(run.state.mu_lr),
            "sigma_lr": _cf(run.state.sigma_lr),
            "mu_alpha": _cf(run.state.drift.mu_alpha),
            "sigma_alpha": _cf(run.state.drift.sigma_alpha),
        },
        "tau": _cf(run.tau),
        "schedule": {
            "mode": schedule.mode,
            "tiers": [
                [_cf(t.lr_break), _cf(t.mu_alpha), _cf(t.sigma_alpha)]
                for t in schedule.tiers
            ],
        },
        "times": [_cf(t) for t in np.asarray(times_s, dtype=float)],
        "n_samples": int(run.n_samples),
        "seed": {"entropy": int(run.entropy), "prefix": [int(p) for p in run.prefix]},
    }
    return key_digest(payload)


def bler_counts_key(
    cer: float,
    data_bits: int,
    n_spare_pairs: int,
    n_blocks: int,
    entropy: int,
    prefix: Sequence[int],
) -> str:
    """Stable content hash for one empirical BLER operating point.

    The entry holds the ``[n_silent, n_errors]`` pair from pushing
    ``n_blocks`` random blocks through the batched Figure-9 datapath at
    per-cell error rate ``cer`` (:mod:`repro.montecarlo.bler_mc`).  The
    payload is salted with both :data:`ENGINE_VERSION` (RNG fan-out
    contract) and :data:`repro.coding.batch.DATAPATH_VERSION` (batched
    codec semantics), so a change to either invalidates stale entries.
    Chunk size and worker count are absent for the same reason as in
    :func:`state_counts_key`: fixed-block RNG fan-out makes results
    invariant to both.
    """
    payload = {
        "engine": ENGINE_VERSION,
        "datapath": DATAPATH_VERSION,
        "kind": "bler-counts",
        "cer": _cf(cer),
        "geometry": {
            "data_bits": int(data_bits),
            "n_spare_pairs": int(n_spare_pairs),
        },
        "n_blocks": int(n_blocks),
        "seed": {"entropy": int(entropy), "prefix": [int(p) for p in prefix]},
    }
    return key_digest(payload)


@dataclasses.dataclass
class CacheStats:
    """Lookup/store counters of one :class:`ResultsCache` instance.

    ``quarantined`` counts on-disk blobs that failed the integrity check
    on load and were moved aside; ``store_errors`` counts best-effort
    writes that failed with an ``OSError`` (the result is still computed
    and returned — only the cache entry is lost).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    quarantined: int = 0
    store_errors: int = 0


class ResultsCache:
    """In-memory LRU front over an on-disk ``.npy`` result store."""

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        memory_entries: int = 256,
    ) -> None:
        self.cache_dir = (
            pathlib.Path(cache_dir) if cache_dir is not None else default_cache_dir()
        )
        self.memory_entries = int(memory_entries)
        self._mem: OrderedDict[str, np.ndarray] = OrderedDict()
        self.stats = CacheStats()

    def _path(self, key: str) -> pathlib.Path:
        return self.cache_dir / f"{key}.npy"

    def _sum_path(self, key: str) -> pathlib.Path:
        return self.cache_dir / f"{key}.sum"

    def _remember(self, key: str, counts: np.ndarray) -> None:
        self._mem[key] = counts
        self._mem.move_to_end(key)
        while len(self._mem) > self.memory_entries:
            self._mem.popitem(last=False)

    @staticmethod
    def _valid_counts(arr: object, expected_len: int | None) -> bool:
        """Structural integrity of a count vector.

        Every stored entry is an error-count vector against a *sorted*
        time grid, so a genuine blob is a 1-D array of non-negative,
        non-decreasing integers (of ``expected_len`` when given).
        Anything else is corruption or a foreign file.
        """
        if not isinstance(arr, np.ndarray) or arr.ndim != 1:
            return False
        if not np.issubdtype(arr.dtype, np.integer):
            return False
        if expected_len is not None and arr.shape != (expected_len,):
            return False
        if arr.size and (int(arr[0]) < 0 or np.any(np.diff(arr) < 0)):
            return False
        return True

    def _quarantine(self, key: str) -> None:
        """Move a corrupt blob aside so it is never loaded again.

        The quarantined copy keeps the evidence for debugging without
        matching the ``*.npy`` store glob; a subsequent ``put_counts``
        simply writes a fresh entry at the original path.
        """
        path = self._path(key)
        try:
            os.replace(path, self.cache_dir / f"{key}.quarantined")
        except OSError:
            path.unlink(missing_ok=True)
        try:
            self._sum_path(key).unlink(missing_ok=True)
        except OSError:
            # Best-effort sidecar cleanup: the blob is already out of the store.
            pass
        self._mem.pop(key, None)
        self.stats.quarantined += 1

    def _load_validated(
        self, key: str, expected_len: int | None
    ) -> np.ndarray | None:
        """Load one blob from disk, quarantining anything corrupt.

        Every entry carries a ``.sum`` sidecar (sha256 of the blob's
        bytes), which catches *any* bit damage — including garbage that
        still parses as a plausible count vector.  A blob without one
        cannot be verified, so it is quarantined like a damaged one.
        """
        path = self._path(key)
        fault_point("cache.get", path=path, key=key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            return None  # a plain miss
        except OSError:
            self._quarantine(key)
            return None
        try:
            want_sum = self._sum_path(key).read_text().strip()
        except OSError:
            want_sum = None  # no sidecar: nothing vouches for the blob
        if hashlib.sha256(blob).hexdigest() != want_sum:
            self._quarantine(key)
            return None
        try:
            arr = np.load(io.BytesIO(blob))
        except (OSError, ValueError, EOFError):
            # Unreadable npy header/payload: truncated, garbled, or a
            # pickled file (np.load refuses pickles by default).
            self._quarantine(key)
            return None
        if not self._valid_counts(arr, expected_len):
            self._quarantine(key)
            return None
        return arr

    def get_counts(self, key: str, expected_len: int | None = None) -> np.ndarray | None:
        """Cached count vector for ``key``, or ``None`` on a miss.

        On-disk blobs are integrity-checked before being trusted: an
        unreadable, truncated, wrong-shape, or structurally invalid file
        is *quarantined* (moved aside, counted in ``stats.quarantined``)
        and reported as a miss — a corrupted entry is never served.
        """
        counts = self._mem.get(key)
        if counts is not None and (
            expected_len is not None and counts.shape != (expected_len,)
        ):
            counts = None  # foreign length under this key: do not trust
        elif counts is None:
            counts = self._load_validated(key, expected_len)
        if counts is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        try:
            # Touch the entry so LRU pruning (mtime order) tracks use.
            os.utime(self._path(key))
        except OSError:
            pass
        self._remember(key, counts)
        return counts.copy()

    def put_counts(self, key: str, counts: np.ndarray) -> None:
        """Store one count vector atomically; best-effort on I/O errors.

        The cache is an optimization, so a failed write (disk full,
        permissions, injected fault) must not fail the computation that
        produced the result: the error is counted in
        ``stats.store_errors``, the temp file is cleaned up, and the
        vector is still fronted in memory.
        """
        arr = np.ascontiguousarray(counts, dtype=np.int64)
        tmp = self.cache_dir / f".{key}.{os.getpid()}.tmp"
        try:
            fault_point("cache.put", path=self._path(key), key=key)
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            buf = io.BytesIO()
            np.save(buf, arr)
            blob = buf.getvalue()
            tmp.write_bytes(blob)
            # Sidecar first: content-addressed entries always hold the
            # same bytes, so a reader can never pair a fresh blob with a
            # stale mismatching checksum.
            self._sum_path(key).write_text(hashlib.sha256(blob).hexdigest() + "\n")
            os.replace(tmp, self._path(key))
        except OSError:
            self.stats.store_errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                # Best-effort cleanup: store_errors already recorded the failure.
                pass
        else:
            self.stats.stores += 1
        self._remember(key, arr)

    def entries(self) -> list[str]:
        """Keys present on disk."""
        if not self.cache_dir.is_dir():
            return []
        return sorted(p.stem for p in self.cache_dir.glob("*.npy"))

    def quarantined(self) -> list[str]:
        """Keys whose blobs failed integrity checks and were set aside."""
        if not self.cache_dir.is_dir():
            return []
        return sorted(p.stem for p in self.cache_dir.glob("*.quarantined"))

    def nbytes(self) -> int:
        """Total on-disk size of the store."""
        if not self.cache_dir.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.cache_dir.glob("*.npy"))

    def clear(self) -> int:
        """Delete every entry (disk and memory); returns how many.

        Quarantined blobs are removed too (not counted in the total).
        """
        removed = 0
        if self.cache_dir.is_dir():
            for p in self.cache_dir.glob("*.npy"):
                p.unlink(missing_ok=True)
                removed += 1
            for p in self.cache_dir.glob("*.quarantined"):
                p.unlink(missing_ok=True)
            for p in self.cache_dir.glob("*.sum"):
                p.unlink(missing_ok=True)
        self._mem.clear()
        return removed

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict least-recently-used entries until the store fits ``max_bytes``.

        Recency is mtime: ``get_counts``/``put_counts`` touch an entry's
        file, so eviction order tracks actual use even across processes
        sharing the directory.  Returns ``(entries_removed, bytes_freed)``.
        The in-memory front drops evicted keys too, so a pruned entry
        cannot be resurrected from memory with a stale on-disk view.
        """
        max_bytes = int(max_bytes)
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        if not self.cache_dir.is_dir():
            return (0, 0)
        entries = []
        for p in self.cache_dir.glob("*.npy"):
            try:
                st = p.stat()
            except OSError:
                continue  # concurrently removed
            entries.append((st.st_mtime, st.st_size, p))
        total = sum(size for _, size, _ in entries)
        removed = freed = 0
        for _, size, p in sorted(entries):  # oldest mtime first
            if total <= max_bytes:
                break
            p.unlink(missing_ok=True)
            self._sum_path(p.stem).unlink(missing_ok=True)
            self._mem.pop(p.stem, None)
            total -= size
            removed += 1
            freed += size
        return (removed, freed)


_Item = TypeVar("_Item")


def cached_counts(
    cache: ResultsCache | None,
    items: Sequence[_Item],
    key: Callable[[_Item], str],
    expected_len: int,
    compute: Callable[[list[_Item]], Sequence[np.ndarray]],
) -> list[np.ndarray]:
    """One count vector per item, served from ``cache`` where it hits.

    Every item's ``key(item)`` entry is looked up first; ``compute`` then
    runs once, on the missed items in order, and returns their vectors,
    which are stored under their keys.  Without a cache every item is
    computed (and no key is built).
    """
    keys = [key(item) for item in items] if cache is not None else []
    out: list[np.ndarray | None] = (
        [cache.get_counts(k, expected_len=expected_len) for k in keys]
        if cache is not None
        else [None] * len(items)
    )
    missing = [i for i, hit in enumerate(out) if hit is None]
    if missing:
        for i, counts in zip(missing, compute([items[i] for i in missing])):
            out[i] = counts
            if cache is not None:
                cache.put_counts(keys[i], counts)
    return out  # type: ignore[return-value]
