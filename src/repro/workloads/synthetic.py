"""Synthetic memory-trace building blocks.

Traces are line-granular: each record is one data-cache access (a 64B
line touch) annotated with the CPU work preceding it, whether it writes,
and whether it *depends* on the previous memory value (pointer chasing —
the core cannot overlap dependent misses).

The SPEC-like profiles of :mod:`repro.workloads.spec_like` compose these
generators; they are the paper-trace substitution documented in
DESIGN.md.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.montecarlo.rng import make_rng

__all__ = [
    "TRACE_KINDS",
    "Trace",
    "draw_ops",
    "draw_ops_fast",
    "stream_trace",
    "random_trace",
    "pointer_chase_trace",
    "zipfian_trace",
    "interleave",
]

#: Named profiles :func:`draw_ops` accepts (the fleet's traffic mix).
TRACE_KINDS = ("stream", "random", "zipfian")


@dataclasses.dataclass(frozen=True)
class Trace:
    """A line-granular memory access trace."""

    name: str
    gap_ns: np.ndarray  # CPU work before each access (ns)
    is_write: np.ndarray
    line_addr: np.ndarray
    dependent: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.gap_ns)
        for f in ("is_write", "line_addr", "dependent"):
            if len(getattr(self, f)) != n:
                raise ValueError(f"{f} length mismatch")

    def __len__(self) -> int:
        return len(self.gap_ns)

    @property
    def write_fraction(self) -> float:
        return float(np.mean(self.is_write))


def stream_trace(
    n: int,
    footprint_lines: int,
    write_fraction: float = 1 / 3,
    gap_ns: float = 10.0,
    name: str = "stream",
    seed: int = 0,
    n_arrays: int = 3,
) -> Trace:
    """Sequential sweeps over ``n_arrays`` disjoint arrays (STREAM-like).

    With the default three arrays and ``write_fraction=1/3`` this is the
    triad pattern: read a[i], read b[i], write c[i].
    """
    if footprint_lines < n_arrays:
        raise ValueError("footprint too small")
    per_array = footprint_lines // n_arrays
    idx = np.arange(n)
    stream_pos = (idx // n_arrays) % per_array
    which = idx % n_arrays
    addr = which * per_array + stream_pos
    n_writing = max(int(round(n_arrays * write_fraction)), 0)
    is_write = which >= (n_arrays - n_writing) if n_writing else np.zeros(n, bool)
    return Trace(
        name=name,
        gap_ns=np.full(n, float(gap_ns)),
        is_write=np.asarray(is_write, dtype=bool),
        line_addr=addr.astype(np.int64),
        dependent=np.zeros(n, dtype=bool),
    )


def random_trace(
    n: int,
    footprint_lines: int,
    write_fraction: float = 0.2,
    gap_ns: float = 15.0,
    dependent: bool = False,
    name: str = "random",
    seed: int = 0,
) -> Trace:
    """Uniform random accesses over a footprint."""
    rng = make_rng(seed)
    addr = rng.integers(0, footprint_lines, n)
    is_write = rng.random(n) < write_fraction
    dep = np.zeros(n, dtype=bool)
    if dependent:
        dep = ~is_write  # every read chases the previous one
    return Trace(
        name=name,
        gap_ns=np.full(n, float(gap_ns)),
        is_write=is_write,
        line_addr=addr.astype(np.int64),
        dependent=dep,
    )


def pointer_chase_trace(
    n: int,
    footprint_lines: int,
    gap_ns: float = 15.0,
    write_fraction: float = 0.0,
    name: str = "chase",
    seed: int = 0,
) -> Trace:
    """A dependent random walk (mcf-like): each read feeds the next."""
    return random_trace(
        n,
        footprint_lines,
        write_fraction=write_fraction,
        gap_ns=gap_ns,
        dependent=True,
        name=name,
        seed=seed,
    )


def zipfian_trace(
    n: int,
    footprint_lines: int,
    skew: float = 0.99,
    write_fraction: float = 0.1,
    gap_ns: float = 10.0,
    name: str = "zipf",
    seed: int = 0,
) -> Trace:
    """Zipf-distributed accesses (key-value-store / OLTP locality).

    ``skew`` is the Zipf exponent (YCSB's default 0.99): a handful of hot
    lines absorb most traffic, which stresses wear leveling and rewards
    caches very differently from uniform-random access.
    """
    if footprint_lines < 2:
        raise ValueError("footprint too small")
    if skew <= 0:
        raise ValueError("skew must be positive")
    rng = make_rng(seed)
    addr = _zipf_addresses(n, footprint_lines, skew, rng)
    is_write = rng.random(n) < write_fraction
    return Trace(
        name=name,
        gap_ns=np.full(n, float(gap_ns)),
        is_write=is_write,
        line_addr=addr.astype(np.int64),
        dependent=np.zeros(n, dtype=bool),
    )


def draw_ops(
    kind: str,
    n_ops: int,
    footprint_lines: int,
    seed: int | np.random.Generator = 0,
    write_fraction: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(is_write, line_addr)`` for ``n_ops`` accesses of a named profile.

    The thin seam between the trace generators and epoch-driven
    consumers (:mod:`repro.fleet`): pass a carried
    :class:`numpy.random.Generator` as ``seed`` and successive calls
    draw successive, reproducible slices of the same traffic stream.
    ``write_fraction=None`` keeps each profile's own default mix.

    Degenerate footprints stay well-defined so heterogeneous device
    populations can mix profiles freely: ``stream`` shrinks its array
    count to the footprint, and ``zipfian`` over a single line falls
    back to the uniform profile (Zipf needs at least two ranks).
    """
    if kind not in TRACE_KINDS:
        raise ValueError(f"unknown trace kind {kind!r} (known: {TRACE_KINDS})")
    if n_ops < 0:
        raise ValueError("n_ops must be >= 0")
    wf = {} if write_fraction is None else {"write_fraction": float(write_fraction)}
    if kind == "stream":
        trace = stream_trace(
            n_ops,
            footprint_lines,
            seed=seed,
            n_arrays=min(3, footprint_lines),
            **wf,
        )
    elif kind == "zipfian" and footprint_lines >= 2:
        trace = zipfian_trace(n_ops, footprint_lines, seed=seed, **wf)
    else:
        trace = random_trace(n_ops, footprint_lines, seed=seed, **wf)
    return trace.is_write.copy(), trace.line_addr.copy()


#: Deterministic stream-pattern results, keyed by every input that shapes
#: them.  The arrays are frozen (writeable=False) because they are shared.
_STREAM_CACHE: dict[
    tuple[int, int, float | None], tuple[np.ndarray, np.ndarray]
] = {}

#: Zipf rank CDFs per ``(footprint, skew)``.
_ZIPF_CACHE: dict[tuple[int, float], np.ndarray] = {}


def _zipf_cdf(footprint_lines: int, skew: float) -> np.ndarray:
    key = (footprint_lines, skew)
    cdf = _ZIPF_CACHE.get(key)
    if cdf is None:
        ranks = np.arange(1, footprint_lines + 1, dtype=float)
        probs = ranks**-skew
        probs /= probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        _ZIPF_CACHE[key] = cdf
    return cdf


def _zipf_addresses(
    n: int, footprint_lines: int, skew: float, rng: np.random.Generator
) -> np.ndarray:
    """``n`` Zipf-ranked line addresses over a shuffled footprint.

    One permutation (rank -> address, so hot lines are scattered across
    banks), then one uniform per access mapped through the rank CDF:
    the same values and generator end state as
    ``rng.choice(footprint_lines, size=n, p=probs)``, which builds the
    same CDF and inverts it the same way.
    """
    cdf = _zipf_cdf(footprint_lines, skew)
    perm = rng.permutation(footprint_lines)
    return perm[cdf.searchsorted(rng.random(n), side="right")]


def draw_ops_fast(
    kind: str,
    n_ops: int,
    footprint_lines: int,
    rng: np.random.Generator,
    write_fraction: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Allocation-light twin of :func:`draw_ops` for batch engines.

    Consumes *exactly* the same generator draws in the same order as
    :func:`draw_ops` (the fleet differential suite pins this), but skips
    the :class:`Trace` construction and caches the RNG-free stream
    pattern.  Returned arrays may be cache-shared — treat them as
    read-only.
    """
    if kind not in TRACE_KINDS:
        raise ValueError(f"unknown trace kind {kind!r} (known: {TRACE_KINDS})")
    if n_ops < 0:
        raise ValueError("n_ops must be >= 0")
    if kind == "stream":
        key = (n_ops, footprint_lines, write_fraction)
        hit = _STREAM_CACHE.get(key)
        if hit is None:
            is_write, addr = draw_ops(
                kind, n_ops, footprint_lines, write_fraction=write_fraction
            )
            is_write.setflags(write=False)
            addr.setflags(write=False)
            hit = (is_write, addr)
            _STREAM_CACHE[key] = hit
        return hit
    if kind == "zipfian" and footprint_lines >= 2:
        wf = 0.1 if write_fraction is None else float(write_fraction)
        addr = _zipf_addresses(n_ops, footprint_lines, 0.99, rng)
        is_write = rng.random(n_ops) < wf
        return is_write, addr
    wf = 0.2 if write_fraction is None else float(write_fraction)
    addr = rng.integers(0, footprint_lines, n_ops)
    is_write = rng.random(n_ops) < wf
    return is_write, addr


def interleave(name: str, traces: list[tuple[Trace, float]], seed: int = 0) -> Trace:
    """Mix traces by weight, preserving each component's internal order.

    Address spaces are offset so components do not alias.
    """
    if not traces:
        raise ValueError("need at least one component")
    rng = make_rng(seed)
    weights = np.array([w for _, w in traces], dtype=float)
    weights /= weights.sum()
    total = sum(len(t) for t, _ in traces)
    choice = rng.choice(len(traces), size=total, p=weights)
    cursors = [0] * len(traces)
    offsets = np.cumsum([0] + [int(t.line_addr.max()) + 1 for t, _ in traces[:-1]])

    gaps, writes, addrs, deps = [], [], [], []
    for c in choice:
        t, _ = traces[c]
        i = cursors[c]
        if i >= len(t):
            continue
        cursors[c] = i + 1
        gaps.append(t.gap_ns[i])
        writes.append(t.is_write[i])
        addrs.append(t.line_addr[i] + offsets[c])
        deps.append(t.dependent[i])
    return Trace(
        name=name,
        gap_ns=np.asarray(gaps, dtype=float),
        is_write=np.asarray(writes, dtype=bool),
        line_addr=np.asarray(addrs, dtype=np.int64),
        dependent=np.asarray(deps, dtype=bool),
    )
