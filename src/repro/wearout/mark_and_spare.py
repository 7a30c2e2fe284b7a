"""Mark-and-spare wearout tolerance for 3-ON-2 blocks (Section 6.4).

A block holds ``n_data_pairs`` data pairs followed by ``n_spare_pairs``
spare pairs (Figure 10: a real 64B system has 171 data pairs and 6 spare
pairs, i.e. 342 + 12 cells).  When write-and-verify detects a worn-out
cell, the containing pair is *marked* by programming it to the INV state
([S4, S4]) and all subsequent data shift one pair toward the spares —
costing exactly two spare cells per tolerated failure.

The read path (Figure 12) squeezes marked pairs out with one MUX stage
per tolerated failure; both a functional vectorized corrector and the
gate-level stage simulation (via :mod:`repro.wearout.netlist`) are
provided, and tests assert they agree.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.three_on_two import INV_VALUE
from repro.wearout.netlist import (
    NETWORK_BUILDERS,
    PrefixNetwork,
    mux_stage,
)

__all__ = [
    "MarkAndSpareConfig",
    "SpareExhausted",
    "MarkAndSpareBlock",
    "correct_values",
    "correct_values_batch",
]


class SpareExhausted(Exception):
    """More marked pairs than spare pairs: block must be remapped."""


@dataclasses.dataclass(frozen=True)
class MarkAndSpareConfig:
    """Geometry of a mark-and-spare block (defaults: the paper's 64B block)."""

    n_data_pairs: int = 171
    n_spare_pairs: int = 6

    @property
    def n_pairs(self) -> int:
        return self.n_data_pairs + self.n_spare_pairs

    @property
    def n_cells(self) -> int:
        return 2 * self.n_pairs

    @property
    def spare_cells_per_failure(self) -> int:
        return 2


def correct_values(
    values: np.ndarray,
    config: MarkAndSpareConfig = MarkAndSpareConfig(),
    inv_value: int = INV_VALUE,
) -> np.ndarray:
    """Functional mark-and-spare correction.

    ``values`` are the raw pair values of a whole block (data + spares),
    with marked pairs equal to :data:`INV_VALUE`.  Returns the
    ``n_data_pairs`` corrected data values, raising
    :class:`SpareExhausted` when more pairs are marked than spares exist.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.shape != (config.n_pairs,):
        raise ValueError(f"expected {config.n_pairs} pair values, got {v.shape}")
    good = v[v != inv_value]
    n_marked = config.n_pairs - good.size
    if n_marked > config.n_spare_pairs:
        raise SpareExhausted(
            f"{n_marked} marked pairs exceed {config.n_spare_pairs} spares"
        )
    return good[: config.n_data_pairs]


def correct_values_batch(
    values: np.ndarray,
    config: MarkAndSpareConfig = MarkAndSpareConfig(),
    inv_value: int = INV_VALUE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized mark-and-spare correction of many blocks at once.

    ``values`` is ``(n_blocks, n_pairs)``; returns ``(data_values,
    n_marked, exhausted)`` where ``data_values`` is ``(n_blocks,
    n_data_pairs)``, ``n_marked`` counts each block's marked pairs and
    ``exhausted`` flags blocks whose marks exceed the spare budget
    (:func:`correct_values` raises :class:`SpareExhausted` there instead;
    the data rows of exhausted blocks are unspecified).

    Row-for-row bit-identical to looping :func:`correct_values`: a stable
    argsort of the INV flags moves every non-marked pair to the front of
    its row in original order — exactly the squeeze the MUX chain of
    Figure 12 performs — and the first ``n_data_pairs`` columns are the
    recovered data.
    """
    v = np.asarray(values)
    if v.dtype.kind not in "iu":
        v = v.astype(np.int64)
    if v.ndim != 2 or v.shape[1] != config.n_pairs:
        raise ValueError(
            f"expected (n_blocks, {config.n_pairs}) pair values, got {v.shape}"
        )
    inv = v == inv_value
    n_marked = inv.sum(axis=1)
    exhausted = n_marked > config.n_spare_pairs
    data = v[:, : config.n_data_pairs].copy()
    # Dirty-row dispatch: only rows with at least one marked pair need
    # the squeeze; in a datapath read almost every row is mark-free.
    rows = np.nonzero(n_marked)[0]
    if rows.size:
        order = np.argsort(inv[rows], axis=1, kind="stable")
        squeezed = np.take_along_axis(v[rows], order, axis=1)
        data[rows] = squeezed[:, : config.n_data_pairs]
    return data, n_marked, exhausted


def correct_values_gate_level(
    values: np.ndarray,
    config: MarkAndSpareConfig = MarkAndSpareConfig(),
    network: str = "sklansky",
    inv_value: int = INV_VALUE,
) -> np.ndarray:
    """Gate-level correction: one MUX stage per tolerated failure.

    Mirrors Figure 12 exactly; used by tests to validate the functional
    path and by the Figure 13 benchmark for gate counts/depths.
    """
    v = np.asarray(values, dtype=np.int64)
    if v.shape != (config.n_pairs,):
        raise ValueError(f"expected {config.n_pairs} pair values, got {v.shape}")
    net: PrefixNetwork = NETWORK_BUILDERS[network](config.n_pairs)
    flags = v == inv_value
    if int(flags.sum()) > config.n_spare_pairs:
        raise SpareExhausted(
            f"{int(flags.sum())} marked pairs exceed {config.n_spare_pairs} spares"
        )
    vals = v.copy()
    for _ in range(config.n_spare_pairs):
        vals, flags = mux_stage(vals, flags, net)
    return vals[: config.n_data_pairs]


class MarkAndSpareBlock:
    """Write-side state of one mark-and-spare block.

    Tracks which physical pairs are marked and lays data out around them.
    ``inv_value`` generalizes to enumerative group codecs whose INV marker
    is not 8 (see :mod:`repro.coding.enumerative`).
    """

    def __init__(
        self,
        config: MarkAndSpareConfig = MarkAndSpareConfig(),
        inv_value: int = INV_VALUE,
    ):
        self.config = config
        self.inv_value = inv_value
        self._marked = np.zeros(config.n_pairs, dtype=bool)

    @property
    def n_marked(self) -> int:
        return int(self._marked.sum())

    @property
    def marked_pairs(self) -> np.ndarray:
        return np.nonzero(self._marked)[0]

    @property
    def marked_mask(self) -> np.ndarray:
        """``(n_pairs,)`` bool layout: which physical pairs are marked."""
        return self._marked

    @property
    def spares_left(self) -> int:
        """Unused spare-pair budget (0 means the next mark exhausts the block)."""
        return self.config.n_spare_pairs - self.n_marked

    def can_mark(self) -> bool:
        return self.n_marked < self.config.n_spare_pairs

    def mark(self, pair_index: int) -> None:
        """Mark the pair containing a worn-out cell."""
        if not 0 <= pair_index < self.config.n_pairs:
            raise ValueError(f"pair index {pair_index} out of range")
        if self._marked[pair_index]:
            return
        if not self.can_mark():
            raise SpareExhausted(
                f"all {self.config.n_spare_pairs} spares already consumed"
            )
        self._marked[pair_index] = True

    def layout(self, data_values: np.ndarray) -> np.ndarray:
        """Physical pair values for a write: data skip marked pairs.

        Marked pairs are programmed to INV; unused spare pairs are written
        with value 0.
        """
        d = np.asarray(data_values, dtype=np.int64)
        if d.shape != (self.config.n_data_pairs,):
            raise ValueError(
                f"expected {self.config.n_data_pairs} data values, got {d.shape}"
            )
        if np.any((d < 0) | (d >= self.inv_value)):
            raise ValueError(
                f"data pair values must be in [0, {self.inv_value})"
            )
        out = np.zeros(self.config.n_pairs, dtype=np.int64)
        out[self._marked] = self.inv_value
        free = np.nonzero(~self._marked)[0]
        out[free[: d.size]] = d
        return out

    def read(self, raw_values: np.ndarray) -> np.ndarray:
        """Recover data values from a sensed block (functional path)."""
        return correct_values(raw_values, self.config, self.inv_value)
