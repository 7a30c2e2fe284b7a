"""Refresh scheduling policies (Section 7).

A device refreshing ``n_blocks`` every ``interval`` sustains one block
refresh per ``interval / n_blocks`` — the steady-state *refresh stream*.
The three policies of Figure 16, and write-aware scrub:

- ``BLOCKING`` (4LC-REF): each refresh occupies its bank for a full
  write and a slot of the four-write window;
- ``OPTIMIZED`` (4LC-REF-OPT): an ideal scheduler hides all bank
  conflicts, but refresh still consumes write bandwidth;
- ``NONE`` (4LC-NO-REF, 3LC): no refresh;
- ``WRITE_AWARE`` (after [2]): as OPTIMIZED, but over only the blocks
  the demand stream does not rewrite each interval (the stream is built
  for fewer blocks, ``DesignVariant.refresh_coverage``).
"""

from __future__ import annotations

import dataclasses

__all__ = ["RefreshStream"]


@dataclasses.dataclass
class RefreshStream:
    """Due-time bookkeeping of the steady-state refresh stream."""

    gap_ns: float
    next_due_ns: float = 0.0
    issued: int = 0

    def __post_init__(self) -> None:
        if self.gap_ns <= 0:
            raise ValueError("refresh gap must be positive")
        if self.next_due_ns == 0.0:
            self.next_due_ns = self.gap_ns

    def due(self, t_ns: float) -> bool:
        return self.next_due_ns <= t_ns

    def pop(self) -> float:
        """Consume the next due refresh; returns its due time."""
        due = self.next_due_ns
        self.next_due_ns += self.gap_ns
        self.issued += 1
        return due

    @classmethod
    def for_device(
        cls, n_blocks: int, interval_s: float
    ) -> "RefreshStream":
        return cls(gap_ns=interval_s * 1e9 / n_blocks)
