"""Set-associative write-back caches (Table 5's L1/L2).

Straightforward LRU, write-allocate, write-back caches operating on line
addresses.  The hierarchy helper chains L1 -> L2 and reports what reaches
memory: demand fills (reads) and dirty evictions (writes), which is all
the PCM controller sees.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict

__all__ = ["Cache", "AccessResult", "Hierarchy"]


@dataclasses.dataclass
class AccessResult:
    """Outcome of a cache access at one level."""

    hit: bool
    writeback_line: int | None = None  # dirty victim's line address


class Cache:
    """One level: ``sets`` x ``assoc`` lines with true-LRU replacement."""

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int):
        if size_bytes % (assoc * line_bytes):
            raise ValueError("size must be a multiple of assoc * line size")
        self.n_sets = size_bytes // (assoc * line_bytes)
        self.assoc = assoc
        self.line_bytes = line_bytes
        # per-set OrderedDict: tag -> dirty flag; order = LRU (front oldest)
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.hits = 0
        self.misses = 0

    def _locate(self, line_addr: int) -> tuple[OrderedDict[int, bool], int]:
        return self._sets[line_addr % self.n_sets], line_addr // self.n_sets

    def access(self, line_addr: int, is_write: bool) -> AccessResult:
        """Access one line; allocates on miss, returning any dirty victim."""
        s, tag = self._locate(line_addr)
        if tag in s:
            self.hits += 1
            s.move_to_end(tag)
            if is_write:
                s[tag] = True
            return AccessResult(hit=True)
        self.misses += 1
        victim_line = None
        if len(s) >= self.assoc:
            vtag, vdirty = s.popitem(last=False)
            if vdirty:
                victim_line = vtag * self.n_sets + (line_addr % self.n_sets)
        s[tag] = is_write
        return AccessResult(hit=False, writeback_line=victim_line)


@dataclasses.dataclass
class MemoryTraffic:
    """What one core access pushed out to PCM."""

    fill_read: bool = False  # demand line fill from PCM
    writebacks: int = 0  # dirty lines evicted to PCM


class Hierarchy:
    """L1 + unified L2; returns the PCM traffic of each access."""

    def __init__(
        self,
        l1_size: int,
        l1_assoc: int,
        l2_size: int,
        l2_assoc: int,
        line_bytes: int,
    ):
        self.l1 = Cache(l1_size, l1_assoc, line_bytes)
        self.l2 = Cache(l2_size, l2_assoc, line_bytes)
        self.line_bytes = line_bytes

    def access(self, line_addr: int, is_write: bool) -> MemoryTraffic:
        out = MemoryTraffic()
        r1 = self.l1.access(line_addr, is_write)
        if r1.writeback_line is not None:
            # L1 victim lands in L2 (write-back, inclusive-ish handling).
            r2 = self.l2.access(r1.writeback_line, is_write=True)
            if not r2.hit:
                out.fill_read = False  # victim fill does not read PCM data we model
            if r2.writeback_line is not None:
                out.writebacks += 1
        if r1.hit:
            return out
        r2 = self.l2.access(line_addr, is_write=False)
        if r2.writeback_line is not None:
            out.writebacks += 1
        if not r2.hit:
            out.fill_read = True
        return out
