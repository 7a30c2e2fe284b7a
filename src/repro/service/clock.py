"""Virtual device time: the only clock the simulation sees.

**Virtual time** (:class:`VirtualClock`) is *simulation* time — the
``t`` of the drift law ``lr(t) = lr0 + alpha * log10(t / t0)``.  It
advances only by explicit request (``POST /v1/devices/<id>/clock``), so
device state is a pure function of the request history and never of
when the server happened to run.  One instance lives per device.  Wall
time only shapes *when* the batcher runs work (whenever its engine
thread is free), and the per-write counter RNG makes results
independent of that.
"""

from __future__ import annotations

__all__ = ["VirtualClock"]


class VirtualClock:
    """Monotonically advancing simulation time, in seconds.

    Starts at ``start`` (default 0.0) and only moves forward: drift is
    irreversible, so rewinding a device's clock would break the device
    invariant that every cell's program time is in the clock's past.
    """

    def __init__(self, start: float = 0.0):
        if start < 0.0:
            raise ValueError(f"virtual time must be >= 0, got {start}")
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        """Move forward ``dt`` seconds; returns the new virtual time."""
        if dt < 0.0:
            raise ValueError(f"cannot advance by a negative dt ({dt})")
        self._now += float(dt)
        return self._now

    def advance_to(self, t: float) -> float:
        """Move forward to absolute virtual time ``t`` (>= current)."""
        if t < self._now:
            raise ValueError(
                f"virtual time cannot rewind: now={self._now}, requested {t}"
            )
        self._now = float(t)
        return self._now
