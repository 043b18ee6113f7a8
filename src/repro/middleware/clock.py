"""Logical simulation clock.

All latency in the middleware substrate is *accounted*, not slept: the bus
advances the clock by the configured per-message latency, transaction and
credential timeouts compare against it, and benchmarks read it to report
simulated time independently of wall-clock noise.

The virtual-time event scheduler (:mod:`repro.runtime.load.scheduler`)
drives the clock to each event's instant with :meth:`SimClock.advance_to`
while transports account hop latency with :meth:`SimClock.advance`; both
serialize on one lock, so time only ever moves forward and no advance is
lost.
"""

from __future__ import annotations

import math

from repro.analysis.witness import named_lock
from repro.errors import MiddlewareError


class SimClock:
    """Monotonic logical clock measured in (simulated) milliseconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)  # guarded_by: _lock
        self._lock = named_lock("clock.sim")

    def now(self) -> float:
        return self._now

    def advance(self, delta_ms: float) -> float:
        """Move time forward; negative and non-finite deltas are rejected."""
        if delta_ms < 0:
            raise MiddlewareError(f"clock cannot go backwards ({delta_ms} ms)")
        if not math.isfinite(delta_ms):
            raise MiddlewareError(f"clock cannot advance by {delta_ms} ms")
        with self._lock:
            self._now += delta_ms
            return self._now

    def advance_to(self, target_ms: float) -> float:
        """Move time forward to an *absolute* instant.

        A no-op when ``target_ms`` is not ahead of now — concurrent
        advancers (the event scheduler setting event times while the
        transport accounts hop latency) may only ever race time
        forward, never backwards.
        """
        with self._lock:
            if target_ms > self._now:
                self._now = float(target_ms)
            return self._now

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<SimClock t={self._now:.3f}ms>"
