"""Logical simulation clock.

All latency in the middleware substrate is *accounted*, not slept: the bus
advances the clock by the configured per-message latency, transaction and
credential timeouts compare against it, and benchmarks read it to report
simulated time independently of wall-clock noise.

The clock is also *waitable*: the virtual-time event scheduler
(:mod:`repro.runtime.load.scheduler`) drives it forward with
:meth:`SimClock.advance_to`, and any thread may block in
:meth:`SimClock.wait_until` until simulated time reaches a deadline —
virtual-time analogues of ``sleep``/``wall clock`` that make a million
simulated clients schedulable without a thread apiece.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.analysis.witness import named_condition
from repro.errors import MiddlewareError


class SimClock:
    """Monotonic logical clock measured in (simulated) milliseconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)  # guarded_by: _cond
        self._cond = named_condition("clock.sim")
        # kept as an alias: advance() has always serialized on one mutex
        self._lock = self._cond

    def now(self) -> float:
        return self._now

    def advance(self, delta_ms: float) -> float:
        """Move time forward; negative and non-finite deltas are rejected."""
        if delta_ms < 0:
            raise MiddlewareError(f"clock cannot go backwards ({delta_ms} ms)")
        if not math.isfinite(delta_ms):
            raise MiddlewareError(f"clock cannot advance by {delta_ms} ms")
        with self._cond:
            self._now += delta_ms
            self._cond.notify_all()
            return self._now

    def advance_to(self, target_ms: float) -> float:
        """Move time forward to an *absolute* instant.

        A no-op when ``target_ms`` is not ahead of now — concurrent
        advancers (the event scheduler setting event times while the
        transport accounts hop latency) may only ever race time
        forward, never backwards.
        """
        with self._cond:
            if target_ms > self._now:
                self._now = float(target_ms)
                self._cond.notify_all()
            return self._now

    def wait_until(
        self, deadline_ms: float, timeout_s: Optional[float] = None
    ) -> bool:
        """Block until simulated time reaches ``deadline_ms``.

        Returns True once ``now() >= deadline_ms``; False if the
        (wall-clock) ``timeout_s`` expired first.  Virtual time only
        moves when someone advances it, so a waiter with no timeout
        relies on another thread driving the clock.
        """
        with self._cond:
            return self._cond.wait_for(
                lambda: self._now >= deadline_ms, timeout=timeout_s
            )

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<SimClock t={self._now:.3f}ms>"
