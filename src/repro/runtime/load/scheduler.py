"""Virtual-time event scheduler: a heap of timed events over SimClock.

The open-loop driver never sleeps: every future action (an arrival, a
queue-drain marker, a gauge sample) is an entry in one binary heap keyed
by its virtual due time, and :meth:`VirtualTimeScheduler.run` pops them
in time order, advancing the federation's
:class:`~repro.middleware.clock.SimClock` to each event's instant via
``advance_to`` (forward-only: a hop's latency the transport accounted
meanwhile is never wound back).

Determinism guarantees:

* ties are broken by a monotone sequence number, so two events due at
  the same instant always fire in scheduling order;
* scheduling an event *before* the current virtual time raises — the
  heap can never make time go backwards;
* the scheduler is single-threaded by design (one ``run`` loop), so a
  fixed seed fixes the full event interleaving and therefore the digest.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import MiddlewareError
from repro.middleware.clock import SimClock

#: (due_ms, seq, action, payload)
_Event = Tuple[float, int, Callable[..., None], Any]


class VirtualTimeScheduler:
    """Single-threaded timed-event loop on a simulated clock."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        self._heap: List[_Event] = []
        self._seq = 0
        #: virtual instant of the event currently (or last) dispatched
        self.now_ms = self.clock.now()
        #: events dispatched so far
        self.dispatched = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule_at(
        self, due_ms: float, action: Callable[..., None], payload: Any = None
    ) -> None:
        """Enqueue ``action(due_ms, payload)`` for virtual instant ``due_ms``."""
        if due_ms < self.now_ms:
            raise MiddlewareError(
                f"event scheduled at {due_ms:.3f} ms, but virtual time is "
                f"already {self.now_ms:.3f} ms — the heap cannot go backwards"
            )
        self._seq += 1
        heapq.heappush(self._heap, (float(due_ms), self._seq, action, payload))

    def schedule_after(
        self, delay_ms: float, action: Callable[..., None], payload: Any = None
    ) -> None:
        if delay_ms < 0:
            raise MiddlewareError(f"negative delay ({delay_ms} ms)")
        self.schedule_at(self.now_ms + delay_ms, action, payload)

    def step(self) -> bool:
        """Dispatch the next due event; False when the heap is empty."""
        if not self._heap:
            return False
        due_ms, _seq, action, payload = heapq.heappop(self._heap)
        # the heap orders events, the clock mirrors them: forward-only,
        # so a transport that accounted hop latency mid-event can never
        # be rewound by the next event's (earlier-looking) due time
        self.now_ms = due_ms
        self.clock.advance_to(due_ms)
        self.dispatched += 1
        action(due_ms, payload)
        return True

    def run(self, until_ms: Optional[float] = None) -> int:
        """Dispatch events in time order; returns how many ran.

        With ``until_ms`` the loop stops *before* the first event due
        past the horizon (the event stays queued).
        """
        ran = 0
        while self._heap:
            if until_ms is not None and self._heap[0][0] > until_ms:
                break
            self.step()
            ran += 1
        return ran
