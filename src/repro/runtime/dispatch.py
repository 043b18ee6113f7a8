"""Request dispatchers: serial, and caller-runs under ``workers`` permits.

A dispatcher decides *how* a node executes an incoming request.  Both
flavours run it on the thread that delivers it — a client calling in
process, a queued-transport delivery thread or a wire listener's
connection thread — so a request never changes threads on its way into
a servant:

* :class:`SerialDispatcher` runs every request as it arrives — the
  seed's one-request-at-a-time behaviour, kept as the deterministic
  baseline;
* :class:`ConcurrentDispatcher` bounds how many requests the node runs
  at once: a top-level request first takes one of ``workers`` permits,
  waiting while all are out.  This is the Leader/Followers idea — the
  thread that receives a request processes it — so a call pays no
  thread handoff.

Both enforce **per-servant serialization**: at most one request executes
against a given servant key at any time (an :class:`threading.RLock` per
key).  Requests against *different* servants overlap freely, up to the
permit count: the overlap comes from the callers' own threads, so
transport latency and blocking I/O of independent requests overlap
instead of queueing behind each other.

Nested dispatches (server code that calls back into a node while
handling a request) run inline without a permit: the thread already
holds one, and waiting for a second could deadlock two nodes whose
permit holders call each other.  The rule is per thread, not per node
(:func:`~repro.middleware.transport.in_permit_chain`), and it crosses
the wire: a permit holder's REQUEST carries the nested bit, and the
listener runs a marked request under its servant lock alone, marking
its own thread for the calls that request makes in turn.
Nested calls that enter through the ORB directly (proxy arguments
hydrated server-side) never reach :meth:`ConcurrentDispatcher.dispatch`;
the node closes that gap by installing :meth:`_DispatcherBase.serialize`
as the bus's ``dispatch_guard``, so *every* delivery on the node holds
the target servant's lock.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Dict, TypeVar

from repro.analysis.witness import named_condition, named_lock, named_rlock
from repro.errors import MiddlewareError
from repro.middleware.transport import permit_chain

T = TypeVar("T")

#: gives the CPU to another runnable thread (POSIX); a no-op elsewhere
_yield_cpu = getattr(os, "sched_yield", lambda: None)


class DispatchStats:
    """Thread-safe counters shared by both dispatcher flavours."""

    def __init__(self):
        self._lock = named_lock("dispatch.stats")
        self.dispatched = 0  # guarded_by: _lock
        self.errors = 0  # guarded_by: _lock
        self.in_flight = 0  # guarded_by: _lock
        self.max_in_flight = 0  # guarded_by: _lock

    def enter(self) -> None:
        with self._lock:
            self.dispatched += 1
            self.in_flight += 1
            if self.in_flight > self.max_in_flight:
                self.max_in_flight = self.in_flight

    def exit(self, error: bool) -> None:
        with self._lock:
            self.in_flight -= 1
            if error:
                self.errors += 1

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return {
                "dispatched": self.dispatched,
                "errors": self.errors,
                "in_flight": self.in_flight,
                "max_in_flight": self.max_in_flight,
            }


class _DispatcherBase:
    """Per-servant lock table + stats, shared by both dispatchers."""

    def __init__(self):
        self.stats = DispatchStats()
        self._servant_locks: Dict[str, threading.RLock] = {}
        self._locks_guard = named_lock("dispatch.locks_guard")

    def _servant_lock(self, key: str) -> threading.RLock:
        lock = self._servant_locks.get(key)
        if lock is None:
            with self._locks_guard:
                lock = self._servant_locks.setdefault(
                    key, named_rlock("dispatch.servant")
                )
        return lock

    def _run(self, key: str, fn: Callable[[], T]) -> T:
        self.stats.enter()
        error = False
        try:
            with self._servant_lock(key):
                return fn()
        except BaseException:
            error = True
            raise
        finally:
            self.stats.exit(error)

    def serialize(self, key: str, fn: Callable[[], T]) -> T:
        """Run ``fn`` under the servant lock only (no permit, no stats).

        Installed as the bus's ``dispatch_guard`` so nested in-process
        deliveries — proxy calls that never pass through ``dispatch`` —
        still serialize per servant.  The lock is re-entrant, so a
        request re-entering its own servant cannot self-deadlock.
        """
        with self._servant_lock(key):
            return fn()

    def shutdown(self) -> None:
        """Nothing to release: a dispatcher owns no threads."""


class SerialDispatcher(_DispatcherBase):
    """Executes every request inline, one at a time per servant."""

    workers = 1

    def dispatch(self, servant_key: str, fn: Callable[[], T]) -> T:
        return self._run(servant_key, fn)


class ConcurrentDispatcher(_DispatcherBase):
    """Runs at most ``workers`` top-level requests at once, each on the
    thread that delivers it, with per-servant serialization.

    A top-level caller waits for a permit, then runs the request itself;
    calls made while the thread holds a permit (nested server-side
    invocations, on this node or another) run inline without one.
    """

    def __init__(self, workers: int = 4):
        super().__init__()
        if workers < 1:
            raise MiddlewareError(f"dispatcher needs >= 1 worker, got {workers}")
        self.workers = workers
        self._permits = named_condition("dispatch.permits")
        self._free = workers  # guarded_by: _permits

    def dispatch(self, servant_key: str, fn: Callable[[], T]) -> T:
        if getattr(permit_chain, "held", False):
            return self._run(servant_key, fn)
        permits = self._permits
        with permits:
            while not self._free:
                permits.wait()
            self._free -= 1
        permit_chain.held = True
        try:
            return self._run(servant_key, fn)
        finally:
            permit_chain.held = False
            with permits:
                self._free += 1
                permits.notify()
            # request threads sharing a CPU take turns per request;
            # without this the interpreter's 5 ms switch interval decides
            # who runs next, and one thread's burst of requests stretches
            # the others' tail latency
            _yield_cpu()
