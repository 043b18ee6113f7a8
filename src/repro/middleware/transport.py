"""Pluggable transports: how a federation hop travels from caller to terminal.

The federation hands each routed envelope to a :class:`Transport` with a
*handler* — its interceptor chain plus the routing terminal.  A
synchronous call goes through :meth:`Transport.call`, which delivers on
the caller's thread and returns the value or raises: no future is built
for a reply the caller is already waiting on.  :meth:`Transport.submit`
returns a :class:`~repro.middleware.envelope.ReplyFuture` for
asynchronous, oneway, pipelined and nested-inline submissions.  Two
flavours:

* :class:`InProcessTransport` — delivers inline on the caller's thread
  (``submit`` returns an already-completed future).  The synchronous
  baseline: identical semantics (thread-locality, determinism) to a
  direct call.
* :class:`QueuedTransport` — a bounded set of daemon delivery threads
  draining a FIFO queue.  The caller keeps its future and continues —
  async invocation, oneway fire-and-forget, and reply pipelining all
  ride on it.  ``drain()`` quiesces (waits until nothing is queued or in
  flight) so harnesses can check invariants after the last oneway lands.

All transports honour the envelope's :class:`~repro.middleware.envelope.QoS`
retry budget: a *bare* :class:`~repro.errors.MiddlewareError` (the fault
injector's default — raised before any servant effect) is re-delivered up
to ``qos.retries`` times; application errors are never retried, so
effects stay at-most-once per logical call.

Dead-node fault classification: a
:class:`~repro.errors.NodeDownError` whose ``pre_effect`` flag is set is
treated like any other pre-effect transport fault and re-delivered under
the same budget.  Because the federation's routed handler re-resolves
``envelope.binding`` on every delivery attempt, the retry that follows a
standby promotion lands on the new primary instead of hammering the dead
node — that is the whole failover path: fault → promote → re-deliver.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Dict, Optional

from repro.analysis.witness import named_condition, named_lock
from repro.errors import TransportError
from repro.middleware.envelope import Envelope, ReplyFuture, will_retry

#: a handler delivers one envelope and returns the reply payload
Handler = Callable[[Envelope], Any]

#: marks threads running on behalf of a call chain that already holds a
#: dispatch permit (``held``): the permit holder itself, and a wire
#: listener's connection thread while it serves a REQUEST that arrived
#: with the nested bit.  Such a thread takes no further permit on any
#: node (two nodes whose permit holders wait on each other would
#: deadlock the federation), and the REQUESTs it sends over the wire
#: carry the bit, so the rule crosses sockets and processes too.
permit_chain = threading.local()


def in_permit_chain() -> bool:
    """True while this thread runs for a chain holding a dispatch permit."""
    return getattr(permit_chain, "held", False)


class Transport:
    """Base transport: retry-aware delivery into a handler."""

    name = "transport"

    def submit(self, envelope: Envelope, handler: Handler) -> ReplyFuture:
        raise NotImplementedError

    # -- shared delivery core ------------------------------------------------

    def call(self, envelope: Envelope, handler: Handler) -> Any:
        """Run ``handler`` on this thread with the QoS retry budget;
        return its value or raise its final error."""
        attempt = 0
        while True:
            envelope.attempt = attempt
            try:
                return handler(envelope)
            except Exception as exc:
                if not will_retry(envelope, exc):
                    raise
            attempt += 1

    def _deliver(self, envelope: Envelope, handler: Handler, future: ReplyFuture) -> None:
        """:meth:`call`, with the outcome completing ``future``."""
        try:
            value = self.call(envelope, handler)
        except BaseException as exc:  # noqa: BLE001 - routed to the future
            future._fail(exc)
            return
        future._complete(value)


class InProcessTransport(Transport):
    """Synchronous delivery on the caller's thread (the default)."""

    name = "in-process"

    # defined on this class, not inherited: perfbench's traced run wraps
    # each transport's own ``submit``
    def submit(self, envelope: Envelope, handler: Handler) -> ReplyFuture:
        future = ReplyFuture(envelope)
        self._deliver(envelope, handler, future)
        return future


class QueuedTransport(Transport):
    """Asynchronous delivery through a FIFO queue and worker threads.

    Threads start lazily on the first submit, so layers that never go
    asynchronous never pay for them.  Workers are daemons *and* the
    transport shuts down explicitly — hangs cannot outlive the process,
    and tests can join deterministically.
    """

    name = "queued"

    def __init__(self, workers: int = 2, name: str = "transport"):
        if workers < 1:
            raise TransportError(f"queued transport needs >= 1 worker, got {workers}")
        self.workers = workers
        self._name = name
        self._queue: "deque" = deque()
        self._mutex = named_lock("transport.queue")
        self._not_empty = named_condition("transport.queue", lock=self._mutex)
        self._idle = named_condition("transport.queue", lock=self._mutex)
        self._threads: list = []
        self._started = False
        self._closed = False
        self._in_flight = 0
        #: delivery statistics
        self.submitted = 0
        self.delivered = 0
        self.failed = 0

    # -- lifecycle -----------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started:
            return
        self._started = True
        for i in range(self.workers):
            thread = threading.Thread(
                target=self._loop,
                name=f"deliver-{self._name}-{i}",
                daemon=True,
            )
            self._threads.append(thread)
            thread.start()

    def shutdown(self) -> None:
        with self._mutex:
            if self._closed:
                return
            self._closed = True
            self._not_empty.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)

    # -- delivery ------------------------------------------------------------

    def submit(self, envelope: Envelope, handler: Handler) -> ReplyFuture:
        future = ReplyFuture(envelope)
        with self._mutex:
            if self._closed:
                raise TransportError(f"transport {self._name!r} is shut down")
            self._ensure_started()
            self._queue.append((envelope, handler, future))
            self.submitted += 1
            self._not_empty.notify()
        return future

    def _loop(self) -> None:
        while True:
            with self._mutex:
                while not self._queue and not self._closed:
                    self._not_empty.wait()
                if not self._queue:
                    return  # closed and drained
                envelope, handler, future = self._queue.popleft()
                self._in_flight += 1
            try:
                self._deliver(envelope, handler, future)
            finally:
                with self._mutex:
                    self._in_flight -= 1
                    if future._exception is not None:
                        self.failed += 1
                    else:
                        self.delivered += 1
                    if not self._queue and self._in_flight == 0:
                        self._idle.notify_all()

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        with self._mutex:
            return self._idle.wait_for(
                lambda: not self._queue and self._in_flight == 0, timeout_s
            )

    def stats(self) -> Dict[str, int]:
        with self._mutex:
            return {
                "submitted": self.submitted,
                "delivered": self.delivered,
                "failed": self.failed,
                "queued": len(self._queue),
                "in_flight": self._in_flight,
                "workers": self.workers if self._started else 0,
            }
