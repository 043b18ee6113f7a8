"""Pluggable transports: how an envelope travels from caller to terminal.

Every invocation layer (bus, federation) hands its envelopes to a
:class:`Transport` with a *handler* — the layer's interceptor chain plus
terminal dispatch.  A synchronous call goes through :meth:`Transport.call`,
which delivers on the caller's thread and returns the value or raises: no
future is built for a reply the caller is already waiting on.
:meth:`Transport.submit` returns a
:class:`~repro.middleware.envelope.ReplyFuture` for asynchronous, oneway,
pipelined and nested-inline submissions.  Two flavours:

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

import contextlib
import threading
from collections import deque
from typing import Any, Callable, Dict, Optional

from repro.analysis.witness import named_condition, named_lock
from repro.errors import TransportError
from repro.middleware.envelope import Envelope, ReplyFuture, will_retry

#: a handler delivers one envelope and returns the reply payload
Handler = Callable[[Envelope], Any]

#: marks threads currently serving a request — queued-transport delivery
#: threads AND dispatcher pool workers (the dispatcher enters the same
#: marker).  A servant that makes a nested asynchronous call while being
#: served must not queue it behind the (possibly exhausted) bounded
#: pools it is running on: two saturated pools waiting on each other
#: would deadlock the system, so nested submissions run inline instead —
#: the async analogue of the dispatcher's nested-dispatch rule.
_serving_local = threading.local()


@contextlib.contextmanager
def serving_request():
    """Mark this thread as serving a request for the duration."""
    previous = getattr(_serving_local, "serving", False)
    _serving_local.serving = True
    try:
        yield
    finally:
        _serving_local.serving = previous


def in_serving_thread() -> bool:
    """True while this thread serves a request (delivery or pool worker)."""
    return getattr(_serving_local, "serving", False)


class Transport:
    """Base transport: retry-aware delivery into a handler."""

    name = "transport"

    def submit(self, envelope: Envelope, handler: Handler) -> ReplyFuture:
        raise NotImplementedError

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Wait until no envelope is queued or in flight; True if quiet."""
        return True

    def shutdown(self) -> None:
        """Release delivery resources (idempotent)."""

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
                with serving_request():
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


class LazyQueuedTransport:
    """Thread-safe lazy holder for a layer's queued (async) transport.

    Layers that never go asynchronous never start delivery threads; the
    double-checked creation is locked so two racing first async calls
    cannot each start a transport (the loser's threads would escape
    ``drain()``/``shutdown()``).  Both the bus and the federation hold
    their async transport through this helper, so the pattern lives
    once.
    """

    def __init__(self, factory: Callable[[], QueuedTransport]):
        self._factory = factory
        self._transport: Optional[QueuedTransport] = None
        self._lock = named_lock("transport.lazy")

    def get(self) -> QueuedTransport:
        if self._transport is None:
            with self._lock:
                if self._transport is None:
                    self._transport = self._factory()
        return self._transport

    def peek(self) -> Optional[QueuedTransport]:
        """The transport if it was ever needed, else None."""
        return self._transport

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        transport = self._transport
        return transport.drain(timeout_s) if transport is not None else True

    def shutdown(self) -> None:
        transport = self._transport
        if transport is not None:
            transport.shutdown()
