"""Envelopes: the one message a call travels in, plus the element pipeline.

An :class:`Envelope` is the call itself — object id, operation and
arguments in wire values — together with what the invocation path needs
end to end:

* a **correlation id**, the one id a call carries: a reply frame is
  paired with its call by it;
* the **propagated context** (transaction id, credentials, ...) captured
  on the caller's thread;
* a per-call :class:`QoS` policy — oneway, timeout, retry budget.

Its outcome travels in the one form :mod:`repro.middleware.bus`
documents beside ``error_to_wire``: ``{"result": value}`` or
``{"error": ...}``.

Cross-cutting behaviour over envelopes — fault injection, latency
simulation, statistics, metrics, portable interceptors — composes as a
single ordered :class:`InterceptorChain` of small elements (the Slick
middlebox-pipeline shape), replacing the ad-hoc hook mechanisms the bus,
ORB, and federation each used to carry privately.  A chain is compiled
into one fixed callable whenever it is edited, so running it allocates
nothing per call.

Delivery context: while a servant executes, the delivering layer pushes
the envelope's propagated context onto this thread's
:func:`delivery_stack` (read back through :func:`current_delivery_context`),
so nested outbound calls made *by* the servant — including cross-node
federation hops — inherit the transaction id and credentials of the
request they serve without every servant having to thread them through
by hand.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.witness import named_lock
from repro.errors import (
    InvocationTimeout,
    MiddlewareError,
    NodeDownError,
    PipelineError,
)

_correlation_counter = itertools.count(1)


# ---------------------------------------------------------------------------
# QoS policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QoS:
    """Per-call quality-of-service policy carried by an envelope.

    * ``oneway`` — fire-and-forget: the caller gets no reply and no
      error; delivery is attempted at most once per attempt budget.
    * ``timeout_ms`` — how long :meth:`ReplyFuture.result` waits before
      raising :class:`~repro.errors.InvocationTimeout` (``None`` = wait
      forever).
    * ``retries`` — how many times a *transport-level* fault (an exact
      :class:`~repro.errors.MiddlewareError`, the injector's default
      exception type) is retried before the caller sees it.  Application
      errors — servant exceptions, denials, aborts — are never retried.
    """

    oneway: bool = False
    timeout_ms: Optional[float] = None
    retries: int = 0

    def with_(self, **changes) -> "QoS":
        return replace(self, **changes)


DEFAULT_QOS = QoS()
ONEWAY_QOS = QoS(oneway=True)


def will_retry(envelope: "Envelope", exc: BaseException) -> bool:
    """THE retry decision — shared by transports (to re-deliver) and by
    observers such as the metrics element (to skip non-final attempts),
    so the predicate cannot desynchronize between them."""
    return envelope.attempt < envelope.qos.retries and is_retryable(exc)


def is_retryable(exc: BaseException) -> bool:
    """Retry policy: only *pre-effect* transport faults are safe to retry.

    Two classes qualify:

    * injected transport faults — raised as :class:`MiddlewareError`
      exactly (never a subclass), fired *before* the servant runs;
    * dead-node faults — :class:`~repro.errors.NodeDownError` with
      ``pre_effect`` set, raised at the federation's routing terminal
      before dispatch.  Re-delivery re-resolves the owner, so after the
      failover interceptor promotes a standby the retry lands on the
      new primary.

    Subclasses — remote invocation errors, denials, transaction aborts —
    carry application meaning and are surfaced to the caller untouched.
    An exception rebuilt from an error its sender judged not retryable
    (``_remote_rebuilt``, see :func:`~repro.middleware.bus.error_from_wire`)
    is excluded even when its type is bare: an ``{"error": ...}`` outcome
    crossed a servant dispatch — e.g. a nested call's transport fault *inside*
    servant code — so effects may already exist and re-delivery could
    duplicate them.
    """
    if getattr(exc, "_remote_rebuilt", False):
        return False
    if isinstance(exc, NodeDownError):
        return exc.pre_effect
    return type(exc) is MiddlewareError


# ---------------------------------------------------------------------------
# Envelope
# ---------------------------------------------------------------------------


@dataclass
class Envelope:
    """One call travelling through a transport: the call, its context
    and its policy."""

    object_id: str
    operation: str
    #: the arguments, in wire values once the building layer marshalled them
    args: list
    kwargs: Dict[str, Any]
    #: the propagated per-call context (txn id, credentials, ...)
    context: Dict[str, Any] = field(default_factory=dict)
    qos: QoS = DEFAULT_QOS
    #: pairs this envelope's reply with the caller
    correlation_id: int = field(default_factory=_correlation_counter.__next__)
    #: routing target (federation node name; None for in-process buses)
    target: Optional[str] = None
    #: the federation *name* a routed call is addressed to (None on bus
    #: and batch envelopes); retries re-resolve it, so a redelivery
    #: lands on the current owner even if the shard migrated (or failed
    #: over) between attempts
    binding: Optional[str] = None
    #: metrics label (``Class.operation``); None suppresses recording
    label: Optional[str] = None
    #: delivery attempt number (0 = first try; bumped by retrying transports)
    attempt: int = 0

    # The state below is plain class attributes, not dataclass fields:
    # only the layers that use it set it on an instance, so constructing
    # an envelope pays nothing for it.

    #: the callable :meth:`InterceptorChain.execute` ends in
    terminal = None
    #: a routed call's partition key, context source (a provider
    #: ``callable(node) -> dict`` or a static dict) and the trace
    #: headers captured when it was built
    partition = None
    context_source = None
    trace_headers = None
    #: a pipelined batch's members and the sorted partitions they name
    batch = None
    partitions = None
    #: the owner node and live reference the current attempt resolved
    owner = None
    ref = None

    # -- sans-IO wire form ----------------------------------------------------

    @classmethod
    def from_wire(cls, data: tuple) -> "Envelope":
        """Rebuild an envelope from the positional form a REQUEST
        frame decodes to (:mod:`repro.middleware.wire`): correlation id,
        label, object id, operation, and the call ``(args, kwargs,
        context)`` in wire values.

        The correlation id is *preserved*, never re-minted: the peer's
        reply frame must carry the id the sender is waiting on.  The
        rest of the call's policy — QoS, attempt, target, binding —
        never crosses the wire, because only the caller applies it, so
        the rebuilt envelope has :data:`DEFAULT_QOS` and no target or
        binding.
        """
        correlation_id, label, object_id, operation, (args, kwargs, context) = data
        return cls(
            object_id, operation, args, kwargs, context, DEFAULT_QOS,
            correlation_id, label=label,
        )


# ---------------------------------------------------------------------------
# Reply futures
# ---------------------------------------------------------------------------


class ReplyFuture:
    """The caller's handle on an in-flight invocation.

    Transports complete the future with the routed hop's result (already
    hydrated by the federation's terminal) or fail it with the raised
    exception.
    """

    def __init__(self, envelope: Optional[Envelope] = None):
        self.envelope = envelope
        self._event = threading.Event()
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: List[Callable[["ReplyFuture"], None]] = []
        self._lock = named_lock("envelope.reply")

    # -- completion (transport side) ----------------------------------------

    def _complete(self, value: Any) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._value = value
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _fail(self, exception: BaseException) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._exception = exception
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    # -- observation (caller side) -------------------------------------------

    def done(self) -> bool:
        return self._event.is_set()

    def add_done_callback(self, callback: Callable[["ReplyFuture"], None]) -> None:
        """Run ``callback(self)`` on completion (immediately if done)."""
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    def _wait(self, timeout_ms: Optional[float]) -> None:
        timeout = None if timeout_ms is None else timeout_ms / 1000.0
        if not self._event.wait(timeout):
            label = self.envelope.label if self.envelope is not None else None
            raise InvocationTimeout(
                f"no reply within {timeout_ms}ms"
                + (f" for {label}" if label else "")
            )

    _UNSET = object()

    def exception(self, timeout_ms: Optional[float] = None) -> Optional[BaseException]:
        self._wait(timeout_ms)
        return self._exception

    def result(self, timeout_ms: Any = _UNSET) -> Any:
        """Wait for the reply; raises remote errors.

        Without an explicit ``timeout_ms`` the envelope's QoS timeout
        applies; pass ``None`` to wait forever.
        """
        if timeout_ms is self._UNSET:
            timeout_ms = (
                self.envelope.qos.timeout_ms if self.envelope is not None else None
            )
        self._wait(timeout_ms)
        if self._exception is not None:
            raise self._exception
        return self._value


# ---------------------------------------------------------------------------
# Interceptor chain (Slick-style element pipeline)
# ---------------------------------------------------------------------------

#: an element wraps delivery: ``element(envelope, next) -> value``, and
#: continues it with ``next(envelope)``
Element = Callable[[Envelope, Callable[[Envelope], Any]], Any]


def _run_terminal(envelope: Envelope) -> Any:
    return envelope.terminal(envelope)


def _link(element: Element, next_call: Callable[[Envelope], Any]):
    def call(envelope: Envelope) -> Any:
        return element(envelope, next_call)

    return call


class InterceptorChain:
    """An ordered, named pipeline of elements over envelopes.

    Elements run outermost-first in insertion order (unless placed with
    ``before``/``after``); each decides whether to continue with
    ``next(envelope)`` — short-circuiting, raising, measuring, or
    mutating the envelope on the way through.  One chain instance per
    layer (bus, federation) replaces that layer's ad-hoc hook mechanisms.

    The chain is compiled on every edit (:meth:`add`, :meth:`remove`):
    each element is linked to its successor once, so :meth:`execute`
    runs a fixed sequence of calls and allocates nothing.  An edit
    publishes the new pipeline with one reference assignment and applies
    from the next :meth:`execute`; a call already in flight finishes on
    the pipeline it started with.  Edits are configuration-time
    operations: concurrent editors are not serialized against each other.
    """

    def __init__(self):
        self._elements: List[tuple] = []  # (name, element)
        self._pipeline: Callable[[Envelope], Any] = _run_terminal

    def names(self) -> List[str]:
        return [name for name, _ in self._elements]

    def has(self, name: str) -> bool:
        return any(existing == name for existing, _ in self._elements)

    def add(
        self,
        name: str,
        element: Element,
        before: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "InterceptorChain":
        """Insert an element (append by default); chainable."""
        if self.has(name):
            raise PipelineError(f"interceptor {name!r} already in the chain")
        if before is not None and after is not None:
            raise PipelineError("give at most one of before/after")
        index = len(self._elements)
        if before is not None:
            index = self._index_of(before)
        elif after is not None:
            index = self._index_of(after) + 1
        elements = list(self._elements)
        elements.insert(index, (name, element))
        self._compile(elements)
        return self

    def remove(self, name: str) -> Element:
        elements = list(self._elements)
        _, element = elements.pop(self._index_of(name))
        self._compile(elements)
        return element

    def _index_of(self, name: str) -> int:
        for i, (existing, _) in enumerate(self._elements):
            if existing == name:
                return i
        raise PipelineError(f"no interceptor named {name!r} in the chain")

    def _compile(self, elements: List[tuple]) -> None:
        """Link ``elements`` innermost-first into one callable, then
        publish it and the list it came from."""
        pipeline = _run_terminal
        for _, element in reversed(elements):
            pipeline = _link(element, pipeline)
        self._elements = elements
        self._pipeline = pipeline

    def execute(self, envelope: Envelope, terminal: Callable[[Envelope], Any]) -> Any:
        """Run ``envelope`` through the pipeline, ending in ``terminal(envelope)``."""
        envelope.terminal = terminal
        return self._pipeline(envelope)


# -- stock elements ----------------------------------------------------------


def sim_latency_element(clock, latency_ms: Callable[[], float]) -> Element:
    """Charge one hop of simulated latency each way around delivery."""

    def element(envelope: Envelope, next: Callable[[Envelope], Any]):
        clock.advance(latency_ms())
        try:
            return next(envelope)
        finally:
            clock.advance(latency_ms())

    return element


# ---------------------------------------------------------------------------
# Delivery-context propagation
# ---------------------------------------------------------------------------

_delivery_local = threading.local()


def delivery_stack() -> List[Dict[str, Any]]:
    """This thread's stack of delivery contexts, innermost last.

    The layer that hands a call to application code (the node's
    dispatch path) pushes a copy of the call's propagated context
    before the servant runs and pops it in a ``finally`` after, so
    outbound calls the servant makes can inherit the caller's
    transaction id and credentials.
    """
    stack = getattr(_delivery_local, "frames", None)
    if stack is None:
        stack = _delivery_local.frames = []
    return stack


def current_delivery_context() -> Dict[str, Any]:
    """The innermost delivery context of this thread ({} outside dispatch)."""
    stack = delivery_stack()
    return dict(stack[-1]) if stack else {}


def delivery_context_value(key: str) -> Optional[Any]:
    """One entry of the innermost delivery context, without copying it.

    Hot-path peek for per-delivery observers (the bus tracing element
    looks up the propagated trace this way on every dispatch)."""
    stack = getattr(_delivery_local, "frames", None)
    return stack[-1].get(key) if stack else None
