"""Envelopes: the unit every transport carries, plus the element pipeline.

An :class:`Envelope` wraps a :class:`~repro.middleware.bus.Request` with
the metadata the invocation path needs end to end:

* a **correlation id** pairing replies with requests across asynchronous
  transports;
* the **propagated context** (transaction id, credentials, ...) captured
  on the caller's thread when the envelope is built;
* a per-call :class:`QoS` policy — oneway, timeout, retry budget.

Cross-cutting behaviour over envelopes — fault injection, latency
simulation, statistics, metrics, portable interceptors — composes as a
single ordered :class:`InterceptorChain` of small elements (the Slick
middlebox-pipeline shape), replacing the ad-hoc hook mechanisms the bus,
ORB, and federation each used to carry privately.

Delivery context: while a servant executes, the delivering layer
publishes the envelope's propagated context in a thread-local
(:func:`delivering` / :func:`current_delivery_context`), so nested
outbound calls made *by* the servant — including cross-node federation
hops — inherit the transaction id and credentials of the request they
serve without every servant having to thread them through by hand.
"""

from __future__ import annotations

import contextlib
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
    An exception rebuilt from a wire error response (``_remote_rebuilt``)
    is excluded even when its type is bare: it crossed a servant
    dispatch — e.g. a nested call's transport fault *inside* servant
    code — so effects may already exist and re-delivery could duplicate
    them.
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
    """One message travelling through a transport: payload + call policy."""

    request: Any  #: the wrapped Request payload
    qos: QoS = DEFAULT_QOS
    #: pairs this envelope's reply with the caller-held future
    correlation_id: int = field(default_factory=lambda: next(_correlation_counter))
    #: routing target (federation node name; None for in-process buses)
    target: Optional[str] = None
    #: the federation *name* this call was routed by, when known; retries
    #: re-resolve it, so a redelivery lands on the current owner even if
    #: the shard migrated (or failed over) between attempts
    binding: Optional[str] = None
    #: metrics label (``Class.operation``); None suppresses recording
    label: Optional[str] = None
    #: delivery attempt number (0 = first try; bumped by retrying transports)
    attempt: int = 0

    @property
    def context(self) -> Dict[str, Any]:
        """The propagated per-call context (txn id, credentials, ...)."""
        return getattr(self.request, "context", {})

    @property
    def is_oneway(self) -> bool:
        return self.qos.oneway

    # -- sans-IO wire form ----------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """The envelope as a plain wire dict — no bytes, no IO.

        Everything a remote peer needs to re-dispatch the call travels:
        the marshalled request (with its propagated context), the QoS
        policy (so the receiving side can honour oneway semantics), the
        correlation id (pairing the reply frame), and the routing
        metadata.
        """
        return {
            "correlation_id": self.correlation_id,
            "qos": {
                "oneway": self.qos.oneway,
                "timeout_ms": self.qos.timeout_ms,
                "retries": self.qos.retries,
            },
            "target": self.target,
            "binding": self.binding,
            "label": self.label,
            "attempt": self.attempt,
            "request": self.request.to_wire(),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Envelope":
        """Rebuild an envelope from its wire dict.

        The correlation id is *preserved*, never re-minted: the peer's
        reply frame must carry the id the sender is waiting on.
        """
        from repro.middleware.bus import Request

        qos_data = data["qos"]
        return cls(
            request=Request.from_wire(data["request"]),
            qos=QoS(
                oneway=qos_data["oneway"],
                timeout_ms=qos_data["timeout_ms"],
                retries=qos_data["retries"],
            ),
            correlation_id=data["correlation_id"],
            target=data["target"],
            binding=data["binding"],
            label=data["label"],
            attempt=data["attempt"],
        )


# ---------------------------------------------------------------------------
# Reply futures
# ---------------------------------------------------------------------------


class ReplyFuture:
    """The caller's handle on an in-flight invocation.

    Transports complete the future with the terminal's raw value (a
    :class:`Response` for bus deliveries, an already-hydrated result for
    federation hops) or fail it with the raised exception.  ``decode``
    post-processes the raw value on the *caller's* thread when
    :meth:`result` is called — the bus uses it to re-raise wire errors
    and hydrate references.
    """

    def __init__(
        self,
        envelope: Optional[Envelope] = None,
        decode: Optional[Callable[[Any], Any]] = None,
    ):
        self.envelope = envelope
        self._decode = decode
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

    def raw(self, timeout_ms: Optional[float] = None) -> Any:
        """The undecoded completion value (raises the failure, if any)."""
        self._wait(timeout_ms)
        if self._exception is not None:
            raise self._exception
        return self._value

    def result(self, timeout_ms: Any = _UNSET) -> Any:
        """Wait for the reply and decode it; raises remote errors.

        Without an explicit ``timeout_ms`` the envelope's QoS timeout
        applies; pass ``None`` to wait forever.
        """
        if timeout_ms is self._UNSET:
            timeout_ms = (
                self.envelope.qos.timeout_ms if self.envelope is not None else None
            )
        value = self.raw(timeout_ms)
        if self._decode is not None:
            return self._decode(value)
        return value


# ---------------------------------------------------------------------------
# Interceptor chain (Slick-style element pipeline)
# ---------------------------------------------------------------------------

#: an element wraps delivery: ``element(envelope, proceed) -> value``
Element = Callable[[Envelope, Callable[[], Any]], Any]


class InterceptorChain:
    """An ordered, named pipeline of elements over envelopes.

    Elements run outermost-first in insertion order (unless placed with
    ``before``/``after``); each decides whether to call ``proceed()`` —
    short-circuiting, raising, measuring, or mutating the envelope on
    the way through.  One chain instance per layer (bus, federation)
    replaces that layer's ad-hoc hook mechanisms.
    """

    def __init__(self):
        self._elements: List[tuple] = []  # (name, element)

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
        self._elements.insert(index, (name, element))
        return self

    def remove(self, name: str) -> Element:
        index = self._index_of(name)
        _, element = self._elements.pop(index)
        return element

    def _index_of(self, name: str) -> int:
        for i, (existing, _) in enumerate(self._elements):
            if existing == name:
                return i
        raise PipelineError(f"no interceptor named {name!r} in the chain")

    def execute(self, envelope: Envelope, terminal: Callable[[], Any]) -> Any:
        """Run ``terminal`` inside the full element pipeline."""
        call = terminal
        for _, element in reversed(self._elements):
            call = _bind_element(element, envelope, call)
        return call()


def _bind_element(element: Element, envelope: Envelope, proceed: Callable[[], Any]):
    def step():
        return element(envelope, proceed)

    return step


# -- stock elements ----------------------------------------------------------


def sim_latency_element(clock, latency_ms: Callable[[], float]) -> Element:
    """Charge one hop of simulated latency each way around delivery."""

    def element(envelope: Envelope, proceed: Callable[[], Any]):
        clock.advance(latency_ms())
        try:
            return proceed()
        finally:
            clock.advance(latency_ms())

    return element


# ---------------------------------------------------------------------------
# Delivery-context propagation
# ---------------------------------------------------------------------------

_delivery_local = threading.local()


def _delivery_stack() -> List[Dict[str, Any]]:
    stack = getattr(_delivery_local, "frames", None)
    if stack is None:
        stack = _delivery_local.frames = []
    return stack


@contextlib.contextmanager
def delivering(context: Optional[Dict[str, Any]]):
    """Publish a request's propagated context for the executing thread.

    Installed by the layer that hands a request to application code (the
    node's dispatch path), so outbound calls the servant makes can
    inherit the caller's transaction id and credentials.
    """
    stack = _delivery_stack()
    stack.append(dict(context or {}))
    try:
        yield
    finally:
        stack.pop()


def current_delivery_context() -> Dict[str, Any]:
    """The innermost delivery context of this thread ({} outside dispatch)."""
    stack = _delivery_stack()
    return dict(stack[-1]) if stack else {}


def delivery_context_value(key: str) -> Optional[Any]:
    """One entry of the innermost delivery context, without copying it.

    Hot-path peek for per-delivery observers (the bus tracing element
    looks up the propagated trace this way on every dispatch)."""
    stack = getattr(_delivery_local, "frames", None)
    return stack[-1].get(key) if stack else None
