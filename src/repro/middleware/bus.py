"""In-process message bus with pass-by-value marshalling.

The bus is the transport endpoint of the simulated middleware: the ORB
(S10/rpc) turns proxy calls into :class:`Request` messages wrapped in
:class:`~repro.middleware.envelope.Envelope` objects, and the bus delivers
them to registered servants, producing :class:`Response` messages.
Delivery runs through a
:class:`~repro.middleware.transport.Transport` (in-process synchronous,
or queued-asynchronous for ``async``/oneway invocations) and a
single ordered :class:`~repro.middleware.envelope.InterceptorChain` that
carries the cross-cutting transport behaviour — fault injection, latency
simulation, delivery statistics — as named elements instead of inline
special cases.

Wire-type contract (what `marshal` guarantees end to end):

* primitives (``str``/``int``/``float``/``bool``/``bytes``/``None``)
  travel unchanged — ``bytes`` is a first-class wire type, so binary
  frame payloads (:mod:`repro.middleware.wire`) ride the same contract
  as every other argument instead of needing an encoding side channel;
* **lists stay lists and tuples stay tuples** — containers round-trip
  their concrete type, so a servant returning a tuple is observed as a
  tuple by the caller (they are deep-copied either way: mutations never
  cross the wire);
* dict keys must be strings; values recurse;
* registered servants travel by reference (:class:`ObjectRefData`),
  everything else non-marshallable is rejected with
  :class:`~repro.errors.MarshallingError` naming the *path* to the
  offending value (``state["accounts"][3]``), as a real ORB rejects a
  non-serializable argument.

Every value this contract admits has an exact binary encoding in
:mod:`repro.middleware.wire` — the frame codec socket transports frame
requests and responses with — so "marshallable" and "wire-encodable"
are the same predicate by construction.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, FrozenSet, Optional, Tuple

import repro.errors as errors_module
from repro.analysis.witness import named_lock
from repro.errors import MarshallingError, RemoteInvocationError, ReproError
from repro.middleware.clock import SimClock
from repro.middleware.envelope import (
    DEFAULT_QOS,
    Envelope,
    InterceptorChain,
    QoS,
    ReplyFuture,
    sim_latency_element,
)
from repro.middleware.faults import FaultInjector
from repro.middleware.transport import (
    InProcessTransport,
    LazyQueuedTransport,
    QueuedTransport,
    in_serving_thread,
)

_message_counter = itertools.count(1)

_PRIMITIVES = (str, int, float, bool, bytes, type(None))

#: retained per-delivery mutation records (see MessageBus._touch_log);
#: large enough that any realistic [before, after] replication window
#: fits, small enough that the hot path never scans far
TOUCH_LOG_LIMIT = 1024


@dataclass(frozen=True)
class ObjectRefData:
    """Wire form of a remote object reference."""

    object_id: str
    type_name: str


def marshal(value, ref_of: Optional[Callable] = None, root: str = "value"):
    """Deep-copy ``value`` into wire form (see the wire-type contract above).

    ``ref_of`` maps registered servant objects to :class:`ObjectRefData`
    (pass-by-reference); everything unregistered and non-primitive is
    rejected, as a real ORB would reject a non-serializable argument.
    The rejection names the *path* from ``root`` to the offending value
    (``state["accounts"][3]``), so a caller marshalling a deep state
    snapshot learns which field failed, not just the leaf's repr.
    """
    return _marshal(value, ref_of, root)


def _marshal(value, ref_of: Optional[Callable], path: str):
    if isinstance(value, _PRIMITIVES):
        return value
    if isinstance(value, list):
        return [
            _marshal(item, ref_of, f"{path}[{i}]") for i, item in enumerate(value)
        ]
    if isinstance(value, tuple):
        # tuples round-trip as tuples: a servant returning a tuple must
        # not be observed as returning a list (wire-type fidelity)
        return tuple(
            _marshal(item, ref_of, f"{path}[{i}]") for i, item in enumerate(value)
        )
    if isinstance(value, dict):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise MarshallingError(
                    f"dict keys must be strings, got {key!r} at {path}"
                )
            out[key] = _marshal(item, ref_of, f"{path}[{key!r}]")
        return out
    if isinstance(value, ObjectRefData):
        return value
    if ref_of is not None:
        ref = ref_of(value)
        if ref is not None:
            return ref
    raise MarshallingError(
        f"value at {path}: {value!r} of type {type(value).__name__} "
        "is not marshallable"
    )


def wire_size(value) -> int:
    """Approximate wire size in bytes (for bus statistics)."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bytes):
        return len(value)
    if isinstance(value, (list, tuple)):
        return 2 + sum(wire_size(item) for item in value)
    if isinstance(value, dict):
        return 2 + sum(len(k) + wire_size(v) for k, v in value.items())
    if isinstance(value, ObjectRefData):
        return len(value.object_id) + len(value.type_name)
    return 8


@dataclass
class Request:
    object_id: str
    operation: str
    args: list
    kwargs: Dict[str, Any]
    context: Dict[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_message_counter))

    def to_wire(self) -> Dict[str, Any]:
        """The request as a plain wire dict (sans-IO: no bytes, no IO).

        Everything in it is already marshalled — args/kwargs went
        through :func:`marshal` when the request was built — so the
        whole dict is encodable by the frame codec without another
        marshalling pass.
        """
        return {
            "object_id": self.object_id,
            "operation": self.operation,
            "args": list(self.args),
            "kwargs": dict(self.kwargs),
            "context": dict(self.context),
            "message_id": self.message_id,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Request":
        """Rebuild a request from its wire dict, preserving its identity
        (``message_id`` pairs the eventual response — never re-minted)."""
        return cls(
            object_id=data["object_id"],
            operation=data["operation"],
            args=list(data["args"]),
            kwargs=dict(data["kwargs"]),
            context=dict(data["context"]),
            message_id=data["message_id"],
        )


@dataclass
class Response:
    message_id: int
    result: Any = None
    error_type: Optional[str] = None
    error_message: Optional[str] = None

    @property
    def is_error(self) -> bool:
        return self.error_type is not None

    def to_wire(self) -> Dict[str, Any]:
        """The response as a plain wire dict (inverse of ``from_wire``)."""
        return {
            "message_id": self.message_id,
            "result": self.result,
            "error_type": self.error_type,
            "error_message": self.error_message,
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Response":
        return cls(
            message_id=data["message_id"],
            result=data["result"],
            error_type=data["error_type"],
            error_message=data["error_message"],
        )


def _rebuild_exception(response: Response) -> Exception:
    """Reconstruct a library exception by name; unknown types degrade to
    :class:`RemoteInvocationError` carrying the original description.

    Rebuilt exceptions are marked ``_remote_rebuilt``: crossing the
    wire-error conversion means a servant dispatch was already underway
    (effects may exist), so the QoS retry policy must never re-deliver
    them — even when the original type was a bare transport fault raised
    by a *nested* call inside the servant.
    """
    exc_type = getattr(errors_module, response.error_type or "", None)
    rebuilt: Exception
    if (
        isinstance(exc_type, type)
        and issubclass(exc_type, ReproError)
        and exc_type is not None
    ):
        try:
            rebuilt = exc_type(response.error_message)
        except TypeError:
            rebuilt = RemoteInvocationError(
                f"remote raised {response.error_type}: {response.error_message}"
            )
    else:
        rebuilt = RemoteInvocationError(
            f"remote raised {response.error_type}: {response.error_message}"
        )
    rebuilt._remote_rebuilt = True
    return rebuilt


class MessageBus:
    """Servant registry plus envelope delivery through transport + chain."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        faults: Optional[FaultInjector] = None,
        latency_ms: float = 0.5,
        delivery_workers: int = 2,
    ):
        self.clock = clock or SimClock()
        self.faults = faults or FaultInjector()
        self.latency_ms = latency_ms
        #: synchronous delivery path (caller-thread semantics)
        self.transport = InProcessTransport()
        #: asynchronous delivery path, created lazily on first async call
        self.delivery_workers = delivery_workers
        self._async = LazyQueuedTransport(
            lambda: QueuedTransport(workers=self.delivery_workers, name="bus")
        )
        self._servants: Dict[str, Any] = {}
        self._stats_lock = named_lock("bus.stats")
        #: read-only operation classification per servant *type* name,
        #: declared by the deployment spec (``ServantSpec.read_only_ops``).
        #: Deliveries whose operation is NOT in its type's set bump
        #: :attr:`mutations` — the per-call mutation flag the federation's
        #: replication consults to skip syncing partitions
        #: a routed call never mutated.  Unknown types default to
        #: "everything mutates" (the safe direction).
        self.read_only_ops: Dict[str, frozenset] = {}
        #: monotonic count of (possibly) mutating servant dispatches;
        #: bumped *before* dispatch so a call that fails mid-effect still
        #: registers as a mutation
        self.mutations = 0
        #: the per-delivery mutation record behind :attr:`mutations`:
        #: ``(mutation index, object_id)`` per mutating dispatch — nested
        #: in-process deliveries included, since every delivery funnels
        #: through the terminal.  Bounded: replication reads a window of
        #: it via :meth:`touched_since`, and an evicted window degrades
        #: to "touched unknown" (the safe, sync-everything direction).
        self._touch_log: Deque[Tuple[int, str]] = collections.deque(
            maxlen=TOUCH_LOG_LIMIT
        )
        #: optional hook wrapping servant dispatch: ``guard(object_id, fn)``.
        #: The runtime node installs its dispatcher's per-servant lock here
        #: so nested in-process deliveries serialize like routed requests.
        self.dispatch_guard: Optional[Callable[[str, Callable[[], Any]], Any]] = None
        #: delivery statistics for benchmarks
        self.messages_delivered = 0
        self.bytes_transferred = 0
        self.errors_returned = 0
        #: the one ordered element pipeline every delivery runs through
        self.chain = InterceptorChain()
        self.chain.add("faults", self.faults.interceptor("bus.deliver"))
        self.chain.add(
            "latency", sim_latency_element(self.clock, lambda: self.latency_ms)
        )
        self.chain.add("stats", self._stats_element)

    # -- servant registry ------------------------------------------------------

    def register_servant(self, object_id: str, servant: Any) -> None:
        if object_id in self._servants:
            raise RemoteInvocationError(f"object id {object_id!r} already registered")
        self._servants[object_id] = servant

    def unregister_servant(self, object_id: str) -> None:
        self._servants.pop(object_id, None)

    def servant(self, object_id: str) -> Any:
        try:
            return self._servants[object_id]
        except KeyError:
            raise RemoteInvocationError(f"unknown object id {object_id!r}") from None

    def is_registered(self, servant: Any) -> bool:
        return any(existing is servant for existing in self._servants.values())

    def mark_read_only(self, type_name: str, operations) -> None:
        """Set the read-only operation set of servant type ``type_name``.

        A read-only operation promises that its dispatch — including any
        nested calls it makes *into the same node* — leaves no servant
        state change behind.  Nested deliveries are still classified
        individually, so an operation wrongly marked read-only that
        nests a mutating call is caught by the nested delivery's own
        mutation bump.

        *Replace* semantics, not merge: reconciling onto a spec that
        reclassifies an operation as mutating must actually remove it
        from the set, or replication would keep skipping its syncs.
        """
        with self._stats_lock:
            self.read_only_ops[type_name] = frozenset(operations)

    def touched_since(self, before: int) -> Optional[FrozenSet[str]]:
        """Object ids of servants mutated since mutation count ``before``.

        The replication layer brackets a routed call with two reads of
        :attr:`mutations` and asks for the servants touched in between —
        per-servant dirty tracking.  Returns ``None`` when part of the
        window has been evicted from the bounded record (the caller must
        then fall back to a full-partition sync).  A concurrent call's
        mutations landing inside the window only *add* ids — the safe
        direction: an extra servant gets refreshed, never one missed.
        """
        with self._stats_lock:
            expected = self.mutations - before
            if expected <= 0:
                return frozenset()
            touched = []
            for index, object_id in reversed(self._touch_log):
                if index <= before:
                    break
                touched.append(object_id)
            if len(touched) < expected:
                return None
            return frozenset(touched)

    # -- chain elements ----------------------------------------------------------

    def _stats_element(self, envelope: Envelope, proceed: Callable[[], Any]):
        request = envelope.request
        with self._stats_lock:
            self.messages_delivered += 1
            self.bytes_transferred += wire_size(request.args) + wire_size(
                request.kwargs
            )
        response = proceed()
        with self._stats_lock:
            if response.is_error:
                self.errors_returned += 1
            else:
                self.bytes_transferred += wire_size(response.result)
        return response

    # -- delivery ----------------------------------------------------------------

    @property
    def async_transport(self) -> QueuedTransport:
        return self._async.get()

    def _terminal(self, envelope: Envelope, dispatch) -> Response:
        """Execute the request against its servant; errors become wire
        responses — the terminal never leaks servant exceptions."""
        request = envelope.request
        try:
            servant = self.servant(request.object_id)
            read_only = request.operation in self.read_only_ops.get(
                type(servant).__name__, ()
            )
            if not read_only:
                # flagged before dispatch: a mutation that dies half-way
                # must still trigger the replication sync
                with self._stats_lock:
                    self.mutations += 1
                    self._touch_log.append((self.mutations, request.object_id))
            if self.dispatch_guard is not None:
                result = self.dispatch_guard(
                    request.object_id, lambda: dispatch(request, servant)
                )
            else:
                result = dispatch(request, servant)
            return Response(request.message_id, result=result)
        except Exception as exc:  # noqa: BLE001 - converted to wire error
            return Response(
                request.message_id,
                error_type=type(exc).__name__,
                error_message=str(exc),
            )

    def _handler(self, dispatch) -> Callable[[Envelope], Response]:
        return lambda envelope: self.chain.execute(
            envelope, lambda: self._terminal(envelope, dispatch)
        )

    def deliver(self, request: Request, dispatch: Callable[[Request, Any], Any]) -> Response:
        """Deliver ``request`` synchronously; ``dispatch`` invokes the servant.

        The two-hop latency (request + reply) is charged to the clock by
        the chain's latency element; servant exceptions come back as
        error responses, while injected *transport* faults (the chain's
        fault element) keep raising out, as a lost message would.
        """
        envelope = Envelope(request=request)
        return self.transport.call(envelope, self._handler(dispatch))

    def submit(
        self,
        request: Request,
        dispatch: Callable[[Request, Any], Any],
        qos: QoS = DEFAULT_QOS,
    ) -> ReplyFuture:
        """Deliver ``request`` asynchronously; returns the reply future.

        The envelope (including its propagated context) is fully built on
        the caller's thread; only delivery happens on the queued
        transport's threads.  Oneway QoS still returns the future — the
        caller just never waits on it.

        Issued from a thread that is itself serving a request (a
        delivery thread or a dispatcher pool worker), the submission
        delivers inline instead: queueing it behind the bounded pools
        the caller occupies could deadlock, exactly like nested
        synchronous dispatch.
        """
        envelope = Envelope(request=request, qos=qos)
        if in_serving_thread():
            return self.transport.submit(envelope, self._handler(dispatch))
        return self.async_transport.submit(envelope, self._handler(dispatch))

    def drain(self, timeout_s: Optional[float] = None) -> bool:
        """Wait for all in-flight asynchronous deliveries (oneways included)."""
        return self._async.drain(timeout_s)

    def shutdown(self) -> None:
        self._async.shutdown()

    @staticmethod
    def raise_remote(response: Response):
        """Re-raise a wire error client-side, preserving library exception types."""
        raise _rebuild_exception(response)
