"""In-process message bus with pass-by-value marshalling.

The bus is the transport endpoint of the simulated middleware: the ORB
(S10/rpc) turns proxy calls into
:class:`~repro.middleware.envelope.Envelope` messages, and the bus
delivers them to registered servants, answering each with its outcome
in the one outcome form (see :func:`error_to_wire`).
Delivery is synchronous, on the caller's thread, through a single
ordered :class:`~repro.middleware.envelope.InterceptorChain` that
carries the cross-cutting transport behaviour — fault injection, latency
simulation, delivery statistics — as named elements instead of inline
special cases.  A bus envelope carries the default QoS (no retry
budget): an injected fault surfaces to the caller as a lost message
would.

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
calls and results with — so "marshallable" and "wire-encodable"
are the same predicate by construction.
"""

from __future__ import annotations

import collections
import functools
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, FrozenSet, Optional, Tuple

import repro.errors as errors_module
from repro.analysis.witness import named_lock
from repro.errors import MarshallingError, ProtocolError, RemoteInvocationError, ReproError
from repro.middleware.clock import SimClock
from repro.middleware.envelope import (
    Envelope,
    InterceptorChain,
    is_retryable,
    sim_latency_element,
)
from repro.middleware.faults import FaultInjector

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


#: the types :func:`wire_size` sizes, each standing for its subclasses
#: too, in the order a value is classified by ``isinstance``
_SIZED_TYPES = (type(None), bool, int, float, str, bytes, list, tuple, dict, ObjectRefData)
_EXACT_SIZED = frozenset(_SIZED_TYPES)


def _sized_type(value) -> type:
    """The sized type ``value`` counts as: the first one it is an
    instance of (``object`` for none of them)."""
    for kind in _SIZED_TYPES:
        if isinstance(value, kind):
            return kind
    return object


def wire_size(value) -> int:
    """Approximate wire size in bytes (for bus statistics).

    A value of one of the marshal contract's exact types is classified
    by ``type(value)`` alone; only subclasses and foreign values pay for
    the ``isinstance`` walk.
    """
    kind = type(value)
    if kind not in _EXACT_SIZED:
        kind = _sized_type(value)
    if kind is float or kind is int:
        return 8
    if kind is str:
        return len(value.encode("utf-8"))
    if kind is list or kind is tuple:
        size = 2
        for item in value:
            size += wire_size(item)
        return size
    if kind is dict:
        size = 2
        for key, item in value.items():
            size += len(key) + wire_size(item)
        return size
    if kind is bytes:
        return len(value)
    if kind is ObjectRefData:
        return len(value.object_id) + len(value.type_name)
    if kind is object:
        return 8
    return 1  # None, bool


# An outcome crosses every boundary in one form: ``{"result": value}``
# on success, ``{"error": error_to_wire(exc)}`` on failure.  The bus
# terminal returns it, a batch member's wire reply is it, and so is a
# ``CONTROL`` reply; a routed call's wire hop answers with a RESPONSE
# frame (the value) or a FAULT frame (the error form) instead.


def error_to_wire(exc: BaseException, dispatched: bool = False) -> Dict[str, Any]:
    """``exc`` in the one form an error crosses any boundary in: an
    outcome's ``"error"``, a ``FAULT`` frame's ``"fault"`` (inverse of
    :func:`error_from_wire`).

    The form carries the type name (the stable error code), the text,
    the public instance attributes the marshal contract admits (any
    other attribute is dropped; its text survives in the message), and
    the sender's retry verdict.  An error that ``dispatched`` — it
    crossed a servant dispatch, so effects may exist — is never
    retryable; otherwise the sender classifies it with
    :func:`~repro.middleware.envelope.is_retryable`, since it is the
    side that knows whether the fault fired before any effect.
    """
    attributes = {}
    for name, value in vars(exc).items():
        if name.startswith("_"):
            continue
        try:
            attributes[name] = marshal(value, root=name)
        except MarshallingError:
            continue
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "attributes": attributes,
        "retryable": not dispatched and is_retryable(exc),
    }


def error_from_wire(error: Any) -> Exception:
    """The exception :func:`error_to_wire` encoded as ``error``.

    A library error comes back as its own type, built without running
    its constructor (``ValidationError`` takes diagnostics,
    ``TransactionAborted`` an id and a reason): the sender's text and
    attributes are set on a bare instance.  Anything else comes back
    as :class:`RemoteInvocationError` naming the original type.  An
    error its sender judged not retryable is marked
    ``_remote_rebuilt``, so no QoS budget re-delivers it and no
    failover acts on it.  A malformed form comes back as a
    :class:`ProtocolError`.
    """
    if not (
        isinstance(error, dict)
        and isinstance(error.get("type"), str)
        and isinstance(error.get("message"), str)
        and isinstance(error.get("attributes"), dict)
        and isinstance(error.get("retryable"), bool)
    ):
        return ProtocolError(f"malformed wire fault {error!r}")
    name, message = error["type"], error["message"]
    exc_type = getattr(errors_module, name, None)
    rebuilt: Exception
    if isinstance(exc_type, type) and issubclass(exc_type, ReproError):
        rebuilt = exc_type.__new__(exc_type)
        Exception.__init__(rebuilt, message)
        for attribute, value in error["attributes"].items():
            if not attribute.startswith("_"):
                setattr(rebuilt, attribute, value)
    else:
        rebuilt = RemoteInvocationError(f"remote raised {name}: {message}")
    if not error["retryable"]:
        rebuilt._remote_rebuilt = True
    return rebuilt


class MessageBus:
    """Servant registry plus envelope delivery through transport + chain."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        faults: Optional[FaultInjector] = None,
        latency_ms: float = 0.5,
    ):
        self.clock = clock or SimClock()
        self.faults = faults or FaultInjector()
        self.latency_ms = latency_ms
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

        The replication layer brackets a routed hop with two reads of
        :attr:`mutations` and asks the node (``Node.changed_since``) for
        the servants touched in between — per-servant dirty tracking.
        Returns ``None`` when part of the
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

    def _stats_element(self, envelope: Envelope, next: Callable[[Envelope], Any]):
        # sized outside the lock: the walk is the element's only real work
        size = wire_size(envelope.args) + wire_size(envelope.kwargs)
        with self._stats_lock:
            self.messages_delivered += 1
            self.bytes_transferred += size
        outcome = next(envelope)
        if "error" in outcome:
            with self._stats_lock:
                self.errors_returned += 1
        else:
            size = wire_size(outcome["result"])
            with self._stats_lock:
                self.bytes_transferred += size
        return outcome

    # -- delivery ----------------------------------------------------------------

    def _terminal(self, dispatch, envelope: Envelope) -> Dict[str, Any]:
        """Execute the call against its servant through ``dispatch``;
        the outcome is ``{"result": value}``, or ``{"error": ...}`` for
        an exception — the terminal never leaks servant exceptions."""
        object_id = envelope.object_id
        try:
            servant = self.servant(object_id)
            read_only = envelope.operation in self.read_only_ops.get(
                type(servant).__name__, ()
            )
            if not read_only:
                # flagged before dispatch: a mutation that dies half-way
                # must still trigger the replication sync
                with self._stats_lock:
                    self.mutations += 1
                    self._touch_log.append((self.mutations, object_id))
            if self.dispatch_guard is not None:
                result = self.dispatch_guard(
                    object_id, functools.partial(dispatch, envelope, servant)
                )
            else:
                result = dispatch(envelope, servant)
            return {"result": result}
        except Exception as exc:  # noqa: BLE001 - converted to wire error
            return {"error": error_to_wire(exc, dispatched=True)}

    def deliver(
        self, envelope: Envelope, dispatch: Callable[[Envelope, Any], Any]
    ) -> Dict[str, Any]:
        """Deliver ``envelope`` on this thread; ``dispatch`` invokes the
        servant, and the call's outcome comes back.

        The two-hop latency (request + reply) is charged to the clock by
        the chain's latency element; servant exceptions come back as
        ``{"error": ...}`` outcomes, while injected *transport* faults
        (the chain's fault element) keep raising out, as a lost message
        would.
        """
        return self.chain.execute(envelope, functools.partial(self._terminal, dispatch))
