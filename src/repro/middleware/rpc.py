"""Object request broker: remote references, dynamic proxies, interceptors.

The :class:`Orb` is the hub the distribution concern's generated aspect
talks to: it registers application objects as servants, binds them in the
naming service, and hands out :class:`RemoteProxy` objects whose method
calls travel through the bus with full marshalling.

Interceptors mirror CORBA portable interceptors: *client* interceptors run
when the request is built — on the caller's thread, once per logical call
(never per retry attempt), only for requests issued through this orb —
and *server* interceptors run before dispatch (access-control checks).
Transport-level cross-cutting behaviour (faults, latency, statistics)
lives in the bus's ordered
:class:`~repro.middleware.envelope.InterceptorChain` instead.

A proxy call is a synchronous round trip on the caller's thread.
Futures, oneways and batches are federation calls
(:class:`~repro.runtime.federation.FederationClient`), not proxy styles.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from typing import Any, Callable, Dict, List, Optional, Union

from repro.errors import RemoteInvocationError
from repro.middleware.bus import MessageBus, ObjectRefData, error_from_wire, marshal
from repro.middleware.envelope import Envelope
from repro.middleware.naming import NamingService

ObjectRef = ObjectRefData

_object_counter = itertools.count(1)


class Orb:
    """Registers servants, mints references, builds proxies, runs interceptors."""

    def __init__(self, bus: Optional[MessageBus] = None, naming: Optional[NamingService] = None):
        self.bus = bus or MessageBus()
        self.naming = naming or NamingService()
        self.client_interceptors: List[Callable[[Envelope], None]] = []
        self.server_interceptors: List[Callable[[Envelope, Any], None]] = []
        self._refs_by_identity: Dict[int, ObjectRef] = {}
        # the implicit call context is thread-local: concurrent requests
        # dispatched on worker threads must not see each other's
        # credentials or transaction ids
        self._ctx_local = threading.local()

    # -- registration --------------------------------------------------------

    def register(self, servant: Any, name: Optional[str] = None) -> ObjectRef:
        """Register ``servant`` and optionally bind it in the naming service."""
        existing = self._refs_by_identity.get(id(servant))
        if existing is None:
            object_id = f"obj-{next(_object_counter)}"
            ref = ObjectRef(object_id, type(servant).__name__)
            self.bus.register_servant(object_id, servant)
            self._refs_by_identity[id(servant)] = ref
        else:
            ref = existing
        if name is not None:
            self.naming.rebind(name, ref)
        return ref

    def unregister(self, servant: Any) -> None:
        ref = self._refs_by_identity.pop(id(servant), None)
        if ref is not None:
            self.bus.unregister_servant(ref.object_id)

    def ref_of(self, servant: Any) -> Optional[ObjectRef]:
        """The reference of a registered servant (used by marshalling)."""
        return self._refs_by_identity.get(id(servant))

    # -- call context -----------------------------------------------------------

    @property
    def context_stack(self) -> List[Dict[str, Any]]:
        """This thread's call-context frames, innermost last.

        :meth:`call_context` is the way to attach context; the dispatch
        path pushes a frame itself and pops it in a ``finally``."""
        stack = getattr(self._ctx_local, "frames", None)
        if stack is None:
            stack = self._ctx_local.frames = []
        return stack

    @contextlib.contextmanager
    def call_context(self, **entries):
        """Attach implicit per-call context (credentials, transaction id...)."""
        self.context_stack.append(entries)
        try:
            yield
        finally:
            self.context_stack.pop()

    def current_context(self) -> Dict[str, Any]:
        merged: Dict[str, Any] = {}
        for frame in self.context_stack:
            merged.update(frame)
        return merged

    # -- proxies ---------------------------------------------------------------

    def proxy(self, target: Union[str, ObjectRef]) -> "RemoteProxy":
        """Build a dynamic proxy for a name or a reference."""
        ref = self.naming.resolve(target) if isinstance(target, str) else target
        return RemoteProxy(self, ref)

    # -- invocation path ---------------------------------------------------------

    def _build_request(self, ref: ObjectRef, operation: str, args: tuple, kwargs: dict) -> Envelope:
        """The bus envelope of a call: arguments marshalled and context
        captured on the *caller's* thread.

        Everything thread-sensitive (implicit context, argument
        snapshots, client interceptors) happens here, so the envelope
        is finished and self-contained before delivery starts.
        Client interceptors run exactly once per logical call, never for
        calls issued through another orb sharing the same bus.
        """
        if operation.startswith("_"):
            raise RemoteInvocationError(
                f"operation {operation!r} is not remotely accessible"
            )
        envelope = Envelope(
            ref.object_id,
            operation,
            marshal(list(args), self.ref_of, root="args"),
            marshal(dict(kwargs), self.ref_of, root="kwargs"),
            self.current_context(),
        )
        for interceptor in self.client_interceptors:
            interceptor(envelope)
        return envelope

    def invoke(self, ref: ObjectRef, operation: str, args: tuple, kwargs: dict):
        """One synchronous round trip: raise wire errors, hydrate
        references in the result into proxies."""
        envelope = self._build_request(ref, operation, args, kwargs)
        outcome = self.bus.deliver(envelope, self._dispatch)
        if "error" in outcome:
            raise error_from_wire(outcome["error"])
        return self._from_wire(outcome["result"])

    def _dispatch(self, envelope: Envelope, servant: Any):
        for interceptor in self.server_interceptors:
            interceptor(envelope, servant)
        method = getattr(servant, envelope.operation, None)
        if method is None or not callable(method):
            raise RemoteInvocationError(
                f"{type(servant).__name__} has no operation {envelope.operation!r}"
            )
        args = [self._from_wire(a) for a in envelope.args]
        kwargs = {k: self._from_wire(v) for k, v in envelope.kwargs.items()}
        context = dict(envelope.context)
        context["__dispatching__"] = True  # lets aspects detect server side
        frames = self.context_stack
        frames.append(context)
        try:
            result = method(*args, **kwargs)
        finally:
            frames.pop()
        return marshal(result, self.ref_of, root="result")

    def _from_wire(self, value):
        """Hydrate wire values: references become proxies, containers recurse."""
        if isinstance(value, ObjectRefData):
            return RemoteProxy(self, value)
        if isinstance(value, list):
            return [self._from_wire(item) for item in value]
        if isinstance(value, tuple):
            return tuple(self._from_wire(item) for item in value)
        if isinstance(value, dict):
            return {key: self._from_wire(item) for key, item in value.items()}
        return value


class RemoteProxy:
    """Dynamic client stub: attribute access yields remote invocations."""

    __slots__ = ("_orb", "_ref")

    def __init__(self, orb: Orb, ref: ObjectRef):
        object.__setattr__(self, "_orb", orb)
        object.__setattr__(self, "_ref", ref)

    @property
    def ref(self) -> ObjectRef:
        return self._ref

    def __getattr__(self, operation: str):
        if operation.startswith("_"):
            raise AttributeError(operation)
        orb, ref = self._orb, self._ref

        def remote_call(*args, **kwargs):
            return orb.invoke(ref, operation, args, kwargs)

        remote_call.__name__ = operation
        return remote_call

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<RemoteProxy {self._ref.type_name}@{self._ref.object_id}>"


def proxy_ref(value: Any) -> Optional[ObjectRef]:
    """Marshalling hook for values leaving a node over the wire: a proxy
    travels as the reference it wraps."""
    if isinstance(value, RemoteProxy):
        return value.ref
    return None
