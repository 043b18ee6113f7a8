"""One federation node: an ORB endpoint hosting a woven application.

A :class:`Node` owns a full, independent middleware service set
(:class:`~repro.core.runtime.MiddlewareServices`: bus, ORB, naming shard,
transaction manager, security services) plus a request dispatcher.  The
node's naming service doubles as its shard of the federation's sharded
naming service, so binding a servant locally *is* publishing it to the
federation.

Applications are derived once and woven per node: the deployment
compiler refines the application once and ships it as a
:class:`~repro.core.shipping.ComponentPackage`, and each node weaves the
package's one :class:`~repro.core.shipping.Derivation` against its own
services (:meth:`Node.install`) — a fresh module of the generated
classes, and one new concrete aspect per applied transformation — so
the weaver instruments node-private classes and aspects close over
node-private services, exactly the deployment unit a real ORB
federation replicates onto every host.  A worker process receives the
package as JSON and derives it once, by a verified replay.

The federation, its replica manager, the deployment compiler and the
reconciler drive a node only through a narrow surface: ``install`` /
``create`` (application and spec-state servants), ``export`` /
``import_states`` / ``release`` (servant state snapshots for
migration, replication and failover), ``add_user`` / ``login``,
``configure_fault`` / ``faults_injected`` / ``mark_read_only``,
``kill`` / ``stats``, and ``naming`` (the shard on the federation's
ring).  :class:`~repro.runtime.procfed.RemoteNode` offers the same
surface over the wire to a worker process, whose host serves it by
calling this class.  Routed calls reach a node through :meth:`Node.invoke`
(a pipelined batch through :meth:`Node.invoke_batch`) in memory, or
through :meth:`Node.serve` — the one server half of a wire hop, run by
socket-mode listeners and worker hosts alike.
"""

from __future__ import annotations

import functools
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.witness import named_lock
from repro.core.runtime import MiddlewareServices
from repro.errors import DeploymentError, FederationError, NamingError, ReproError
from repro.middleware.bus import ObjectRefData, error_to_wire, marshal
from repro.middleware.naming import NamingService
from repro.middleware.envelope import Envelope, delivery_stack
from repro.middleware.rpc import proxy_ref
from repro.runtime.dispatch import ConcurrentDispatcher, SerialDispatcher

#: the operation of a pipelined batch's request; its args are the member
#: calls, ``[object id, type name, operation, args, kwargs]`` each
BATCH = "<batch>"


class Node:
    """A named ORB endpoint with its own services, dispatcher, and app."""

    def __init__(
        self,
        name: str,
        services: Optional[MiddlewareServices] = None,
        workers: int = 0,
        seed: int = 0,
    ):
        self.name = name
        self.services = services or MiddlewareServices.create(seed=seed)
        #: construction parameters, kept so Federation.current_spec()
        #: can re-extract the live topology as a DeploymentSpec
        self.workers = workers
        self.seed = seed
        if workers > 0:
            self.dispatcher = ConcurrentDispatcher(workers=workers)
        else:
            self.dispatcher = SerialDispatcher()
        # every bus delivery — including nested in-process proxy calls
        # that bypass Node.invoke — serializes on the servant's lock
        self.services.bus.dispatch_guard = self.dispatcher.serialize
        #: False once the node is killed (fail-stop) or retired; the
        #: federation's routing terminal refuses dead targets with a
        #: pre-effect NodeDownError so standby promotion can take over
        self.alive = True
        #: the federation that created this node (Federation.join)
        self.federation = None
        self.module = None
        self._bind_lock = named_lock("node.bind")

    # -- application deployment ------------------------------------------------

    def host(self, module) -> None:
        """Adopt the woven application module this node instances its
        servants from (``node.module``)."""
        self.module = module

    def install(self, package) -> None:
        """Host a shipped :class:`~repro.core.shipping.ComponentPackage`:
        weave the package's derivation against this node's own services
        and host the module it builds.  Only the weave is per node; the
        refinement behind it ran once, when the package was shipped (or,
        for a package parsed from JSON, on its first install)."""
        self.host(
            package.derivation().weave(
                self.services, f"deploy_{self.name.replace('-', '_')}"
            )
        )

    @property
    def deployed(self) -> bool:
        """True once the node hosts an application module."""
        return self.module is not None

    @property
    def naming(self) -> NamingService:
        """The naming shard the federation puts on its ring."""
        return self.services.naming

    # -- servants -------------------------------------------------------------

    def bind(self, name: str, servant: Any) -> ObjectRefData:
        """Register ``servant`` and bind it under the federation name.

        The name's partition must hash to this node's shard — entities
        live where their names live, so request routing and naming
        resolution always agree.
        """
        if self.federation is not None:
            owner = self.federation.naming.owner_of(name)
            if owner != self.name:
                raise NamingError(
                    f"name {name!r} belongs to shard {owner!r}, "
                    f"not to node {self.name!r}"
                )
        with self._bind_lock:
            ref = self.services.orb.register(servant)
            self.services.naming.rebind(name, ref)
        if self.federation is not None and self.federation.replicas is not None:
            # seed the standby copies immediately: a partition must be
            # recoverable even if it is killed before any routed call
            # ever replicated it
            self.federation.replicas.sync_partition(
                self.federation.naming.partition_key(name)
            )
        return ref

    def _servant_class(self, type_name: str, error=FederationError):
        if self.module is None:
            raise error(f"node {self.name!r} has no application deployed")
        cls = getattr(self.module, type_name, None)
        if cls is None:
            raise error(
                f"node {self.name!r}: application has no class {type_name!r}"
            )
        return cls

    def create(
        self, name: str, type_name: str, state: Dict[str, Any]
    ) -> ObjectRefData:
        """Construct a servant from spec state (its constructor keywords)
        and bind it under ``name``."""
        cls = self._servant_class(type_name, DeploymentError)
        try:
            servant = cls(**state)
        except TypeError as exc:
            raise DeploymentError(
                f"servant {name!r}: state does not match {type_name!r} "
                f"constructor: {exc}"
            ) from exc
        return self.bind(name, servant)

    def export(self, names: Iterable[str]) -> List[Tuple[str, str, Dict[str, Any]]]:
        """``(name, type name, state)`` snapshots of the named servants.

        Each attribute dict is copied under the servant's dispatch lock,
        so a concurrent call cannot tear it (shallow — servant state is
        primitive by construction).  Names no longer bound here are
        skipped."""
        entries = []
        for name in names:
            try:
                ref = self.services.naming.resolve(name)
                servant = self.services.bus.servant(ref.object_id)
            except ReproError:
                continue
            state = self.dispatcher.serialize(
                ref.object_id, lambda s=servant: dict(s.__dict__)
            )
            entries.append((name, type(servant).__name__, state))
        return entries

    def import_states(
        self, entries: Iterable[Tuple[str, str, Dict[str, Any]]]
    ) -> List[ObjectRefData]:
        """Rebuild servants from ``(name, type name, state)`` snapshots
        and bind them; the constructor is bypassed, the state installed
        verbatim (shard migration and failover promotion)."""
        refs = []
        for name, type_name, state in entries:
            cls = self._servant_class(type_name)
            servant = cls.__new__(cls)
            servant.__dict__.update(state)
            ref = self.services.orb.register(servant)
            self.services.naming.rebind(name, ref)
            refs.append(ref)
        return refs

    def release(self, names: Iterable[str]) -> None:
        """Unbind ``names`` and drop their servants from this node."""
        for name in names:
            try:
                ref = self.services.naming.resolve(name)
            except NamingError:
                continue
            self.services.naming.unbind(name)
            try:
                self.services.orb.unregister(self.services.bus.servant(ref.object_id))
            except ReproError:
                pass

    def servant(self, ref: ObjectRefData) -> Any:
        """The live servant object behind ``ref``."""
        return self.services.bus.servant(ref.object_id)

    # -- provisioning ------------------------------------------------------------

    def add_user(self, name: str, password: str, roles=()) -> None:
        self.services.credentials.add_user(name, password, roles=roles)

    def login(self, user: str, password: str) -> str:
        """A node-local credential token: tokens never roam between nodes."""
        return self.services.auth.login(user, password).token

    def configure_fault(self, site: str, probability: float, **kwargs) -> None:
        self.services.faults.configure(site, probability, **kwargs)

    def faults_injected(self) -> Dict[str, int]:
        return dict(self.services.faults.injected)

    def mark_read_only(self, type_name: str, operations) -> None:
        self.services.bus.mark_read_only(type_name, operations)

    def changed_since(self, mark: int) -> Optional[List[str]]:
        """The bound names of the servants this node's bus saw mutated
        since mutation count ``mark`` (sorted), or None when part of
        that window was evicted from the bus's bounded record."""
        bus = self.services.bus
        if bus.mutations == mark:
            return []
        touched = bus.touched_since(mark)
        if touched is None:
            return None
        # bound names are non-empty: filter(None) drops only the unbound
        return sorted(filter(None, map(self.services.naming.name_of, touched)))

    # -- request entry point -----------------------------------------------------

    def _run(
        self,
        ref: ObjectRefData,
        operation: str,
        args: tuple,
        kwargs: dict,
        context: Optional[Dict[str, Any]],
    ):
        """The executable unit both invocation styles dispatch.

        The caller-supplied ``context`` (credentials, transaction hints)
        is re-established on the executing thread before the ORB builds
        the request, so implicit context survives the thread hop; it is
        also published as the thread's *delivery context*, so outbound
        calls the servant makes (cross-node nested dispatch) inherit it.
        """
        orb = self.services.orb
        deliveries = delivery_stack()
        deliveries.append(dict(context or {}))
        try:
            if not context:
                return orb.invoke(ref, operation, args, kwargs)
            frames = orb.context_stack
            frames.append(dict(context))
            try:
                return orb.invoke(ref, operation, args, kwargs)
            finally:
                frames.pop()
        finally:
            deliveries.pop()

    def invoke(
        self,
        ref: ObjectRefData,
        operation: str,
        args: tuple,
        kwargs: dict,
        context: Optional[Dict[str, Any]] = None,
    ):
        """Execute a request against a local servant through the dispatcher."""
        return self.dispatcher.dispatch(
            ref.object_id,
            functools.partial(self._run, ref, operation, args, kwargs, context),
        )

    def invoke_batch(
        self,
        calls: List[Tuple[ObjectRefData, str, tuple, dict]],
        context: Optional[Dict[str, Any]] = None,
    ) -> List[Any]:
        """Execute a pipelined batch's ``(ref, operation, args, kwargs)``
        member calls here; returns, in submission order, each member's
        value or the exception it raised — one member's error never
        fails another.

        Members run one after another, in submission order, on the
        delivering thread, each through the dispatcher like a single
        call (on a concurrent node, each under its own permit).
        """
        dispatch = self.dispatcher.dispatch
        outcomes: List[Any] = []
        for ref, operation, args, kwargs in calls:
            try:
                outcomes.append(
                    dispatch(
                        ref.object_id,
                        functools.partial(
                            self._run, ref, operation, args, kwargs, context
                        ),
                    )
                )
            except Exception as exc:  # noqa: BLE001 - the member's own outcome
                outcomes.append(exc)
        return outcomes

    def serve(self, envelope: Envelope) -> Any:
        """The server half of a wire hop: run one REQUEST frame here.

        The caller already resolved the binding, checked the node is
        alive, applied the call's QoS and makes the replication
        decision, so serving is a plain :meth:`invoke` that reads the
        envelope's operation, call, object id and label, which is all a
        REQUEST frame carries besides its correlation id.  The hop label
        carries the servant type (``Type.operation``), so the reference
        is rebuilt without a naming lookup; arguments are wire values
        the ORB hydrates against this node's registry, passed on as
        decoded (:meth:`_run` and the ORB copy what they keep), and
        proxies in the result leave as references.  A :data:`BATCH`
        request runs its members through :meth:`invoke_batch` and
        answers with one outcome per member, ``{"result": value}`` or
        ``{"error": ...}`` (the form :mod:`repro.middleware.bus`
        documents beside ``error_to_wire``).
        """
        if envelope.operation == BATCH:
            outcomes = self.invoke_batch(
                [
                    (ObjectRefData(object_id, type_name), operation, args, kwargs)
                    for object_id, type_name, operation, args, kwargs in envelope.args
                ],
                envelope.context,
            )
            return [
                {"error": error_to_wire(outcome, dispatched=True)}
                if isinstance(outcome, Exception)
                else {"result": marshal(outcome, proxy_ref, root="result")}
                for outcome in outcomes
            ]
        type_name = (envelope.label or ".").rsplit(".", 1)[0]
        result = self.invoke(
            ObjectRefData(envelope.object_id, type_name),
            envelope.operation,
            envelope.args,
            envelope.kwargs,
            envelope.context,
        )
        return marshal(result, proxy_ref, root="result")

    # -- lifecycle ---------------------------------------------------------------

    def kill(self) -> None:
        """Fail-stop: the federation routes no further hop here."""
        self.alive = False

    def shutdown(self) -> None:
        self.dispatcher.shutdown()

    def stats(self) -> Dict[str, Any]:
        services = self.services
        dispatch = self.dispatcher.stats.snapshot()
        dispatch["workers"] = self.dispatcher.workers
        return {
            "node": self.name,
            "dispatch": dispatch,
            "bus_messages": services.bus.messages_delivered,
            "bus_bytes": services.bus.bytes_transferred,
            "bus_errors": services.bus.errors_returned,
            "commits": services.transactions.commits,
            "aborts": services.transactions.aborts,
            "sim_time_ms": services.clock.now(),
            "bindings": len(services.naming.list()),
        }

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = type(self.dispatcher).__name__
        state = "" if self.alive else " DOWN"
        return f"<Node {self.name} dispatcher={kind}{state}>"
