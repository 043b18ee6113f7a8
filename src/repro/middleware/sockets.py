"""Socket IO for the sans-IO wire protocol: listeners, pools, transport.

Everything protocol-shaped lives in :mod:`repro.middleware.wire` (frame
codec, handshake) and, for errors, in :mod:`repro.middleware.bus`'s one
error codec; this module owns the sockets and the threads:

* :class:`WireServer` — a listener (TCP or unix-domain) that runs one
  :class:`~repro.middleware.wire.WireSession` per accepted connection,
  hands decoded REQUEST/CONTROL frames to callbacks and answers each
  with one REPLY frame.
* :class:`WireClient` — one handshaken client connection with blocking
  send and await-reply steps.
* :class:`ConnectionPool` — per-endpoint reuse of idle client
  connections (dial on miss, bounded idle keep).
* :class:`SocketTransport` — the :class:`~repro.middleware.transport.Transport`
  implementation: delivery runs inline on the caller's thread (socket
  waits release the GIL, which is the whole point), the QoS retry
  budget is honoured by the shared delivery core, and socket-level
  failures surface as :class:`~repro.errors.NodeDownError` classified
  by *when* they struck, on one exchange that routed calls and control
  verbs share.  A failure before the frame was fully
  written (no endpoint, dial refused, send error) is pre-effect — the
  peer can never have dispatched a partial frame — and is safe for the
  failover element and the QoS budget to re-deliver.  A failure *after*
  the frame was written (disconnect or timeout while awaiting the
  reply) is ``mid_call``: the effect may have executed, so it is not
  retryable here; only the failover element upgrades it, after
  confirming the node actually died (fail-stop rollback makes the
  re-delivery pre-effect again).  Reconnection is therefore not a
  private loop here: a retryable envelope redials simply by being
  re-delivered under its own budget.

Endpoints are strings: ``tcp://127.0.0.1:9307`` or
``unix:///tmp/node-a.sock``.
"""

from __future__ import annotations

import contextlib
import os
import select
import socket
import threading
from collections import deque
from typing import Any, Callable, Dict, Deque, Optional, Tuple

from repro.analysis.witness import named_lock
from repro.errors import NodeDownError, ProtocolError, TransportError
from repro.middleware.bus import error_from_wire, error_to_wire
from repro.middleware.envelope import Envelope, ReplyFuture
from repro.middleware.transport import (
    Handler,
    Transport,
    in_permit_chain,
    permit_chain,
)
from repro.middleware.wire import (
    CONTROL,
    DEFAULT_MAX_FRAME,
    REPLY,
    REQUEST,
    WireSession,
    encode_frame,
    request_frame,
    response_frame,
)

_RECV_CHUNK = 64 * 1024


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------


def parse_endpoint(endpoint: str) -> Tuple[str, Any]:
    """``tcp://host:port`` -> ("tcp", (host, port)); ``unix://path`` -> ("unix", path)."""
    if endpoint.startswith("tcp://"):
        rest = endpoint[len("tcp://"):]
        host, sep, port = rest.rpartition(":")
        if not sep or not port.isdigit():
            raise TransportError(f"malformed tcp endpoint {endpoint!r}")
        return "tcp", (host or "127.0.0.1", int(port))
    if endpoint.startswith("unix://"):
        path = endpoint[len("unix://"):]
        if not path:
            raise TransportError(f"malformed unix endpoint {endpoint!r}")
        return "unix", path
    raise TransportError(
        f"unknown endpoint scheme {endpoint!r} (tcp:// or unix://)"
    )


def _dial(endpoint: str, timeout_s: float) -> socket.socket:
    family, address = parse_endpoint(endpoint)
    if family == "tcp":
        return socket.create_connection(address, timeout=timeout_s)
    if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
        raise TransportError("unix-domain sockets are unavailable here")
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    sock.connect(address)
    return sock


# ---------------------------------------------------------------------------
# server side
# ---------------------------------------------------------------------------


def _no_control_plane(payload: Dict[str, Any]) -> Any:
    raise TransportError("node serves no control plane")


class WireServer:
    """A wire-protocol listener serving one node's envelopes.

    ``request_handler(envelope) -> wire value`` executes a decoded
    REQUEST and returns the (already marshalled) result;
    ``control_handler(payload) -> wire value`` runs a CONTROL frame (a
    worker's node-surface verb).  Either's value, or the exception it
    raised with its retryability classified sender-side, crosses back
    as one REPLY frame.  A handler that calls :meth:`stop_after_reply`
    closes the server once its reply is sent — how a management
    conversation ends a worker from the outside.
    """

    def __init__(
        self,
        node: str,
        request_handler: Callable[[Envelope], Any],
        control_handler: Optional[Callable[[Dict[str, Any]], Any]] = None,
        endpoint: str = "tcp://127.0.0.1:0",
        max_frame: int = DEFAULT_MAX_FRAME,
        backlog: int = 32,
    ):
        self.node = node
        self.request_handler = request_handler
        self.control_handler = control_handler or _no_control_plane
        self.max_frame = max_frame
        self._requested_endpoint = endpoint
        self._backlog = backlog
        self._listener: Optional[socket.socket] = None
        self._unix_path: Optional[str] = None
        self.endpoint: Optional[str] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._connections: Dict[int, socket.socket] = {}  # guarded_by: _lock
        self._conn_counter = 0  # guarded_by: _lock
        self._lock = named_lock("sockets.server")
        self._closed = False
        self._stopped = threading.Event()
        #: per connection thread: its CONTROL reply ends the server
        self._replying = threading.local()
        #: served-frame counters (observable in tests and stats)
        self.requests_served = 0  # guarded_by: _lock
        self.faults_returned = 0  # guarded_by: _lock
        self.protocol_errors = 0  # guarded_by: _lock

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> str:
        """Bind, listen, and serve in the background; returns the endpoint."""
        family, address = parse_endpoint(self._requested_endpoint)
        if family == "tcp":
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(address)
            host, port = listener.getsockname()[:2]
            self.endpoint = f"tcp://{host}:{port}"
        else:
            if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-POSIX
                raise TransportError("unix-domain sockets are unavailable here")
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            with contextlib.suppress(OSError):
                os.unlink(address)
            listener.bind(address)
            self._unix_path = address
            self.endpoint = f"unix://{address}"
        listener.listen(self._backlog)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"wire-accept-{self.node}", daemon=True
        )
        self._accept_thread.start()
        return self.endpoint

    def stop(self) -> None:
        """Close the listener and every open connection (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            connections = list(self._connections.values())
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
        for conn in connections:
            with contextlib.suppress(OSError):
                conn.shutdown(socket.SHUT_RDWR)
            with contextlib.suppress(OSError):
                conn.close()
        if self._unix_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self._unix_path)
        self._stopped.set()

    @property
    def closed(self) -> bool:
        return self._closed

    def wait(self, timeout_s: Optional[float] = None) -> bool:
        """Block until :meth:`stop` ran (a worker process's main loop)."""
        return self._stopped.wait(timeout_s)

    def stop_after_reply(self) -> None:
        """Stop once the CONTROL reply now being served is sent; called
        by the control handler, on the connection's thread."""
        self._replying.stop = True

    # -- serving -------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._lock:
                if self._closed:
                    with contextlib.suppress(OSError):
                        conn.close()
                    return
                self._conn_counter += 1
                conn_id = self._conn_counter
                self._connections[conn_id] = conn
            threading.Thread(
                target=self._serve_connection,
                args=(conn_id, conn),
                name=f"wire-serve-{self.node}-{conn_id}",
                daemon=True,
            ).start()

    def _serve_connection(self, conn_id: int, conn: socket.socket) -> None:
        session = WireSession("server", node=self.node, max_frame=self.max_frame)
        greeted = False
        try:
            conn.settimeout(None)
            while True:
                try:
                    data = conn.recv(_RECV_CHUNK)
                except OSError:
                    return
                if not data:
                    return
                try:
                    session.feed(data)
                except ProtocolError:
                    # beyond resynchronization: drop the connection (the
                    # peer sees a disconnect, never a hung call)
                    with self._lock:
                        self.protocol_errors += 1
                    return
                if not greeted:
                    # the HELLO-OK; a handshaken session sends nothing unasked
                    greeting = session.take_outbound()
                    if greeting:
                        conn.sendall(greeting)
                    greeted = session.handshaken
                for kind, payload in session.events():
                    try:
                        stop = self._serve_frame(conn, kind, payload)
                    except OSError:
                        return  # client went away while we replied
                    if stop:
                        return
        finally:
            with self._lock:
                self._connections.pop(conn_id, None)
            with contextlib.suppress(OSError):
                conn.close()

    def _serve_frame(self, conn, kind: int, payload: Any) -> bool:
        """Answer one conversation frame with its REPLY; True ends the
        connection.

        A REQUEST runs through the request handler and answers its
        correlation id — a oneway too: its REPLY follows the effect, so
        the caller meters it like any call and a drained caller (the
        harness's quiesce) knows it has fully landed.  A CONTROL runs
        through the control handler and answers id 0."""
        if kind == REQUEST:
            nested, wire = payload
            argument = Envelope.from_wire(wire)
            correlation_id, handler = argument.correlation_id, self.request_handler
        elif kind == CONTROL:
            nested, argument, correlation_id, handler = False, payload, 0, self.control_handler
        else:
            # a REPLY is client-bound; receiving one here is a peer
            # bug, not recoverable on this connection
            with self._lock:
                self.protocol_errors += 1
            return True
        # a nested request runs for a chain that already holds a permit
        # (possibly on this node): it takes none, and what it sends on
        # is marked in turn
        chained = in_permit_chain()
        permit_chain.held = nested
        try:
            # encoded before it counts as served: a value the wire
            # cannot carry (ProtocolError) crosses as an error too, and
            # the connection keeps serving
            reply = response_frame(correlation_id, handler(argument))
            failed = False
        except Exception as exc:  # noqa: BLE001 - crosses as an error REPLY
            reply = response_frame(correlation_id, error_to_wire(exc), error=True)
            failed = True
        finally:
            permit_chain.held = chained
        if kind == REQUEST:
            with self._lock:
                if failed:
                    self.faults_returned += 1
                else:
                    self.requests_served += 1
        conn.sendall(reply)
        if kind == CONTROL and getattr(self._replying, "stop", False):
            self.stop()
            return True
        return False


# ---------------------------------------------------------------------------
# client side
# ---------------------------------------------------------------------------


class WireClient:
    """One handshaken client connection (single caller at a time)."""

    def __init__(
        self,
        endpoint: str,
        node: str = "client",
        timeout_s: float = 10.0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        self.endpoint = endpoint
        self._sock = _dial(endpoint, timeout_s)
        self._sock.settimeout(timeout_s)
        self.session = WireSession("client", node=node, max_frame=max_frame)
        self._sock.sendall(self.session.greeting())
        while not self.session.handshaken:
            data = self._sock.recv(_RECV_CHUNK)
            if not data:
                raise TransportError(
                    f"peer at {endpoint} closed during handshake"
                )
            self.session.feed(data)
        #: the node name the server announced in its HELLO-OK
        self.peer = self.session.peer

    def send(self, frame: bytes) -> None:
        """Write one frame; raising means the frame was NOT fully written,
        so the peer can never decode (let alone dispatch) the request."""
        self._sock.sendall(frame)

    def await_reply(self) -> Tuple[int, Any]:
        """Block for the next conversation frame from the peer.  Another
        frame decoded beside it in the same read answers no call of this
        connection, so it raises :class:`~repro.errors.ProtocolError`."""
        session = self.session
        events = session.events()
        while not events:
            data = self._sock.recv(_RECV_CHUNK)
            if not data:
                raise TransportError(f"peer at {self.endpoint} disconnected")
            session.feed(data)
            events = session.events()
        if len(events) > 1:
            raise ProtocolError(
                f"peer at {self.endpoint} sent {len(events) - 1} frame(s) "
                "beside its reply"
            )
        return events[0]

    def stale(self) -> bool:
        """True when the *idle* socket is readable: the peer closed it
        (EOF/RST pending) or sent bytes outside any conversation —
        either way it cannot carry a fresh at-most-once request."""
        try:
            readable, _, _ = select.select([self._sock], [], [], 0)
        except (OSError, ValueError):
            return True
        return bool(readable)

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self._sock.close()


class ConnectionPool:
    """Idle-connection reuse per endpoint (dial on miss)."""

    def __init__(
        self,
        node: str = "client",
        max_idle: int = 4,
        timeout_s: float = 10.0,
        max_frame: int = DEFAULT_MAX_FRAME,
    ):
        self.node = node
        self.max_idle = max_idle
        self.timeout_s = timeout_s
        self.max_frame = max_frame
        self._idle: Dict[str, Deque[WireClient]] = {}  # guarded_by: _lock
        self._lock = named_lock("sockets.pool")
        self._closed = False
        #: pool statistics
        self.dials = 0
        self.reuses = 0

    def checkout(self, endpoint: str) -> Tuple[WireClient, bool]:
        """An idle or fresh connection; the flag says it was pooled.

        Idle entries are probed before reuse: a connection the peer
        closed while pooled is discarded here, *before* any request
        bytes are risked on it — the at-most-once contract never has to
        reason about a knowingly-dead socket."""
        discarded = []
        try:
            with self._lock:
                if self._closed:
                    raise TransportError("connection pool is shut down")
                queue = self._idle.get(endpoint)
                while queue:
                    client = queue.popleft()
                    if client.stale():
                        discarded.append(client)
                        continue
                    self.reuses += 1
                    return client, True
                self.dials += 1
        finally:
            for client in discarded:
                client.close()
        return self.dial(endpoint), False

    def dial(self, endpoint: str) -> WireClient:
        """A fresh connection, bypassing the idle set and its counters."""
        return WireClient(
            endpoint, node=self.node, timeout_s=self.timeout_s, max_frame=self.max_frame
        )

    def checkin(self, client: WireClient) -> None:
        with self._lock:
            if not self._closed:
                queue = self._idle.setdefault(client.endpoint, deque())
                if len(queue) < self.max_idle:
                    queue.append(client)
                    return
        client.close()

    def invalidate(self, endpoint: str) -> None:
        """Drop every idle connection to a (probably dead) endpoint."""
        with self._lock:
            stale = self._idle.pop(endpoint, deque())
        for client in stale:
            client.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            stale = [c for q in self._idle.values() for c in q]
            self._idle.clear()
        for client in stale:
            client.close()


# ---------------------------------------------------------------------------
# the transport
# ---------------------------------------------------------------------------


class SocketTransport(Transport):
    """Envelope delivery over pooled wire connections.

    ``call`` and ``submit`` deliver inline on the caller's thread —
    synchronous semantics, like
    :class:`~repro.middleware.transport.InProcessTransport` — through the
    shared retry core, so the envelope's QoS budget drives
    reconnection: a pre-effect failure (no endpoint, dial refused, the
    request frame rejected before it was fully written) raises
    :class:`~repro.errors.NodeDownError`, the failover element reacts,
    and the re-delivery dials whatever node the binding re-resolves to.
    A failure *after* the frame was written is the ambiguous mid-call
    case: it raises ``NodeDownError(pre_effect=False, mid_call=True)``
    and is never blind-retried here — the effect may already exist on
    the peer, so only the failover element (which can confirm the node
    is fail-stop dead and roll its state back to the standby snapshot)
    may make it retryable.

    The handler the routing layer passes in runs its interceptor chain
    client-side; the chain's terminal calls :meth:`roundtrip` to put the
    envelope on the wire.  The transport resolves node names to
    endpoints through the ``endpoints`` callable, so topology changes
    (failover promoting a different worker) need no transport surgery.
    """

    name = "socket"

    def __init__(
        self,
        endpoints: Callable[[str], Optional[str]],
        node: str = "client",
        timeout_s: float = 10.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        max_idle: int = 4,
    ):
        self.endpoints = endpoints
        self.pool = ConnectionPool(
            node=node, max_idle=max_idle, timeout_s=timeout_s, max_frame=max_frame
        )
        #: transport statistics
        self.roundtrips = 0  # guarded_by: _stats_lock
        self.disconnects = 0  # guarded_by: _stats_lock
        self._stats_lock = named_lock("sockets.stats")

    # defined on this class, not inherited: perfbench's traced run wraps
    # each transport's own ``submit``
    def submit(self, envelope: Envelope, handler: Handler) -> ReplyFuture:
        future = ReplyFuture(envelope)
        self._deliver(envelope, handler, future)
        return future

    # -- the wire hop --------------------------------------------------------

    def roundtrip(self, node: str, envelope: Envelope) -> Any:
        """Deliver ``envelope`` to ``node`` and return its result, in
        wire values, or raise its error, as :meth:`_exchange` does.  A
        call outside the wire contract raises
        :class:`~repro.errors.ProtocolError` before any connection is
        touched."""
        frame = request_frame(envelope, nested=in_permit_chain())
        return self._exchange(node, frame, envelope.correlation_id)

    def control(self, node: str, payload: Dict[str, Any]) -> Any:
        """One management round trip (a worker's node-surface verb):
        the verb's value, or its error raised, as :meth:`_exchange`
        returns a routed call's — a CONTROL's REPLY answers id 0."""
        return self._exchange(node, encode_frame(CONTROL, payload), 0)

    def _exchange(self, node: str, frame: bytes, correlation_id: int) -> Any:
        """Send ``frame`` to ``node`` and return the value of the REPLY
        answering ``correlation_id``; an error REPLY raises its error
        rebuilt (:func:`~repro.middleware.bus.error_from_wire`): a
        library error as its own type, text and attributes, anything
        else as :class:`~repro.errors.RemoteInvocationError`, a
        malformed form as :class:`~repro.errors.ProtocolError`.

        Socket failures are classified by phase, because at-most-once
        hinges on it.  A failure *before* the frame was fully written
        (no endpoint, dial refused, send error — a partial frame can
        never decode, so no effect can exist) raises the pre-effect
        :class:`NodeDownError` the failover/retry path may re-deliver.
        A failure *after* it (disconnect or timeout while awaiting the
        reply) raises ``NodeDownError(pre_effect=False, mid_call=True)``:
        the effect may have executed, so re-delivery is only safe once
        the failover element confirms the node is fail-stop dead.  A
        reply that breaks the protocol (undecodable, with another
        conversation frame beside it in the same read, of another kind
        than REPLY or answering another id) raises
        :class:`~repro.errors.ProtocolError`, which is not retryable, and
        the connection is closed, never pooled."""
        endpoint = self.endpoints(node)
        if endpoint is None:
            raise NodeDownError(f"node {node!r} has no wire endpoint", node=node)
        try:
            client, pooled = self.pool.checkout(endpoint)
            while True:
                try:
                    client.send(frame)
                    break
                except (OSError, TransportError):
                    client.close()
                    if not pooled:
                        raise
                # the checkout probe can race the peer's close: a pooled
                # connection that refused the send never delivered a
                # complete frame, so one fresh dial is effect-free
                self._disconnected(endpoint)
                client, pooled = self.pool.dial(endpoint), False
        except (OSError, TransportError) as exc:
            self._disconnected(endpoint)
            raise NodeDownError(
                f"node {node!r} unreachable at {endpoint}: {exc}", node=node
            ) from exc
        try:
            kind, payload = client.await_reply()
        except ProtocolError:
            client.close()
            raise
        except (OSError, TransportError) as exc:
            client.close()
            self._disconnected(endpoint)
            raise NodeDownError(
                f"node {node!r} gave no reply mid-call: {exc}",
                node=node,
                pre_effect=False,
                mid_call=True,
            ) from exc
        if correlation_id:  # routed calls only: a CONTROL's REPLY answers 0
            with self._stats_lock:
                self.roundtrips += 1
        if kind != REPLY:
            client.close()
            raise ProtocolError(f"expected a reply frame from {node!r}, got kind {kind}")
        got, error, value = payload
        if got != correlation_id:
            # a stray or reordered frame must fail loudly, never be
            # paired with the wrong call; the connection is beyond trust
            client.close()
            raise ProtocolError(
                f"reply from {node!r} correlates to {got}, expected {correlation_id}"
            )
        self.pool.checkin(client)
        if error:
            raise error_from_wire(value)
        return value

    def _disconnected(self, endpoint: str) -> None:
        with self._stats_lock:
            self.disconnects += 1
        self.pool.invalidate(endpoint)

    # -- lifecycle -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._stats_lock:
            return {
                "roundtrips": self.roundtrips,
                "disconnects": self.disconnects,
                "dials": self.pool.dials,
                "reuses": self.pool.reuses,
            }

    def shutdown(self) -> None:
        self.pool.close()
