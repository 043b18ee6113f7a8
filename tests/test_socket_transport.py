"""Socket transport: loopback federation wire mode + raw socket layer.

Every test runs the federation in ``transport="socket"`` mode: each
routed hop is marshalled, framed, sent over a real TCP (or unix-domain)
connection to the owner node's listener, dispatched there, and the
result (or fault) framed back — while the entire client-side
interceptor chain (metrics, tracing, fault injection, failover,
latency, routing) runs unmodified.  The oracle throughout is the
in-process federation: same calls, same results, same exception
shapes, same failover sequence.
"""

import socket
import struct
import threading
import time
from types import SimpleNamespace

import pytest

from repro.errors import (
    FederationError,
    NodeDownError,
    ProtocolError,
    RemoteInvocationError,
    TransportError,
)
from repro.middleware.envelope import QoS, is_retryable
from repro.middleware.sockets import (
    ConnectionPool,
    SocketTransport,
    WireClient,
    WireServer,
    parse_endpoint,
)
from repro.middleware.wire import FrameDecoder
from repro.runtime import Federation

RETRY = QoS(retries=3)


class Counter:
    def __init__(self, value=0.0):
        self.value = value

    def bump(self, amount):
        self.value += amount
        return self.value

    def read(self):
        return self.value

    def boom(self):
        raise ValueError("no")


MODULE = SimpleNamespace(Counter=Counter)


def build(transport="socket", nodes=3, partitions=6, replication=0, **kwargs):
    federation = Federation(latency_ms=0.0, transport=transport, **kwargs)
    for i in range(nodes):
        federation.join(f"node-{i}").host(MODULE)
    names = []
    for k in range(partitions):
        partition = f"part-{k}"
        node = federation.node_for(partition)
        name = f"{partition}/Counter/0"
        node.bind(name, Counter(100.0))
        names.append(name)
    if replication:
        federation.enable_replication(replication)
    return federation, names


def _envelope(target, operation="op"):
    from repro.middleware.envelope import Envelope

    return Envelope("obj-1", operation, [], {}, {}, target=target, label=f"T.{operation}")


class _ScriptedServer:
    """A raw listener speaking just enough wire protocol to misbehave.

    Runs ``script(conn, kind, payload)`` per decoded frame — returning
    True closes the connection (the mid-call disconnect).
    ``close_on_accept`` drops each connection as soon as it is accepted
    instead (the peer-closed-while-idle case).  Connections are served
    sequentially; the listener stays up until :meth:`close`.
    """

    def __init__(self, script, close_on_accept=False):
        self._script = script
        self._close_on_accept = close_on_accept
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        host, port = self._listener.getsockname()
        self.endpoint = f"tcp://{host}:{port}"
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self):
        while True:
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                if not self._close_on_accept:
                    self._converse(conn)
            except OSError:
                pass
            finally:
                conn.close()

    def _converse(self, conn):
        decoder = FrameDecoder()
        while True:
            data = conn.recv(65536)
            if not data:
                return
            decoder.feed(data)
            for kind, payload in decoder.frames():
                if self._script(conn, kind, payload):
                    return

    def close(self):
        self._listener.close()


# ---------------------------------------------------------------------------
# endpoint parsing
# ---------------------------------------------------------------------------


def test_parse_endpoints():
    assert parse_endpoint("tcp://127.0.0.1:9307") == ("tcp", ("127.0.0.1", 9307))
    assert parse_endpoint("unix:///tmp/a.sock") == ("unix", "/tmp/a.sock")
    with pytest.raises(TransportError):
        parse_endpoint("http://example.com")


# ---------------------------------------------------------------------------
# the wire server/client layer, bare
# ---------------------------------------------------------------------------


class TestWireLayer:
    def test_request_response_over_tcp(self):
        from repro.middleware.envelope import Envelope

        served = []

        def handler(envelope):
            served.append(envelope.operation)
            return envelope.args[0] * 2

        server = WireServer(node="w", request_handler=handler)
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get)
            envelope = Envelope("obj-1", "double", [21], {}, {}, target="w", label="T.double")
            assert transport.roundtrip("w", envelope) == 42
            assert served == ["double"]
            transport.shutdown()
        finally:
            server.stop()

    def test_unknown_node_is_node_down(self):
        transport = SocketTransport({}.get)
        from repro.middleware.envelope import Envelope

        envelope = Envelope("o", "x", [], {}, {}, target="ghost")
        with pytest.raises(NodeDownError) as excinfo:
            transport.roundtrip("ghost", envelope)
        assert excinfo.value.node == "ghost"
        assert excinfo.value.pre_effect

    def test_reply_timeout_is_mid_call_and_not_retryable(self):
        """The review's core at-most-once scenario: a slow handler on a
        *living* node times the client out after the request was fully
        written — the effect may land, so the fault must not be
        pre-effect-retryable."""
        import time as time_module

        server = WireServer(
            node="w", request_handler=lambda env: time_module.sleep(1.2) or 1
        )
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get, timeout_s=0.3)
            with pytest.raises(NodeDownError) as excinfo:
                transport.roundtrip("w", _envelope("w"))
            assert excinfo.value.mid_call
            assert not excinfo.value.pre_effect
            assert not is_retryable(excinfo.value)
            transport.shutdown()
        finally:
            server.stop()

    def test_disconnect_after_request_sent_is_mid_call(self):
        """A connection dropped after the request frame was written is
        the ambiguous case: NodeDownError, but never blind-retried and
        not retryable until failover confirms the node died."""
        server = _ScriptedServer(lambda conn, kind, payload: True)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            with pytest.raises(NodeDownError) as excinfo:
                transport.roundtrip("w", _envelope("w"))
            assert excinfo.value.mid_call
            assert not excinfo.value.pre_effect
            assert not is_retryable(excinfo.value)
            transport.shutdown()
        finally:
            server.close()

    def test_mismatched_correlation_id_fails_loudly(self):
        from repro.middleware.envelope import Envelope
        from repro.middleware.wire import response_frame

        def misreply(conn, kind, payload):
            envelope = Envelope.from_wire(payload[1])
            wrong = envelope.correlation_id + 7
            conn.sendall(response_frame(wrong, 1))
            return False

        server = _ScriptedServer(misreply)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            with pytest.raises(ProtocolError, match="correlates to"):
                transport.roundtrip("w", _envelope("w"))
            transport.shutdown()
        finally:
            server.close()

    def test_a_stray_frame_beside_the_reply_fails_the_call(self):
        """A listener that answers a REQUEST with its REPLY and, in the
        same write, a second REPLY under another correlation id:
        the call fails loudly and is not retried, its connection is
        closed instead of pooled, and the next call dials afresh."""
        from repro.middleware.envelope import Envelope
        from repro.middleware.wire import response_frame

        def double_reply(conn, kind, payload):
            envelope = Envelope.from_wire(payload[1])
            conn.sendall(
                response_frame(envelope.correlation_id, 1)
                + response_frame(envelope.correlation_id + 7, 2)
            )
            return False

        server = _ScriptedServer(double_reply)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            with pytest.raises(ProtocolError, match="beside its reply") as excinfo:
                transport.roundtrip("w", _envelope("w"))
            assert not is_retryable(excinfo.value)
            assert not transport.pool._idle.get(server.endpoint)
            with pytest.raises(ProtocolError, match="beside its reply"):
                transport.roundtrip("w", _envelope("w"))
            stats = transport.stats()
            assert (stats["dials"], stats["reuses"]) == (2, 0)
            assert not transport.pool._idle.get(server.endpoint)
            transport.shutdown()
        finally:
            server.close()

    def test_a_stray_frame_beside_a_control_reply_fails_the_verb(self):
        from repro.middleware.wire import response_frame

        def double_reply(conn, kind, payload):
            conn.sendall(response_frame(0, 1) + response_frame(0, 2))
            return False

        server = _ScriptedServer(double_reply)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            for _ in range(2):
                with pytest.raises(ProtocolError, match="beside its reply"):
                    transport.control("w", {"verb": "ping"})
                assert not transport.pool._idle.get(server.endpoint)
            assert (transport.stats()["dials"], transport.stats()["reuses"]) == (2, 0)
            transport.shutdown()
        finally:
            server.close()

    def test_an_undecodable_reply_fails_the_call(self):
        """A reply the decoder refuses is a protocol violation, not a
        lost reply: ProtocolError, not retryable, and the connection is
        closed instead of pooled."""

        def garbage(conn, kind, payload):
            conn.sendall(b"XX" + bytes(14))
            return False

        server = _ScriptedServer(garbage)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            for _ in range(2):
                with pytest.raises(ProtocolError, match="bad frame magic") as excinfo:
                    transport.roundtrip("w", _envelope("w"))
                assert not is_retryable(excinfo.value)
                assert not transport.pool._idle.get(server.endpoint)
            assert (transport.stats()["dials"], transport.stats()["reuses"]) == (2, 0)
            transport.shutdown()
        finally:
            server.close()

    def test_control_failures_arrive_typed(self):
        """A control handler's error crosses as a routed call's does, in
        an error REPLY: a library error comes back as its own type,
        anything else as RemoteInvocationError, and the connection stays
        usable."""
        from repro.errors import ShippingError

        def control(payload):
            if payload["verb"] == "ship":
                raise ShippingError("steps do not reproduce the model")
            if payload["verb"] == "crash":
                raise ValueError("boom")
            return {"verb": payload["verb"]}

        server = WireServer(
            node="w", request_handler=lambda env: None, control_handler=control
        )
        bare = WireServer(node="b", request_handler=lambda env: None)
        endpoints = {"w": server.start(), "b": bare.start()}
        try:
            transport = SocketTransport(endpoints.get)
            with pytest.raises(ShippingError, match="do not reproduce") as shipped:
                transport.control("w", {"verb": "ship"})
            assert getattr(shipped.value, "_remote_rebuilt", False)
            with pytest.raises(RemoteInvocationError, match="remote raised ValueError: boom"):
                transport.control("w", {"verb": "crash"})
            assert transport.control("w", {"verb": "ping"}) == {"verb": "ping"}
            with pytest.raises(TransportError, match="no control plane"):
                transport.control("b", {"verb": "ping"})
            assert transport.stats()["dials"] == 2  # errors kept their connections
            transport.shutdown()
        finally:
            server.stop()
            bare.stop()

    def test_control_failure_keeps_a_library_errors_type_and_text(self):
        """A verb raising an error whose constructor takes no message
        (ValidationError takes diagnostics) arrives as that type with
        the sender's text, not garbled by a second construction."""
        from repro.errors import ValidationError

        def control(payload):
            raise ValidationError(["bad name"])

        server = WireServer(
            node="w", request_handler=lambda env: None, control_handler=control
        )
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get)
            with pytest.raises(ValidationError) as excinfo:
                transport.control("w", {"verb": "validate"})
            assert str(excinfo.value) == "model validation failed: bad name"
            transport.shutdown()
        finally:
            server.stop()

    def test_a_reply_the_wire_cannot_carry_comes_back_as_a_fault(self):
        """The listener encodes a result before it counts the request as
        served: a result outside the wire contract crosses as an error
        REPLY that is never re-delivered, and the pooled connection
        keeps serving."""

        def handler(envelope):
            return object() if envelope.operation == "bad" else 7

        server = WireServer(node="w", request_handler=handler)
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get)
            with pytest.raises(ProtocolError, match="outside the wire contract") as bad:
                transport.roundtrip("w", _envelope("w", "bad"))
            assert not is_retryable(bad.value)
            assert transport.roundtrip("w", _envelope("w", "good")) == 7
            assert transport.stats()["dials"] == 1
            assert (server.requests_served, server.faults_returned) == (1, 1)
            transport.shutdown()
        finally:
            server.stop()

    def test_a_verb_value_the_wire_cannot_carry_comes_back_as_an_error(self):
        """A control verb's value is framed by the builder a call's
        result is: one outside the wire contract crosses as an error
        REPLY, and the pooled connection keeps serving."""

        def control(payload):
            return object() if payload["verb"] == "bad" else 7

        server = WireServer(node="w", request_handler=lambda env: None, control_handler=control)
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get)
            with pytest.raises(ProtocolError, match="outside the wire contract") as bad:
                transport.control("w", {"verb": "bad"})
            assert not is_retryable(bad.value)
            assert transport.control("w", {"verb": "good"}) == 7
            assert (transport.stats()["dials"], transport.stats()["reuses"]) == (1, 1)
            transport.shutdown()
        finally:
            server.stop()

    def test_codec_entry_points_run_once_per_frame(self, monkeypatch):
        """A hop encodes one tagged value per frame sent and decodes one
        per frame received, through ``wire.encode_value`` and
        ``wire.decode_value``; the listener decodes before it rebuilds
        the envelope.  Per-layer tracing wraps exactly these."""
        from repro.middleware import wire
        from repro.middleware.envelope import Envelope

        events = []
        encode, decode = wire.encode_value, wire.decode_value
        from_wire = Envelope.from_wire.__func__

        def traced(name, fn):
            def call(*args):
                events.append(name)
                return fn(*args)

            return call

        monkeypatch.setattr(wire, "encode_value", traced("encode", encode))
        monkeypatch.setattr(wire, "decode_value", traced("decode", decode))
        monkeypatch.setattr(Envelope, "from_wire", classmethod(traced("from_wire", from_wire)))
        server = WireServer(node="w", request_handler=lambda env: [env.operation])
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get)
            transport.roundtrip("w", _envelope("w"))  # dials and shakes hands
            events.clear()
            assert transport.roundtrip("w", _envelope("w")) == ["op"]
            assert events == ["encode", "decode", "from_wire", "encode", "decode"]
            transport.shutdown()
        finally:
            server.stop()

    @pytest.mark.parametrize("value", [5, [1, 2], {"foo": 1}, None], ids=repr)
    def test_a_control_verb_returns_its_value_itself(self, value):
        """Whatever wire value a control handler returns comes back from
        ``control`` as that value, and the connection is pooled."""
        server = WireServer(
            node="w", request_handler=lambda env: None, control_handler=lambda p: value
        )
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get)
            for _ in range(2):
                assert transport.control("w", {"verb": "get"}) == value
            assert (transport.stats()["dials"], transport.stats()["reuses"]) == (1, 1)
            transport.shutdown()
        finally:
            server.stop()

    @pytest.mark.parametrize("path", ["roundtrip", "control"])
    def test_an_error_reply_with_a_malformed_form_is_a_protocol_error(self, path):
        """An error REPLY whose value is not the error codec's form
        raises ProtocolError, which is not retryable; the frame itself
        was well formed, so its connection stays pooled."""
        from repro.middleware.envelope import Envelope
        from repro.middleware.wire import REQUEST, response_frame

        def malformed(conn, kind, payload):
            answered = Envelope.from_wire(payload[1]).correlation_id if kind == REQUEST else 0
            conn.sendall(response_frame(answered, "ValueError: no", error=True))
            return False

        server = _ScriptedServer(malformed)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            call = {
                "roundtrip": lambda: transport.roundtrip("w", _envelope("w")),
                "control": lambda: transport.control("w", {"verb": "ping"}),
            }[path]
            for _ in range(2):
                with pytest.raises(ProtocolError, match="malformed wire fault") as excinfo:
                    call()
                assert not is_retryable(excinfo.value)
            assert (transport.stats()["dials"], transport.stats()["reuses"]) == (1, 1)
            transport.shutdown()
        finally:
            server.close()

    @pytest.mark.parametrize("answered", [7, None], ids=["nonzero id", "request"])
    def test_a_control_answered_by_another_frame_closes_its_connection(
        self, answered, monkeypatch
    ):
        """A CONTROL carries no id, so its REPLY answers 0: a REPLY with
        another id, or a frame of another kind, raises ProtocolError and
        its connection is closed, never pooled."""
        from repro.middleware.wire import request_frame, response_frame

        closed = []
        original = WireClient.close
        monkeypatch.setattr(
            WireClient, "close", lambda self: (closed.append(self), original(self))
        )

        def misreply(conn, kind, payload):
            if answered is None:
                conn.sendall(request_frame(_envelope("c")))
            else:
                conn.sendall(response_frame(answered, {"verb": "ping"}))
            return False

        server = _ScriptedServer(misreply)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            match = "correlates to 7, expected 0" if answered else "expected a reply frame"
            for attempt in range(2):
                with pytest.raises(ProtocolError, match=match):
                    transport.control("w", {"verb": "ping"})
                assert len(closed) == attempt + 1
                assert not transport.pool._idle.get(server.endpoint)
            assert (transport.stats()["dials"], transport.stats()["reuses"]) == (2, 0)
            transport.shutdown()
        finally:
            server.close()

    def test_unencodable_request_returns_its_connection_to_the_pool(self):
        from repro.middleware.envelope import Envelope

        server = WireServer(node="w", request_handler=lambda env: 1)
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get)
            assert transport.roundtrip("w", _envelope("w")) == 1
            bad = Envelope("obj-1", "op", [object()], {}, {}, target="w")
            with pytest.raises(ProtocolError, match="outside the wire contract"):
                transport.roundtrip("w", bad)
            assert transport.roundtrip("w", _envelope("w")) == 1
            assert transport.stats()["dials"] == 1
            transport.shutdown()
        finally:
            server.stop()

    def test_control_failure_closes_the_checked_out_connection(self, monkeypatch):
        closed = []
        original = WireClient.close
        monkeypatch.setattr(
            WireClient, "close", lambda self: (closed.append(self), original(self))
        )
        server = _ScriptedServer(lambda conn, kind, payload: True)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            with pytest.raises(NodeDownError) as excinfo:
                transport.control("w", {"verb": "ping"})
            assert len(closed) == 1  # no socket leaked until GC
            # the verb was written, so it may have run: classified as a
            # routed call's lost reply is
            assert excinfo.value.mid_call
            assert not excinfo.value.pre_effect
            assert not is_retryable(excinfo.value)
            transport.shutdown()
        finally:
            server.close()

    @pytest.mark.parametrize("path", ["roundtrip", "control"])
    def test_a_stale_pooled_send_gets_one_fresh_dial(self, path, monkeypatch):
        """The checkout probe can race the peer's close: a pooled
        connection that refuses the send delivered no complete frame, so
        a routed call and a control verb alike re-send on one fresh
        connection and succeed."""
        server = WireServer(
            node="w",
            request_handler=lambda env: 1,
            control_handler=lambda payload: {"verb": payload["verb"]},
        )
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get)
            call, expected = {
                "roundtrip": (lambda: transport.roundtrip("w", _envelope("w")), 1),
                "control": (lambda: transport.control("w", {"verb": "ping"}), {"verb": "ping"}),
            }[path]
            assert call() == expected  # leaves one pooled connection
            dialed, refused = [], []
            init, send = WireClient.__init__, WireClient.send

            def dialing(self, *args, **kwargs):
                dialed.append(self)
                init(self, *args, **kwargs)

            def refusing_once(self, frame):
                if not refused:
                    refused.append(self)
                    raise ConnectionResetError("peer closed the pooled connection")
                send(self, frame)

            monkeypatch.setattr(WireClient, "__init__", dialing)
            monkeypatch.setattr(WireClient, "send", refusing_once)
            assert call() == expected
            assert len(dialed) == 1 and dialed[0] is not refused[0]
            assert transport.stats()["disconnects"] == 1
            transport.shutdown()
        finally:
            server.stop()

    def test_pool_discards_connections_closed_while_idle(self):
        """The checkout probe: a pooled connection the peer closed is
        discarded before any request bytes are risked on it."""
        server = _ScriptedServer(script=None, close_on_accept=True)
        try:
            pool = ConnectionPool()
            client, pooled = pool.checkout(server.endpoint)
            assert not pooled
            pool.checkin(client)
            time.sleep(0.2)  # let the server's close reach the socket
            fresh, pooled = pool.checkout(server.endpoint)
            assert not pooled and fresh is not client
            assert pool.dials == 2 and pool.reuses == 0
            fresh.close()
            pool.close()
        finally:
            server.close()

    def test_a_client_reset_right_after_its_first_request_ends_only_its_connection(
        self, monkeypatch
    ):
        """A client that sends a REQUEST as its first frame and resets
        (SO_LINGER 0) before the reply makes the listener's REPLY fail:
        that connection ends quietly, its thread raises nothing, and the
        listener serves the next call."""
        from repro.middleware.wire import request_frame

        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        reset = threading.Event()
        server = WireServer(node="w", request_handler=lambda env: reset.wait(5))
        endpoint = server.start()
        try:
            for _ in range(3):
                probe = socket.create_connection(parse_endpoint(endpoint)[1])
                probe.sendall(request_frame(_envelope("w")))
                probe.setsockopt(
                    socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                )
                probe.close()
            reset.set()
            deadline = time.monotonic() + 5
            while server._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            for thread in threading.enumerate():
                if thread.name.startswith("wire-serve-w-"):
                    thread.join(timeout=5)
            assert not server._connections
            transport = SocketTransport({"w": endpoint}.get)
            assert transport.roundtrip("w", _envelope("w")) is True
            transport.shutdown()
        finally:
            server.stop()
        assert raised == []

    def test_a_connection_stopped_before_its_thread_runs_ends_quietly(
        self, monkeypatch
    ):
        """A dial returns before the listener's thread for it runs, so a
        stop can close the connection first: that thread then ends
        quietly, raising nothing."""
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        stopped = threading.Event()
        serve = WireServer._serve_connection

        def after_stop(self, conn_id, conn):
            stopped.wait(5)
            serve(self, conn_id, conn)

        monkeypatch.setattr(WireServer, "_serve_connection", after_stop)
        server = WireServer(node="w", request_handler=lambda env: 1)
        client = WireClient(server.start())
        try:
            deadline = time.monotonic() + 5
            while not server._connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._connections
        finally:
            server.stop()
            stopped.set()
            client.close()
        for thread in threading.enumerate():
            if thread.name.startswith("wire-serve-w-"):
                thread.join(timeout=5)
        assert raised == []

    def test_a_fresh_connection_opens_with_the_calls_request(self):
        """No handshake: the first frame a raw listener reads from a
        fresh connection is the call's own REQUEST, and the REPLY it
        sends back is the call's result."""
        from repro.middleware.wire import REQUEST, response_frame

        first = []

        def answer(conn, kind, payload):
            first.append(kind)
            correlation_id = payload[1][0] if kind == REQUEST else 0
            conn.sendall(response_frame(correlation_id, "answered"))
            return True

        server = _ScriptedServer(answer)
        try:
            transport = SocketTransport({"w": server.endpoint}.get)
            assert transport.roundtrip("w", _envelope("w")) == "answered"
            assert first == [REQUEST]
            assert transport.stats()["dials"] == 1
            transport.shutdown()
        finally:
            server.close()

    def test_a_dial_returns_at_once_against_a_silent_listener(self):
        """``WireClient`` only dials: against a listener that never
        writes it returns at once, having sent nothing."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        try:
            started = time.monotonic()
            client = WireClient(f"tcp://{host}:{port}", timeout_s=5.0)
            assert time.monotonic() - started < 1.0
            conn, _peer = listener.accept()
            with conn:
                conn.settimeout(0.2)
                with pytest.raises(socket.timeout):
                    conn.recv(1)
            client.close()
        finally:
            listener.close()

    def test_a_failed_unix_dial_closes_its_socket(self, tmp_path, monkeypatch):
        made = []

        class Recording(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(socket, "socket", Recording)
        with pytest.raises(OSError):
            WireClient(f"unix://{tmp_path}/missing.sock", timeout_s=1.0)
        [dialled] = [sock for sock in made if sock.family == socket.AF_UNIX]
        assert dialled.fileno() == -1

    @pytest.mark.parametrize("peer", ["closes", "times out", "answers garbage"])
    def test_a_failed_first_call_closes_its_socket(self, peer, monkeypatch):
        """A listener that accepts and then closes, never answers, or
        answers the first REQUEST with bytes that are no frame: the dial
        succeeds and the first call fails after its frame was written —
        mid-call for a close or a silence, a protocol error for garbage —
        and the socket it dialled is closed, never pooled."""
        from repro.middleware import sockets

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()
        done = threading.Event()

        def misbehave():
            conn, _peer = listener.accept()
            with conn:
                if peer == "times out":
                    done.wait(5)
                elif peer == "answers garbage":
                    conn.recv(65536)
                    conn.sendall(b"XX" + bytes(14))
                    done.wait(5)

        listening = threading.Thread(target=misbehave, daemon=True)
        listening.start()
        dialled, dial = [], sockets._dial
        monkeypatch.setattr(
            sockets, "_dial", lambda *args: dialled.append(dial(*args)) or dialled[-1]
        )
        transport = SocketTransport({"w": f"tcp://{host}:{port}"}.get, timeout_s=0.3)
        try:
            if peer == "answers garbage":
                with pytest.raises(ProtocolError, match="bad frame magic"):
                    transport.roundtrip("w", _envelope("w"))
            else:
                with pytest.raises(NodeDownError) as excinfo:
                    transport.roundtrip("w", _envelope("w"))
                assert excinfo.value.mid_call and not excinfo.value.pre_effect
            assert len(dialled) == 1 and dialled[0].fileno() == -1
            assert not transport.pool._idle.get(f"tcp://{host}:{port}")
        finally:
            transport.shutdown()
            done.set()
            listening.join(timeout=5)
            listener.close()

    def test_the_listener_sees_the_call_under_the_default_policy(self):
        """A REQUEST carries the call, not the caller's policy: the
        handler gets the label, object id, operation and arguments under
        the default QoS, with no attempt, target or binding, while the
        caller's envelope keeps its own."""
        from repro.middleware.envelope import DEFAULT_QOS, Envelope

        seen = []
        server = WireServer(node="w", request_handler=lambda env: seen.append(env) or 1)
        endpoint = server.start()
        try:
            transport = SocketTransport({"w": endpoint}.get)
            envelope = Envelope(
                "obj-3", "bump", [1.0], {}, {"user": "alice"},
                qos=QoS(oneway=True, retries=2, timeout_ms=250), target="w",
                binding="p/Counter/0", label="Counter.bump", attempt=1,
            )
            assert transport.roundtrip("w", envelope) == 1
            transport.shutdown()
        finally:
            server.stop()
        [served] = seen
        assert served.correlation_id == envelope.correlation_id
        assert (served.label, served.object_id, served.operation) == (
            "Counter.bump", "obj-3", "bump"
        )
        assert (served.args, served.kwargs, served.context) == ([1.0], {}, {"user": "alice"})
        assert served.qos is DEFAULT_QOS and served.attempt == 0
        assert served.target is None and served.binding is None
        assert envelope.qos.retries == 2 and envelope.binding == "p/Counter/0"

    def test_connection_pool_reuses_and_invalidates(self):
        server = WireServer(node="w", request_handler=lambda env: None)
        endpoint = server.start()
        try:
            pool = ConnectionPool()
            client, pooled = pool.checkout(endpoint)
            assert not pooled
            pool.checkin(client)
            again, pooled = pool.checkout(endpoint)
            assert pooled and again is client
            pool.checkin(again)
            pool.invalidate(endpoint)
            fresh, pooled = pool.checkout(endpoint)
            assert not pooled
            assert pool.dials == 2 and pool.reuses == 1
            fresh.close()
            pool.close()
        finally:
            server.stop()


# ---------------------------------------------------------------------------
# federation loopback socket mode
# ---------------------------------------------------------------------------


class TestSocketFederation:
    def test_unknown_transport_mode_is_refused(self):
        # "queued" is a removed mode: asking for it must fail loudly
        for mode in ("carrier-pigeon", "queued"):
            with pytest.raises(FederationError, match="unknown transport mode"):
                Federation(transport=mode)

    def test_call_parity_with_inproc(self):
        """Same workload, both modes: identical results and routing."""
        results = {}
        for mode in ("inproc", "socket"):
            federation, names = build(transport=mode)
            try:
                values = [
                    federation.call(name, "bump", float(i))
                    for i, name in enumerate(names)
                ]
                values += [federation.call(name, "read") for name in names]
                results[mode] = (values, dict(federation.routed))
            finally:
                federation.shutdown()
        assert results["socket"] == results["inproc"]

    def test_exception_parity_with_inproc(self):
        """A servant raising a builtin degrades identically in both modes."""
        shapes = {}
        for mode in ("inproc", "socket"):
            federation, names = build(transport=mode, partitions=1)
            try:
                with pytest.raises(RemoteInvocationError) as excinfo:
                    federation.call(names[0], "boom")
                shapes[mode] = (
                    type(excinfo.value).__name__,
                    str(excinfo.value),
                    getattr(excinfo.value, "_remote_rebuilt", False),
                )
            finally:
                federation.shutdown()
        assert shapes["socket"] == shapes["inproc"]

    def test_oneway_acks_after_effect(self):
        federation, names = build()
        try:
            federation.call_oneway(names[0], "bump", 5.0)
            assert federation.quiesce(5.0)
            assert federation.call(names[0], "read") == 105.0
        finally:
            federation.shutdown()

    def test_faulted_oneway_is_metered_as_in_process(self):
        """A oneway whose delivery faults is one call and one error on
        both transports: over the wire its error REPLY comes back like
        any call's, instead of a receipt that hid the lost effect."""
        metered = {}
        for mode in ("inproc", "socket"):
            federation, names = build(transport=mode, partitions=1)
            try:
                federation.configure_fault("bus.deliver", 1.0)
                federation.call_oneway(names[0], "bump", 5.0)
                assert federation.quiesce(5.0)
                federation.configure_fault("bus.deliver", 0.0)
                bump = federation.metrics.snapshot()["operations"]["Counter.bump"]
                metered[mode] = (bump["count"], bump["errors"])
                assert federation.call(names[0], "read") == 100.0
            finally:
                federation.shutdown()
        assert metered["socket"] == metered["inproc"] == (1, 1)

    def test_async_calls_over_sockets(self):
        federation, names = build()
        try:
            futures = [
                federation.call_async(name, "bump", 1.0) for name in names
            ]
            assert [f.result(5000) for f in futures] == [101.0] * len(names)
        finally:
            federation.shutdown()

    def test_unix_domain_family(self):
        federation, names = build(socket_family="unix")
        try:
            assert federation.call(names[0], "bump", 1.0) == 101.0
            endpoint = federation._endpoints[federation.naming.owner_of(names[0])]
            assert endpoint.startswith("unix://")
        finally:
            federation.shutdown()

    def test_kill_mid_stream_fails_over_and_retries(self):
        """Dead node -> error REPLY -> NodeDownError -> promotion -> retry."""
        federation, names = build(replication=1)
        try:
            name = names[0]
            federation.call(name, "bump", 11.0)
            owner = federation.naming.owner_of(name)
            federation.kill(owner)
            # retry budget re-delivers onto the promoted standby
            assert federation.call(name, "read", qos=RETRY) == 111.0
            assert federation.failovers >= 1
            new_owner = federation.naming.owner_of(name)
            assert new_owner != owner
            # wire stats observed actual connection churn
            stats = federation._socket_transport.stats()
            assert stats["roundtrips"] > 0
        finally:
            federation.shutdown()

    def test_no_retry_budget_surfaces_node_down(self):
        federation, names = build(replication=1)
        try:
            owner = federation.naming.owner_of(names[0])
            federation.kill(owner)
            with pytest.raises(NodeDownError):
                federation.call(names[0], "read")  # zero retries
        finally:
            federation.shutdown()

    def test_interceptor_chain_runs_on_socket_hops(self):
        """Metrics, fault injection, and routing all observe wire hops."""
        federation, names = build(partitions=4)
        try:
            federation.configure_fault("federation.route", 1.0)
            with pytest.raises(Exception):
                federation.call(names[0], "read")
            federation.configure_fault("federation.route", 0.0)
            for name in names:
                federation.call(name, "read")
            assert sum(federation.routed.values()) >= len(names)
            assert federation.faults_injected().get("federation.route", 0) >= 1
            snapshot = federation.metrics.snapshot()
            assert snapshot  # hop timings recorded client-side
        finally:
            federation.shutdown()

    def test_traced_hop_spans_carry_worker_node(self):
        """A traced cross-wire call shows hop spans with the serving node."""
        federation, names = build(partitions=2)
        try:
            federation.observability.tracer.enabled = True
            name = names[0]
            owner = federation.naming.owner_of(name)
            with federation.observability.tracer.client_span(
                "client.read", "trace-1"
            ):
                federation.call(name, "read")
            spans = federation.observability.tracer.export()["spans"]
            hop_spans = [s for s in spans if s["kind"] == "hop"]
            assert hop_spans, f"no hop spans in {spans!r}"
            assert any(s["target"] == owner for s in hop_spans)
            # the hop ran over a real connection, not in-process
            assert federation._socket_transport.stats()["roundtrips"] >= 1
        finally:
            federation.shutdown()

    def test_nested_cross_node_calls_over_sockets(self):
        """A servant calling another partition mid-dispatch crosses the
        wire again from inside the server-side dispatch thread."""
        federation, names = build(partitions=4)

        class Chainer:
            def __init__(self, federation, next_name):
                self._federation = federation
                self._next = next_name

            def __getstate__(self):  # keep replication off our back
                return {}

            def relay(self, amount):
                return self._federation.call(self._next, "bump", amount)

        try:
            # bind the chainer on whatever node owns its partition
            node = federation.node_for("chain")
            module = SimpleNamespace(Counter=Counter, Chainer=Chainer)
            for member in federation.nodes.values():
                member.host(module)
            node.bind("chain/Chainer/0", Chainer(federation, names[0]))
            assert federation.call("chain/Chainer/0", "relay", 2.5) == 102.5
            assert federation.call(names[0], "read") == 102.5
        finally:
            federation.shutdown()

    def test_retired_node_endpoint_is_withdrawn(self):
        federation, names = build(partitions=6)
        try:
            victim = "node-2"
            assert victim in federation._endpoints
            federation.retire(victim)
            assert victim not in federation._endpoints
            # calls still succeed, re-routed to surviving listeners
            for name in names:
                federation.call(name, "read", qos=RETRY)
        finally:
            federation.shutdown()

    def test_joined_node_serves_moved_bindings_over_its_listener(self):
        """A node joining a socket-mode federation gets a listener like
        one added at build time, so the bindings it adopted serve."""
        federation, names = build(nodes=2, partitions=12)
        try:
            federation.join("node-j", deploy=lambda node: node.host(MODULE))
            moved = federation.last_rebalance["partitions"]
            assert moved
            assert "node-j" in federation._endpoints
            for name in names:
                if federation.naming.partition_key(name) in moved:
                    assert federation.call(name, "bump", 1.0) == 101.0
        finally:
            federation.shutdown()

    def test_refused_dial_to_a_live_node_keeps_its_retry_budget(self):
        """A pre-effect fault from a node that is still alive is not a
        failover: the fault stays retryable and the QoS budget runs out
        on it, rather than a FederationError replacing it."""
        federation, names = build(replication=1)
        try:
            owner = federation.naming.owner_of(names[0])
            del federation._endpoints[owner]  # every dial is refused
            with pytest.raises(NodeDownError) as excinfo:
                federation.call(names[0], "read", qos=QoS(retries=2))
            assert excinfo.value.pre_effect
            assert federation.failovers == 0
            assert owner in federation.nodes
        finally:
            federation.shutdown()
