"""Envelope/transport layer: futures, oneway, QoS, chains, pipelining."""

import threading

import pytest

from repro.errors import (
    InvocationTimeout,
    MiddlewareError,
    PipelineError,
    RemoteInvocationError,
    TransportError,
)
from repro.middleware import (
    DEFAULT_QOS,
    Envelope,
    InProcessTransport,
    InterceptorChain,
    MessageBus,
    Orb,
    QoS,
    QueuedTransport,
    ReplyFuture,
)
from repro.middleware.envelope import is_retryable


def make_envelope(qos=DEFAULT_QOS, **context):
    return Envelope("obj-1", "op", [], {}, dict(context), qos=qos)


# ---------------------------------------------------------------------------
# QoS + retry policy
# ---------------------------------------------------------------------------


class TestQoS:
    def test_defaults_are_synchronous_exactly_once(self):
        assert DEFAULT_QOS.oneway is False
        assert DEFAULT_QOS.retries == 0
        assert DEFAULT_QOS.timeout_ms is None

    def test_with_builds_variants(self):
        qos = DEFAULT_QOS.with_(retries=3, timeout_ms=100.0)
        assert (qos.retries, qos.timeout_ms) == (3, 100.0)
        assert DEFAULT_QOS.retries == 0  # frozen original untouched

    def test_only_bare_transport_faults_are_retryable(self):
        assert is_retryable(MiddlewareError("injected fault"))
        assert not is_retryable(RemoteInvocationError("app-level"))
        assert not is_retryable(ValueError("not ours"))

    def test_wire_rebuilt_bare_faults_are_not_retryable(self):
        # a bare MiddlewareError that crossed a servant dispatch (an
        # error outcome) means effects may exist: never re-deliver
        from repro.middleware.bus import error_from_wire, error_to_wire

        rebuilt = error_from_wire(
            error_to_wire(MiddlewareError("nested fault"), dispatched=True)
        )
        assert type(rebuilt) is MiddlewareError
        assert not is_retryable(rebuilt)

    def test_retry_never_duplicates_effects_of_nested_faults(self):
        # servant mutates state, then a nested remote call hits a
        # transport fault: the outer retry budget must NOT re-run it
        from repro.runtime import Federation

        federation = Federation(seed=0)
        node = federation.join("node-x")
        key = next(
            f"k{i}" for i in range(100)
            if federation.node_for(f"k{i}").name == "node-x"
        )
        orb = node.services.orb

        class Inner:
            def ping(self):
                return "pong"

        faults = node.services.faults

        class Outer:
            def __init__(self):
                self.effects = 0

            def act(self):
                self.effects += 1  # effect BEFORE the nested hop
                faults.fail_next("bus.deliver")  # kill only the nested hop
                return orb.proxy("inner").ping()

        outer = Outer()
        node.bind(f"{key}/Outer/0", outer)
        orb.register(Inner(), name="inner")
        try:
            future = federation.call_async(
                f"{key}/Outer/0", "act", qos=QoS(retries=3)
            )
            # the outer delivery reaches the servant (effect applied),
            # then the *nested* hop faults — the error comes back
            # wire-rebuilt and must NOT consume the retry budget
            with pytest.raises(MiddlewareError):
                future.result(timeout_ms=5000)
            assert outer.effects == 1
        finally:
            federation.shutdown()


# ---------------------------------------------------------------------------
# ReplyFuture
# ---------------------------------------------------------------------------


class TestReplyFuture:
    def test_result_waits_for_completion(self):
        future = ReplyFuture()
        threading.Timer(0.02, lambda: future._complete(41)).start()
        assert future.result(timeout_ms=5000) == 41
        assert future.done()

    def test_timeout_raises_invocation_timeout(self):
        future = ReplyFuture(make_envelope())
        with pytest.raises(InvocationTimeout):
            future.result(timeout_ms=10)

    def test_qos_timeout_is_the_default(self):
        future = ReplyFuture(make_envelope(qos=QoS(timeout_ms=10.0)))
        with pytest.raises(InvocationTimeout):
            future.result()

    def test_failure_re_raised(self):
        future = ReplyFuture()
        future._fail(MiddlewareError("boom"))
        with pytest.raises(MiddlewareError, match="boom"):
            future.result(timeout_ms=100)

    def test_done_callback_fires_once_even_if_registered_late(self):
        future = ReplyFuture()
        seen = []
        future.add_done_callback(lambda f: seen.append("early"))
        future._complete("x")
        future.add_done_callback(lambda f: seen.append("late"))
        assert seen == ["early", "late"]

    def test_double_completion_keeps_first_value(self):
        future = ReplyFuture()
        future._complete(1)
        future._complete(2)
        future._fail(MiddlewareError("ignored"))
        assert future.result(timeout_ms=100) == 1


# ---------------------------------------------------------------------------
# InterceptorChain
# ---------------------------------------------------------------------------


class TestInterceptorChain:
    def test_elements_run_in_order_around_terminal(self):
        chain = InterceptorChain()
        trace = []

        def element(tag):
            def run(envelope, next):
                trace.append(f"{tag}>")
                value = next(envelope)
                trace.append(f"<{tag}")
                return value

            return run

        chain.add("outer", element("a")).add("inner", element("b"))
        envelope = make_envelope()

        def terminal(delivered):
            trace.append("T")
            return "r" if delivered is envelope else "another envelope"

        assert chain.execute(envelope, terminal) == "r"
        assert trace == ["a>", "b>", "T", "<b", "<a"]

    def test_before_after_placement(self):
        chain = InterceptorChain()
        chain.add("b", lambda e, p: p(e))
        chain.add("a", lambda e, p: p(e), before="b")
        chain.add("c", lambda e, p: p(e), after="b")
        assert chain.names() == ["a", "b", "c"]

    def test_duplicate_and_unknown_names_rejected(self):
        chain = InterceptorChain()
        chain.add("x", lambda e, p: p(e))
        with pytest.raises(PipelineError, match="already"):
            chain.add("x", lambda e, p: p(e))
        with pytest.raises(PipelineError, match="no interceptor"):
            chain.remove("ghost")

    def test_remove_returns_element(self):
        chain = InterceptorChain()
        marker = lambda e, p: p(e)  # noqa: E731
        chain.add("x", marker)
        assert chain.remove("x") is marker
        assert not chain.has("x")

    def test_element_can_short_circuit(self):
        chain = InterceptorChain()
        chain.add("gate", lambda e, p: "cached")
        assert chain.execute(make_envelope(), lambda e: "never") == "cached"

    def test_edits_apply_from_the_next_execute(self):
        chain = InterceptorChain()
        seen = []

        def tag(name):
            def run(envelope, next):
                seen.append(name)
                return next(envelope)

            return run

        def run_once():
            seen.clear()
            assert chain.execute(make_envelope(), lambda e: "r") == "r"
            return list(seen)

        assert run_once() == []
        chain.add("b", tag("b"))
        assert run_once() == ["b"]
        chain.add("a", tag("a"), before="b")
        chain.add("d", tag("d"))
        chain.add("c", tag("c"), after="b")
        assert run_once() == ["a", "b", "c", "d"]
        chain.remove("b")
        assert run_once() == ["a", "c", "d"]
        chain.remove("a")
        chain.remove("d")
        chain.add("e", tag("e"), before="c")
        assert run_once() == ["e", "c"]
        chain.remove("c")
        chain.remove("e")
        assert run_once() == []

    def test_in_flight_execute_finishes_on_its_pipeline(self):
        chain = InterceptorChain()
        entered, edited = threading.Event(), threading.Event()
        seen = []

        def first(envelope, next):
            seen.append("first")
            entered.set()
            assert edited.wait(5.0)
            return next(envelope)

        def second(envelope, next):
            seen.append("second")
            return next(envelope)

        def inserted(envelope, next):
            seen.append("inserted")
            return next(envelope)

        chain.add("first", first).add("second", second)
        results = []
        caller = threading.Thread(
            target=lambda: results.append(
                chain.execute(make_envelope(), lambda e: "done")
            )
        )
        caller.start()
        try:
            assert entered.wait(5.0)
            # edited while the call sits inside "first": removing what
            # it has not reached yet, and adding before it, must not
            # change the pipeline that call runs on
            chain.remove("second")
            chain.add("inserted", inserted, before="first")
        finally:
            edited.set()
            caller.join(5.0)
        assert results == ["done"]
        assert seen == ["first", "second"]
        seen.clear()
        assert chain.execute(make_envelope(), lambda e: "again") == "again"
        assert seen == ["inserted", "first"]


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------


class TestTransports:
    def test_in_process_runs_on_caller_thread(self):
        transport = InProcessTransport()
        caller = threading.current_thread().name
        future = transport.submit(
            make_envelope(), lambda env: threading.current_thread().name
        )
        assert future.result(timeout_ms=100) == caller

    def test_queued_runs_on_delivery_thread(self):
        transport = QueuedTransport(workers=1, name="t")
        try:
            future = transport.submit(
                make_envelope(), lambda env: threading.current_thread().name
            )
            name = future.result(timeout_ms=5000)
            assert name != threading.current_thread().name
            assert name.startswith("deliver-t")
        finally:
            transport.shutdown()

    def test_queued_preserves_fifo_order_with_one_worker(self):
        transport = QueuedTransport(workers=1)
        seen = []
        try:
            futures = [
                transport.submit(make_envelope(), lambda env, i=i: seen.append(i))
                for i in range(10)
            ]
            for future in futures:
                future.result(timeout_ms=5000)
            assert seen == list(range(10))
        finally:
            transport.shutdown()

    def test_drain_waits_for_in_flight_deliveries(self):
        transport = QueuedTransport(workers=2)
        gate = threading.Event()
        try:
            transport.submit(make_envelope(), lambda env: gate.wait(5))
            assert not transport.drain(timeout_s=0.05)
            gate.set()
            assert transport.drain(timeout_s=5)
            assert transport.stats()["delivered"] == 1
        finally:
            transport.shutdown()

    def test_shutdown_rejects_new_submissions(self):
        transport = QueuedTransport(workers=1)
        transport.shutdown()
        with pytest.raises(TransportError, match="shut down"):
            transport.submit(make_envelope(), lambda env: None)

    def test_retry_budget_retries_bare_transport_faults(self):
        transport = InProcessTransport()
        attempts = []

        def flaky(env):
            attempts.append(env.attempt)
            if len(attempts) < 3:
                raise MiddlewareError("injected fault")
            return "ok"

        future = transport.submit(make_envelope(qos=QoS(retries=2)), flaky)
        assert future.result(timeout_ms=100) == "ok"
        assert attempts == [0, 1, 2]

    def test_retry_budget_exhaustion_surfaces_fault(self):
        transport = InProcessTransport()

        def always_fails(env):
            raise MiddlewareError("injected fault")

        future = transport.submit(make_envelope(qos=QoS(retries=1)), always_fails)
        with pytest.raises(MiddlewareError):
            future.result(timeout_ms=100)

    def test_application_errors_never_retried(self):
        transport = InProcessTransport()
        attempts = []

        def app_error(env):
            attempts.append(1)
            raise RemoteInvocationError("no such operation")

        future = transport.submit(make_envelope(qos=QoS(retries=5)), app_error)
        with pytest.raises(RemoteInvocationError):
            future.result(timeout_ms=100)
        assert len(attempts) == 1


# ---------------------------------------------------------------------------
# Bus + ORB on the envelope path
# ---------------------------------------------------------------------------


class TestBusEnvelopePath:
    def test_bus_chain_has_the_unified_elements(self):
        orb = Orb()
        assert orb.bus.chain.names() == ["faults", "latency", "stats"]

    def test_client_interceptors_run_once_per_logical_call_caller_thread(self):
        orb = Orb()

        class S:
            def op(self):
                return "ok"

        orb.register(S(), name="s")
        seen = []
        orb.client_interceptors.append(
            lambda req: seen.append(threading.current_thread().name)
        )
        proxy = orb.proxy("s")
        orb.bus.faults.fail_next("bus.deliver")
        with pytest.raises(MiddlewareError):
            proxy.op()
        assert proxy.op() == "ok"
        # a faulted call and a delivered one: one interceptor run each,
        # both on the issuing thread
        assert seen == [threading.current_thread().name] * 2

    def test_client_interceptors_do_not_cross_orbs_on_a_shared_bus(self):
        bus = MessageBus()
        orb_a = Orb(bus)
        orb_b = Orb(bus)

        class S:
            def op(self):
                return "ok"

        servant = S()
        ref = orb_a.register(servant)
        orb_b._refs_by_identity[id(servant)] = ref  # share the servant
        tagged = []
        orb_a.client_interceptors.append(lambda req: tagged.append("a"))
        orb_b.invoke(ref, "op", (), {})
        assert tagged == []  # b's calls never run a's interceptors
        orb_a.invoke(ref, "op", (), {})
        assert tagged == ["a"]

    def test_latency_charged_per_delivery_two_hops(self):
        orb = Orb()

        class S:
            def op(self):
                return 1

        orb.register(S(), name="s")
        before = orb.bus.clock.now()
        orb.proxy("s").op()
        assert orb.bus.clock.now() == before + 2 * orb.bus.latency_ms

    def test_transport_fault_raises_while_servant_error_is_wire_error(self):
        orb = Orb()

        class S:
            def op(self):
                raise ValueError("app boom")

        orb.register(S(), name="s")
        proxy = orb.proxy("s")
        with pytest.raises(RemoteInvocationError, match="app boom"):
            proxy.op()
        orb.bus.faults.fail_next("bus.deliver")
        with pytest.raises(MiddlewareError):
            proxy.op()


# ---------------------------------------------------------------------------
# Federation pipelining
# ---------------------------------------------------------------------------


class _PipelineCases:
    """Pipelined batches, run by one subclass per transport."""

    transport = "inproc"
    #: wire round trips one batch costs
    roundtrips_per_batch = 0
    #: the thread an asynchronous call's servant runs on
    serving_thread = "deliver-"

    def _federation(self):
        from repro.runtime import Federation

        federation = Federation(seed=3, transport=self.transport)
        federation.join("node-0", workers=2)
        federation.join("node-1", workers=2)

        class Counter:
            def __init__(self):
                self.value = 0

            def add(self, n):
                self.value += n
                return self.value

        servants = {}
        for k in range(6):
            partition = f"c-{k}"
            node = federation.node_for(partition)
            name = f"{partition}/Counter/0"
            servant = Counter()
            node.bind(name, servant)
            servants[name] = servant
        return federation, servants

    def test_nested_async_from_servant_cannot_deadlock(self):
        # a servant blocking on a nested async future must not queue it
        # behind the single delivery thread its own call holds: a
        # submission made while the delivery stack is non-empty delivers
        # inline (over sockets the servant runs on a listener thread)
        from repro.runtime import Federation

        federation = Federation(seed=0, delivery_workers=1, transport=self.transport)
        node = federation.join("node-x", workers=1)
        key = next(
            f"k{i}" for i in range(100)
            if federation.node_for(f"k{i}").name == "node-x"
        )
        ran_on = []

        class Probe:
            def who(self):
                return "inner"

        class Relay:
            def relay(self):
                ran_on.append(threading.current_thread().name)
                return federation.call_async(f"{key}/Probe/0", "who").result(
                    timeout_ms=5000
                )

        node.bind(f"{key}/Relay/0", Relay())
        node.bind(f"{key}/Probe/0", Probe())
        outer = federation.call_async(f"{key}/Relay/0", "relay")
        try:
            assert outer.result(timeout_ms=10_000) == "inner"
            assert ran_on[0].startswith(self.serving_thread)
        finally:
            federation.shutdown()

    @staticmethod
    def _roundtrips(federation):
        if federation._socket_transport is None:
            return 0
        return federation._socket_transport.stats()["roundtrips"]

    def test_batch_pays_one_route_check_per_node_group(self):
        federation, servants = self._federation()
        try:
            # grouping is by *consecutive* target node: order by owner so
            # each node's calls collapse into a single batch
            ordered = sorted(
                servants, key=lambda n: (federation.node_for(n).name, n)
            )
            with federation.pipeline(max_batch=16) as pipe:
                futures = [pipe.call(name, "add", 1) for name in ordered]
            for future in futures:
                assert future.result(timeout_ms=5000) == 1
            # 6 calls collapsed into one batch per distinct node
            n_nodes_used = len(
                {federation.node_for(name).name for name in servants}
            )
            assert sum(federation.batches.values()) == n_nodes_used
            assert all(s.value == 1 for s in servants.values())
            assert self._roundtrips(federation) == n_nodes_used * self.roundtrips_per_batch
        finally:
            federation.shutdown()

    def test_auto_flush_at_max_batch(self):
        federation, servants = self._federation()
        try:
            names = sorted(servants)
            one_node = [n for n in names if federation.node_for(n) is federation.node_for(names[0])]
            pipe = federation.pipeline(max_batch=1)
            future = pipe.call(one_node[0], "add", 5)
            # max_batch=1 flushes inside call(): no explicit flush needed
            assert future.result(timeout_ms=5000) == 5
            assert self._roundtrips(federation) == self.roundtrips_per_batch
        finally:
            federation.shutdown()

    def test_batch_transport_fault_fails_every_member(self):
        federation, servants = self._federation()
        try:
            names = sorted(servants)
            target_node = federation.node_for(names[0])
            group = [n for n in names if federation.node_for(n) is target_node]
            federation.faults.fail_next("federation.route")
            pipe = federation.pipeline(max_batch=len(group))
            futures = [pipe.call(name, "add", 1) for name in group]
            pipe.flush()
            for future in futures:
                with pytest.raises(MiddlewareError):
                    future.result(timeout_ms=5000)
            assert all(servants[name].value == 0 for name in group)
            assert self._roundtrips(federation) == 0
        finally:
            federation.shutdown()

    def test_member_error_does_not_poison_the_batch(self):
        federation, servants = self._federation()
        try:
            names = sorted(servants)
            target_node = federation.node_for(names[0])
            group = [n for n in names if federation.node_for(n) is target_node]
            assert len(group) >= 2
            pipe = federation.pipeline(max_batch=len(group) + 1)
            bad = pipe.call(group[0], "no_such_operation")
            good = pipe.call(group[1], "add", 3)
            pipe.flush()
            with pytest.raises(RemoteInvocationError, match="no_such_operation"):
                bad.result(timeout_ms=5000)
            assert good.result(timeout_ms=5000) == 3
            assert self._roundtrips(federation) == self.roundtrips_per_batch
        finally:
            federation.shutdown()


class TestFederationPipeline(_PipelineCases):
    """The batches in process, delivered by the queued transport."""


class TestSocketFederationPipeline(_PipelineCases):
    """The same batches over real sockets: one REQUEST frame each."""

    transport = "socket"
    roundtrips_per_batch = 1
    serving_thread = "wire-serve-"

    def test_lost_batch_reply_never_reruns_a_member(self, monkeypatch):
        """A batch reply lost after its members ran, on a node still
        alive, is mid-call for every member: none is re-sent, even with
        a retry budget, so each effect happens once."""
        from repro.errors import NodeDownError
        from repro.middleware.sockets import WireServer
        from repro.middleware.wire import REQUEST

        serve_frame = WireServer._serve_frame

        def serve_without_reply(server, conn, kind, payload):
            if kind != REQUEST:
                return serve_frame(server, conn, kind, payload)
            server.request_handler(Envelope.from_wire(payload[1]))
            return True  # hang up instead of replying

        federation, servants = self._federation()
        try:
            names = sorted(servants)
            group = [n for n in names if federation.node_for(n) is federation.node_for(names[0])]
            monkeypatch.setattr(WireServer, "_serve_frame", serve_without_reply)
            pipe = federation.pipeline(max_batch=len(group), qos=QoS(retries=3))
            futures = [pipe.call(name, "add", 1) for name in group]
            for future in futures:
                with pytest.raises(NodeDownError) as caught:
                    future.result(timeout_ms=5000)
                assert caught.value.mid_call and not caught.value.pre_effect
            assert all(servants[name].value == 1 for name in group)
        finally:
            federation.shutdown()

    def test_short_batch_reply_fails_loudly(self, monkeypatch):
        """A batch reply with fewer outcomes than calls fails every
        member with a protocol error instead of leaving one unsettled."""
        from repro.errors import ProtocolError

        federation, servants = self._federation()
        try:
            names = sorted(servants)
            node = federation.node_for(names[0])
            group = [n for n in names if federation.node_for(n) is node]
            invoke_batch = node.invoke_batch
            monkeypatch.setattr(
                node, "invoke_batch", lambda calls, context: invoke_batch(calls, context)[1:]
            )
            pipe = federation.pipeline(max_batch=len(group))
            futures = [pipe.call(name, "add", 1) for name in group]
            for future in futures:
                with pytest.raises(ProtocolError, match="outcomes"):
                    future.result(timeout_ms=5000)
        finally:
            federation.shutdown()

    @pytest.mark.parametrize(
        "malformed",
        [lambda n: [[1, 2]] * n, lambda n: [7] * n, lambda n: 5],
        ids=["a-pair-per-member", "an-int-per-member", "an-int"],
    )
    def test_malformed_batch_reply_fails_every_member_as_a_protocol_error(
        self, monkeypatch, malformed
    ):
        """A batch reply that is not one ``{"result": ...}`` or
        ``{"error": ...}`` outcome per member fails every member with a
        protocol error naming the node, never a bare builtin error, and
        re-sends none: the peer really ran the batch, and each effect
        happened once."""
        from repro.errors import ProtocolError

        federation, servants = self._federation()
        try:
            names = sorted(servants)
            node = federation.node_for(names[0])
            group = [n for n in names if federation.node_for(n) is node]
            transport = federation._socket_transport
            roundtrip = transport.roundtrip

            def replaced(node_name, envelope):
                return malformed(len(roundtrip(node_name, envelope)))

            monkeypatch.setattr(transport, "roundtrip", replaced)
            pipe = federation.pipeline(max_batch=len(group), qos=QoS(retries=3))
            futures = [pipe.call(name, "add", 1) for name in group]
            for future in futures:
                with pytest.raises(ProtocolError, match=f"batch reply from {node.name!r}"):
                    future.result(timeout_ms=5000)
            assert [servants[name].value for name in group] == [1] * len(group)
        finally:
            federation.shutdown()


# ---------------------------------------------------------------------------
# banking_async scenario wiring
# ---------------------------------------------------------------------------


class TestAsyncScenario:
    def test_registered_and_described(self):
        from repro.runtime import SCENARIOS

        assert "banking_async" in SCENARIOS
        assert "oneway" in SCENARIOS["banking_async"].description

    def test_invariants_hold_with_and_without_faults(self):
        from repro.runtime import run_scenario

        quiet = run_scenario(
            "banking_async", nodes=2, clients=3, ops=60, seed=5, workers=2
        )
        assert quiet.passed, quiet.invariant_violations
        faulted = run_scenario(
            "banking_async", nodes=2, clients=3, ops=60, seed=5, workers=2, faults=True
        )
        assert faulted.passed, faulted.invariant_violations
        assert faulted.faults_injected, "campaign should have injected something"

    def test_sequential_mode_also_settles(self):
        from repro.runtime import run_scenario

        result = run_scenario(
            "banking_async",
            nodes=2,
            clients=2,
            ops=40,
            seed=9,
            concurrent=False,
            window=2,
        )
        assert result.passed, result.invariant_violations
