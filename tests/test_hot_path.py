"""The synchronous call path pays only for machinery it uses.

A synchronous call returns its value through ``Transport.call`` without
building a reply future and without opening a generator context
manager; a repeated ring lookup and a static join point's advice plan
each cost no per-call hash or allocation, and the whole warmed call
stays under a recorded ceiling of Python-level calls.
"""

import contextlib
import os
import sys

import pytest

import repro

from repro.aop import AdviceKind, Aspect, JoinPoint, JoinPointKind, Weaver
from repro.errors import MiddlewareError, RemoteInvocationError
from repro.middleware import Orb, QoS, ReplyFuture
from repro.runtime import Federation, FederationClient
from repro.runtime.federation import HashRing, ShardedNamingService


@pytest.fixture
def future_count(monkeypatch):
    """How many ReplyFutures were constructed since the fixture started."""
    built = []
    original = ReplyFuture.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(ReplyFuture, "__init__", counting_init)
    return lambda: len(built)


class Echo:
    def __init__(self):
        self.value = 0

    def bump(self, n):
        self.value += n
        return self.value

    def fail(self):
        raise ValueError("servant boom")


class TestNoReplyFutureOnSynchronousCalls:
    def test_routed_call_builds_no_future(self, future_count):
        federation = Federation(seed=0)
        federation.join("node-0").bind("p/Echo/0", Echo())
        client = FederationClient(federation)
        try:
            assert client.call("p/Echo/0", "bump", 2) == 2
            assert client.call("p/Echo/0", "bump", 3) == 5
            assert future_count() == 0
        finally:
            federation.shutdown()

    def test_bus_deliver_builds_no_future(self, future_count):
        orb = Orb()
        orb.register(Echo(), name="echo")
        assert orb.proxy("echo").bump(4) == 4
        assert orb.bus.messages_delivered == 1
        assert future_count() == 0

    def test_call_async_still_returns_a_future_that_reraises(self, future_count):
        federation = Federation(seed=0)
        federation.join("node-0").bind("p/Echo/0", Echo())
        client = FederationClient(federation)
        try:
            future = client.call_async("p/Echo/0", "fail")
            assert isinstance(future, ReplyFuture)
            with pytest.raises(RemoteInvocationError, match="servant boom"):
                future.result(timeout_ms=5000)
            assert future_count() >= 1
        finally:
            federation.shutdown()

    def test_synchronous_retry_budget_still_applies(self):
        federation = Federation(seed=0)
        servant = Echo()
        federation.join("node-0").bind("p/Echo/0", servant)
        try:
            federation.faults.fail_next("federation.route", count=2)
            with pytest.raises(MiddlewareError):
                federation.call("p/Echo/0", "bump", 1)
            assert federation.call("p/Echo/0", "bump", 1, qos=QoS(retries=1)) == 1
            assert servant.value == 1
        finally:
            federation.shutdown()


def _echo_federation(user=None):
    """The benchmark's echo shape: a ``Counter`` woven with the
    distribution concern, 2 serial nodes, 4 single-servant partitions,
    no injected latency anywhere, warmed up.  Returns ``(federation,
    call)``, ``call(i)`` bumping Counter ``i % 4`` through a client."""
    from repro.deploy import DeploymentCompiler, register_application
    from repro.deploy.spec import (
        ApplicationSpec,
        ConcernSpec,
        DeploymentSpec,
        NodeSpec,
        PartitionSpec,
        ServantSpec,
        UserSpec,
    )
    from repro.uml import (
        add_attribute,
        add_class,
        add_operation,
        add_package,
        apply_stereotype,
        ensure_primitives,
        new_model,
    )

    def build_counter_pim():
        resource, model = new_model("counter")
        prims = ensure_primitives(model)
        counter = add_class(add_package(model, "echo"), "Counter")
        add_attribute(counter, "value", prims["Real"])
        bump = add_operation(
            counter, "bump", [("amount", prims["Real"])], return_type=prims["Real"]
        )
        apply_stereotype(
            bump, "PythonBody", body="self.value += amount\nreturn self.value"
        )
        return resource

    register_application("test:hot-path-counter", build_counter_pim)
    names = [f"counter-{k}/Counter/0" for k in range(4)]
    spec = DeploymentSpec(
        name="hot-path-echo",
        application=ApplicationSpec(
            name="counter",
            builder="test:hot-path-counter",
            concerns=(
                ConcernSpec(
                    concern="distribution",
                    params={"server_classes": ["Counter"], "registry_prefix": "echo"},
                ),
            ),
        ),
        nodes=(NodeSpec(name="node-0"), NodeSpec(name="node-1")),
        partitions=tuple(
            PartitionSpec(
                key=name.split("/")[0],
                servants=(ServantSpec(name=name, type_name="Counter", state={"value": 0.0}),),
            )
            for name in names
        ),
        users=() if user is None else (UserSpec(name=user, password="pw"),),
        sim_latency_ms=0.0,
        real_latency_ms=0.0,
        seed=1,
    )
    federation = DeploymentCompiler().deploy(spec)
    for node in federation.nodes.values():
        node.services.bus.latency_ms = 0.0
    client = FederationClient(federation, user, None if user is None else "pw")

    def call(i):
        return client.call(names[i % 4], "bump", 1.0)

    for i in range(64):
        call(i)
    return federation, call


class TestNoGeneratorContextManagers:
    def test_warmed_routed_call_opens_none(self, monkeypatch):
        # with credentials, so the node also re-establishes the caller's
        # ORB call context around the servant
        federation, call = _echo_federation(user="alice")
        opened = []
        original = contextlib._GeneratorContextManager.__init__

        def counting_init(self, *args, **kwargs):
            opened.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(
            contextlib._GeneratorContextManager, "__init__", counting_init
        )
        try:
            for i in range(20):
                assert call(i) == 16.0 + (i // 4 + 1)
            assert opened == []
        finally:
            federation.shutdown()


class TestCallCountCeiling:
    #: Python-level calls inside ``src/repro`` per warmed echo call;
    #: raise it only with a reason (the call path is meant to shrink)
    CEILING = 129

    def test_warmed_echo_call_stays_under_the_ceiling(self):
        federation, call = _echo_federation()
        root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        # the lock witness (REPRO_LOCK_WITNESS) is instrumentation, not
        # part of the call path
        witness = os.path.join(root, "analysis") + os.sep
        counted = [0]

        def profile(frame, event, arg):
            if event == "call":
                path = frame.f_code.co_filename
                if path.startswith(root) and not path.startswith(witness):
                    counted[0] += 1

        calls = 200
        try:
            sys.setprofile(profile)
            try:
                for i in range(calls):
                    call(i)
            finally:
                sys.setprofile(None)
        finally:
            federation.shutdown()
        assert counted[0] / calls <= self.CEILING


class TestAdviceGroupingMemo:
    def test_static_join_point_reuses_its_lists_until_redeploy(self):
        weaver = Weaver()
        first = Aspect("first")
        first.add_advice(AdviceKind.BEFORE, "call(Account.*)", lambda j: None)
        weaver.deploy(first)
        point = JoinPoint(JoinPointKind.EXECUTION, None, "Account", "deposit")

        plan = weaver._plan(point)
        assert len(plan.before) == 1
        assert weaver._plan(point) is plan

        second = Aspect("second")
        second.add_advice(AdviceKind.AFTER, "call(Account.*)", lambda j: None)
        weaver.deploy(second)
        deployed = weaver._plan(point)
        assert deployed is not plan
        assert deployed.before == plan.before
        assert len(deployed.after) == 1
        assert weaver._plan(point) is deployed

        weaver.undeploy(second)
        undeployed = weaver._plan(point)
        assert undeployed is not deployed
        assert undeployed.before == plan.before
        assert undeployed.after == ()

        weaver.undeploy(first)
        assert weaver._plan(point) is None

    def test_warmed_plan_makes_no_python_level_call(self):
        # the memo key hashes in C: no Enum.__hash__ frame per dispatch
        weaver = Weaver()
        aspect = Aspect("only")
        aspect.add_advice(AdviceKind.BEFORE, "call(Account.*)", lambda j: None)
        weaver.deploy(aspect)
        point = JoinPoint(JoinPointKind.EXECUTION, None, "Account", "deposit")
        plan = weaver._plan(point)
        # the lock witness (REPRO_LOCK_WITNESS) is instrumentation
        witness = os.path.join(os.path.dirname(os.path.abspath(repro.__file__)), "analysis")
        called = []

        def profile(frame, event, arg):
            if event == "call" and not frame.f_code.co_filename.startswith(witness):
                called.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            warmed = weaver._plan(point)
        finally:
            sys.setprofile(None)
        assert warmed is plan
        assert called == ["_plan"]


class TestRingOwnerCache:
    def test_owner_hashes_a_key_once_until_membership_changes(self, monkeypatch):
        ring = HashRing(replicas=8)
        ring.add("a")
        ring.add("b")
        hashed = []
        original = HashRing._hash

        def counting_hash(value):
            hashed.append(value)
            return original(value)

        monkeypatch.setattr(HashRing, "_hash", staticmethod(counting_hash))
        owner = ring.owner("branch-1")
        assert [ring.owner("branch-1") for _ in range(5)] == [owner] * 5
        assert hashed.count("branch-1") == 1

        ring.add("c")
        fresh = HashRing(replicas=8)
        for member in ("a", "b", "c"):
            fresh.add(member)
        assert ring.owner("branch-1") == fresh.owner("branch-1")
        hashed.clear()
        ring.owner("branch-1")
        assert hashed == []

        ring.remove(fresh.owner("branch-1"))
        assert ring.owner("branch-1") != fresh.owner("branch-1")
        assert hashed.count("branch-1") == 1

    def test_published_ring_is_never_mutated(self):
        naming = ShardedNamingService(replicas=8)
        naming.add_shard("a")
        published = naming.ring
        naming.add_shard("b")
        naming.remove_shard("a")
        assert published.members == ["a"]
        assert naming.ring.members == ["b"]
