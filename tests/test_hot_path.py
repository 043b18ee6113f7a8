"""The synchronous call path pays only for machinery it uses.

A synchronous call returns its value through ``Transport.call`` without
building a reply future; a repeated ring lookup and a static join
point's advice grouping each cost no per-call hash or allocation.
"""

import pytest

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
        federation.add_node("node-0").bind("p/Echo/0", Echo())
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
        federation.add_node("node-0").bind("p/Echo/0", Echo())
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
        federation.add_node("node-0").bind("p/Echo/0", servant)
        try:
            federation.faults.fail_next("federation.route", count=2)
            with pytest.raises(MiddlewareError):
                federation.call("p/Echo/0", "bump", 1)
            assert federation.call("p/Echo/0", "bump", 1, qos=QoS(retries=1)) == 1
            assert servant.value == 1
        finally:
            federation.shutdown()


class TestAdviceGroupingMemo:
    def test_static_join_point_reuses_its_lists_until_redeploy(self):
        weaver = Weaver()
        first = Aspect("first")
        first.add_advice(AdviceKind.BEFORE, "call(Account.*)", lambda j: None)
        weaver.deploy(first)
        point = JoinPoint(JoinPointKind.EXECUTION, None, "Account", "deposit")

        grouped = weaver._collect(point)
        again = weaver._collect(point)
        assert len(grouped[AdviceKind.BEFORE]) == 1
        for kind in AdviceKind:
            assert again[kind] is grouped[kind]

        second = Aspect("second")
        second.add_advice(AdviceKind.AFTER, "call(Account.*)", lambda j: None)
        weaver.deploy(second)
        deployed = weaver._collect(point)
        assert deployed[AdviceKind.BEFORE] is not grouped[AdviceKind.BEFORE]
        assert len(deployed[AdviceKind.AFTER]) == 1

        weaver.undeploy(second)
        undeployed = weaver._collect(point)
        assert undeployed[AdviceKind.BEFORE] is not deployed[AdviceKind.BEFORE]
        assert undeployed[AdviceKind.AFTER] == []


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
