"""Elastic federation: live join/leave, shard migration, replicated failover."""

import threading
import time

import pytest

from repro.errors import FederationError, NodeDownError
from repro.middleware.envelope import QoS
from repro.middleware.transport import InProcessTransport
from repro.runtime import (
    Federation,
    HashRing,
    ReplicaManager,
    RunConfig,
    ScenarioRunner,
    ShardedNamingService,
)


class Counter:
    """Minimal stateful servant for migration tests."""

    def __init__(self, value=0.0):
        self.value = value

    def bump(self, amount):
        self.value += amount
        return self.value

    def read(self):
        return self.value


MODULE = type("ElasticTestModule", (), {"Counter": Counter})

RETRY = QoS(retries=2)


def build(nodes=3, partitions=12, replication=0):
    federation = Federation(latency_ms=0.0)
    for i in range(nodes):
        federation.join(f"node-{i}").module = MODULE
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


def deploy_module(node):
    node.module = MODULE


# ---------------------------------------------------------------------------
# ring rehash edge cases
# ---------------------------------------------------------------------------


class TestRingRehash:
    def test_owner_stability_after_join(self):
        """>= (n-1)/n of the keys keep their owner when a member joins."""
        ring = HashRing()
        members = ["a", "b", "c", "d"]
        for member in members:
            ring.add(member)
        keys = [f"key-{i}" for i in range(400)]
        before = {key: ring.owner(key) for key in keys}
        ring.add("e")
        moved = sum(1 for key in keys if ring.owner(key) != before[key])
        n = len(members)
        assert moved / len(keys) <= 1.0 / n, (
            f"{moved}/{len(keys)} keys moved; consistent hashing promises "
            f"at most ~1/{n + 1}"
        )
        # and every moved key moved TO the joiner, never between old members
        assert all(
            ring.owner(key) == "e" for key in keys if ring.owner(key) != before[key]
        )

    def test_preference_starts_at_owner_and_is_distinct(self):
        ring = HashRing()
        for member in ("a", "b", "c"):
            ring.add(member)
        preference = ring.preference("some-key", 3)
        assert preference[0] == ring.owner("some-key")
        assert len(preference) == len(set(preference)) == 3

    def test_preference_caps_at_member_count(self):
        ring = HashRing()
        ring.add("solo")
        assert ring.preference("k", 5) == ["solo"]

    def test_retiring_the_last_node_raises_cleanly(self):
        federation, _ = build(nodes=1, partitions=2)
        with pytest.raises(FederationError, match="last node"):
            federation.retire("node-0")
        # the federation is untouched by the refused retire
        assert sorted(federation.nodes) == ["node-0"]
        assert federation.naming.shard_names == ["node-0"]
        federation.shutdown()

    def test_rejoining_a_retired_node_name(self):
        federation, names = build(nodes=3)
        federation.retire("node-1")
        assert "node-1" not in federation.nodes
        rejoined = federation.join("node-1", deploy=deploy_module)
        assert federation.nodes["node-1"] is rejoined
        # ownership is hash-determined, so the rejoined name owns exactly
        # the partitions it owned before it retired
        for name in names:
            assert federation.call(name, "read") == 100.0
        federation.shutdown()

    def test_epoch_bumps_once_per_swap(self):
        service = ShardedNamingService()
        assert service.epoch == 0
        service.add_shard("a")
        service.add_shard("b")
        assert service.epoch == 2
        service.remove_shard("a")
        assert service.epoch == 3

    def test_preview_ring_does_not_change_ownership(self):
        service = ShardedNamingService()
        for shard in ("a", "b", "c"):
            service.add_shard(shard)
        epoch = service.epoch
        preview = service.preview_ring(add="d")
        assert "d" in preview.members
        assert service.epoch == epoch
        assert "d" not in service.ring.members


# ---------------------------------------------------------------------------
# join: live shard migration
# ---------------------------------------------------------------------------


class TestJoin:
    def test_join_moves_only_rehashed_bindings(self):
        federation, names = build()
        owners_before = {name: federation.naming.owner_of(name) for name in names}
        federation.join("node-3", deploy=deploy_module)
        moved = [
            name
            for name in names
            if federation.naming.owner_of(name) != owners_before[name]
        ]
        assert federation.last_rebalance["moved"] == len(moved)
        assert federation.last_rebalance["total"] == len(names)
        assert 0 < len(moved) < len(names)
        assert all(
            federation.naming.owner_of(name) == "node-3" for name in moved
        )
        federation.shutdown()

    def test_join_preserves_servant_state(self):
        federation, names = build()
        for name in names:
            federation.call(name, "bump", 7.0)
        federation.join("node-3", deploy=deploy_module)
        assert all(federation.call(name, "read") == 107.0 for name in names)
        federation.shutdown()

    def test_migrated_servant_is_an_instance_of_the_new_nodes_module(self):
        federation, names = build()
        federation.join("node-3", deploy=deploy_module)
        moved = [n for n in names if federation.naming.owner_of(n) == "node-3"]
        assert moved
        servant = federation.servant(moved[0])
        assert type(servant).__name__ == "Counter"
        # the old owner no longer holds the binding or the servant
        for node in federation.nodes.values():
            if node.name == "node-3":
                continue
            assert moved[0] not in node.services.naming.list()
        federation.shutdown()

    def test_join_without_application_fails_when_bindings_move(self):
        federation, _ = build()
        with pytest.raises(FederationError, match="no application deployed"):
            federation.join("node-3")
        # the failed join leaves the topology untouched
        assert "node-3" not in federation.nodes
        assert "node-3" not in federation.naming.shard_names
        federation.shutdown()

    def test_duplicate_join_rejected(self):
        federation, _ = build()
        with pytest.raises(FederationError, match="already exists"):
            federation.join("node-0")
        federation.shutdown()

    def test_join_provisions_existing_users(self):
        federation, _ = build()
        federation.add_user("alice", "pw", roles=["teller"])
        node = federation.join("node-3", deploy=deploy_module)
        credential = node.services.auth.login("alice", "pw")
        assert credential.token
        federation.shutdown()


# ---------------------------------------------------------------------------
# retire: graceful leave
# ---------------------------------------------------------------------------


class TestRetire:
    def test_retire_migrates_the_whole_shard(self):
        federation, names = build()
        for name in names:
            federation.call(name, "bump", 1.5)
        moved_names = [
            name for name in names if federation.naming.owner_of(name) == "node-1"
        ]
        summary = federation.retire("node-1")
        assert summary["moved"] == len(moved_names)
        assert "node-1" not in federation.nodes
        assert "node-1" not in federation.naming.shard_names
        assert all(federation.call(name, "read") == 101.5 for name in names)
        federation.shutdown()

    def test_retire_unknown_node(self):
        federation, _ = build()
        with pytest.raises(FederationError, match="unknown node"):
            federation.retire("ghost")
        federation.shutdown()

    def test_retire_dead_node_refused(self):
        federation, _ = build(replication=1)
        federation.kill("node-1")
        with pytest.raises(FederationError, match="fail_over"):
            federation.retire("node-1")
        federation.shutdown()

    def test_concurrent_traffic_survives_a_retire(self):
        federation, names = build(nodes=4, partitions=16)
        stop = threading.Event()
        errors = []

        def hammer():
            i = 0
            while not stop.is_set():
                try:
                    federation.call(names[i % len(names)], "bump", 1.0, qos=RETRY)
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    errors.append(exc)
                    return
                i += 1

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        federation.retire("node-2")
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors, errors[:1]
        # no bump was lost or duplicated across the migration
        total = sum(federation.call(name, "read") - 100.0 for name in names)
        routed = sum(federation.routed.values())
        assert total == routed - len(names)  # final read-only sweep excluded
        federation.shutdown()


# ---------------------------------------------------------------------------
# kill + replicated failover
# ---------------------------------------------------------------------------


class TestFailover:
    def test_dead_node_fault_is_pre_effect_and_typed(self):
        federation, names = build(nodes=2, partitions=8)
        federation.kill("node-1")
        victim = next(
            n for n in names if federation.naming.owner_of(n) == "node-1"
        )
        with pytest.raises(NodeDownError) as excinfo:
            federation.call(victim, "read")
        assert excinfo.value.pre_effect
        assert excinfo.value.node == "node-1"
        federation.shutdown()

    def test_failover_promotes_standby_state_under_retry_budget(self):
        federation, names = build(replication=1)
        for name in names:
            federation.call(name, "bump", 5.0)  # replicated through the log
        federation.kill("node-2")
        # the retry budget absorbs the dead-node fault: first attempt sees
        # NodeDownError, the failover element promotes, the retry lands on
        # the promoted standby with the replicated state
        assert all(
            federation.call(name, "bump", 1.0, qos=RETRY) == 106.0
            for name in names
        )
        assert federation.failovers == 1
        assert "node-2" not in federation.nodes
        assert federation.last_rebalance["action"] == "failover"
        assert federation.last_rebalance["lost"] == []
        federation.shutdown()

    def test_without_replication_callers_keep_failing(self):
        federation, names = build(replication=0)
        federation.kill("node-2")
        victim = next(
            n for n in names if federation.naming.owner_of(n) == "node-2"
        )
        with pytest.raises(NodeDownError):
            federation.call(victim, "read", qos=RETRY)
        # the dead node stays in the ring: there is nothing to promote
        assert "node-2" in federation.naming.shard_names
        federation.shutdown()

    def test_fail_over_is_idempotent(self):
        federation, _ = build(replication=1)
        federation.kill("node-0")
        assert federation.fail_over("node-0") is True
        assert federation.fail_over("node-0") is False
        federation.shutdown()

    def test_fail_over_alive_node_refused(self):
        federation, _ = build(replication=1)
        with pytest.raises(FederationError, match="alive"):
            federation.fail_over("node-0")
        federation.shutdown()

    def test_reconcile_promotes_all_dead_members(self):
        federation, names = build(nodes=4, partitions=16, replication=1)
        for name in names:
            federation.call(name, "bump", 1.0)
        federation.kill("node-1")
        assert federation.reconcile() == ["node-1"]
        assert federation.reconcile() == []
        assert all(federation.call(name, "read") == 101.0 for name in names)
        federation.shutdown()

    def test_kill_is_idempotent_and_drains(self):
        federation, _ = build(replication=1)
        federation.kill("node-0")
        federation.kill("node-0")  # second kill is a no-op
        assert not federation.nodes["node-0"].alive
        federation.shutdown()

    def test_kill_drains_a_call_blocked_in_its_servant(self, monkeypatch):
        """kill marks the node dead at once but returns only after the
        call already running there finished (and replicated); a call
        issued after the kill fails before any effect, the failover it
        triggers promotes the blocked call's effect, and a concurrent
        kill is a no-op."""
        federation, names = build(replication=1)
        victim = "node-1"
        blocked_name, other = [
            n for n in names if federation.naming.owner_of(n) == victim
        ][:2]
        blocked = federation.servant(blocked_name)
        entered, release = threading.Event(), threading.Event()
        real_bump = Counter.bump

        def bump(self, amount):
            if self is blocked:
                entered.set()
                assert release.wait(10)
            return real_bump(self, amount)

        monkeypatch.setattr(Counter, "bump", bump)
        results = []
        caller = threading.Thread(
            target=lambda: results.append(federation.call(blocked_name, "bump", 5.0))
        )
        caller.start()
        assert entered.wait(10)
        killers = [
            threading.Thread(target=federation.kill, args=(victim,)) for _ in range(2)
        ]
        for killer in killers:
            killer.start()
        for killer in killers:
            killer.join(0.3)
        assert not federation.nodes[victim].alive
        # one kill is draining behind the blocked call; the other was a no-op
        assert [killer.is_alive() for killer in killers].count(True) == 1
        assert len(federation.observability.events.records("kill")) == 1
        # the failover this call triggers waits for the blocked call too
        threading.Timer(0.2, release.set).start()
        with pytest.raises(NodeDownError) as excinfo:
            federation.call(other, "read")
        assert excinfo.value.pre_effect
        for thread in (caller, *killers):
            thread.join(10)
            assert not thread.is_alive()
        assert results == [105.0]
        assert federation.failovers == 1
        assert federation.last_rebalance["lost"] == []
        assert federation.fail_over(victim) is False
        assert federation.call(blocked_name, "read") == 105.0
        assert len(federation.observability.events.records("kill")) == 1
        federation.shutdown()

    def test_drain_waits_only_for_entries_taken_before_it(self):
        """A newer entry still holding the partition does not keep a
        drain waiting, so callers that keep entering a killed node's
        partitions (failing fast there) cannot starve its kill."""
        from repro.runtime.federation import _MigrationGate

        gate = _MigrationGate()
        old = gate.enter(["p-0"])
        drained = threading.Event()

        def drain():
            gate.drain(["p-0"])
            drained.set()

        drainer = threading.Thread(target=drain)
        drainer.start()
        # a caller entering until its entry counts after the drain began
        deadline = time.monotonic() + 10.0
        new = gate.enter(["p-0"])
        while new is old and time.monotonic() < deadline:
            gate.leave(["p-0"], new)
            new = gate.enter(["p-0"])
        assert new is not old, "the drain never began"
        gate.leave(["p-0"], old)
        assert drained.wait(5), "the drain waited for an entry taken after it began"
        gate.leave(["p-0"], new)
        drainer.join(5)
        assert gate.in_flight(["p-0"]) == 0

    def test_nested_call_into_its_killed_node_fails_fast(self, monkeypatch):
        """A servant still running on a killed node calls into another of
        the node's partitions: that call fails fast and promotes nothing
        (the promotion must wait for the very dispatch it is nested in),
        so the outer call completes and replicates, kill returns, and
        the failover that follows promotes its effect."""
        federation, names = build(replication=1)
        victim = "node-1"
        outer, inner = [n for n in names if federation.naming.owner_of(n) == victim][:2]
        entered, release = threading.Event(), threading.Event()
        nested, results = [], []
        real_bump = Counter.bump

        def bump(self, amount):
            if not entered.is_set():
                entered.set()
                assert release.wait(10)
                try:
                    federation.call(inner, "read")
                except NodeDownError as exc:
                    nested.append(exc)
            return real_bump(self, amount)

        monkeypatch.setattr(Counter, "bump", bump)
        caller = threading.Thread(
            target=lambda: results.append(federation.call(outer, "bump", 5.0))
        )
        caller.start()
        assert entered.wait(10)
        killer = threading.Thread(target=federation.kill, args=(victim,))
        killer.start()
        while federation.nodes[victim].alive:
            threading.Event().wait(0.01)
        release.set()
        for thread in (caller, killer):
            thread.join(10)
            assert not thread.is_alive()
        assert [exc.pre_effect for exc in nested] == [True]
        assert results == [105.0]
        assert federation.failovers == 0
        assert federation.fail_over(victim) is True
        assert federation.call(outer, "read") == 105.0
        federation.shutdown()


# ---------------------------------------------------------------------------
# replication internals
# ---------------------------------------------------------------------------


class TestReplication:
    def test_standbys_are_ring_successors(self):
        federation, names = build(replication=1)
        manager = federation.replicas
        partition = "part-0"
        preference = federation.naming.ring.preference(partition, 2)
        federation.call(names[0], "bump", 1.0)
        group = manager._groups[partition]
        assert group.primary == preference[0]
        assert list(group.standbys) == preference[1:]
        federation.shutdown()

    def test_write_through_keeps_standby_current(self):
        federation, names = build(replication=1)
        name = names[0]
        partition = name.split("/")[0]
        federation.call(name, "bump", 41.0)
        standby_name = federation.naming.ring.preference(partition, 2)[1]
        _type_name, state = federation.replicas.take(partition, standby_name)[name]
        assert state["value"] == 141.0
        assert state is not federation.servant(name).__dict__
        federation.shutdown()

    def test_replica_manager_rejects_zero_standbys(self):
        federation, _ = build()
        with pytest.raises(FederationError):
            ReplicaManager(federation, count=0)
        federation.shutdown()

    def test_enable_replication_conflicting_count_rejected(self):
        federation, _ = build(replication=1)
        with pytest.raises(FederationError, match="already enabled"):
            federation.enable_replication(2)
        federation.shutdown()


# ---------------------------------------------------------------------------
# retries re-resolve the binding
# ---------------------------------------------------------------------------


class TestRetryRerouting:
    def test_queued_envelope_lands_after_migration(self):
        """An async call submitted before a join still lands correctly:
        the handler re-resolves the binding at delivery time."""
        federation, names = build()
        future = federation.call_async(names[0], "bump", 2.0, qos=RETRY)
        assert future.result(timeout_ms=10_000.0) == 102.0
        federation.join("node-3", deploy=deploy_module)
        after = federation.call_async(names[0], "bump", 2.0, qos=RETRY)
        assert after.result(timeout_ms=10_000.0) == 104.0
        federation.shutdown()

    def test_transport_is_inprocess_by_default(self):
        federation, _ = build()
        assert isinstance(federation.transport, InProcessTransport)
        federation.shutdown()

    def test_batch_members_reroute_after_retire(self):
        """A pipelined batch queued across a graceful retire re-resolves
        its members onto the new owners instead of failing."""
        federation, names = build(nodes=3)
        moved = [n for n in names if federation.naming.owner_of(n) == "node-1"]
        assert moved
        pipe = federation.pipeline(max_batch=len(names) + 1)
        futures = [pipe.call(name, "bump", 1.0) for name in names]
        federation.retire("node-1")
        pipe.flush()
        assert all(f.result(timeout_ms=10_000.0) == 101.0 for f in futures)
        assert "node-1" not in federation.batches
        federation.shutdown()

    def test_retried_batch_never_resends_a_settled_member(self):
        """When one owner's hop settled its members and another owner's
        hop failed, the retry re-sends only the failed hop's members."""
        federation, names = build(nodes=3, replication=1)
        after = federation.naming.preview_ring(drop="node-1")

        def new_owner(name):
            return after.owner(federation.naming.partition_key(name))

        # the members re-route to node-0 and node-2 once node-1 retires;
        # node-0's come first, so its hop settles before node-2's fails
        moved = sorted(
            (n for n in names if federation.naming.owner_of(n) == "node-1"),
            key=lambda n: new_owner(n) != "node-0",
        )
        assert {new_owner(n) for n in moved} == {"node-0", "node-2"}
        pipe = federation.pipeline(max_batch=len(moved) + 1, qos=RETRY)
        futures = [pipe.call(name, "bump", 1.0) for name in moved]
        federation.retire("node-1")
        federation.kill("node-2")
        pipe.flush()
        assert [f.result(timeout_ms=10_000.0) for f in futures] == [101.0] * len(moved)
        assert [federation.call(name, "read") for name in moved] == [101.0] * len(moved)
        assert federation.failovers == 1
        federation.shutdown()

    def test_batch_survives_kill_under_retry_budget(self):
        federation, names = build(replication=1)
        for name in names:
            federation.call(name, "bump", 1.0)
        federation.kill("node-1")
        pipe = federation.pipeline(max_batch=len(names), qos=RETRY)
        futures = [pipe.call(name, "bump", 1.0) for name in names]
        pipe.flush()
        assert all(f.result(timeout_ms=10_000.0) == 102.0 for f in futures)
        assert federation.failovers == 1
        federation.shutdown()


# ---------------------------------------------------------------------------
# the elastic scenario end to end
# ---------------------------------------------------------------------------


class TestElasticScenario:
    def _config(self, seed=1, ops=160):
        return RunConfig(
            scenario="banking_elastic",
            nodes=3,
            clients=4,
            ops=ops,
            seed=seed,
            concurrent=False,
            sim_latency_ms=0.1,
            churn=True,
        )

    def test_invariants_hold_under_kill_join_retire(self):
        result = ScenarioRunner("banking_elastic", self._config()).run()
        assert result.passed, result.invariant_violations
        elastic = result.federation_stats["elastic"]
        assert elastic["failovers"] == 1
        assert elastic["joins"] == 1
        assert elastic["retires"] == 1

    def test_digest_deterministic_across_runs(self):
        first = ScenarioRunner("banking_elastic", self._config(seed=5)).run()
        second = ScenarioRunner("banking_elastic", self._config(seed=5)).run()
        assert first.passed and second.passed
        assert first.digest() == second.digest()

    def test_churn_without_plan_is_a_scenario_error(self):
        from repro.errors import ScenarioError

        config = RunConfig(
            scenario="banking",
            nodes=2,
            clients=2,
            ops=20,
            concurrent=False,
            churn=True,
        )
        with pytest.raises(ScenarioError, match="churn plan"):
            ScenarioRunner("banking", config).run()

    def test_churn_needs_two_nodes(self):
        from repro.errors import ScenarioError

        config = self._config()
        config.nodes = 1
        with pytest.raises(ScenarioError, match=">= 2 nodes"):
            ScenarioRunner("banking_elastic", config).run()

    def test_concurrent_churn_with_faults_keeps_invariants(self):
        config = RunConfig(
            scenario="banking_elastic",
            nodes=3,
            clients=6,
            ops=240,
            seed=7,
            workers=4,
            concurrent=True,
            sim_latency_ms=0.1,
            churn=True,
            faults=True,
        )
        result = ScenarioRunner("banking_elastic", config).run()
        assert result.passed, result.invariant_violations
