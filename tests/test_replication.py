"""Log-shipping replication: dirty tracking, replay equivalence, truncation.

The contract under test: a standby that only ever *replays* the
partition's append-only :class:`ReplicationLog` holds state
byte-identical to a full-state copy of the primary — through narrowed
per-servant syncs, snapshot+truncate cycles, concurrent writers,
membership churn, and failover promotion of a log-shipped tail.
"""

import random
import threading

import pytest

from repro.deploy import (
    ApplicationSpec,
    DeploymentDiff,
    DeploymentSpec,
    NodeSpec,
    ReplicationSpec,
)
from repro.errors import (
    DeploymentError,
    FederationError,
    NodeDownError,
    RemoteInvocationError,
)
from repro.middleware.envelope import QoS
from repro.runtime import Federation, ReplicaManager
from repro.runtime.federation import ReplicationLog


class Counter:
    """Minimal stateful servant for replication tests."""

    def __init__(self, value=0.0):
        self.value = value

    def bump(self, amount):
        self.value += amount
        return self.value

    def bump_then_fail(self, amount):
        """Change state, then raise: the effect outlives the error."""
        self.value += amount
        raise ValueError("failed after its effect")

    def bump_other(self, other, amount):
        """Mutate ``other`` (a reference to a servant on this node)."""
        return other.bump(amount)

    def read(self):
        return self.value


MODULE = type("ReplicationTestModule", (), {"Counter": Counter})

RETRY = QoS(timeout_ms=30_000.0, retries=2)


def build(nodes=3, partitions=6, per_partition=3, snapshot_every=8):
    federation = Federation(seed=7, latency_ms=0.0)
    for i in range(nodes):
        federation.join(f"node-{i}").module = MODULE
    names = []
    for k in range(partitions):
        partition = f"part-{k}"
        node = federation.node_for(partition)
        for j in range(per_partition):
            name = f"{partition}/Counter/{j}"
            node.bind(name, Counter(100.0))
            names.append(name)
    federation.enable_replication(1, snapshot_every=snapshot_every)
    return federation, names


def deploy_module(node):
    node.module = MODULE


def assert_standbys_match_primaries(federation, names):
    """Every standby copy's (type, state) equals its primary's."""
    replicas = federation.replicas
    for name in names:
        primary = federation.servant(name)
        partition = federation.naming.partition_key(name)
        group = replicas._groups[partition]
        for standby_name in group.standbys:
            copies = replicas.take(partition, standby_name)
            assert name in copies, f"{standby_name} holds no copy of {name}"
            type_name, state = copies[name]
            assert type_name == type(primary).__name__
            assert state is not primary.__dict__
            assert state == primary.__dict__, (
                f"standby {standby_name} diverged on {name}: "
                f"{state} != {primary.__dict__}"
            )


# ---------------------------------------------------------------------------
# ReplicationLog unit behavior
# ---------------------------------------------------------------------------


class TestReplicationLog:
    def test_appends_are_monotonically_sequenced(self):
        log = ReplicationLog("p")
        seqs = [log.append(f"p/Counter/{i}", "Counter", {"value": i}) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert log.seq == 5
        assert [entry[0] for entry in log.entries] == seqs

    def test_snapshot_folds_last_write_and_truncates(self):
        log = ReplicationLog("p")
        log.append("p/Counter/0", "Counter", {"value": 1.0})
        log.append("p/Counter/1", "Counter", {"value": 2.0})
        log.append("p/Counter/0", "Counter", {"value": 3.0})
        log.snapshot()
        assert log.entries == []
        assert log.base_seq == log.seq == 3
        # last write per name wins in the folded base
        assert log.base["p/Counter/0"] == ("Counter", {"value": 3.0})
        assert log.base["p/Counter/1"] == ("Counter", {"value": 2.0})
        assert log.truncations == 1
        # sequencing continues across the truncation
        assert log.append("p/Counter/1", "Counter", {"value": 4.0}) == 4

    def test_prune_drops_unbound_names_from_base(self):
        log = ReplicationLog("p")
        log.append("p/Counter/0", "Counter", {"value": 1.0})
        log.append("p/Counter/1", "Counter", {"value": 2.0})
        log.snapshot()
        log.prune({"p/Counter/0"})
        assert list(log.base) == ["p/Counter/0"]


# ---------------------------------------------------------------------------
# configuration guards
# ---------------------------------------------------------------------------


class TestReplicationConfig:
    def test_snapshot_threshold_must_be_positive(self):
        federation, _ = build()
        with pytest.raises(FederationError, match="snapshot_every"):
            ReplicaManager(federation, count=1, snapshot_every=0)
        federation.shutdown()

    def test_set_replication_retunes_snapshot_threshold(self):
        federation, _ = build(snapshot_every=8)
        federation.set_replication(1, snapshot_every=2)
        assert federation.replicas.snapshot_every == 2
        federation.shutdown()

    def test_spec_round_trip_and_legacy_default(self):
        spec = ReplicationSpec(count=2, snapshot_every=16)
        assert ReplicationSpec.from_dict(spec.to_dict()) == spec
        # pre-log spec files carry only the count
        legacy = ReplicationSpec.from_dict({"count": 1})
        assert legacy == ReplicationSpec(count=1)
        assert legacy.snapshot_every == 64

    def test_legacy_mode_key_parses_to_the_log(self):
        # spec files from when replication had a write-through mode
        # still parse: "full" and "log" both mean the log, nothing of
        # the mode survives into the spec, its JSON, or its digest
        parsed = [
            ReplicationSpec.from_dict(data)
            for data in (
                {"count": 1, "mode": "full", "snapshot_every": 16},
                {"count": 1, "mode": "log", "snapshot_every": 16},
                {"count": 1, "snapshot_every": 16},
            )
        ]
        assert parsed[0] == parsed[1] == parsed[2]
        for spec in parsed:
            assert "mode" not in spec.to_dict()
        with pytest.raises(DeploymentError, match="paxos"):
            ReplicationSpec.from_dict({"count": 1, "mode": "paxos"})


class TestReconcileModeChanges:
    @staticmethod
    def _spec(replication):
        return DeploymentSpec(
            name="repl",
            application=ApplicationSpec(name="banking", builder="scenario:banking"),
            nodes=(NodeSpec(name="node-0"), NodeSpec(name="node-1")),
            replication=replication,
        )

    def test_diff_allows_mode_choice_when_first_enabled(self):
        current = self._spec(ReplicationSpec(count=0))
        target = self._spec(ReplicationSpec(count=1, mode="log", snapshot_every=4))
        diff = DeploymentDiff.between(current, target)
        plan = diff.plan()
        (action,) = [a for a in plan.actions if a.kind == "set_replication"]
        assert "mode" not in action.payload
        assert action.payload["snapshot_every"] == 4
        # a spec that still says "full" is the same deployment
        legacy = self._spec(ReplicationSpec(count=1, mode="full", snapshot_every=4))
        assert DeploymentDiff.between(target, legacy).empty

    def test_diff_retunes_snapshot_threshold(self):
        current = self._spec(ReplicationSpec(count=1, snapshot_every=64))
        target = self._spec(ReplicationSpec(count=1, snapshot_every=8))
        diff = DeploymentDiff.between(current, target)
        assert not diff.empty
        (action,) = [a for a in diff.plan().actions if a.kind == "set_replication"]
        assert action.payload["count"] == 1
        assert action.payload["snapshot_every"] == 8


# ---------------------------------------------------------------------------
# stats accounting (the syncs over-count fix)
# ---------------------------------------------------------------------------


class TestStatsAccounting:
    def test_noop_sync_does_not_inflate_syncs(self):
        federation, _ = build()
        before = federation.replicas.stats()["syncs"]
        # no such partition: the early return must not count as a sync
        federation.replicas.sync_partition("no-such-partition")
        assert federation.replicas.stats()["syncs"] == before
        federation.shutdown()

    def test_mutating_call_counts_one_refreshing_sync(self):
        federation, names = build()
        before = federation.replicas.stats()["syncs"]
        federation.call(names[0], "bump", 1.0)
        assert federation.replicas.stats()["syncs"] == before + 1
        federation.shutdown()

    def test_stats_expose_log_counters(self):
        federation, names = build()
        federation.call(names[0], "bump", 1.0)
        stats = federation.replicas.stats()
        assert stats["log_appends"] > 0
        assert stats["replica_lag"] == 0
        assert stats["max_replica_lag"] >= 1
        for key in ("syncs", "skipped_syncs", "snapshots"):
            assert key in stats
        federation.shutdown()

    def test_lag_is_measurable_for_an_unreachable_standby(self):
        federation, names = build(snapshot_every=4)
        name = names[0]
        partition = federation.naming.partition_key(name)
        group = federation.replicas._groups[partition]
        (standby_name,) = list(group.standbys)
        log = federation.replicas._logs[partition]
        # an undeployed standby cannot apply the shipped tail: its
        # watermark freezes and the lag becomes visible in stats()
        module, federation.nodes[standby_name].module = (
            federation.nodes[standby_name].module,
            None,
        )
        try:
            for _ in range(10):
                federation.call(name, "bump", 1.0)
            assert federation.replicas.stats()["replica_lag"] >= 10
        finally:
            federation.nodes[standby_name].module = module
        # it missed writes across folds: the next write reseeds it from
        # the base snapshot, then replays the remaining tail
        assert group.watermarks[standby_name] < log.base_seq
        federation.call(names[1], "bump", 1.0)
        assert federation.replicas.stats()["replica_lag"] == 0
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()


# ---------------------------------------------------------------------------
# replay equivalence
# ---------------------------------------------------------------------------


class TestReplayEquivalence:
    def test_sequential_writes_replay_identically(self):
        federation, names = build(snapshot_every=8)
        rng = random.Random(11)
        for _ in range(200):
            federation.call(rng.choice(names), "bump", rng.choice((1.0, 2.5)))
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_truncation_preserves_equivalence(self):
        # snapshot_every=1 folds+truncates after every sync — no tail
        # survives between calls, yet every standby replays the fresh
        # entries before the fold, so none falls behind the base
        federation, names = build(snapshot_every=1)
        rng = random.Random(13)
        for _ in range(120):
            federation.call(rng.choice(names), "bump", 1.0)
        stats = federation.replicas.stats()
        assert stats["snapshots"] > 0
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_standby_replays_only_fresh_entries_across_folds(self, monkeypatch):
        # one standby, one 256-servant partition, a fold every 8
        # entries: each write must apply exactly one copy — a fold that
        # ran before the catch-up would reseed the whole partition from
        # the base every 8th write
        federation, names = build(
            nodes=2, partitions=1, per_partition=256, snapshot_every=8
        )
        applied = []
        apply_state = ReplicaManager._apply_state

        def counting(*args):
            applied.append(args[2])
            return apply_state(*args)

        monkeypatch.setattr(ReplicaManager, "_apply_state", staticmethod(counting))
        folds = federation.replicas.stats()["snapshots"]
        for i in range(64):
            federation.call(names[i * 3], "bump", 1.0)
        assert len(applied) == 64
        assert federation.replicas.stats()["snapshots"] - folds == 8
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_join_reseeds_new_standbys_through_the_log(self):
        federation, names = build(nodes=3, snapshot_every=4)
        rng = random.Random(17)
        for _ in range(60):
            federation.call(rng.choice(names), "bump", 1.0)
        federation.join("node-joiner", deploy=deploy_module)
        # the joiner is now a ring successor for some partitions: the
        # rebuild seeded its copies by replaying snapshot + tail
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_cross_partition_effect_survives_failover(self):
        """A servant that mutates another partition's servant on its node
        (through a reference argument) replicates that partition too, so
        the acknowledged effect survives the node's crash."""
        federation, names = build(nodes=3, partitions=6)
        by_owner = {}
        for name in names:
            by_owner.setdefault(federation.naming.owner_of(name), []).append(name)
        source, target = next(
            (group[0], other)
            for group in by_owner.values()
            for other in group
            if federation.naming.partition_key(other)
            != federation.naming.partition_key(group[0])
        )
        victim = federation.naming.owner_of(source)
        assert federation.call(source, "bump_other", federation.ref(target), 5.0) == 105.0
        partition = federation.naming.partition_key(target)
        standby = federation.replicas._groups[partition].standbys
        assert [copies[target][1]["value"] for copies in standby.values()] == [105.0]
        federation.kill(victim)
        assert federation.fail_over(victim)
        assert federation.call(target, "read") == 105.0
        federation.shutdown()

    def test_batch_replicates_each_partition_once(self):
        federation, names = build(nodes=2, partitions=1, per_partition=8)
        before = federation.replicas.stats()
        with federation.pipeline(max_batch=8) as pipe:
            futures = [pipe.call(name, "bump", 1.0) for name in names]
        assert [future.result() for future in futures] == [101.0] * 8
        after = federation.replicas.stats()
        assert after["syncs"] - before["syncs"] == 1
        assert after["log_appends"] - before["log_appends"] == 8
        # eight calls on one servant log it once
        with federation.pipeline(max_batch=8) as pipe:
            futures = [pipe.call(names[0], "bump", 1.0) for _ in range(8)]
        assert futures[-1].result() == 109.0
        final = federation.replicas.stats()
        assert final["syncs"] - after["syncs"] == 1
        assert final["log_appends"] - after["log_appends"] == 1
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_effect_of_a_call_that_raised_survives_failover(self, transport):
        """A servant that changes its state and then raises still has
        its hop replicated, so the promoted standby holds the effect
        the primary kept."""
        federation = Federation(seed=7, latency_ms=0.0, transport=transport)
        try:
            for i in range(3):
                federation.join(f"node-{i}").module = MODULE
            name = "part-0/Counter/0"
            federation.node_for("part-0").bind(name, Counter(100.0))
            federation.enable_replication(1)
            assert federation.call(name, "bump", 1.0) == 101.0
            with pytest.raises(RemoteInvocationError, match="after its effect"):
                federation.call(name, "bump_then_fail", 10.0)
            assert federation.servant(name).value == 111.0
            victim = federation.naming.owner_of(name)
            federation.kill(victim)
            assert federation.fail_over(victim)
            assert federation.naming.owner_of(name) != victim
            assert federation.call(name, "read") == 111.0
        finally:
            federation.shutdown()

    def test_kill_after_log_tail_promotes_last_write(self):
        federation, names = build(snapshot_every=4)
        name = names[0]
        victim = federation.naming.owner_of(name)
        expected = federation.call(name, "bump", 41.0)
        federation.kill(victim)
        # the promoted standby must hold the log-shipped tail, last
        # write included — the QoS budget absorbs the dead-node fault
        assert federation.call(name, "read", qos=RETRY) == expected
        assert federation.failovers == 1
        federation.shutdown()


# ---------------------------------------------------------------------------
# re-placement: a membership change re-syncs only what it re-places
# ---------------------------------------------------------------------------


class TestReplacement:
    def test_membership_changes_resync_only_replaced_groups(self, monkeypatch):
        """4 nodes, 64 one-binding partitions, one standby: join, retire
        and kill+fail_over each re-sync exactly the groups whose primary
        or standbys changed, each re-placed standby applies only the
        fresh export (not the log's history), and every standby ends
        current."""
        federation, names = build(nodes=4, partitions=64, per_partition=1)
        for name in names:
            federation.call(name, "bump", 1.0)
        replicas = federation.replicas
        applied = []
        apply_state = ReplicaManager._apply_state

        def counting(*args):
            applied.append(args[1])
            return apply_state(*args)

        monkeypatch.setattr(ReplicaManager, "_apply_state", staticmethod(counting))

        def placements():
            return {
                partition: (group.primary, tuple(group.standbys))
                for partition, group in replicas._groups.items()
            }

        events = (
            lambda: federation.join("node-4", deploy=deploy_module),
            lambda: federation.retire("node-0"),
            lambda: (federation.kill("node-1"), federation.fail_over("node-1")),
        )
        for event in events:
            before, syncs = placements(), replicas.stats()["syncs"]
            applied.clear()
            event()
            after = placements()
            replaced = sum(
                1 for partition, placed in after.items() if before.get(partition) != placed
            )
            assert 0 < replaced < len(after) == 64
            assert replicas.stats()["syncs"] - syncs == replaced
            assert len(applied) == replaced
            assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_rebuild_resyncs_a_partition_whose_export_raised(self, monkeypatch):
        """A sync skipped because the primary's export raised leaves the
        standbys behind the primary; the next rebuild re-syncs that
        partition even though its placement did not change."""
        federation, names = build(nodes=3, partitions=6)
        name = names[0]
        owner = federation.node(federation.naming.owner_of(name))

        def unreachable(requested):
            raise NodeDownError("export timed out", node=owner.name)

        monkeypatch.setattr(owner, "export", unreachable)
        assert federation.call(name, "bump", 5.0) == 105.0
        monkeypatch.undo()
        syncs = federation.replicas.stats()["syncs"]
        federation.replicas.rebuild()
        assert federation.replicas.stats()["syncs"] == syncs + 1
        assert_standbys_match_primaries(federation, names)
        federation.replicas.rebuild()  # nothing stale is left
        assert federation.replicas.stats()["syncs"] == syncs + 1
        federation.shutdown()


# ---------------------------------------------------------------------------
# sync locking: per-partition export order, no manager-wide stall
# ---------------------------------------------------------------------------


def stall_export(monkeypatch, node, names):
    """Make ``node``'s next export of ``names`` take its snapshot, then
    wait for the returned release event before handing it back (a
    worker round trip that has not answered yet)."""
    exported, release = threading.Event(), threading.Event()
    real = node.export

    def stalled(requested):
        entries = real(requested)
        if sorted(requested) == sorted(names) and not exported.is_set():
            exported.set()
            release.wait(10)
        return entries

    monkeypatch.setattr(node, "export", stalled)
    return exported, release


def in_thread(fn, *args):
    done = threading.Event()

    def run():
        fn(*args)
        done.set()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, done


class TestSyncLocking:
    def test_stalled_export_holds_up_only_its_partition(self, monkeypatch):
        federation, names = build(nodes=3, partitions=6)
        replicas = federation.replicas
        partitions = sorted({federation.naming.partition_key(n) for n in names})
        stalled, other = partitions[0], partitions[1]
        owner = federation.node(federation.naming.owner_of(stalled))
        exported, release = stall_export(
            monkeypatch, owner, federation.naming.partition_view(stalled)[1]
        )
        syncing, _ = in_thread(replicas.sync_partition, stalled)
        assert exported.wait(10)
        try:
            standby = replicas._standby_names(stalled)[0]
            # another partition's sync, failover's take() and stats()
            # all need the manager lock — none may wait for the export
            _, done = in_thread(
                lambda: (
                    replicas.sync_partition(other),
                    replicas.take(stalled, standby),
                    replicas.stats(),
                )
            )
            assert done.wait(5), "the manager lock was held across an export"
        finally:
            release.set()
        syncing.join(10)
        assert not syncing.is_alive()
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_newer_narrowed_sync_lands_after_a_stalled_full_export(
        self, monkeypatch
    ):
        federation, names = build(nodes=3, partitions=6)
        name = names[0]
        partition = federation.naming.partition_key(name)
        owner = federation.node(federation.naming.owner_of(name))
        exported, release = stall_export(
            monkeypatch, owner, federation.naming.partition_view(partition)[1]
        )
        syncing, _ = in_thread(federation.replicas.sync_partition, partition)
        assert exported.wait(10)  # a full snapshot with value 100.0 taken
        writing, wrote = in_thread(federation.call, name, "bump", 5.0)
        try:
            # the write's own sync queues behind the partition's export,
            # so the stale snapshot cannot be appended after it
            assert not wrote.wait(0.3)
        finally:
            release.set()
        syncing.join(10)
        assert not syncing.is_alive()
        assert wrote.wait(10)
        writing.join(10)
        assert federation.servant(name).value == 105.0
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()

    def test_a_deferred_sync_outlives_a_full_sync_already_exporting(
        self, monkeypatch
    ):
        """A hop that could not reach its owner defers its sync while
        another sync of the partition is exporting a snapshot taken
        before the hop's effect: that sync finishing does not clear the
        mark, and the next rebuild re-syncs the partition."""
        federation, names = build(nodes=3, partitions=6)
        replicas = federation.replicas
        name = names[0]
        partition = federation.naming.partition_key(name)
        owner = federation.node(federation.naming.owner_of(name))
        exported, release = stall_export(
            monkeypatch, owner, federation.naming.partition_view(partition)[1]
        )
        syncing, _ = in_thread(replicas.sync_partition, partition)
        assert exported.wait(10)  # a full snapshot with value 100.0 taken
        try:
            federation.servant(name).value += 5.0  # the lost hop's effect
            replicas.defer_sync([partition])
        finally:
            release.set()
        syncing.join(10)
        assert not syncing.is_alive()
        monkeypatch.undo()
        assert partition in replicas._deferred
        syncs = replicas.stats()["syncs"]
        replicas.rebuild()
        assert replicas.stats()["syncs"] == syncs + 1
        assert partition not in replicas._deferred
        assert_standbys_match_primaries(federation, names)
        federation.shutdown()


# ---------------------------------------------------------------------------
# seeded multi-threaded stress: writers + churn
# ---------------------------------------------------------------------------


class TestReplayStress:
    def _run_stress(self, snapshot_every):
        federation = Federation(seed=23, latency_ms=0.0)
        for i in range(4):
            federation.join(f"node-{i}", workers=2).module = MODULE
        names = []
        for k in range(8):
            partition = f"part-{k}"
            node = federation.node_for(partition)
            for j in range(3):
                name = f"{partition}/Counter/{j}"
                node.bind(name, Counter(100.0))
                names.append(name)
        federation.enable_replication(1, snapshot_every=snapshot_every)

        successes = []
        unexpected = []

        def writer(seed):
            rng = random.Random(seed)
            done = 0
            for _ in range(80):
                try:
                    federation.call(rng.choice(names), "bump", 1.0, qos=RETRY)
                    done += 1
                except NodeDownError:
                    # a kill window can outlast the retry budget under
                    # heavy concurrency; dead-node refusals are
                    # pre-effect, so the bump left no mark — money
                    # conservation below still holds exactly
                    pass
                except Exception as exc:  # pragma: no cover - fails the test
                    unexpected.append(exc)
            successes.append(done)

        threads = [
            threading.Thread(target=writer, args=(100 + i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        # membership churn while the writers hammer the partitions
        federation.join("node-churn", deploy=deploy_module)
        federation.kill("node-1")
        federation.retire("node-2")
        for thread in threads:
            thread.join()

        assert not unexpected, f"writer calls failed: {unexpected[:3]}"
        # money conserved: every successful bump left exactly one mark
        total = sum(federation.call(name, "read", qos=RETRY) for name in names)
        assert total == 100.0 * len(names) + sum(successes)
        # replay equivalence after the dust settles: every standby copy
        # byte-identical to its primary, and no standby left behind
        assert_standbys_match_primaries(federation, names)
        assert federation.replicas.replica_lag() == 0
        stats = federation.replicas.stats()
        federation.shutdown()
        return stats

    def test_concurrent_writers_with_churn(self):
        stats = self._run_stress(snapshot_every=8)
        assert stats["log_appends"] > 0
        assert stats["snapshots"] > 0

    def test_concurrent_writers_with_aggressive_truncation(self):
        stats = self._run_stress(snapshot_every=1)
        assert stats["snapshots"] >= stats["log_appends"] // 2
