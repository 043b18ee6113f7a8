"""Distributed runtime: ring, sharded naming, dispatch, federation, harness."""

import threading
import time
from dataclasses import replace

import pytest

from repro.deploy import DeploymentCompiler
from repro.errors import (
    FederationError,
    NamingError,
    ReproError,
    ScenarioError,
)
from repro.middleware.bus import ObjectRefData
from repro.middleware.naming import NamingService
from repro.runtime import (
    ConcurrentDispatcher,
    Federation,
    HashRing,
    MetricsRegistry,
    RunConfig,
    Scenario,
    ScenarioRunner,
    SerialDispatcher,
    ShardedNamingService,
    get_scenario,
    percentile,
    run_scenario,
)


# ---------------------------------------------------------------------------
# consistent hashing
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_ownership_is_stable(self):
        ring = HashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        owners = {f"key-{i}": ring.owner(f"key-{i}") for i in range(50)}
        again = {f"key-{i}": ring.owner(f"key-{i}") for i in range(50)}
        assert owners == again

    def test_keys_spread_over_members(self):
        ring = HashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        hit = {ring.owner(f"key-{i}") for i in range(200)}
        assert hit == {"a", "b", "c"}

    def test_adding_a_member_moves_few_keys(self):
        ring = HashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        before = {f"key-{i}": ring.owner(f"key-{i}") for i in range(300)}
        ring.add("d")
        after = {key: ring.owner(key) for key in before}
        moved = sum(1 for key in before if before[key] != after[key])
        # consistent hashing: only keys landing on the new member move
        assert 0 < moved < 300 / 2
        assert all(after[key] == "d" for key in before if before[key] != after[key])

    def test_remove_restores_previous_ownership(self):
        ring = HashRing()
        for name in ("a", "b", "c"):
            ring.add(name)
        before = {f"key-{i}": ring.owner(f"key-{i}") for i in range(100)}
        ring.add("d")
        ring.remove("d")
        assert {key: ring.owner(key) for key in before} == before

    def test_empty_ring_raises(self):
        with pytest.raises(FederationError):
            HashRing().owner("anything")

    def test_duplicate_member_rejected(self):
        ring = HashRing()
        ring.add("a")
        with pytest.raises(FederationError):
            ring.add("a")


# ---------------------------------------------------------------------------
# sharded naming
# ---------------------------------------------------------------------------


class TestShardedNaming:
    def _service(self, shards=("s0", "s1", "s2")):
        service = ShardedNamingService()
        for name in shards:
            service.add_shard(name)
        return service

    def test_bind_resolve_roundtrip(self):
        service = self._service()
        ref = ObjectRefData("obj-1", "Account")
        service.bind("branch-1/Account/0", ref)
        assert service.resolve("branch-1/Account/0") is ref

    def test_partition_key_is_first_segment(self):
        assert ShardedNamingService.partition_key("a/b/c") == "a"
        assert ShardedNamingService.partition_key("/a/b") == "a"
        with pytest.raises(NamingError):
            ShardedNamingService.partition_key("///")

    def test_same_partition_lands_on_same_shard(self):
        service = self._service()
        owner = service.owner_of("branch-9/Bank/0")
        assert service.owner_of("branch-9/Account/3") == owner

    def test_list_merges_shards(self):
        service = self._service()
        names = [f"p-{i}/X/0" for i in range(12)]
        for name in names:
            service.bind(name, ObjectRefData(f"o{name}", "X"))
        assert service.list() == sorted(names)
        # bindings actually spread over more than one shard
        assert sum(1 for count in service.stats().values() if count) > 1

    def test_unbound_name_raises(self):
        with pytest.raises(NamingError):
            self._service().resolve("nope/X/0")

    def test_existing_naming_service_as_shard(self):
        service = ShardedNamingService()
        local = NamingService()
        assert service.add_shard("n0", local) is local
        service.bind("k/X/0", ObjectRefData("o1", "X"))
        assert local.resolve("k/X/0").object_id == "o1"


# ---------------------------------------------------------------------------
# dispatchers
# ---------------------------------------------------------------------------


class TestDispatchers:
    def test_serial_runs_inline(self):
        dispatcher = SerialDispatcher()
        assert dispatcher.dispatch("k", lambda: threading.current_thread()) is (
            threading.main_thread()
        )

    def test_concurrent_runs_on_worker(self):
        dispatcher = ConcurrentDispatcher(workers=2)
        try:
            worker = dispatcher.dispatch("k", lambda: threading.current_thread())
            assert worker is not threading.main_thread()
        finally:
            dispatcher.shutdown()

    def test_per_servant_serialization(self):
        dispatcher = ConcurrentDispatcher(workers=4)
        overlaps = []
        busy = {"flag": False}

        def critical():
            assert not busy["flag"], "two requests inside one servant"
            busy["flag"] = True
            time.sleep(0.005)
            busy["flag"] = False
            overlaps.append(1)

        try:
            threads = [
                threading.Thread(
                    target=lambda: dispatcher.dispatch("same", critical)
                )
                for _ in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            dispatcher.shutdown()
        assert len(overlaps) == 6

    def test_different_servants_overlap(self):
        dispatcher = ConcurrentDispatcher(workers=4)

        def slow():
            time.sleep(0.02)

        try:
            threads = [
                threading.Thread(
                    target=lambda key=f"k{i}": dispatcher.dispatch(key, slow)
                )
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            dispatcher.shutdown()
        # independent servants were in flight simultaneously (wall-clock
        # bounds flake on loaded runners; in-flight tracking does not)
        assert dispatcher.stats.snapshot()["max_in_flight"] >= 2

    def test_nested_dispatch_does_not_deadlock(self):
        dispatcher = ConcurrentDispatcher(workers=1)
        try:
            result = dispatcher.dispatch(
                "outer", lambda: dispatcher.dispatch("inner", lambda: 42)
            )
        finally:
            dispatcher.shutdown()
        assert result == 42

    def test_stats_count_errors(self):
        dispatcher = SerialDispatcher()

        def boom():
            raise ValueError("no")

        with pytest.raises(ValueError):
            dispatcher.dispatch("k", boom)
        snap = dispatcher.stats.snapshot()
        assert snap["dispatched"] == 1 and snap["errors"] == 1


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_percentiles_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.95) == 95.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile([], 0.5) == 0.0

    def test_record_and_snapshot(self):
        metrics = MetricsRegistry()
        metrics.start()
        for i in range(10):
            metrics.record("Op.a", "n0", 0.001 * (i + 1), error=(i == 9))
        metrics.record("Op.b", "n1", 0.5)
        metrics.stop()
        snap = metrics.snapshot()
        assert snap["total_requests"] == 11
        assert snap["total_errors"] == 1
        assert snap["operations"]["Op.a"]["count"] == 10
        assert snap["nodes"]["n1"]["count"] == 1
        assert snap["operations"]["Op.b"]["p50_ms"] == pytest.approx(500.0)
        assert "Op.a" in metrics.report()

    def test_concurrent_recording_loses_nothing(self):
        metrics = MetricsRegistry()

        def hammer(node):
            for _ in range(500):
                metrics.record("Op.x", node, 0.0001)

        threads = [
            threading.Thread(target=hammer, args=(f"n{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.total_requests() == 2000


# ---------------------------------------------------------------------------
# federation plumbing
# ---------------------------------------------------------------------------


class TestFederation:
    def _banking_federation(self, nodes=2):
        spec = get_scenario("banking")
        config = RunConfig(scenario="banking", nodes=nodes, seed=7, concurrent=False)
        # the scenario's topology, woven application and users, but none
        # of its servants: each test binds the entities it needs
        deployment = replace(spec.deployment_spec(config), partitions=())
        federation = DeploymentCompiler().deploy(deployment)
        return federation, spec, config

    def test_nodes_host_independent_apps(self):
        federation, _, _ = self._banking_federation()
        modules = [node.module for node in federation.nodes.values()]
        assert all(m is not None for m in modules)
        assert modules[0].Account is not modules[1].Account

    def test_bind_and_routed_call(self):
        federation, _, _ = self._banking_federation()
        node = federation.node_for("branch-0")
        account = node.module.Account(number="x", balance=10.0)
        node.bind("branch-0/Account/0", account)
        assert federation.call("branch-0/Account/0", "deposit", 5.0) == 15.0
        assert account.balance == 15.0
        assert federation.metrics.total_requests() == 1
        assert federation.routed[node.name] == 1

    def test_bind_on_wrong_node_rejected(self):
        federation, _, _ = self._banking_federation()
        owner = federation.node_for("branch-0")
        other = next(
            node
            for node in federation.nodes.values()
            if node.name != owner.name
        )
        account = other.module.Account(number="x", balance=1.0)
        with pytest.raises(NamingError):
            other.bind("branch-0/Account/9", account)

    def test_credentialed_call_path(self):
        federation, _, _ = self._banking_federation()
        from repro.runtime import FederationClient

        node = federation.node_for("branch-0")
        bank = node.module.Bank()
        a = node.module.Account(number="a", balance=50.0)
        b = node.module.Account(number="b", balance=0.0)
        node.bind("branch-0/Bank/0", bank)
        node.bind("branch-0/Account/0", a)
        node.bind("branch-0/Account/1", b)
        teller = FederationClient(federation, "alice", "pw")
        teller.call(
            "branch-0/Bank/0",
            "transfer",
            teller.ref("branch-0/Account/0"),
            teller.ref("branch-0/Account/1"),
            20.0,
        )
        assert (a.balance, b.balance) == (30.0, 20.0)
        anonymous = FederationClient(federation)
        with pytest.raises(ReproError):
            anonymous.call(
                "branch-0/Bank/0",
                "transfer",
                anonymous.ref("branch-0/Account/0"),
                anonymous.ref("branch-0/Account/1"),
                1.0,
            )
        # the failed transfer is atomic and audited
        assert (a.balance, b.balance) == (30.0, 20.0)

    def test_unknown_node_and_duplicate_node(self):
        federation = Federation()
        federation.add_node("n0")
        with pytest.raises(FederationError):
            federation.add_node("n0")
        with pytest.raises(FederationError):
            federation.node("missing")

    def test_bus_dispatch_guard_serializes_direct_deliveries(self):
        """Proxy calls that bypass Node.invoke still hold the servant lock."""
        federation = Federation(seed=1)
        node = federation.add_node("n0", workers=2)
        assert node.services.bus.dispatch_guard is not None

        busy = {"flag": False}
        overlaps = []

        class Slow:
            def poke(self):
                if busy["flag"]:
                    overlaps.append(1)
                busy["flag"] = True
                time.sleep(0.003)
                busy["flag"] = False
                return 1

        orb = node.services.orb
        ref = orb.register(Slow())

        def direct_call():
            orb.invoke(ref, "poke", (), {})

        threads = [threading.Thread(target=direct_call) for _ in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        node.shutdown()
        assert not overlaps, "nested/direct deliveries overlapped on one servant"

    def test_wildcard_fault_campaign_counts(self):
        federation, _, _ = self._banking_federation()
        node = federation.node_for("branch-0")
        account = node.module.Account(number="x", balance=10.0)
        node.bind("branch-0/Account/0", account)
        federation.configure_fault("bus.*", 1.0)
        with pytest.raises(ReproError):
            federation.call("branch-0/Account/0", "getBalance")
        assert federation.faults_injected().get("bus.deliver", 0) >= 1


# ---------------------------------------------------------------------------
# scenario harness
# ---------------------------------------------------------------------------

SMALL = dict(nodes=2, clients=4, ops=60, seed=11, real_latency_ms=0.0)


class TestScenarioHarness:
    @pytest.mark.parametrize(
        "name", ["banking", "auction", "medical_records", "component_shipping"]
    )
    def test_sequential_runs_are_deterministic(self, name):
        first = run_scenario(name, concurrent=False, **SMALL)
        second = run_scenario(name, concurrent=False, **SMALL)
        assert first.passed, first.invariant_violations
        assert first.digest() == second.digest()
        assert first.ops == 60

    def test_fault_campaign_keeps_invariants_and_determinism(self):
        first = run_scenario("banking", concurrent=False, faults=True, **SMALL)
        second = run_scenario("banking", concurrent=False, faults=True, **SMALL)
        assert first.passed, first.invariant_violations
        assert first.failed > 0, "campaign injected no observable fault"
        assert sum(first.faults_injected.values()) > 0
        assert first.digest() == second.digest()

    @pytest.mark.parametrize(
        "name", ["banking", "auction", "medical_records", "component_shipping"]
    )
    def test_concurrent_runs_keep_invariants(self, name):
        result = run_scenario(name, concurrent=True, workers=3, **SMALL)
        assert result.passed, result.invariant_violations
        assert result.ops == 60

    def test_concurrent_run_with_faults_keeps_invariants(self):
        result = run_scenario(
            "banking", concurrent=True, workers=3, faults=True, **SMALL
        )
        assert result.passed, result.invariant_violations

    def test_seed_changes_the_workload(self):
        first = run_scenario("banking", concurrent=False, **SMALL)
        other = run_scenario(
            "banking",
            concurrent=False,
            **{**SMALL, "seed": SMALL["seed"] + 1},
        )
        assert first.digest() != other.digest()

    def test_metrics_cover_every_operation(self):
        result = run_scenario("banking", concurrent=False, **SMALL)
        recorded = sum(
            s["count"] for s in result.metrics["operations"].values()
        )
        assert recorded == result.ops
        assert set(result.metrics["nodes"]) <= {"node-0", "node-1"}
        for stats in result.metrics["operations"].values():
            assert stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]

    def test_unknown_scenario_raises(self):
        with pytest.raises(ScenarioError):
            get_scenario("nope")
        with pytest.raises(ScenarioError):
            run_scenario("nope", nodes=1, clients=1, ops=1)

    def test_bad_config_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioRunner("banking", RunConfig(scenario="banking", clients=0))
        with pytest.raises(ScenarioError):
            ScenarioRunner(
                "banking",
                RunConfig(scenario="banking", workers=0, concurrent=True),
            )

    def test_scenario_without_servant_layout_refused(self):
        class Layoutless(Scenario):
            name = "layoutless"

        with pytest.raises(ScenarioError, match="servant_layout"):
            ScenarioRunner(Layoutless(), RunConfig(scenario="layoutless"))

    def test_result_serializes(self):
        import json

        result = run_scenario("auction", concurrent=False, **SMALL)
        document = json.loads(json.dumps(result.to_dict()))
        assert document["scenario"] == "auction"
        assert document["passed"] is True
        assert document["digest"] == result.digest()


# ---------------------------------------------------------------------------
# CLI front end
# ---------------------------------------------------------------------------


class TestSimulateCli:
    def test_simulate_smoke(self, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "result.json"
        code = main(
            [
                "simulate",
                "--scenario",
                "banking",
                "--nodes",
                "2",
                "--clients",
                "2",
                "--ops",
                "30",
                "--seed",
                "1",
                "--serial",
                "--latency-ms",
                "0",
                "--json",
                str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "throughput" in captured and "p95" in captured
        assert "invariants: OK" in captured
        assert out.exists()

    def test_simulate_unknown_scenario_fails(self, capsys):
        from repro.cli import main

        assert main(["simulate", "--scenario", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, field_name",
        [("--latency-ms", "real_latency_ms"), ("--sim-latency-ms", "sim_latency_ms")],
    )
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_simulate_rejects_non_finite_latency(self, capsys, flag, field_name, value):
        from repro.cli import main

        code = main(
            ["simulate", "--scenario", "banking", "--nodes", "2", "--ops", "4",
             "--serial", flag, value]
        )
        assert code == 1
        assert f"{field_name} must be finite" in capsys.readouterr().err
