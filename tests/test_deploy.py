"""Declarative deployment: spec round-trip, compile, diff/apply, narrowing."""

import contextlib
import json
import sys
import threading

import pytest

from repro.deploy import (
    ApplicationSpec,
    ConcernSpec,
    DeploymentCompiler,
    DeploymentDiff,
    DeploymentSpec,
    FaultCampaignSpec,
    FaultSiteSpec,
    MigrationPlan,
    NodeSpec,
    PartitionSpec,
    QoSProfile,
    ReplicationSpec,
    ServantSpec,
    UserSpec,
    apply as apply_spec,
    empty_spec,
    register_application,
)
from repro.errors import DeploymentError, ReproError
from repro.middleware.envelope import QoS
from repro.runtime import FederationClient, RunConfig, ScenarioRunner
from repro.runtime.scenarios import get_scenario


def run_config(**overrides) -> RunConfig:
    defaults = dict(
        scenario="banking",
        nodes=2,
        clients=2,
        ops=40,
        seed=1,
        workers=2,
        concurrent=True,
        sim_latency_ms=0.0,
        real_latency_ms=0.0,
        entities_per_node=1,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def banking_spec(**overrides) -> DeploymentSpec:
    """The banking scenario's declared spec (the canonical test spec)."""
    from dataclasses import replace

    config = run_config(
        **{
            k: overrides.pop(k)
            for k in ("nodes", "entities_per_node", "seed", "faults", "workers")
            if k in overrides
        }
    )
    spec = get_scenario("banking").deployment_spec(config)
    return replace(spec, **overrides) if overrides else spec


def tiny_spec(**overrides) -> DeploymentSpec:
    """A small hand-authored spec (no scenario involved)."""
    fields = dict(
        name="tiny",
        application=ApplicationSpec(
            name="bank",
            builder="scenario:banking",
            concerns=(
                ConcernSpec(
                    concern="distribution",
                    params={
                        "server_classes": ["Account", "Bank"],
                        "registry_prefix": "bank",
                    },
                ),
            ),
        ),
        nodes=(NodeSpec("node-0"), NodeSpec("node-1")),
        partitions=(
            PartitionSpec(
                key="p-0",
                servants=(
                    ServantSpec(
                        name="p-0/Account/0",
                        type_name="Account",
                        state={"number": "p-0/Account/0", "balance": 100.0},
                        read_only_ops=("getBalance",),
                    ),
                ),
            ),
            PartitionSpec(
                key="p-1",
                servants=(
                    ServantSpec(
                        name="p-1/Account/0",
                        type_name="Account",
                        state={"number": "p-1/Account/0", "balance": 100.0},
                        read_only_ops=("getBalance",),
                    ),
                ),
            ),
        ),
    )
    fields.update(overrides)
    return DeploymentSpec(**fields)


# ---------------------------------------------------------------------------
# spec layer: round-trip, digest, validation
# ---------------------------------------------------------------------------


class TestSpecRoundTrip:
    def test_json_round_trip_is_lossless(self):
        spec = banking_spec(
            replication=ReplicationSpec(count=1),
            qos_profiles=(QoSProfile("fast", timeout_ms=100.0, retries=2),),
            client_qos="fast",
        )
        wire = json.loads(json.dumps(spec.to_dict()))
        restored = DeploymentSpec.from_dict(wire)
        assert restored == spec

    def test_round_trip_through_json_text(self):
        spec = tiny_spec()
        assert DeploymentSpec.from_json(spec.to_json()) == spec

    def test_digest_is_stable_across_round_trip(self):
        spec = banking_spec()
        restored = DeploymentSpec.from_dict(spec.to_dict())
        assert restored.digest() == spec.digest()

    def test_digest_reacts_to_topology_changes(self):
        base = banking_spec(nodes=2)
        grown = banking_spec(nodes=3)
        assert base.digest() != grown.digest()

    def test_digest_ignores_advisory_owner_hint(self):
        from dataclasses import replace

        spec = tiny_spec()
        hinted = replace(
            spec,
            partitions=tuple(
                replace(partition, node="node-0")
                for partition in spec.partitions
            ),
        )
        assert hinted.digest() == spec.digest()
        # but the hint round-trips losslessly all the same
        assert DeploymentSpec.from_dict(hinted.to_dict()) == hinted

    def test_unsupported_format_rejected(self):
        data = tiny_spec().to_dict()
        data["format"] = "repro-deployment-spec/999"
        with pytest.raises(DeploymentError, match="unsupported spec format"):
            DeploymentSpec.from_dict(data)

    def test_scenario_specs_are_deterministic_per_config(self):
        first = get_scenario("banking_elastic").deployment_spec(run_config(nodes=3))
        second = get_scenario("banking_elastic").deployment_spec(run_config(nodes=3))
        assert first == second
        assert first.digest() == second.digest()


class TestSpecValidation:
    def test_valid_spec_passes(self):
        assert tiny_spec().problems() == []

    def test_unknown_node_in_partition(self):
        from dataclasses import replace

        spec = tiny_spec()
        spec = replace(
            spec,
            partitions=(replace(spec.partitions[0], node="node-99"),)
            + spec.partitions[1:],
        )
        with pytest.raises(DeploymentError, match="unknown node 'node-99'"):
            spec.validate()

    def test_replica_count_must_be_below_node_count(self):
        spec = tiny_spec(replication=ReplicationSpec(count=2))
        with pytest.raises(DeploymentError, match="smaller than the node count"):
            spec.validate()

    def test_duplicate_servant_names(self):
        from dataclasses import replace

        spec = tiny_spec()
        clash = replace(
            spec.partitions[1],
            servants=(
                replace(spec.partitions[1].servants[0], name="p-0/Account/0"),
            ),
        )
        # keep it under its own key too, so only the duplication fires
        bad = replace(
            spec,
            partitions=(
                spec.partitions[0],
                replace(clash, key="p-0"),
            ),
        )
        problems = "\n".join(bad.problems())
        assert "duplicate servant name 'p-0/Account/0'" in problems

    def test_duplicate_nodes_partitions_and_users(self):
        spec = tiny_spec(
            nodes=(NodeSpec("node-0"), NodeSpec("node-0")),
            users=(UserSpec("u", "pw"), UserSpec("u", "pw2")),
        )
        problems = "\n".join(spec.problems())
        assert "duplicate node name 'node-0'" in problems
        assert "duplicate user 'u'" in problems

    def test_servant_must_live_under_its_partition(self):
        from dataclasses import replace

        spec = tiny_spec()
        stray = replace(
            spec.partitions[0],
            servants=(
                replace(spec.partitions[0].servants[0], name="elsewhere/Account/0"),
            ),
        )
        bad = replace(spec, partitions=(stray,) + spec.partitions[1:])
        assert any("not under its partition" in p for p in bad.problems())

    def test_application_needs_exactly_one_source(self):
        spec = tiny_spec(
            application=ApplicationSpec(name="both", builder="x", model_xmi="y.xmi")
        )
        assert any("exactly one" in p for p in spec.problems())
        spec = tiny_spec(application=ApplicationSpec(name="neither"))
        assert any("exactly one" in p for p in spec.problems())

    def test_fault_probability_range_and_qos_references(self):
        spec = tiny_spec(
            faults=FaultCampaignSpec(
                sites=(FaultSiteSpec("bus.*", 1.5),), armed=True
            ),
            client_qos="missing",
        )
        problems = "\n".join(spec.problems())
        assert "out of [0, 1]" in problems
        assert "unknown QoS profile 'missing'" in problems

    def test_state_must_be_json_shaped(self):
        from dataclasses import replace

        spec = tiny_spec()
        bad_servant = replace(
            spec.partitions[0].servants[0], state={"balance": {1, 2}}
        )
        bad = replace(
            spec,
            partitions=(
                replace(spec.partitions[0], servants=(bad_servant,)),
            )
            + spec.partitions[1:],
        )
        assert any("not JSON-shaped" in p for p in bad.problems())

    @pytest.mark.parametrize("field_name", ["sim_latency_ms", "real_latency_ms"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_latencies_must_be_finite(self, field_name, value):
        # a spec file may spell non-finite floats NaN or Infinity
        text = json.dumps({**tiny_spec().to_dict(), field_name: float(value)})
        assert value in text
        spec = DeploymentSpec.from_json(text)
        with pytest.raises(DeploymentError, match=f"{field_name} must be finite"):
            spec.validate()


# ---------------------------------------------------------------------------
# compile layer
# ---------------------------------------------------------------------------


class TestCompiler:
    def test_compile_is_side_effect_free_and_ordered(self):
        spec = banking_spec(nodes=2, replication=ReplicationSpec(count=1))
        plan = DeploymentCompiler().compile(spec)
        assert isinstance(plan, MigrationPlan)
        assert [action.kind for action in plan.actions] == [
            "add_user",
            "join",
            "join",
            "mark_read_only",
            "bind_servants",
            "set_replication",
        ]
        joins = [a.payload["node"] for a in plan.actions if a.kind == "join"]
        assert joins == spec.node_names
        description = plan.describe()
        assert description.startswith("application: refine 'bank' through 3 concern(s)")
        assert "migration plan (6 action(s))" in description

    def test_compile_rejects_invalid_spec(self):
        with pytest.raises(DeploymentError):
            DeploymentCompiler().compile(
                tiny_spec(replication=ReplicationSpec(count=5))
            )

    def test_compile_rejects_unknown_builder(self):
        spec = tiny_spec(
            application=ApplicationSpec(name="x", builder="no-such-builder")
        )
        with pytest.raises(DeploymentError, match="unknown application builder"):
            DeploymentCompiler().compile(spec)

    def test_registered_builder_is_resolved(self):
        register_application(
            "test:banking-pim", get_scenario("banking").build_pim
        )
        spec = tiny_spec(
            application=ApplicationSpec(
                name="bank",
                builder="test:banking-pim",
                concerns=tiny_spec().application.concerns,
            )
        )
        plan = DeploymentCompiler().compile(spec)
        assert plan.resource.roots[0].name == "bank"
        assert len(plan.concern_plan) == 1
        assert plan.describe().startswith("application: refine 'bank'")

    @pytest.mark.parametrize("make_spec", [banking_spec, tiny_spec])
    def test_plan_starts_from_what_a_fresh_federation_reads_back(self, make_spec):
        from repro.runtime import Federation

        spec = make_spec()
        fresh = Federation(
            seed=spec.seed,
            latency_ms=spec.sim_latency_ms,
            real_latency_s=spec.real_latency_ms / 1000.0,
            delivery_workers=spec.delivery_workers,
            transport=spec.transport,
        )
        fresh.spec = spec
        try:
            assert fresh.current_spec() == empty_spec(spec)
            plan = DeploymentCompiler().compile(spec)
            assert plan.current_digest == fresh.current_spec().digest()
            assert plan.target_digest == spec.digest()
        finally:
            fresh.shutdown()

    def test_deploy_records_no_rebalance_until_a_live_join(self):
        spec = tiny_spec(nodes=(NodeSpec("node-0"), NodeSpec("node-1", seed=5)))
        federation = DeploymentCompiler().deploy(spec)
        try:
            assert federation.joins == 0
            assert federation.bindings_moved == 0
            assert federation.last_rebalance == {}
            assert federation.observability.events.records("join") == []
            # undeclared seeds are seed*31 + position, declared ones kept
            assert federation.node("node-0").seed == spec.seed * 31
            assert federation.node("node-1").seed == 5
            federation.join(
                "node-2",
                deploy=lambda node: DeploymentCompiler.deploy_node(federation, node),
            )
            assert federation.joins == 1
            assert federation.last_rebalance["action"] == "join"
            assert federation.last_rebalance["total"] == 2
            assert len(federation.observability.events.records("join")) == 1
        finally:
            federation.shutdown()

    def test_deploy_materializes_the_spec(self):
        spec = banking_spec(nodes=2, replication=ReplicationSpec(count=1))
        federation = DeploymentCompiler().deploy(spec)
        try:
            assert sorted(federation.nodes) == ["node-0", "node-1"]
            assert federation.spec is spec
            assert federation.app_package is not None
            # every declared servant is live and resolvable
            for _key, servant_spec in spec.servants():
                servant = federation.servant(servant_spec.name)
                assert type(servant).__name__ == servant_spec.type_name
            # initial state came from the spec
            account = spec.partitions[0].servants[1]
            assert federation.servant(account.name).balance == 1000.0
            # read-only classification reached every node's bus
            for node in federation.nodes.values():
                assert "getBalance" in node.services.bus.read_only_ops["Account"]
            # replication live
            assert federation.replicas is not None
            assert federation.replicas.count == 1
            # a routed transactional call works (app + users deployed)
            client = FederationClient(federation, "alice", "pw")
            source = federation.ref(spec.partitions[0].servants[1].name)
            target = federation.ref(spec.partitions[0].servants[2].name)
            assert (
                client.call(
                    spec.partitions[0].servants[0].name,
                    "transfer",
                    source,
                    target,
                    25.0,
                )
                is True
            )
        finally:
            federation.shutdown()

    def test_deploy_binding_qos_default_applies(self):
        from dataclasses import replace

        spec = tiny_spec(
            qos_profiles=(QoSProfile("sturdy", retries=2),),
        )
        sturdy = replace(
            spec.partitions[0].servants[0], qos="sturdy"
        )
        spec = replace(
            spec,
            partitions=(
                replace(spec.partitions[0], servants=(sturdy,)),
            )
            + spec.partitions[1:],
        )
        federation = DeploymentCompiler().deploy(spec)
        try:
            declared = federation.qos_for(sturdy.name)
            assert declared == QoS(retries=2)
            assert federation.qos_for(spec.partitions[1].servants[0].name) is None
            # the declared retry budget absorbs a transport fault the
            # caller never opted into handling
            federation.faults.fail_next("federation.route")
            assert federation.call(sturdy.name, "getBalance") == 100.0
        finally:
            federation.shutdown()

    def test_current_spec_converges_with_deployed_spec(self):
        spec = banking_spec(nodes=2)
        federation = DeploymentCompiler().deploy(spec)
        try:
            extracted = federation.current_spec()
            assert DeploymentDiff.between(extracted, spec).empty
            # and the extraction itself is a valid, serializable spec
            extracted.validate()
            DeploymentSpec.from_dict(extracted.to_dict())
        finally:
            federation.shutdown()

    def test_runner_builds_through_the_compiler(self):
        config = run_config(nodes=2, concurrent=False, workers=2)
        runner = ScenarioRunner("banking", config)
        assert config.spec_digest == runner.deployment.digest()
        federation = runner.build()
        try:
            assert federation.spec == runner.deployment
        finally:
            federation.shutdown()

    def test_result_digest_detects_topology_drift(self):
        # identical workloads on different topologies must not collide
        small = ScenarioRunner(
            "banking", run_config(nodes=1, concurrent=False)
        ).run()
        large = ScenarioRunner(
            "banking", run_config(nodes=3, concurrent=False)
        ).run()
        assert small.config["spec_digest"] != large.config["spec_digest"]
        assert small.to_dict()["config"]["spec_digest"] == small.config["spec_digest"]


# ---------------------------------------------------------------------------
# derive once, weave per node
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def counted(*functions):
    """Count the executions of ``functions`` (by code object, so whatever
    name a caller imported them under) inside the block."""
    counts = {function.__name__: 0 for function in functions}
    names = {function.__code__: function.__name__ for function in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(None)


def audit_registry():
    """The default registry plus the logging concern's GMT/GA pair
    registered again under the concern name ``audit``."""
    from repro.concerns import logging_concern
    from repro.core import Concern, GenericAspect, GenericTransformation
    from repro.core.registry import default_registry

    logging = logging_concern.TRANSFORMATION
    audit = GenericTransformation(
        "T_audit",
        Concern("audit", viewpoint=logging.concern.viewpoint),
        logging.signature,
    )
    audit.preconditions = logging.preconditions
    audit.postconditions = logging.postconditions
    audit.rules = logging.rules
    audit.associate_aspect(
        GenericAspect(
            "A_audit",
            logging.signature,
            logging_concern.build,
            factory_ref="repro.concerns.logging_concern.aspect:build",
        )
    )
    registry = default_registry()
    registry.register(audit)
    return registry


class TestDeriveOnceWeavePerNode:
    def test_deploy_refines_once_and_a_live_join_refines_nothing(self):
        from repro.codegen.python_backend import generate_module
        from repro.core import MdaLifecycle

        with counted(MdaLifecycle.apply_plan, generate_module) as deploy:
            federation = DeploymentCompiler().deploy(banking_spec(nodes=3))
        try:
            assert deploy == {"apply_plan": 1, "generate_module": 1}
            with counted(MdaLifecycle.apply_plan, generate_module) as join:
                joined = federation.join(
                    "node-elastic",
                    deploy=lambda node: DeploymentCompiler.deploy_node(federation, node),
                )
            assert join == {"apply_plan": 0, "generate_module": 0}
            assert federation.last_rebalance["moved"] > 0
            moved = sorted(joined.naming.list())[0]
            assert FederationClient(federation, "alice", "pw").call(
                moved, "getBalance"
            ) == 1000.0
        finally:
            federation.shutdown()

    def test_each_node_weaves_its_own_aspects_on_its_own_services(self):
        import inspect

        spec = banking_spec(nodes=3, entities_per_node=2)
        federation = DeploymentCompiler().deploy(spec)
        try:
            nodes = list(federation.nodes.values())
            deployed = {node.name: node.services.weaver.deployed_aspects for node in nodes}
            names = [[aspect.name for aspect in aspects] for aspects in deployed.values()]
            assert len(names[0]) == 3 and names.count(names[0]) == 3
            ids = [id(aspect) for aspects in deployed.values() for aspect in aspects]
            assert len(set(ids)) == len(ids)
            for node in nodes:
                own = {
                    "services": node.services,
                    "orb": node.services.orb,
                    "manager": node.services.transactions,
                }
                closed = [
                    (name, value)
                    for aspect in deployed[node.name]
                    for advice in aspect.advices
                    for name, value in inspect.getclosurevars(advice.body).nonlocals.items()
                    if name in own
                ]
                # distribution's orb, transactions' manager, security's services
                assert {name for name, _ in closed} == set(own)
                assert all(value is own[name] for name, value in closed)

            teller = FederationClient(federation, "alice", "pw")
            served = set()
            for partition in spec.partitions:
                owner = federation.naming.owner_of(partition.key)
                if owner in served:
                    continue
                bank, source, target = (s.name for s in partition.servants[:3])
                assert teller.call(
                    bank, "transfer", federation.ref(source), federation.ref(target), 1.0
                ) is True
                served.add(owner)
            assert served == set(federation.nodes)
        finally:
            federation.shutdown()

    def test_nodes_weave_the_compilers_registry(self):
        concerns = tiny_spec().application.concerns + (
            ConcernSpec(concern="audit", params={"log_patterns": ["Account.*"]}),
        )
        spec = tiny_spec(
            application=ApplicationSpec(
                name="bank", builder="scenario:banking", concerns=concerns
            )
        )
        federation = DeploymentCompiler(registry=audit_registry()).deploy(spec)
        try:
            assert federation.call("p-0/Account/0", "deposit", 5.0) == 105.0
            owner = federation.node_for("p-0")
            audit = next(
                aspect
                for aspect in owner.services.weaver.deployed_aspects
                if aspect.name.startswith("A_audit")
            )
            assert ("info", "enter", "Account.deposit") in audit.records
        finally:
            federation.shutdown()


# ---------------------------------------------------------------------------
# reconcile layer: diff -> ordered migration plan -> live apply
# ---------------------------------------------------------------------------


class TestDiffAndPlan:
    def test_converged_specs_produce_empty_plan(self):
        spec = banking_spec()
        diff = DeploymentDiff.between(spec, spec)
        assert diff.empty
        assert diff.plan().empty

    def test_join_is_ordered_before_retire(self):
        """A node swap must never strand a partition: additions first."""
        from dataclasses import replace

        base = tiny_spec()
        swapped = replace(
            base, nodes=(NodeSpec("node-1"), NodeSpec("node-2"))
        )
        plan = DeploymentDiff.between(base, swapped).plan()
        kinds = [action.kind for action in plan.actions]
        assert kinds.index("join") < kinds.index("retire")

    def test_replication_raise_ordered_after_join(self):
        from dataclasses import replace

        base = tiny_spec(replication=ReplicationSpec(count=1))
        target = replace(
            base,
            nodes=base.nodes + (NodeSpec("node-2"),),
            replication=ReplicationSpec(count=2),
        )
        plan = DeploymentDiff.between(base, target).plan()
        kinds = [action.kind for action in plan.actions]
        assert kinds.index("join") < kinds.index("set_replication")

    def test_reconciled_join_seeds_by_position(self):
        from dataclasses import replace

        base = tiny_spec(seed=3)
        federation = DeploymentCompiler().deploy(base)
        try:
            target = replace(base, nodes=base.nodes + (NodeSpec("node-2"),))
            apply_spec(federation, target)
            assert federation.node("node-2").seed == 3 * 31 + 2
        finally:
            federation.shutdown()

    def test_reconciled_join_never_reuses_a_live_seed(self):
        from dataclasses import replace

        base = tiny_spec(seed=3)
        federation = DeploymentCompiler().deploy(base)
        try:
            grown = replace(base, nodes=base.nodes + (NodeSpec("node-2"),))
            apply_spec(federation, grown)
            # node-1 retires and node-3 takes its position in the spec
            swapped = replace(
                grown, nodes=(NodeSpec("node-0"), NodeSpec("node-3"), NodeSpec("node-2"))
            )
            apply_spec(federation, swapped)
            seeds = {name: node.seed for name, node in federation.nodes.items()}
            assert sorted(seeds) == ["node-0", "node-2", "node-3"]
            assert len(set(seeds.values())) == 3, seeds
        finally:
            federation.shutdown()

    def test_single_node_swap_executes_live(self):
        """Retire-before-join would hit 'last node'; the plan must not."""
        from dataclasses import replace

        base = tiny_spec(nodes=(NodeSpec("node-0"),))
        federation = DeploymentCompiler().deploy(base)
        try:
            target = replace(base, nodes=(NodeSpec("node-1"),))
            plan = apply_spec(federation, target)
            assert [a.kind for a in plan.actions] == ["join", "retire"]
            assert sorted(federation.nodes) == ["node-1"]
            # state survived the double migration
            assert federation.call("p-0/Account/0", "getBalance") == 100.0
        finally:
            federation.shutdown()

    def test_changed_application_is_not_migratable(self):
        from dataclasses import replace

        base = tiny_spec()
        changed = replace(
            base,
            application=replace(base.application, builder="scenario:auction"),
        )
        with pytest.raises(DeploymentError, match="redeploy"):
            DeploymentDiff.between(base, changed)

    def test_changed_workers_is_not_migratable(self):
        from dataclasses import replace

        base = tiny_spec()
        changed = replace(base, nodes=(NodeSpec("node-0", workers=4),) + base.nodes[1:])
        with pytest.raises(DeploymentError, match="workers"):
            DeploymentDiff.between(base, changed)

    def test_replication_cannot_be_lowered(self):
        from dataclasses import replace

        base = tiny_spec(replication=ReplicationSpec(count=1))
        lowered = replace(base, replication=ReplicationSpec(count=0))
        with pytest.raises(DeploymentError, match="cannot be lowered"):
            DeploymentDiff.between(base, lowered)

    def test_servant_type_change_is_not_migratable(self):
        from dataclasses import replace

        base = tiny_spec()
        mutated = replace(
            base,
            partitions=(
                replace(
                    base.partitions[0],
                    servants=(
                        replace(
                            base.partitions[0].servants[0], type_name="Bank"
                        ),
                    ),
                ),
            )
            + base.partitions[1:],
        )
        with pytest.raises(DeploymentError, match="changed type"):
            DeploymentDiff.between(base, mutated)

    def test_servant_addition_binds_on_the_live_federation(self):
        from dataclasses import replace

        base = tiny_spec()
        federation = DeploymentCompiler().deploy(base)
        try:
            grown = replace(
                base,
                partitions=base.partitions
                + (
                    PartitionSpec(
                        key="p-9",
                        servants=(
                            ServantSpec(
                                name="p-9/Account/0",
                                type_name="Account",
                                state={"number": "p-9/Account/0", "balance": 7.0},
                            ),
                        ),
                    ),
                ),
            )
            plan = apply_spec(federation, grown)
            assert any(a.kind == "bind_servants" for a in plan.actions)
            assert federation.call("p-9/Account/0", "getBalance") == 7.0
            # removal unbinds again
            plan = apply_spec(federation, base)
            assert any(a.kind == "unbind_servants" for a in plan.actions)
            with pytest.raises(ReproError):
                federation.call("p-9/Account/0", "getBalance")
        finally:
            federation.shutdown()

    def test_narrowed_read_only_classification_takes_effect(self):
        """Reclassifying an op as mutating must actually clear it (a
        merge would keep skipping its replication syncs) and converge."""
        from dataclasses import replace

        base = tiny_spec(replication=ReplicationSpec(count=1))
        federation = DeploymentCompiler().deploy(base)
        try:
            narrowed = replace(
                base,
                partitions=tuple(
                    replace(
                        partition,
                        servants=tuple(
                            replace(servant, read_only_ops=())
                            for servant in partition.servants
                        ),
                    )
                    for partition in base.partitions
                ),
            )
            plan = apply_spec(federation, narrowed)
            marks = [a for a in plan.actions if a.kind == "mark_read_only"]
            assert len(marks) == 1  # one per changed *type*, deduped
            assert federation.read_only_ops["Account"] == frozenset()
            for node in federation.nodes.values():
                assert node.services.bus.read_only_ops["Account"] == frozenset()
            # the reclassified op now syncs again
            synced_before = federation.replicas.stats()["syncs"]
            federation.call("p-0/Account/0", "getBalance")
            assert federation.replicas.stats()["syncs"] > synced_before
            assert DeploymentDiff.between(
                federation.current_spec(), narrowed
            ).empty
        finally:
            federation.shutdown()

    def test_qos_change_is_diffed_and_applied(self):
        from dataclasses import replace

        base = tiny_spec(qos_profiles=(QoSProfile("plan", retries=1),))
        base = replace(
            base,
            partitions=(
                replace(
                    base.partitions[0],
                    servants=(
                        replace(base.partitions[0].servants[0], qos="plan"),
                    ),
                ),
            )
            + base.partitions[1:],
        )
        federation = DeploymentCompiler().deploy(base)
        try:
            assert federation.qos_for("p-0/Account/0") == QoS(retries=1)
            raised = replace(
                base, qos_profiles=(QoSProfile("plan", retries=5),)
            )
            diff = DeploymentDiff.between(federation.current_spec(), raised)
            assert diff.qos_changed and not diff.empty
            plan = apply_spec(federation, raised)
            assert any(a.kind == "set_binding_qos" for a in plan.actions)
            assert federation.qos_for("p-0/Account/0") == QoS(retries=5)
            assert DeploymentDiff.between(
                federation.current_spec(), raised
            ).empty
        finally:
            federation.shutdown()

    def test_added_user_is_provisioned_and_removal_is_refused(self):
        from dataclasses import replace

        base = tiny_spec(users=(UserSpec("alice", "pw", ("teller",)),))
        federation = DeploymentCompiler().deploy(base)
        try:
            grown = replace(
                base,
                users=base.users + (UserSpec("bob", "pw2", ("teller",)),),
            )
            plan = apply_spec(federation, grown)
            assert any(a.kind == "add_user" for a in plan.actions)
            bob = FederationClient(federation, "bob", "pw2")
            assert bob.call("p-0/Account/0", "getBalance") == 100.0
            with pytest.raises(DeploymentError, match="redeploy"):
                apply_spec(federation, base)  # user removal refused
        finally:
            federation.shutdown()

    def test_transport_parameter_changes_are_refused(self):
        from dataclasses import replace

        base = tiny_spec()
        with pytest.raises(DeploymentError, match="sim_latency_ms"):
            DeploymentDiff.between(base, replace(base, sim_latency_ms=9.0))

    def test_changed_transport_or_seed_is_refused_live(self):
        """A deployed inproc federation cannot become a socket or
        re-seeded one in place: the apply refuses, and the drift check
        keeps reading the live transport and seed."""
        from dataclasses import replace

        base = tiny_spec()
        federation = DeploymentCompiler().deploy(base)
        try:
            for changed, field_name in (
                (replace(base, transport="socket", seed=99), "transport"),
                (replace(base, seed=99), "seed"),
            ):
                with pytest.raises(DeploymentError, match=field_name):
                    apply_spec(federation, changed)
                assert federation.spec is base
                current = federation.current_spec()
                assert (current.transport, current.seed) == ("inproc", 0)
                with pytest.raises(DeploymentError, match="redeploy"):
                    DeploymentDiff.between(current, changed)
            assert federation.transport_mode == "inproc"
        finally:
            federation.shutdown()

    def test_extracted_spec_stays_valid_after_fault_reconfiguration(self):
        from dataclasses import replace

        base = tiny_spec(
            faults=FaultCampaignSpec(
                sites=(FaultSiteSpec("bus.*", 0.02),), armed=True
            )
        )
        federation = DeploymentCompiler().deploy(base)
        try:
            louder = replace(
                base,
                faults=FaultCampaignSpec(
                    sites=(FaultSiteSpec("bus.*", 0.05),), armed=True
                ),
            )
            apply_spec(federation, louder)
            extracted = federation.current_spec()
            extracted.validate()  # no duplicate fault sites (last wins)
            assert DeploymentDiff.between(extracted, louder).empty
        finally:
            federation.shutdown()

    def test_fault_site_changes_apply(self):
        from dataclasses import replace

        base = tiny_spec()
        federation = DeploymentCompiler().deploy(base)
        try:
            noisy = replace(
                base,
                faults=FaultCampaignSpec(
                    sites=(FaultSiteSpec("federation.route", 0.25),), armed=True
                ),
            )
            apply_spec(federation, noisy)
            assert ("federation.route", 0.25, {}) in [
                (site, probability, kwargs)
                for site, probability, kwargs in federation._fault_sites
            ]
        finally:
            federation.shutdown()


class TestLiveReconcileUnderLoad:
    def test_add_node_and_raise_replicas_with_zero_failed_calls(self):
        """The acceptance bar: a spec diff (add node + raise replica
        count) applied to a live federation converges with zero failed
        in-flight calls."""
        from dataclasses import replace

        spec = banking_spec(
            nodes=3,
            entities_per_node=2,
            replication=ReplicationSpec(count=1),
        )
        federation = DeploymentCompiler().deploy(spec)
        errors = []
        stop = threading.Event()

        accounts = [
            servant.name
            for _key, servant in spec.servants()
            if "/Account/" in servant.name
        ]

        def hammer(index: int) -> None:
            client = FederationClient(federation, "alice", "pw")
            i = 0
            try:
                while not stop.is_set():
                    name = accounts[(index + i) % len(accounts)]
                    client.call(name, "deposit", 1.0)
                    client.call(name, "getBalance")
                    i += 1
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(i,), name=f"load-{i}")
            for i in range(4)
        ]
        try:
            for thread in threads:
                thread.start()
            target = replace(
                spec,
                name="banking-grown",
                nodes=spec.nodes + (NodeSpec("node-3", workers=2, seed=99),),
                replication=ReplicationSpec(count=2),
            )
            plan = apply_spec(federation, target)
            assert [a.kind for a in plan.actions] == ["join", "set_replication"]
            stop.set()
            for thread in threads:
                thread.join()
            assert not errors, f"in-flight calls failed during reconcile: {errors!r}"
            assert sorted(federation.nodes) == [
                "node-0",
                "node-1",
                "node-2",
                "node-3",
            ]
            assert federation.replicas.count == 2
            drift = DeploymentDiff.between(federation.current_spec(), target)
            assert drift.empty, drift.describe()
        finally:
            stop.set()
            for thread in threads:
                if thread.is_alive():
                    thread.join()
            federation.shutdown()


# ---------------------------------------------------------------------------
# mutation narrowing: read-only routed calls skip the replication sync
# ---------------------------------------------------------------------------


#: the one replication decision holds on every transport: the bus's
#: mutation record for in-process nodes (socket hops included), the
#: read-only classification for worker processes
ON_EVERY_TRANSPORT = pytest.mark.parametrize(
    "transport", ["inproc", "socket", "process"]
)


class TestMutationNarrowing:
    def _deploy(self, **overrides):
        spec = tiny_spec(
            replication=ReplicationSpec(count=1), **overrides
        )
        return spec, DeploymentCompiler().deploy(spec)

    @ON_EVERY_TRANSPORT
    def test_read_only_calls_skip_sync(self, transport):
        _spec, federation = self._deploy(transport=transport)
        try:
            replicas = federation.replicas
            synced_before = replicas.stats()["syncs"]
            for _ in range(5):
                federation.call("p-0/Account/0", "getBalance")
            stats = replicas.stats()
            assert stats["syncs"] == synced_before
            assert stats["skipped_syncs"] >= 5
        finally:
            federation.shutdown()

    @ON_EVERY_TRANSPORT
    def test_mutating_calls_still_sync(self, transport):
        _spec, federation = self._deploy(transport=transport)
        try:
            replicas = federation.replicas
            synced_before = replicas.stats()["syncs"]
            federation.call("p-0/Account/0", "deposit", 10.0)
            assert replicas.stats()["syncs"] > synced_before
        finally:
            federation.shutdown()

    @ON_EVERY_TRANSPORT
    def test_unclassified_types_always_sync(self, transport):
        from dataclasses import replace

        spec = tiny_spec(replication=ReplicationSpec(count=1), transport=transport)
        spec = replace(
            spec,
            partitions=tuple(
                replace(
                    partition,
                    servants=tuple(
                        replace(servant, read_only_ops=())
                        for servant in partition.servants
                    ),
                )
                for partition in spec.partitions
            ),
        )
        federation = DeploymentCompiler().deploy(spec)
        try:
            synced_before = federation.replicas.stats()["syncs"]
            federation.call("p-0/Account/0", "getBalance")
            # no classification -> reads count as potential mutations
            assert federation.replicas.stats()["syncs"] > synced_before
        finally:
            federation.shutdown()

    def test_kill_after_read_only_tail_still_captures_last_write(self):
        """The narrowing regression bar: a standby promoted after a kill
        must hold the last write even when every call after that write
        was read-only (and therefore skipped its sync)."""
        _spec, federation = self._deploy()
        try:
            name = "p-0/Account/0"
            owner = federation.naming.owner_of("p-0")
            federation.call(name, "deposit", 41.0)  # the last write
            for _ in range(8):  # read-only tail: all syncs skipped
                federation.call(name, "getBalance")
            federation.kill(owner)
            federation.reconcile()
            assert federation.call(name, "getBalance") == 141.0
        finally:
            federation.shutdown()

    def test_kill_race_with_concurrent_writers_loses_no_effects(self):
        """Writers racing the kill: every deposit that *returned* must be
        present on the promoted standby (drain covers the final sync)."""
        spec = tiny_spec(replication=ReplicationSpec(count=1))
        federation = DeploymentCompiler().deploy(spec)
        try:
            name = "p-0/Account/0"
            victim = federation.naming.owner_of("p-0")
            applied = []
            applied_lock = threading.Lock()
            retry = QoS(retries=3)

            def writer(stop: threading.Event) -> None:
                while not stop.is_set():
                    try:
                        federation.call(name, "deposit", 1.0, qos=retry)
                    except ReproError:
                        continue
                    with applied_lock:
                        applied.append(1.0)

            stop = threading.Event()
            threads = [
                threading.Thread(target=writer, args=(stop,)) for _ in range(3)
            ]
            for thread in threads:
                thread.start()
            try:
                federation.kill(victim)
                federation.reconcile()
            finally:
                # a failing kill must not leave the writers running
                stop.set()
                for thread in threads:
                    thread.join()
            balance = federation.call(name, "getBalance")
            assert balance >= 100.0 + sum(applied), (
                f"promoted standby lost writes: balance {balance}, "
                f"acknowledged deposits {sum(applied)}"
            )
        finally:
            federation.shutdown()


class TestPipelinedFailover:
    def test_rerouted_batch_carries_the_new_owners_credentials(self):
        """A batch that failover re-routes mints each attempt's
        credentials against the promoted owner, as a single call does:
        a token minted by the dead owner means nothing there."""
        from dataclasses import replace

        spec = banking_spec(nodes=3, replication=ReplicationSpec(count=1))
        guarded = {
            "protected_ops": ["Account.deposit"],
            "role_grants": {"teller": ["Account.*"]},
        }
        concerns = tuple(
            replace(concern, params=guarded) if concern.concern == "security" else concern
            for concern in spec.application.concerns
        )
        spec = replace(spec, application=replace(spec.application, concerns=concerns))
        federation = DeploymentCompiler().deploy(spec)
        try:
            client = FederationClient(federation, "alice", "pw")
            accounts = [f"branch-0/Account/{i}" for i in range(3)]
            # one deposit each mints the client's token on the owner
            balances = [client.call(name, "deposit", 1.0) for name in accounts]
            federation.kill(federation.naming.owner_of("branch-0"))
            pipe = client.pipeline(qos=QoS(retries=2, timeout_ms=10_000))
            futures = [pipe.call(name, "deposit", 1.0) for name in accounts]
            pipe.flush()
            assert [future.result() for future in futures] == [
                balance + 1.0 for balance in balances
            ]
            assert federation.failovers == 1
        finally:
            federation.shutdown()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestDeployCli:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(banking_spec(nodes=2).to_json())
        return str(path)

    def test_check_validates_and_prints_digest(self, spec_path, capsys):
        from repro.cli import main

        assert main(["deploy", "--spec", spec_path, "--check"]) == 0
        out = capsys.readouterr().out
        assert "spec is valid" in out
        assert banking_spec(nodes=2).digest() in out

    def test_check_rejects_invalid_spec(self, tmp_path, capsys):
        from repro.cli import main

        bad = banking_spec(nodes=2, replication=ReplicationSpec(count=9))
        path = tmp_path / "bad.json"
        path.write_text(bad.to_json())
        assert main(["deploy", "--spec", str(path), "--check"]) == 1
        assert "smaller than the node count" in capsys.readouterr().err

    def test_dry_run_prints_migration_plan(self, spec_path, capsys):
        from repro.cli import main

        assert main(["deploy", "--spec", spec_path]) == 0
        out = capsys.readouterr().out
        assert "migration plan" in out
        assert "application: refine 'bank'" in out
        for node in banking_spec(nodes=2).node_names:
            assert out.count(f"join: join node {node!r}") == 1

    def test_diff_prints_migration_plan(self, spec_path, tmp_path, capsys):
        from dataclasses import replace

        from repro.cli import main

        base = banking_spec(nodes=2)
        target = replace(
            base, nodes=base.nodes + (NodeSpec("node-2", workers=2),)
        )
        target_path = tmp_path / "target.json"
        target_path.write_text(target.to_json())
        assert main(["deploy", "--spec", spec_path, "--diff", str(target_path)]) == 0
        out = capsys.readouterr().out
        assert "+ node node-2" in out
        assert "join: join node 'node-2'" in out

    def test_apply_reconciles_and_converges(self, spec_path, tmp_path, capsys):
        from dataclasses import replace

        from repro.cli import main

        base = banking_spec(nodes=2)
        target = replace(
            base,
            name="grown",
            nodes=base.nodes + (NodeSpec("node-2", workers=2),),
            replication=ReplicationSpec(count=1),
        )
        target_path = tmp_path / "target.json"
        target_path.write_text(target.to_json())
        assert main(["deploy", "--spec", spec_path, "--apply", str(target_path)]) == 0
        assert "converged" in capsys.readouterr().out

    def test_simulate_describe_prints_spec_digest(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "simulate",
                    "--scenario",
                    "banking",
                    "--serial",
                    "--describe",
                ]
            )
            == 0
        )
        described = json.loads(capsys.readouterr().out)
        assert described["scenario"] == "banking"
        assert described["spec_digest"]
