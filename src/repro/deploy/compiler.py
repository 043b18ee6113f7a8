"""Compile a :class:`~repro.deploy.spec.DeploymentSpec` into a running federation.

The compiler is the single seam between the declarative model and the
runtime: ``deploy(spec) -> Federation``.  A deployment is the
reconciler's plan from the *empty spec* (:func:`empty_spec`, what a
fresh federation reads back), so every spec section has one
materialization, shared by bring-up and live reconfiguration.
Lowering happens in two phases, mirroring the configuration
pipeline's plan/schedule/execute split:

1. :meth:`DeploymentCompiler.compile` — *no side effects*: validate the
   spec, resolve the application PIM (builder registry or XMI file),
   bind the concern selections as a
   :class:`~repro.pipeline.ConfigurationPlan`, schedule them through
   the pipeline's precedence DAG, and diff the empty spec into the
   spec.  The result is a :class:`~repro.deploy.reconcile.MigrationPlan`
   carrying the resolved application — inspectable before anything
   runs (the CLI's dry-run).

2. :meth:`DeploymentCompiler.deploy` — create the federation, refine
   the application *once* on a vendor lifecycle (driven through the
   batched pipeline executor, against the compiler's registry), ship it
   as a :class:`~repro.core.shipping.ComponentPackage`, and execute the
   plan: users, one ``join`` per node (each weaves the package's one
   derivation on its own services, so every member hosts the same
   generated classes and concrete aspects), read-only classification,
   servants from their :class:`~repro.deploy.spec.ServantSpec` state,
   replication, QoS defaults, the fault campaign and observability
   knobs.

``extract_spec`` is the inverse projection: a live federation back into
a :class:`DeploymentSpec` (``Federation.current_spec()``), which is what
the reconciler diffs a target spec against.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

from repro.deploy.reconcile import DeploymentDiff, MigrationPlan
from repro.deploy.spec import (
    ApplicationSpec,
    DeploymentSpec,
    FaultCampaignSpec,
    FaultSiteSpec,
    NodeSpec,
    ObservabilitySpec,
    PartitionSpec,
    ReplicationSpec,
    ServantSpec,
    UserSpec,
)
from repro.errors import DeploymentError, ReproError

#: registered application builders: name -> () -> ModelResource
_BUILDERS: Dict[str, Callable[[], Any]] = {}

SCENARIO_BUILDER_PREFIX = "scenario:"


def register_application(name: str, builder: Callable[[], Any]) -> None:
    """Register a PIM builder under ``name`` for specs to reference."""
    _BUILDERS[name] = builder


def resolve_application(app: ApplicationSpec):
    """The application's PIM resource (builder registry, scenario, or XMI)."""
    if app.builder is not None:
        builder = _BUILDERS.get(app.builder)
        if builder is not None:
            return builder()
        if app.builder.startswith(SCENARIO_BUILDER_PREFIX):
            from repro.runtime.scenarios import get_scenario

            scenario_name = app.builder[len(SCENARIO_BUILDER_PREFIX):]
            try:
                return get_scenario(scenario_name).build_pim()
            except ReproError as exc:
                raise DeploymentError(
                    f"application builder {app.builder!r} failed: {exc}"
                ) from exc
        raise DeploymentError(
            f"unknown application builder {app.builder!r} "
            f"(register one, or use '{SCENARIO_BUILDER_PREFIX}<name>')"
        )
    from repro.uml import UML
    from repro.xmi import read_xmi

    try:
        return read_xmi(app.model_xmi, UML.package)
    except (OSError, ReproError) as exc:
        raise DeploymentError(
            f"application model {app.model_xmi!r} could not be loaded: {exc}"
        ) from exc


def concern_plan(app: ApplicationSpec):
    """Lower the concern selections into the pipeline's plan IR."""
    from repro.pipeline import ConfigurationPlan

    plan = ConfigurationPlan()
    for concern in app.concerns:
        plan.select(concern.concern, after=concern.after, **concern.params)
    return plan


def empty_spec(spec: DeploymentSpec) -> DeploymentSpec:
    """The spec a fresh federation built for ``spec`` reads back through
    ``current_spec()``: no nodes, partitions, users, replication or fault
    sites, and default observability knobs — the application, QoS
    profiles, latencies, delivery workers, seed and transport as
    ``spec`` declares them.  A deployment is the plan from here."""
    return dataclasses.replace(
        spec,
        nodes=(),
        partitions=(),
        users=(),
        replication=ReplicationSpec(),
        faults=FaultCampaignSpec(),
        observability=ObservabilitySpec(),
    )


class DeploymentCompiler:
    """Turns a validated spec into a deploy plan and a live federation."""

    def __init__(self, registry=None):
        if registry is None:
            from repro.core.registry import default_registry

            registry = default_registry()
        self.registry = registry

    # -- phase 1: lowering (no side effects) ------------------------------------

    def compile(self, spec: DeploymentSpec) -> MigrationPlan:
        """Validate + lower: application resolved, concerns scheduled,
        and the spec diffed from :func:`empty_spec` into the migration
        plan a deployment executes.  Touches nothing live."""
        from repro.pipeline import Scheduler

        # between() validates the spec before anything is resolved
        plan = DeploymentDiff.between(empty_spec(spec), spec).plan()
        plan.resource = resolve_application(spec.application)
        plan.concern_plan = concern_plan(spec.application)
        plan.schedule = Scheduler().schedule(plan.concern_plan.bind(self.registry))
        return plan

    # -- phase 2: materialization -------------------------------------------------

    def deploy(self, spec: DeploymentSpec, metrics=None):
        """Materialize ``spec`` as a live :class:`Federation`."""
        from repro.core import MdaLifecycle, MiddlewareServices, ship
        from repro.runtime.federation import Federation

        plan = self.compile(spec)
        federation = Federation(
            seed=spec.seed,
            latency_ms=spec.sim_latency_ms,
            real_latency_s=spec.real_latency_ms / 1000.0,
            metrics=metrics,
            delivery_workers=spec.delivery_workers,
            transport=spec.transport,
        )
        try:
            # the vendor side refines once, through the pipeline — on
            # the resource the compile phase already resolved; every
            # node the plan joins weaves the shipped package's
            # derivation against its own services
            vendor = MdaLifecycle(
                plan.resource,
                registry=self.registry,
                services=MiddlewareServices.create(),
            )
            if spec.application.concerns:
                vendor.apply_plan(plan.concern_plan)
            federation.app_package = ship(vendor)
            plan.execute(federation)
            federation.spec = spec
            return federation
        except BaseException:
            federation.shutdown()
            raise

    @staticmethod
    def deploy_node(federation, node) -> None:
        """Install the federation's shipped application on one node: an
        in-process node weaves the deploy's one derivation, a worker
        process derives it once by a verified replay."""
        if federation.app_package is None:
            raise DeploymentError(
                "federation has no shipped application package to install"
            )
        node.install(federation.app_package)


# ---------------------------------------------------------------------------
# live topology -> spec (the reconciler's "current" side)
# ---------------------------------------------------------------------------


def extract_spec(federation, include_state: bool = False) -> DeploymentSpec:
    """Project a live federation back into a :class:`DeploymentSpec`.

    Structure (nodes, partitions, servant names/types/classification,
    replication, armed fault sites, users), the transport knobs and the
    seed are re-read from the live federation; the application section
    and QoS declarations are taken from the spec the federation was
    compiled from (they cannot drift at runtime).  ``include_state``
    snapshots each servant's attribute dict — useful as a manifest
    view, but mutable state never participates in structural diffs.
    """
    from repro.runtime.federation import ShardedNamingService

    deployed: Optional[DeploymentSpec] = federation.spec
    if deployed is not None:
        application = deployed.application
        qos_profiles = deployed.qos_profiles
        client_qos = deployed.client_qos
        name = deployed.name
        servant_qos = {
            servant.name: servant.qos
            for _partition, servant in deployed.servants()
        }
    else:
        application = ApplicationSpec(name="adopted", builder="adopted")
        qos_profiles = ()
        client_qos = None
        name = "extracted"
        servant_qos = {}

    nodes = tuple(
        NodeSpec(name=node.name, workers=node.workers, seed=node.seed)
        for node in sorted(federation.nodes.values(), key=lambda n: n.name)
    )
    grouped: Dict[str, List[str]] = {}
    for bound in federation.naming.list():
        grouped.setdefault(
            ShardedNamingService.partition_key(bound), []
        ).append(bound)
    read_only = {
        type_name: tuple(sorted(ops))
        for type_name, ops in federation.read_only_ops.items()
    }
    partitions = []
    for key in sorted(grouped):
        servants = []
        for bound in sorted(grouped[key]):
            servant = federation.servant(bound)
            type_name = type(servant).__name__
            state: Dict[str, Any] = {}
            if include_state:
                state = dict(servant.__dict__)
            servants.append(
                ServantSpec(
                    name=bound,
                    type_name=type_name,
                    state=state,
                    read_only_ops=read_only.get(type_name, ()),
                    qos=servant_qos.get(bound),
                )
            )
        partitions.append(
            PartitionSpec(
                key=key,
                servants=tuple(servants),
                node=federation.naming.owner_of(key),
            )
        )
    return DeploymentSpec(
        name=name,
        application=application,
        nodes=nodes,
        partitions=tuple(partitions),
        replication=(
            ReplicationSpec(
                count=federation.replicas.count,
                snapshot_every=federation.replicas.snapshot_every,
            )
            if federation.replicas
            else ReplicationSpec()
        ),
        # the federation's fault log is append-only (reconfigured sites
        # are re-appended); collapse it last-wins so the extracted spec
        # has unique sites and passes its own validate()
        faults=FaultCampaignSpec(
            sites=tuple(
                FaultSiteSpec(site=site, probability=probability)
                for site, probability in {
                    site: probability
                    for site, probability, _kwargs in federation._fault_sites
                }.items()
            ),
            armed=bool(federation._fault_sites),
        ),
        users=tuple(
            UserSpec(name=user, password=password, roles=tuple(roles))
            for user, password, roles in federation._provisioned_users
        ),
        qos_profiles=qos_profiles,
        client_qos=client_qos,
        observability=ObservabilitySpec(
            sample_rate=federation.observability.tracer.sample_rate,
            slow_call_ms=federation.observability.tracer.slow_call_ms,
            event_log_capacity=federation.observability.events.capacity,
            span_capacity=federation.observability.tracer.capacity,
        ),
        sim_latency_ms=federation.latency_ms,
        real_latency_ms=federation.real_latency_s * 1000.0,
        delivery_workers=federation.delivery_workers,
        seed=federation.seed,
        transport=federation.transport_mode,
    )
