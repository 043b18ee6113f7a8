"""S17 — Declarative deployment: spec → compile → reconcile.

The deployment subsystem closes the loop between the paper's
declarative-configuration pipeline (PR 1: *which concerns* refine an
application) and the elastic runtime (PR 2–4: *where* the refined
application runs):

* :mod:`repro.deploy.spec` — :class:`DeploymentSpec` and its parts:
  topology, servant placement + initial state + read-only operation
  classification, replication, fault campaign, QoS profiles, users.
  Lossless JSON round-trip, referential validation, stable digest.
* :mod:`repro.deploy.compiler` — :class:`DeploymentCompiler`: resolve
  and schedule a spec's application through the configuration
  pipeline, lower the spec into the :class:`MigrationPlan` from the
  empty spec, and materialize it as a live
  :class:`~repro.runtime.federation.Federation`
  (``deploy(spec) -> Federation``).
* :mod:`repro.deploy.reconcile` — :class:`DeploymentDiff` /
  :class:`MigrationPlan`: reconfiguration as a spec diff executed
  through the migration-gate machinery (``apply(federation, target)``),
  with ``Federation.current_spec()`` as the drift-check inverse.  A
  deployment executes the same plan, so there is one path from spec to
  running federation.
"""

from repro.deploy.compiler import (
    DeploymentCompiler,
    empty_spec,
    extract_spec,
    register_application,
    resolve_application,
)
from repro.deploy.reconcile import (
    DeploymentDiff,
    MigrationAction,
    MigrationPlan,
    apply,
)
from repro.deploy.spec import (
    SPEC_FORMAT,
    ApplicationSpec,
    ConcernSpec,
    DeploymentSpec,
    FaultCampaignSpec,
    FaultSiteSpec,
    NodeSpec,
    ObservabilitySpec,
    PartitionSpec,
    QoSProfile,
    ReplicationSpec,
    ServantSpec,
    UserSpec,
)

__all__ = [
    "SPEC_FORMAT",
    "ApplicationSpec",
    "ConcernSpec",
    "DeploymentCompiler",
    "DeploymentDiff",
    "DeploymentSpec",
    "FaultCampaignSpec",
    "FaultSiteSpec",
    "MigrationAction",
    "MigrationPlan",
    "NodeSpec",
    "ObservabilitySpec",
    "PartitionSpec",
    "QoSProfile",
    "ReplicationSpec",
    "ServantSpec",
    "UserSpec",
    "apply",
    "empty_spec",
    "extract_spec",
    "register_application",
    "resolve_application",
]
