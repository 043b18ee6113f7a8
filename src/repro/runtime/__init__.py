"""S14 — Distributed runtime: federation, concurrent dispatch, scenarios.

The middleware substrate (S10) simulates the services *one* application
instance uses.  This package turns those services into a runtime fabric:

* :mod:`repro.runtime.dispatch` — sequential and permit-bounded
  (caller-runs) request dispatchers with per-servant serialization;
* :mod:`repro.runtime.metrics` — thread-safe throughput/error/latency
  (p50/p95/p99/p99.9, bounded log-bucketed histograms) statistics per
  operation and per node, plus sampled level gauges;
* :mod:`repro.runtime.observability` — the federation observability
  plane: distributed tracing woven into the interceptor chains, the
  bounded structured event log, and gauge sampling
  (:class:`~repro.runtime.observability.Observability` per federation);
* :mod:`repro.runtime.node` — a federation node: one ORB endpoint with
  its own middleware services hosting a woven application;
* :mod:`repro.runtime.federation` — consistent-hash ring, sharded naming
  over per-node naming services, routed + metered inter-node invocation,
  and elastic membership: live ``join``/``retire`` with gated shard
  migration, fail-stop ``kill`` with replicated standby failover;
* :mod:`repro.runtime.scenarios` — built-in load scenarios mirroring the
  four examples (banking, auction, medical_records, component_shipping),
  each with a seeded client mix, fault campaign, and invariants;
* :mod:`repro.runtime.load` — open-loop load generation on a
  virtual-time event scheduler: arrival-rate schedules, Zipf key
  popularity, and the bounded-lateness driver hosting simulated users
  as array-backed state machines (millions of users, zero threads);
* :mod:`repro.runtime.harness` — the runner driving seeded clients
  against a federation and checking scenario invariants
  (``repro.cli simulate`` is its command-line front end).
"""

import importlib

from repro.runtime.dispatch import ConcurrentDispatcher, SerialDispatcher
from repro.runtime.federation import (
    Federation,
    FederationClient,
    HashRing,
    InvocationPipeline,
    ReplicaGroup,
    ReplicaManager,
    ShardedNamingService,
)
from repro.runtime.metrics import MetricsRegistry, percentile
from repro.runtime.node import Node
from repro.runtime.observability import (
    EventLog,
    GaugeBoard,
    LogHistogram,
    Observability,
    Span,
    TraceContext,
    Tracer,
)

#: names of the scenario runner and its scenarios, loaded on first use:
#: a node, worker or benchmark process never runs a scenario and should
#: not hold them in memory
_ON_FIRST_USE = {
    "RunConfig": "repro.runtime.harness",
    "ScenarioResult": "repro.runtime.harness",
    "ScenarioRunner": "repro.runtime.harness",
    "run_scenario": "repro.runtime.harness",
    "SCENARIOS": "repro.runtime.scenarios",
    "AsyncOp": "repro.runtime.scenarios",
    "Scenario": "repro.runtime.scenarios",
    "get_scenario": "repro.runtime.scenarios",
}


def __getattr__(name: str):
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "ConcurrentDispatcher",
    "SerialDispatcher",
    "Federation",
    "FederationClient",
    "HashRing",
    "InvocationPipeline",
    "ReplicaGroup",
    "ReplicaManager",
    "ShardedNamingService",
    "RunConfig",
    "ScenarioResult",
    "ScenarioRunner",
    "run_scenario",
    "MetricsRegistry",
    "percentile",
    "Node",
    "Observability",
    "Tracer",
    "TraceContext",
    "Span",
    "EventLog",
    "GaugeBoard",
    "LogHistogram",
    "SCENARIOS",
    "AsyncOp",
    "Scenario",
    "get_scenario",
]
